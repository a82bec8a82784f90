"""Search engine for S-Diophantine quadruples over two-prime sets {p, q}.

For S = {p, q} it derives a certified upper bound on log d, reduces it with
continued-fraction data, enumerates the remaining finite exponent box, and
reports every S-Diophantine triple and quadruple found.  Import from the
submodules: arith, diolog, reduce, search and campaign.
"""

__version__ = "0.1.0"
