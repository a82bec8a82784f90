"""Search engine for S-Diophantine quadruples over two-prime sets {p, q}.

For S = {p, q} it derives a certified upper bound on log d, reduces it with
continued-fraction data, enumerates the remaining finite exponent box, and
reports every S-Diophantine triple and quadruple found.
"""

from .arith import PrimePair, SUnit, as_s_unit, is_prime, lb1_modulus, \
    lifting_constant, multiplicative_order, padic_valuation
from .diolog import CertifiedReal, Convergent, GapCertificate, PrecisionError, \
    PrecisionPolicy, certified_log, cf_convergents, linear_form_gap
from .reduce import ExponentBox, ReductionStep, ReductionTrace, exponent_box, \
    initial_bound, reduce_full, reduce_once
from .search import PairReport, QuadrupleWitness, Triple, brute_force_oracle, \
    enumerate_candidate_pairs, extend_to_quadruples, lemma_predicates, \
    search_pair, triples_from_pair

__version__ = "0.1.0"

__all__ = [
    "PrimePair", "SUnit", "as_s_unit", "is_prime", "lb1_modulus",
    "lifting_constant", "multiplicative_order", "padic_valuation",
    "CertifiedReal", "Convergent", "GapCertificate", "PrecisionError",
    "PrecisionPolicy", "certified_log", "cf_convergents", "linear_form_gap",
    "ExponentBox", "ReductionStep", "ReductionTrace", "exponent_box",
    "initial_bound", "reduce_full", "reduce_once",
    "PairReport", "QuadrupleWitness", "Triple", "brute_force_oracle",
    "enumerate_candidate_pairs", "extend_to_quadruples", "lemma_predicates",
    "search_pair", "triples_from_pair",
    "__version__",
]
