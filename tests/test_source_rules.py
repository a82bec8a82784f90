"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sqsearch"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a correctness check written as
    # one would silently stop running; checks must raise explicitly.
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_exported_name_is_defined_in_its_module():
    # A name deleted from a module but left in its __all__ breaks
    # `from module import *` only when someone tries it.  Imported names do
    # not count: the package is used through its submodules, not re-exports.
    stale = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = _defined_names(tree)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                stale += [f"{path.name}: {name}" for name in ast.literal_eval(node.value)
                          if name not in defined]
    assert stale == []


def test_every_top_level_import_is_used():
    # An import left behind by a deletion still loads its module and reads
    # as a dependency that is not there.  `from __future__` imports are
    # compiler directives, not names.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in bound
                           if name not in used]
    assert unused == []


def _outside_functions(node: ast.AST):
    # Every node that runs when the module is imported: function bodies are
    # skipped, class bodies and module-level if/try blocks are not.
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def test_multiprocessing_is_not_imported_at_module_level():
    # Only a sweep at workers > 1 forks.  Imported with a module, the package
    # adds about 1 MB to the resident size of every other command, and the
    # benchmark bounds peak_rss_mb at 10%; campaign imports it in _run_strides.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _outside_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] == "multiprocessing"]
    assert found == []


def test_only_the_checkpoint_module_parses_json():
    # The record format has one reader, so a sweep's resume and a report
    # cannot read a record differently.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "loads"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(a.name == "loads" for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found and all(f.startswith("checkpoint.py:") for f in found), found
