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
