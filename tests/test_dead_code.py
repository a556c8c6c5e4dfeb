"""Every definition in the package has a caller in the package.

Code that only tests use belongs in `oracles.py`, not in `casweep`.  This
walks the syntax trees of the package modules (not `__init__.py`, whose
re-exports call nothing) and lists each function, method and class whose
name no module reads, as a plain name or as an attribute.  Matching is by
name alone, so a definition sharing its name with a used one passes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "casweep"

# Definitions kept without a caller in the package, each for its reason.
ALLOWED = {
    # loads a bundled local rule by name: the data files' public entry
    "builtin_rule",
    # loads a bundled block rule by name: the data files' public entry
    "builtin_block_rule",
    # the README quick start computes lambda with it
    "lambda_value",
    # BENCHMARK.json traces it as a per-layer metric
    "is_strong_left_closing_radius",
    # BENCHMARK.json traces it
    "trim",
    # the documented decode of the stair codes into (v, w) word pairs
    "StairSet.pairs",
}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name) of the functions and classes under a node."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _unreferenced() -> set[str]:
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        defined += _definitions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {qualified for qualified, name in defined
            if name not in read
            and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_has_a_caller():
    # an extra name on the left has no caller: delete it or move it to the
    # oracles; one on the right has gained a caller: drop it from ALLOWED
    assert _unreferenced() == ALLOWED
