"""Every definition in the package has a caller in the package.

Code that only tests use belongs in `oracles.py`, not in `casweep`.  This
walks the syntax trees of the package modules (not `__init__.py`, whose
re-exports call nothing) and lists each function, method and class whose
name no module reads, as a plain name or as an attribute.  Matching is by
name alone, so a definition sharing its name with a used one passes.
It also checks that neither a package module nor `oracles.py` imports
a package module's private, underscore-prefixed names (an oracle that runs
the code it checks checks nothing), and that a test reaches every oracle,
directly or through other oracles.
"""

import ast
from pathlib import Path

from test_traced_names import traced_functions

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "casweep"
ORACLES = TESTS / "oracles.py"

# Definitions kept without a caller in the package, each with its reason.
TRACED = "BENCHMARK.json traces it as a per-layer metric"
ALLOWED = {
    "builtin_rule": "loads a bundled local rule by name: the data files' "
                    "public entry",
    "builtin_block_rule": "loads a bundled block rule by name: the data "
                          "files' public entry",
    "lambda_value": "the README quick start computes lambda with it",
    "is_strong_left_closing_radius": TRACED,
    "trim": TRACED,
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
    assert _unreferenced() == set(ALLOWED)


def _private_imports() -> set[str]:
    """'module: name' for each underscore name a package module or the
    oracles import from a package module, or read as an attribute of a
    package module they import."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")) + [ORACLES]:
        tree = ast.parse(path.read_text(), str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("casweep")):
                found |= {f"{path.stem}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")}
                if node.module in (None, "casweep"):
                    modules |= {alias.asname or alias.name
                                for alias in node.names}
        found |= {f"{path.stem}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")}
    return found


def test_no_module_imports_another_modules_private_names():
    # a helper another module needs is public, or moves next to its caller;
    # an oracle restates it instead
    assert _private_imports() == set()


def _oracle_reads() -> dict[str, set[str]]:
    """Each top-level function and class of the oracles, with the plain
    names its body reads."""
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    return {node.name: {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name)}
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def _names_tests_import_from_oracles() -> set[str]:
    found = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                found |= {alias.name for alias in node.names}
    return found


def test_every_oracle_is_reached_from_a_test():
    # an oracle no test reaches, not even through another oracle, checks
    # nothing: delete it
    reads = _oracle_reads()
    reached = set()
    frontier = [name for name in _names_tests_import_from_oracles()
                if name in reads]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier += [n for n in reads[name] if n in reads]
    assert set(reads) - reached == set()


def test_traced_exemptions_are_traced():
    # once the benchmark stops tracing one, it needs a caller or goes
    traced = {function.split(".")[1] for function in traced_functions()}
    assert {name for name, reason in ALLOWED.items()
            if reason == TRACED} <= traced
