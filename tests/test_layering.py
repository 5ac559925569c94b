"""Static layering rules of the package, checked on its source with ``ast``.

The dense Kronecker oracle corroborates verdicts only while the main route
shares no code with it, and every Schur factorization of a problem's pair is
taken once, by ``prepare``, or by a standalone public solver.
"""

import ast
import pathlib

import sylvcert

PACKAGE = pathlib.Path(sylvcert.__file__).parent
ORACLE_FREE = ("roots", "regular", "gate", "blockalg", "numerics", "cli")
SCHUR_CALLERS = {("singular", "prepare"), ("regular", "companion_solve_direct"),
                 ("regular", "solve_generalized_regular")}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imported_modules(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_main_route_imports_nothing_from_the_oracle():
    for module in ORACLE_FREE:
        offending = {name for name in imported_modules(parse(module))
                     if "oracle" in name.split(".")}
        assert not offending, (module, offending)


def test_complex_schur_called_only_where_factors_are_made():
    callers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    target = node.func
                    name = target.attr if isinstance(target, ast.Attribute) else \
                        getattr(target, "id", None)
                    if name == "complex_schur":
                        callers.add((path.stem, function.name))
    assert callers == SCHUR_CALLERS
