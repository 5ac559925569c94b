"""Static layering rules of the package, checked on its source with ``ast``.

The dense Kronecker oracle corroborates verdicts only while the main route
shares no code with it, and every Schur factorization of a problem's pair is
taken once, by ``prepare``, or by a standalone public solver.  Which
eigenvalues the spectra share is decided by one rule, in ``gate``, and the
homogeneous kernel is read off the decision's factors, never a dense SVD.
Inverses are applied by one solve routine, never formed, and the root
bridge reads the companion solution and its offset off the problem and
searches on dense stacked arrays; no typed block-matrix class or typed
product exists.  One bridge operation takes each factorization once: one
coupling decision for all four branches, three least-squares solves (the two
kernels and that decision) and two block inversions, one per principal root.
Outside the oracle a Kronecker operator is built only by
``kron_vec_operator``, and the homogeneous kernel solves no block that is
zero at rhs = 0.
"""

import ast
import inspect
import pathlib
import sys

import numpy as np

import sylvcert
from sylvcert.instances import rhs_in_range, shared_jordan_pair
from sylvcert.roots import (block_roots, homogeneous_equivalence, homogeneous_nullspaces,
                            solve_unipotent_quadratic, verify_unipotent_identity)
from sylvcert.singular import prepare, sylvester_kernel

PACKAGE = pathlib.Path(sylvcert.__file__).parent
ORACLE_FREE = ("roots", "regular", "gate", "blockalg", "numerics", "cli")
# principal_sqrt makes the factors of a matrix that has none; the root
# bridge takes its roots from the problem's factors by schur_sqrt
SCHUR_CALLERS = {("singular", "prepare"), ("regular", "companion_solve_direct"),
                 ("regular", "solve_generalized_regular"), ("numerics", "principal_sqrt")}


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


def names_in(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
            names.update(alias.asname for alias in node.names if alias.asname)
    return names


def test_roots_takes_no_dense_kernel():
    assert not names_in(parse("roots")) & {"svd", "kron_vec_operator", "rank_cutoff"}


def test_cluster_tolerance_assigned_only_in_gate():
    assigners = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
            if any(getattr(target, "id", None) == "CLUSTER_TOLERANCE_FACTOR"
                   for target in targets):
                assigners.add(path.stem)
    assert assigners == {"gate"}
    # and the gate defines no second intersection rule beside shared_eigenvalues
    defined = {node.name for node in ast.walk(parse("gate"))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"default_intersection_tolerance", "gate_report",
                          "spectra_intersect", "SectorParams"}


def callers_of(callee: str) -> set:
    """(module, function) pairs whose body calls ``callee`` by name or attribute."""
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
                    if name == callee:
                        callers.add((path.stem, function.name))
    return callers


def test_kronecker_products_taken_only_by_the_oracle():
    # the main route builds its operators through numerics.kron_vec_operator
    assert callers_of("kron") == {("oracle", "build_operator"), ("oracle", "oracle_solve")}


def test_complex_schur_called_only_where_factors_are_made():
    assert callers_of("complex_schur") == SCHUR_CALLERS


def test_inverses_are_applied_by_one_solve_routine():
    # the root bridge inverts the two principal roots, and instance
    # generators build test data from a similarity and its inverse
    assert {caller for caller in callers_of("inv") if caller[0] != "instances"} \
        == {("blockalg", "_inverse_block")}
    # the oracle keeps its own operators
    assert callers_of("solve") == {("numerics", "solve_left"), ("oracle", "oracle_solve")}


def test_bridge_reads_companion_and_offset_off_the_problem():
    for function in (block_roots, solve_unipotent_quadratic, verify_unipotent_identity):
        assert not {"companion", "offset"} & set(inspect.signature(function).parameters)


RETIRED_BLOCK_NAMES = {"BlockMatrix", "block_mul", "diag_embed"}


def test_no_module_defines_or_imports_the_typed_block_algebra():
    # every block operand is dense and block upper triangular, where the
    # typed product is the ordinary one
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not (defined | names_in(tree)) & RETIRED_BLOCK_NAMES, path.stem


def counted(monkeypatch, names) -> dict:
    """Call counts of the named sylvcert functions, swapped for a counting
    spy in every sylvcert namespace that holds them."""
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    modules = [module for key, module in sys.modules.items() if key.startswith("sylvcert")]
    for name in names:
        original = next(getattr(module, name) for module in modules if hasattr(module, name))
        spy = counting(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls


def bridge_data():
    rng = np.random.default_rng(101)
    a, b = shared_jordan_pair(rng, 6, 6)
    return a, b, rhs_in_range(rng, a, b)


def test_root_search_takes_no_eigenvalues(monkeypatch):
    calls = counted(monkeypatch, ("eigenvalues",))
    p = prepare(*bridge_data())
    block_roots(p)
    assert solve_unipotent_quadratic(p).q_values
    assert calls == {"eigenvalues": 0}


def test_bridge_operation_factors_once(monkeypatch):
    calls = counted(monkeypatch, ("decide_sylvester", "lstsq_solve", "_inverse_block"))
    p = prepare(*bridge_data())
    homogeneous_nullspaces(p)
    assert homogeneous_equivalence(p) == (True, True, True)
    assert solve_unipotent_quadratic(p).q_values
    assert calls == {"decide_sylvester": 1, "lstsq_solve": 3, "_inverse_block": 2}


def test_kernel_extends_each_null_vector_by_one_trsyl(monkeypatch):
    # the blocks that are zero at rhs = 0 are not solved for
    calls = counted(monkeypatch, ("triangular_sylvester",))
    p = prepare(*bridge_data())
    x_basis = sylvester_kernel(p.a, p.b, p.schur_a, p.schur_b)
    y_basis = sylvester_kernel(p.b, p.a, p.schur_b, p.schur_a)
    assert x_basis and y_basis
    assert calls == {"triangular_sylvester": len(x_basis) + len(y_basis)}
