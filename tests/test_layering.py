"""Static layering rules of the package, checked on its source with ``ast``.

The dense Kronecker oracle decides a x - x b = c alone, and corroborates
verdicts only while the main route shares no code with it; every Schur
factorization of a problem's pair is taken once, by ``prepare``, or by the
standalone quadrature check.  Which eigenvalues the spectra share is decided
by one rule, in ``gate``; ``singular.cluster_first`` alone applies it and
orders the Schur factors, once per pair, into the one ``SylvesterPair`` that
the decision and both kernels read; only ``singular`` builds a pair or reads
its cluster.  Each derived value has one home:
no report copies the cluster tolerance, the shift, the companion solution or
its offset.  The homogeneous kernel is read off the decision's factors,
never a dense SVD.  Inverses are applied by one solve
routine, never formed, and no dense solve is taken.  The root bridge reads
the companion solution and its offset off the problem, where each is taken
at most once, and searches on dense stacked arrays; no typed block-matrix
class or typed product exists.  The rank rule is taken where the data's
scale is known, by ``singular.cluster_first`` for a pair, the oracle and the
unsolvable-instance generator; ``numerics.lstsq_solve`` judges rank at the
cutoff its caller passes.  Each pair's shared block is factored by
one SVD, which every decision, the kernel and the cokernel apply:
``diagnose`` takes one, and a cokernel read after its kernel none.  A
cluster that widens to the whole spectra is the pair's cached widened pair,
factored once however many decisions widen.  One
bridge operation takes each Schur factorization once, one coupling decision
per sign class, one principal-root solve, two shared-block SVDs (the problem pair's, for both kernels,
and the squared pair's, for both decisions) and two block inversions, one
per principal root.  A decision that does not widen makes two triangular
Sylvester solves, block row 2 and block (1,2).  Outside the oracle a
Kronecker operator is built only by ``kron_vec_operator``, and the
homogeneous kernel solves no block that is zero at rhs = 0.  ``diagnose`` validates its input once,
factors each matrix once and applies every inverse as a solve on those
factors.  Every function the benchmark's tracer names exists.  Each CLI
subcommand only computes and returns its report; ``cli.main`` alone writes,
prints and maps errors to exit codes.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import sys

import numpy as np
import pytest

import sylvcert
from sylvcert.instances import rhs_in_range, rhs_outside_range, shared_jordan_pair
from sylvcert import cli, gate
from sylvcert.io import problem_to_dict, serialize_report
from sylvcert.roots import (_branch_roots, block_roots, homogeneous_equivalence,
                            homogeneous_nullspaces, solve_unipotent_quadratic,
                            unipotent_bridge_check)
from sylvcert.gate import GateReport
from sylvcert.singular import (UVSystemReport, UVWitness, Verdict, decide_sylvester, diagnose,
                               prepare)

PACKAGE = pathlib.Path(sylvcert.__file__).parent
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"
ORACLE_FREE = ("roots", "regular", "gate", "blockalg", "numerics", "cli")
# the root bridge takes its roots from the problem's factors by schur_sqrt
SCHUR_CALLERS = {("singular", "prepare"), ("regular", "companion_solve_quadrature")}


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
    # the main route builds its operators through numerics.kron_vec_operator;
    # the oracle takes its own products through its private _kron
    assert callers_of("_kron") == {("oracle", "build_operator")}
    assert callers_of("kron") == set()


def test_rank_cutoff_taken_only_where_the_data_scale_is_known():
    # the pair's one cutoff, the oracle's and the test generator's; the SVD
    # entry judges rank at the cutoff its caller passes
    assert callers_of("rank_cutoff") == {("singular", "cluster_first"),
                                         ("oracle", "oracle_solve"),
                                         ("instances", "rhs_outside_range")}
    assert set(inspect.signature(sylvcert.lstsq_solve).parameters) == {"K", "cutoff"}


def test_complex_schur_called_only_where_factors_are_made():
    assert callers_of("complex_schur") == SCHUR_CALLERS


def test_inverses_are_applied_by_one_solve_routine():
    # the root bridge inverts the two principal roots, and instance
    # generators build test data from a similarity and its inverse
    assert {caller for caller in callers_of("inv") if caller[0] != "instances"} \
        == {("blockalg", "_inverse_block")}
    # no dense solve: the root bridge's similarity is I + e with e^2 = 0
    assert callers_of("solve") == set()


def test_bridge_reads_companion_and_offset_off_the_problem():
    for function in (block_roots, solve_unipotent_quadratic, _branch_roots):
        assert not {"companion", "offset"} & set(inspect.signature(function).parameters)


# the typed block algebra: every block operand is dense and block upper
# triangular, where the typed product is the ordinary one
RETIRED_BLOCK_NAMES = ("BlockMatrix", "block_mul", "diag_embed")
# exports that only tests read: the decision's one companion route is
# numerics.schur_sylvester on the problem's Schur factors, whose diagonals
# are the spectra, and every b^-1 is numerics.schur_solve on those factors;
# the paper-identity checks live in the tests that read them
RETIRED_TEST_ONLY_NAMES = (
    "CommutantMembership", "SpectrumReport", "classify_triangular_commutant",
    "commutator_identity_verdict", "companion_solve_direct", "complete_intertwined_pair",
    "eigenvalues", "principal_sqrt", "reduced_singular_routes", "solve_generalized_regular",
    "solve_left", "solve_right", "solve_uv_system", "verify_commutant_identity",
    "verify_unipotent_identity")
# the oracle decides a x - x b = c alone; the tests keep the paper's other
# equations as their own references
RETIRED_ORACLE_NAMES = ("EQUATIONS", "_EQUATION_DEGREE", "_decide")
# prepare orders the factors cluster first once, the kernel returns the
# phase-fixed, read-only basis itself, and each cluster's shared block is
# factored once per pair, by SylvesterPair.shared_svd, a widened cluster
# on the pair's cached SylvesterPair.widened
RETIRED_CLUSTER_NAMES = ("_shared_first", "intertwiner_basis", "_shared_block_lstsq",
                         "_factor_shared_block", "_shared_svd")


@pytest.mark.parametrize("name", RETIRED_BLOCK_NAMES + RETIRED_TEST_ONLY_NAMES
                         + RETIRED_ORACLE_NAMES + RETIRED_CLUSTER_NAMES)
def test_no_module_defines_or_imports_a_retired_name(name):
    assert name not in sylvcert.__all__
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert name not in defined | names_in(tree), path.stem


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.stem, imported - used)


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
    # the spectra are the diagonals of the factors prepare took
    p = prepare(*bridge_data())
    calls = counted(monkeypatch, ("complex_schur",))
    block_roots(p)
    assert solve_unipotent_quadratic(p).q_values
    assert calls == {"complex_schur": 0}


def test_bridge_operation_factors_each_shared_block_once(monkeypatch):
    # the problem pair's SVD serves both kernels, the squared pair's both
    # sign classes' couplings
    calls = counted(monkeypatch, ("decide_sylvester", "lstsq_solve", "_inverse_block"))
    p = prepare(*bridge_data())
    homogeneous_nullspaces(p)
    assert homogeneous_equivalence(p) == (True, True, True)
    assert solve_unipotent_quadratic(p).q_values
    assert calls == {"decide_sylvester": 2, "lstsq_solve": 2, "_inverse_block": 2}


def test_each_pair_factors_its_shared_block_once(monkeypatch):
    # a decision, the kernel and the cokernel apply the pair's one SVD; the
    # cokernel's factors are the kernel's, swapped
    calls = counted(monkeypatch, ("lstsq_solve",))
    assert diagnose(*bridge_data()).status.value == "solvable"
    assert calls == {"lstsq_solve": 1}
    p = prepare(*bridge_data())
    assert p.kernel
    assert calls == {"lstsq_solve": 2}
    assert p.cokernel
    assert calls == {"lstsq_solve": 2}


def test_a_widened_cluster_is_factored_once_per_pair(monkeypatch):
    # with a cluster tolerance below the Jordan splitting, out-of-range
    # right-hand sides widen to the whole spectra; every widening decision
    # on the pair applies its widened pair's one SVD
    monkeypatch.setattr(gate, "CLUSTER_TOLERANCE_FACTOR", 1e-15)
    rng = np.random.default_rng(5)
    a, b = shared_jordan_pair(rng, 4, 3)
    p = prepare(a, b, rhs_in_range(rng, a, b))
    calls = counted(monkeypatch, ("lstsq_solve",))
    for _ in range(2):
        assert decide_sylvester(p, rhs_outside_range(rng, p.a, p.b)).cluster_sizes == (4, 3)
    assert calls == {"lstsq_solve": 1}


def test_decision_makes_two_trsyl_calls_when_it_does_not_widen(monkeypatch):
    # block row 2 in one solve, then the shared block by least squares,
    # then block (1,2)
    p = prepare(*bridge_data())
    rhs = p.reduced
    calls = counted(monkeypatch, ("triangular_sylvester",))
    report = decide_sylvester(p, rhs)
    assert 0 < report.cluster_sizes[0] < p.n and report.cluster_sizes == p.cluster
    assert calls == {"triangular_sylvester": 2}


def test_the_cluster_is_marked_once_per_pair(monkeypatch):
    # prepare marks it for the gate; the (u, v) decision and both intertwiner
    # bases read it off the problem, and only the bridge's coupling on the
    # squared pair marks its own
    calls = counted(monkeypatch, ("shared_eigenvalues",))
    assert diagnose(*bridge_data()).status.value == "solvable"
    assert calls == {"shared_eigenvalues": 1}
    p = prepare(*bridge_data())
    homogeneous_nullspaces(p)
    assert homogeneous_equivalence(p) == (True, True, True)
    assert solve_unipotent_quadratic(p).q_values
    assert calls == {"shared_eigenvalues": 3}


def test_the_cluster_is_ordered_only_by_cluster_first(monkeypatch):
    # prepare orders the problem's pair and the bridge its squared pair;
    # the decision and both kernels reorder nothing
    assert callers_of("cluster_first") == {("singular", "prepare"),
                                           ("roots", "solve_unipotent_quadratic")}
    for callee in ("reorder_schur", "shared_eigenvalues"):
        assert callers_of(callee) == {("singular", "cluster_first")}, callee
    calls = counted(monkeypatch, ("reorder_schur",))
    assert diagnose(*bridge_data()).status.value == "solvable"
    assert calls == {"reorder_schur": 2}
    p = prepare(*bridge_data())
    homogeneous_nullspaces(p)
    assert homogeneous_equivalence(p) == (True, True, True)
    assert solve_unipotent_quadratic(p).q_values
    assert calls == {"reorder_schur": 2 + 4}


def test_only_singular_builds_a_pair_or_reads_its_cluster():
    # the layout of the cluster tuple, and the swap of the cokernel's pair,
    # live behind one module
    assert {module for module, _ in callers_of("SylvesterPair")} == {"singular"}
    readers = {path.stem for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "cluster"}
    assert readers == {"singular"}


@pytest.mark.parametrize("cls, copies", [
    (GateReport, {"suggested_lambda"}),
    (UVSystemReport, {"cluster_tolerance"}),
    (Verdict, {"cluster_tolerance"}),
    (UVWitness, {"companion", "offset"}),
], ids=["gate", "decision", "verdict", "witness"])
def test_no_result_copies_a_value_the_problem_holds(cls, copies):
    assert not copies & {field.name for field in dataclasses.fields(cls)}


def test_kernel_extends_each_null_vector_by_one_trsyl(monkeypatch):
    # the blocks that are zero at rhs = 0 are not solved for
    calls = counted(monkeypatch, ("triangular_sylvester",))
    p = prepare(*bridge_data())
    x_basis, y_basis = p.kernel, p.cokernel
    assert x_basis and y_basis
    assert calls == {"triangular_sylvester": len(x_basis) + len(y_basis)}


def test_diagnose_factors_once_and_solves_on_the_factors(monkeypatch):
    # each matrix is factored once and every inverse is a solve on those
    # factors; the copies are prepare's (a, b, c), which the certificate
    # reads unshifted too, and the exported kron_vec_operator (a, b) and
    # lstsq_solve (K) checking their own input on the one shared block of
    # this pair
    calls = counted(monkeypatch, ("complex_schur", "as_complex_matrix"))
    assert diagnose(*bridge_data()).status.value == "solvable"
    assert calls == {"complex_schur": 2, "as_complex_matrix": 6}



def test_only_the_cli_main_writes_prints_or_catches():
    # a subcommand returns (report, summary lines, exit code); one place
    # writes the report, prints the summary and maps an error to its code
    doers = set()
    for function in parse("cli").body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            target = node.func if isinstance(node, ast.Call) else None
            name = target.attr if isinstance(target, ast.Attribute) else \
                getattr(target, "id", None)
            if isinstance(node, ast.ExceptHandler) or name in {"print", "write_text"}:
                doers.add(function.name)
    assert doers == {"main"}


def test_roots_command_takes_the_companion_and_offset_once(monkeypatch, tmp_path):
    # the root search and the (u, v) decision read them off one problem
    path = tmp_path / "problem.json"
    path.write_text(serialize_report(problem_to_dict(*bridge_data())), encoding="utf-8")
    calls = counted(monkeypatch, ("compute_offset", "reduced_rhs"))
    assert cli.main(["roots", str(path)]) == 0
    assert calls == {"compute_offset": 1, "reduced_rhs": 1}


def test_bridge_check_reuses_the_diagnosed_companion_and_offset(monkeypatch):
    calls = counted(monkeypatch, ("compute_offset", "reduced_rhs"))
    verdict = diagnose(*bridge_data())
    assert unipotent_bridge_check(verdict)["status"] == "pass"
    assert calls == {"compute_offset": 1, "reduced_rhs": 1}


def test_unsolvable_verdict_takes_no_offset(monkeypatch):
    rng = np.random.default_rng(101)
    a, b = shared_jordan_pair(rng, 6, 6)
    calls = counted(monkeypatch, ("compute_offset", "reduced_rhs"))
    assert diagnose(a, b, rhs_outside_range(rng, a, b)).status.value == "unsolvable"
    assert calls == {"compute_offset": 0, "reduced_rhs": 1}


def tracer_targets() -> set:
    """The (module, function name) pairs the benchmark's tracer resolves by
    name, read from its source without importing it: each module of
    ``MODULES`` (name None) and each entry of ``EXTRA_TARGETS``."""
    values = {node.targets[0].id: node.value
              for node in ast.parse(TRACING.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    return ({(module, None) for module in ast.literal_eval(values["MODULES"])}
            | set(ast.literal_eval(values["EXTRA_TARGETS"])))


def test_every_name_the_benchmark_traces_resolves():
    targets = tracer_targets()
    assert {("roots", "block_roots"), ("oracle", "build_operator")} <= targets
    for module, name in targets:
        namespace = importlib.import_module(f"sylvcert.{module}")
        assert name is None or inspect.isfunction(getattr(namespace, name, None)), (module, name)
