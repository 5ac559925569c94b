"""Seeded problem sets, the operation each workload times, and the checks
that judge every operation against ground truth built into its instance.

Shapes, families and in/out-of-range choices are fixed per workload; the seed
draws the matrix entries (and, in ``cli_small``, the scale of ``c``), so both
commits of a comparison time the same mix.  Ground truth never comes from
sylvcert: in-range right-hand sides are ``a x0 - x0 b`` and out-of-range ones
add a unit vector of the cokernel, found by an SVD of the benchmark's own
Kronecker operator.  Solutions are checked with the benchmark's own residual
``||a x - x b - c|| <= TOL * ((||a|| + ||b||) ||x|| + ||c||)``.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-8
# a cokernel singular value is zero below ZERO and the problem is
# well-posed only when every other one clears GAP (both relative to
# ||a|| + ||b||); otherwise the ground truth itself is fragile
ZERO = 1e-10
GAP = 1e-6
MAX_DRAWS = 20

EXIT_STATUS = {0: "solvable", 1: "unsolvable", 2: "ill_conditioned"}
EXIT_INTERNAL = 4


@dataclass
class Instance:
    name: str
    family: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    solvable: bool
    path: Path | None = None
    report: Path | None = None


@dataclass
class Outcome:
    """How one operation ended.

    ``wrong`` marks an answer the program asserted that the ground truth
    contradicts.  ``failed`` is ``wrong`` plus every other way an operation
    ends without a usable answer that the program did not declare itself:
    an exception out of the public API, a CLI exit code other than 0-2 and
    4, a missing report.  ``refused`` marks an operation the program
    declined: CLI exit 4 (internal error, e.g. ``WitnessError``), an
    ``ill_conditioned`` verdict, or a report whose ``checks`` hold a
    ``fail``.  Every instance is well-posed by construction, so each refusal
    is a shortfall of the program; it is reported as ``refused_frac``."""

    key: object
    failed: bool = False
    wrong: bool = False
    refused: bool = False
    ill_conditioned: bool = False
    unipotent_found: bool | None = None
    notes: list = field(default_factory=list)


# -- generation -------------------------------------------------------------

def _kron_operator(a, b):
    n, m = a.shape[0], b.shape[0]
    return np.kron(np.eye(m), a) - np.kron(b.T, np.eye(n))


def _rhs(rng, a, b, in_range: bool):
    """Right-hand side in or out of range, or None if the pair's cokernel
    is not cleanly separated from the rest of the spectrum."""
    n, m = a.shape[0], b.shape[0]
    x0 = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    c = a @ x0 - x0 @ b
    u, s, _ = np.linalg.svd(_kron_operator(a, b))
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    zero = s <= ZERO * scale
    if np.any(s[~zero] <= GAP * scale):
        return None
    if in_range:
        return c
    if not np.any(zero):
        raise ValueError("out-of-range right-hand side needs a singular pair")
    coeffs = rng.normal(size=int(zero.sum())) + 1j * rng.normal(size=int(zero.sum()))
    w = u[:, zero] @ coeffs
    return c + (w / np.linalg.norm(w)).reshape((n, m), order="F")


def _pair(rng, family, n, m, inst):
    if family == "jordan":
        return inst.shared_jordan_pair(rng, n, m)
    if family == "semisimple":
        return inst.shared_semisimple_pair(rng, n, m)
    if family == "regular":
        return inst.regular_pair(rng, n, m)
    raise ValueError(family)


def _draw(seed, index, family, n, m, in_range, inst, shift=False, scaled=False):
    for attempt in range(MAX_DRAWS):
        rng = np.random.default_rng([seed, index, attempt])
        a, b = _pair(rng, family, n, m, inst)
        c = _rhs(rng, a, b, in_range)
        if c is None:
            continue
        if shift:
            # moves both spectra out of the sector; the solution set is unchanged
            mu = rng.uniform(2.0, 4.0)
            a = a - mu * np.eye(n)
            b = b - mu * np.eye(m)
        if scaled:
            c = c * 10.0 ** rng.uniform(-16.0, 16.0)
        tag = "in" if in_range else "out"
        return Instance(name=f"{index:03d}-{family}-{n}x{m}-{tag}", family=family,
                        a=a, b=b, c=c, solvable=in_range)
    raise RuntimeError(f"no well-posed draw for instance {index} ({family} {n}x{m})")


def _one_cluster_specs():
    # five shapes of five instances each: the latency median falls in the
    # middle of the middle group and the 90th percentile inside the largest
    # one, never on the gap between two shapes
    shapes = [(12, 8), (12, 16), (16, 10), (20, 12), (20, 18)]
    specs = []
    for n, m in shapes:
        for family in ("jordan", "semisimple"):
            specs += [(family, n, m, True), (family, n, m, False)]
        specs.append(("regular", n, m, True))
    return specs


def _bridge_specs():
    return [(family, n, n, in_range)
            for n in range(6, 13)
            for family in ("jordan", "semisimple")
            for in_range in (True, False)]


def _cli_specs():
    specs = []
    families = ("jordan", "semisimple", "regular")
    for i in range(66):
        n, m = 1 + i % 6, 1 + (i // 6) % 6
        family = families[i % 3]
        in_range = family == "regular" or (i // 3) % 2 == 0
        specs.append((family, n, m, in_range, i % 5 == 0))
    return specs


def generate(workload: str, seed: int, inst) -> list:
    """The workload's instances for ``seed``; ``inst`` is sylvcert.instances."""
    if workload == "cli_small":
        return [_draw(seed, i, family, n, m, in_range, inst, shift=shift, scaled=True)
                for i, (family, n, m, in_range, shift) in enumerate(_cli_specs())]
    specs = {"one_cluster": _one_cluster_specs, "bridge": _bridge_specs}[workload]()
    return [_draw(seed, i, family, n, m, in_range, inst)
            for i, (family, n, m, in_range) in enumerate(specs)]


def fingerprint(instances) -> bytes:
    return b"".join(x.tobytes() for i in instances for x in (i.a, i.b, i.c))


def _pairs(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def write_problem_files(instances, directory: Path) -> None:
    (directory / "reports").mkdir(parents=True, exist_ok=True)
    for inst in instances:
        inst.path = directory / f"{inst.name}.json"
        inst.report = directory / "reports" / f"{inst.name}.json"
        doc = {"schema_version": "1", "a": _pairs(inst.a), "b": _pairs(inst.b),
               "c": _pairs(inst.c)}
        inst.path.write_text(json.dumps(doc), encoding="utf-8")


# -- independent checks ----------------------------------------------------------

def residual_ok(a, b, c, x) -> bool:
    residual = np.linalg.norm(a @ x - x @ b - c)
    scale = (np.linalg.norm(a) + np.linalg.norm(b)) * np.linalg.norm(x) + np.linalg.norm(c)
    return bool(np.isfinite(residual) and residual <= TOL * scale)


def _judge_status(inst, status, x, outcome) -> Outcome:
    if status == "ill_conditioned":
        outcome.refused = outcome.ill_conditioned = True
    elif status != ("solvable" if inst.solvable else "unsolvable"):
        outcome.failed = outcome.wrong = True
        outcome.notes.append(f"verdict {status}, expected the opposite")
    elif status == "solvable" and (x is None or not residual_ok(inst.a, inst.b, inst.c, x)):
        outcome.failed = outcome.wrong = True
        outcome.notes.append("solution fails the residual check")
    return outcome


def check_diagnose(inst, verdict) -> Outcome:
    status = verdict.status.value
    return _judge_status(inst, status, verdict.solution, Outcome(key=status))


def check_cli(inst, rc) -> Outcome:
    if rc == EXIT_INTERNAL:
        return Outcome(key=(rc, None), refused=True, notes=[f"exit code {rc}"])
    if rc not in EXIT_STATUS:
        return Outcome(key=(rc, None), failed=True, notes=[f"exit code {rc}"])
    if not inst.report.exists():
        return Outcome(key=(rc, None), failed=True, wrong=True,
                       notes=[f"exit code {rc} but no report written"])
    report = json.loads(inst.report.read_text(encoding="utf-8"))
    inst.report.unlink()
    status = report["verdict"]["status"]
    outcome = Outcome(key=(rc, status))
    if EXIT_STATUS[rc] != status:
        outcome.failed = outcome.wrong = True
        outcome.notes.append(f"exit code {rc} but report says {status}")
    checks = report["checks"]
    # system_consistency states the verdict itself: "fail" means inconsistent
    consistent = checks["system_consistency"]["status"] == "pass"
    if consistent != (status == "solvable"):
        outcome.failed = outcome.wrong = True
        outcome.notes.append("system_consistency disagrees with the verdict")
    for name, entry in checks.items():
        if name != "system_consistency" and entry["status"] == "fail":
            outcome.refused = True
            outcome.notes.append(f"check {name} failed")
    solution = report["verdict"]["solution"]
    x = None if solution is None else np.array(
        [[complex(re, im) for re, im in row] for row in solution])
    return _judge_status(inst, status, x, outcome)


def check_bridge(inst, result) -> Outcome:
    problem, x_basis, y_basis, triple, q_values = result
    a, b, c = inst.a, inst.b, inst.c
    outcome = Outcome(key=(len(x_basis), len(y_basis), tuple(triple), len(q_values)))
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    if not x_basis or not y_basis:
        outcome.failed = outcome.wrong = True
        outcome.notes.append("shared eigenvalue but empty nullspace")
    if any(np.linalg.norm(a @ x - x @ b) > TOL * scale * np.linalg.norm(x) for x in x_basis) \
            or any(np.linalg.norm(b @ y - y @ a) > TOL * scale * np.linalg.norm(y) for y in y_basis):
        outcome.failed = outcome.wrong = True
        outcome.notes.append("nullspace basis element is not an intertwiner")
    if tuple(triple) != (True, True, True):
        outcome.failed = outcome.wrong = True
        outcome.notes.append(f"homogeneous equivalence {triple}")
    if q_values and not inst.solvable:
        outcome.failed = outcome.wrong = True
        outcome.notes.append("unipotent solution for an unsolvable equation")
    if inst.solvable:
        outcome.unipotent_found = bool(q_values)
        # each q certifies x = a^-1 u b^2 + u b with u = (a^-1 c b^-1 - q) / 2
        # on the shifted pair; the shift leaves a x - x b unchanged
        pa, pb = problem.a, problem.b
        pair_sum = np.linalg.solve(pa, np.linalg.solve(pb.T, c.T).T)
        for q in q_values:
            u = 0.5 * (pair_sum - q)
            x = np.linalg.solve(pa, u @ pb @ pb) + u @ pb
            if not residual_ok(a, b, c, x):
                outcome.failed = outcome.wrong = True
                outcome.notes.append("unipotent solution yields a failing x")
    return outcome


# -- operations --------------------------------------------------------------

def operation(workload: str, sylvcert, devnull):
    """(op, check): ``op(inst)`` is the timed call, ``check(inst, result)``
    judges its result outside the timed region."""
    if workload == "one_cluster":
        return (lambda inst: sylvcert.diagnose(inst.a, inst.b, inst.c)), check_diagnose

    if workload == "bridge":
        def bridge(inst):
            p = sylvcert.prepare(inst.a, inst.b, inst.c)
            x_basis, y_basis = sylvcert.homogeneous_nullspaces(p)
            triple = sylvcert.homogeneous_equivalence(p)
            quad = sylvcert.solve_unipotent_quadratic(p)
            return p, x_basis, y_basis, triple, quad.q_values
        return bridge, check_bridge

    if workload == "cli_small":
        def cli(inst):
            with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
                return sylvcert.cli.main(["diagnose", str(inst.path), "--oracle",
                                          "-o", str(inst.report)])
        return cli, check_cli

    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("one_cluster", "cli_small", "bridge")
