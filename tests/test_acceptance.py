"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Instances are desk scale (n, m <= 5) drawn
from seeded generators; counts per criterion match the stated minimums.
"""

import numpy as np
import pytest

from sylvcert.blockalg import block_upper
from sylvcert.cli import main
from sylvcert.instances import (matrix_with_eigenvalues, random_sector_eigenvalues,
                                regular_pair, rhs_in_range, rhs_outside_range,
                                shared_jordan_pair, shared_semisimple_pair)
from sylvcert.io import parse_report, problem_to_dict, serialize_report
from sylvcert.numerics import frob, schur_sylvester
from sylvcert.oracle import oracle_solve
from sylvcert.regular import companion_solve_quadrature, compute_offset, reduced_rhs
from sylvcert.roots import (block_roots, homogeneous_equivalence,
                            homogeneous_nullspaces, solve_unipotent_quadratic)
from sylvcert.singular import VerdictStatus, diagnose, prepare

from conftest import (companion_solution, dense_lstsq, pair_equation_residuals,
                      pair_equation_rows)

SEED = 735001


def report(criterion, label, passed):
    print(f"ACCEPTANCE {criterion:>2} [{'PASS' if passed else 'FAIL'}] {label}")
    assert passed, f"criterion {criterion}: {label}"


def random_dims(rng, low=1, high=6):
    return int(rng.integers(low, high)), int(rng.integers(low, high))


def singular_pair(rng, n, m):
    if rng.uniform() < 0.5:
        return shared_jordan_pair(rng, n, m)
    return shared_semisimple_pair(rng, n, m)


@pytest.fixture(scope="module")
def labeled_runs():
    """240 diagnoses across the four engineered singular families, with the
    oracle cross-check attached; shared by criteria 3 and 4."""
    rng = np.random.default_rng(SEED)
    runs = []
    for index in range(240):
        n, m = random_dims(rng, 1, 6)
        structure = ("jordan", "semisimple")[index % 2]
        label = ("in_range", "outside_range")[(index // 2) % 2]
        if structure == "jordan":
            a, b = shared_jordan_pair(rng, n, m)
        else:
            a, b = shared_semisimple_pair(rng, n, m)
        c = rhs_in_range(rng, a, b) if label == "in_range" else rhs_outside_range(rng, a, b)
        verdict = diagnose(a, b, c, with_oracle=True)
        runs.append((structure, label, (a, b, c), verdict))
    return runs


def test_criterion_1_regular_case_correctness():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    for _ in range(100):
        n, m = random_dims(rng, 1, 6)
        a, b = regular_pair(rng, n, m)
        c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        p = prepare(a, b, c)
        result = oracle_solve(p.a, p.b, p.c)
        if result.nullity != 0 or result.solution is None:
            ok = False
            break
        x = result.solution
        bound = 1e-9 * (frob(p.a) + frob(p.b)) * frob(x) + 1e-12
        if frob(p.a @ x - x @ p.b - p.c) > bound:
            ok = False
            break
    report(1, "regular instances: unique solution within 1e-9 relative residual", ok)


def test_criterion_2_integral_formula_validation():
    rng = np.random.default_rng(SEED + 2)
    ok = True
    for _ in range(50):
        n, m = random_dims(rng, 1, 5)
        a = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, n))
        b = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, m))
        c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        direct = companion_solution(a, b, c)
        quadrature = companion_solve_quadrature(a, b, c).solution
        if frob(direct - quadrature) > 1e-8 * max(frob(direct), 1e-30):
            ok = False
            break
    report(2, "quadrature companion solve matches direct within 1e-8 relative", ok)


def test_criterion_3_singular_verdict_matches_oracle(labeled_runs):
    decided = [run for run in labeled_runs
               if run[3].status is not VerdictStatus.ILL_CONDITIONED]
    agreement = all(run[3].oracle_agreement for run in decided)
    enough = len(labeled_runs) >= 200 and len(decided) >= 0.9 * len(labeled_runs)
    report(3, f"verdict = oracle on {len(decided)}/{len(labeled_runs)} decided "
              "singular instances", agreement and enough)


def test_criterion_4_certified_solutions(labeled_runs):
    ok = True
    solvable_count = 0
    for _, _, (a, b, c), verdict in labeled_runs:
        if verdict.status is not VerdictStatus.SOLVABLE:
            continue
        solvable_count += 1
        x = verdict.solution
        scale = (frob(a) + frob(b)) * frob(x) + frob(c) + 1e-300
        if frob(a @ x - x @ b - c) > 1e-8 * scale:
            ok = False
            break
        if verdict.witness.residuals["solution_formula_gap"] > 1e-8 * (2 * frob(x) + 1e-300):
            ok = False
            break
    report(4, f"all {solvable_count} solvable verdicts certified "
              "(residual and formula agreement within 1e-8 scale)", ok and solvable_count > 50)


def test_criterion_5_pair_cascade():
    rng = np.random.default_rng(SEED + 5)
    tol = 1e-8
    ok = True
    pairs_checked = 0
    for index in range(30):
        n, m = random_dims(rng, 1, 5)
        a, b = singular_pair(rng, n, m)
        solvable = index % 3 != 2
        c = rhs_in_range(rng, a, b) if solvable else rhs_outside_range(rng, a, b)
        p = prepare(a, b, c)
        companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
        offset = compute_offset(p, companion, reduced_rhs(p, companion))
        rows = pair_equation_rows(p.a, p.b, companion, offset, p.c)
        keys = list(rows)
        scale = (frob(companion) + frob(offset)
                 + (1 + frob(p.a)) ** 3 + (1 + frob(p.b)) ** 3)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                K = np.vstack([rows[keys[i]][0], rows[keys[j]][0]])
                rhs = np.concatenate([rows[keys[i]][1], rows[keys[j]][1]])
                _, z, _ = dense_lstsq(K, rhs)
                v = z[: p.n * p.m].reshape((p.n, p.m), order="F")
                u = z[p.n * p.m:].reshape((p.n, p.m), order="F")
                residuals = pair_equation_residuals(p.a, p.b, companion, offset, p.c, u, v)
                both_pass = (residuals[keys[i]] <= tol * scale
                             and residuals[keys[j]] <= tol * scale)
                if both_pass:
                    pairs_checked += 1
                    if any(residuals[key] > 10 * tol * scale for key in keys):
                        ok = False
                if both_pass != solvable:
                    # every pair decides solvability, including the
                    # swapped-sum + cubic pair under the pi/3 sector gate
                    ok = False
    report(5, f"any-two-pass implies all-four-pass at 10x tolerance "
              f"({pairs_checked} consistent pairs)", ok and pairs_checked >= 60)


def test_criterion_6_commutator_identity_obstruction():
    """a x - x a = I is never solvable: the left side has zero trace in
    every matrix representation, the right side does not."""
    rng = np.random.default_rng(SEED + 6)
    ok = True
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, n))
        verdict = diagnose(a, a, np.eye(n), with_oracle=True)
        if verdict.status is not VerdictStatus.UNSOLVABLE or not verdict.oracle_agreement:
            ok = False
            break
    report(6, "a x - x a = I declared unsolvable for 20 random in-sector a", ok)


def test_criterion_7_three_way_equivalence():
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for _ in range(50):
        n, m = random_dims(rng, 1, 6)
        a, b = singular_pair(rng, n, m)
        p = prepare(a, b, np.zeros((n, m)))
        nullity = len(homogeneous_nullspaces(p)[0])
        triple = homogeneous_equivalence(p)
        if len(set(triple)) != 1 or triple[0] != (nullity > 0):
            ok = False
            break
    report(7, "nonzero intertwiner <=> nonprimary root <=> nontrivial commutant "
              "on 50 singular instances", ok)


def test_criterion_8_square_root_identities():
    rng = np.random.default_rng(SEED + 8)
    ok = True
    unipotent_found = 0
    for index in range(30):
        n, m = random_dims(rng, 1, 5)
        a, b = singular_pair(rng, n, m)
        solvable = index % 3 != 2
        c = rhs_in_range(rng, a, b) if solvable else rhs_outside_range(rng, a, b)
        p = prepare(a, b, c)
        companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
        offset = compute_offset(p, companion, reduced_rhs(p, companion))
        base = block_upper(p.a, -companion, -p.b)
        for root in block_roots(p):
            if frob(root @ root - base) > 1e-9 * max(frob(base), 1e-30):
                ok = False
        quad = solve_unipotent_quadratic(p)
        for y in quad.y_solutions:
            residual = frob(y @ quad.base @ y - quad.target)
            if residual > 1e-8 * max(frob(quad.target), 1.0) * (1 + frob(y)) ** 2:
                ok = False
        if solvable:
            if not quad.q_values:
                ok = False
            else:
                unipotent_found += 1
                q = quad.q_values[0]
                scale = frob(offset) + (frob(p.a) + frob(p.b)) * frob(q) + 1e-300
                if frob(q @ p.b - p.a @ q - offset) > 1e-8 * scale:
                    ok = False
    report(8, f"all branch roots square back, all Y solve the quadratic, "
              f"unipotent certificate found on {unipotent_found} solvable instances",
           ok and unipotent_found >= 15)


def test_criterion_9_shift_invariance():
    rng = np.random.default_rng(SEED + 9)
    ok = True
    for index in range(20):
        n, m = random_dims(rng, 1, 5)
        a, b = singular_pair(rng, n, m)
        solvable = index % 2 == 0
        c = rhs_in_range(rng, a, b) if solvable else rhs_outside_range(rng, a, b)
        mu = float(rng.uniform(0.0, 4.0))
        base = diagnose(a, b, c)
        shifted = diagnose(a + mu * np.eye(n), b + mu * np.eye(m), c)
        if base.status != shifted.status:
            ok = False
            break
        if base.status is VerdictStatus.SOLVABLE:
            if (base.certificate_residual > base.certificate_threshold
                    or shifted.certificate_residual > shifted.certificate_threshold):
                ok = False
                break
    report(9, "verdict and certified residual preserved under admissible shifts", ok)


def test_criterion_10_round_trip_and_determinism(tmp_path):
    ok = True
    problem_doc = problem_to_dict(np.array([[1, 1], [0, 1]], dtype=complex),
                                  np.array([[1]], dtype=complex),
                                  np.array([[1], [0]], dtype=complex),
                                  alpha=np.pi / 4, tol=1e-8, method="direct")
    problem_path = tmp_path / "p.json"
    problem_path.write_text(serialize_report(problem_doc), encoding="utf-8")
    # problem file round-trips bit-exactly
    if parse_report(serialize_report(problem_doc)) != problem_doc:
        ok = False

    outputs = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        code = main(["diagnose", str(problem_path), "--oracle", "--bridge",
                     "--quadrature", "-o", str(out)])
        if code != 0:
            ok = False
        outputs.append(out.read_text())
    docs = [parse_report(text) for text in outputs]
    for doc, text in zip(docs, outputs):
        # verdict report round-trips bit-exactly
        if serialize_report(doc) != text:
            ok = False
        doc.pop("generated_at")
    # byte-identical after removing the timestamp field
    if serialize_report(docs[0]) != serialize_report(docs[1]):
        ok = False

    # the same determinism holds for the homogeneous and roots reports
    for command in ("homogeneous", "roots"):
        pair = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / f"{command}_{name}"
            if main([command, str(problem_path), "-o", str(out)]) != 0:
                ok = False
            doc = parse_report(out.read_text())
            doc.pop("generated_at")
            pair.append(serialize_report(doc))
        if pair[0] != pair[1]:
            ok = False
    report(10, "file formats round-trip and reports are deterministic", ok)
