import itertools

import numpy as np
import pytest

from sylvcert import gate, singular
from sylvcert.errors import InversionError, PreconditionError, WitnessError
from sylvcert.gate import CLUSTER_TOLERANCE_FACTOR
from sylvcert.instances import (regular_pair, rhs_in_range, rhs_outside_range,
                                shared_jordan_pair, shared_semisimple_pair)
from sylvcert.numerics import frob, kron_vec_operator, lstsq_solve, unvec
from sylvcert.oracle import ORACLE_MAX_UNKNOWNS, oracle_solve
from sylvcert.regular import QUADRATURE_GAP_TOL, companion_solve_direct, compute_offset
from sylvcert.singular import (UVWitness, VerdictStatus,
                               commutator_identity_verdict,
                               complete_intertwined_pair, diagnose,
                               particular_solution, prepare,
                               reduced_singular_routes, solution_from_u,
                               solve_uv_report, solve_uv_system, sylvester_kernel,
                               verify_commutant_identity)

from conftest import pair_equation_residuals, pair_equation_rows, shared_cluster_pair

JORDAN_A = np.array([[1, 1], [0, 1]], dtype=complex)
UNIT_B = np.array([[1]], dtype=complex)


def agrees_with_oracle(verdict, a, b, c) -> bool:
    """True unless the verdict is binary and the dense oracle decides otherwise."""
    if verdict.status is VerdictStatus.ILL_CONDITIONED:
        return True
    reference = oracle_solve("sylvester", a, b, c)
    return (verdict.status is VerdictStatus.SOLVABLE) == reference.consistent


class TestPrepare:
    def test_in_sector_pair_untouched(self):
        p = prepare([[2]], [[1]], [[3]])
        assert p.lambda_shift == 0.0
        np.testing.assert_array_equal(p.a, [[2.0]])

    def test_negative_pair_shifted_and_singularity_preserved(self):
        p = prepare([[-1]], [[-1]], [[0]])
        assert p.lambda_shift > 1.0
        assert p.gate.spectra_intersect
        assert np.all(np.linalg.eigvals(p.a).real > 0)

    def test_jordan_pair(self):
        p = prepare(JORDAN_A, UNIT_B, [[1], [0]])
        assert p.lambda_shift == 0.0
        assert p.gate.spectra_intersect


class TestUVSystem:
    def test_homogeneous_scalar_minimum_norm_witness(self):
        p = prepare([[1]], [[1]], [[0]])
        w = solve_uv_system(p)
        assert w is not None
        assert frob(w.u) <= 1e-12 and frob(w.v) <= 1e-12
        assert all(value <= 1e-12 for value in w.residuals.values())

    def test_scalar_obstruction(self):
        # with a = b = 1, the system forces u + v = 0 while the first
        # equation demands u + v = 1/2: inconsistent
        p = prepare([[1]], [[1]], [[1]])
        assert solve_uv_system(p) is None
        report = solve_uv_report(p)
        assert report.lstsq_residual > 1e3 * report.threshold
        assert not report.marginal

    def test_jordan_witness_solves_reduced_equation(self):
        p = prepare(JORDAN_A, UNIT_B, [[1], [0]])
        w = solve_uv_system(p)
        assert w is not None
        x = particular_solution(w, p)
        residual = frob((JORDAN_A - np.eye(2)) @ x - np.array([[1], [0]]))
        assert residual <= 1e-9

    def test_all_recorded_residuals_small_on_witness(self, rng):
        a, b = shared_semisimple_pair(rng, 3, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        rep = solve_uv_report(p)
        w = rep.witness
        assert w is not None
        for key in ("av_ub", "au_vb", "u_plus_v", "cubic", "unipotent_identity"):
            assert w.residuals[key] <= 1e-7 * (1 + frob(w.companion) + frob(w.offset))
            assert w.residuals[key] <= w.thresholds[key]
        # av_ub is the reduced equation's own residual, judged as the decision judged it
        assert w.thresholds["av_ub"] == rep.threshold

    def test_decision_matches_stacked_system(self):
        # the reduced nm-unknown equation decides exactly what the paper's
        # stacked 2nm (u, v) system decides
        for seed in range(48):
            rng = np.random.default_rng([77, seed])
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pair = shared_jordan_pair if seed % 2 else shared_semisimple_pair
            a, b = pair(rng, n, m)
            c = rhs_in_range(rng, a, b) if seed % 4 < 2 else rhs_outside_range(rng, a, b)
            p = prepare(a, b, c)
            report = solve_uv_report(p)
            stacked = oracle_solve("uv_stacked", p.a, p.b, p.c)
            assert (report.witness is not None) == stacked.consistent, (seed, n, m)
            if report.witness is not None:
                x = particular_solution(report.witness, p)
                assert frob(p.a @ x - x @ p.b - p.c) <= 1e-8 * (
                    (frob(p.a) + frob(p.b)) * frob(x) + frob(p.c))


class TestSchurReducedDecision:
    def test_cluster_sizes_and_tolerance_reported(self):
        p = prepare(JORDAN_A, UNIT_B, [[1], [0]])
        rep = solve_uv_report(p)
        assert rep.cluster_sizes == (2, 1)
        assert rep.cluster_tolerance == CLUSTER_TOLERANCE_FACTOR * (frob(p.a) + frob(p.b))
        verdict = diagnose(JORDAN_A, UNIT_B, [[1], [0]])
        assert verdict.cluster_sizes == (2, 1)
        assert verdict.cluster_tolerance == rep.cluster_tolerance

    def test_regular_pair_has_no_shared_block(self, rng, monkeypatch):
        a, b = regular_pair(rng, 4, 3)
        c = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        monkeypatch.setattr(singular, "lstsq_solve",
                            lambda *args, **kwargs: pytest.fail("regular pair reached lstsq"))
        verdict = diagnose(a, b, c)
        assert verdict.status is VerdictStatus.SOLVABLE
        assert verdict.cluster_sizes == (0, 0)
        assert verdict.certificate_residual <= verdict.certificate_threshold

    def test_large_pair_decides_only_the_shared_block(self, monkeypatch):
        rng = np.random.default_rng(96)
        a, b = shared_jordan_pair(rng, 96, 96)
        c = rhs_in_range(rng, a, b)
        unknowns = []

        def spy(K, rhs, **kwargs):
            unknowns.append(np.shape(K)[1])
            return lstsq_solve(K, rhs, **kwargs)

        monkeypatch.setattr(singular, "lstsq_solve", spy)
        verdict = diagnose(a, b, c)
        assert verdict.status is VerdictStatus.SOLVABLE
        assert verdict.certificate_residual <= verdict.certificate_threshold
        k_a, k_b = verdict.cluster_sizes
        assert 1 <= k_a * k_b <= 9
        assert unknowns and max(unknowns) <= k_a * k_b

    @pytest.mark.parametrize("n", [8, 10])
    def test_zero_rhs_keeps_the_gate_cluster(self, n, monkeypatch):
        # at rhs = 0 the decision's u is 0 and passes the zero threshold;
        # that decides, and must not widen to the whole nm x nm block
        rng = np.random.default_rng(n)
        a, b = shared_jordan_pair(rng, n, n)
        p = prepare(a, b, np.zeros((n, n)))
        shared_a, shared_b, _ = gate.shared_eigenvalues(
            p.schur_a[0].diagonal(), p.schur_b[0].diagonal(), frob(p.a) + frob(p.b))
        unknowns = []

        def spy(K, rhs, **kwargs):
            unknowns.append(np.shape(K)[1])
            return lstsq_solve(K, rhs, **kwargs)

        monkeypatch.setattr(singular, "lstsq_solve", spy)
        report = singular.decide_sylvester(p.a, p.b, p.schur_a, p.schur_b, np.zeros((n, n)))
        k_a, k_b = report.cluster_sizes
        assert (k_a, k_b) == (shared_a.sum(), shared_b.sum())
        assert 1 <= k_a * k_b < n * n
        assert unknowns == [k_a * k_b]
        assert not np.any(report.u) and report.lstsq_residual <= report.threshold

    def test_too_narrow_cluster_widens_to_the_whole_spectra(self, rng, monkeypatch):
        # with a cluster tolerance below the Jordan splitting, the shared
        # eigenvalues land in "regular" blocks; an out-of-range right-hand
        # side blows their solves up, and the decision must fall back to the
        # whole spectra instead of trusting them
        monkeypatch.setattr(gate, "CLUSTER_TOLERANCE_FACTOR", 1e-15)
        for _ in range(6):
            a, b = shared_jordan_pair(rng, 4, 3)
            c_in, c_out = rhs_in_range(rng, a, b), rhs_outside_range(rng, a, b)
            verdict = diagnose(a, b, c_out)
            assert verdict.status is VerdictStatus.UNSOLVABLE
            assert verdict.cluster_sizes == (4, 3)
            assert agrees_with_oracle(verdict, a, b, c_out)
            verdict = diagnose(a, b, c_in)
            assert verdict.status is VerdictStatus.SOLVABLE
            assert verdict.certificate_residual <= verdict.certificate_threshold

    def test_kernel_widens_like_the_decision(self, monkeypatch):
        # b's second eigenvalue, 1e-12 away, falls outside a too narrow
        # cluster: the null vector of the shared block blows up on its way
        # through block (1, 2), and the kernel widens to the whole spectra
        monkeypatch.setattr(gate, "CLUSTER_TOLERANCE_FACTOR", 1e-15)
        clusters = []

        def spy(ta, tb, k_a, k_b, heads, data_scale):
            clusters.append((k_a, k_b))
            return solve(ta, tb, k_a, k_b, heads, data_scale)

        solve = singular._shared_block_lstsq
        monkeypatch.setattr(singular, "_shared_block_lstsq", spy)
        p = prepare([[1.0]], [[1.0, 1.0], [0.0, 1.0 + 1e-12]], [[0.0, 0.0]])
        basis = sylvester_kernel(p.a, p.b, p.schur_a, p.schur_b)
        assert clusters == [(1, 1), (1, 2)]
        assert len(basis) == 1 and abs(frob(basis[0]) - 1.0) <= 1e-12
        assert frob(p.a @ basis[0] - basis[0] @ p.b) <= 1e-12

    def test_stress_ladder_agrees_with_oracle(self):
        # shared Jordan clusters of size 2-4, split by about eps^(1/k), some
        # next to a second shared eigenvalue 1e-3 or 1e-5 away; only pairs
        # whose nonzero Kronecker singular values clear 1e-6 (||a|| + ||b||)
        # are well-posed enough to compare
        kept = decided = 0
        for k, second, seed, in_range in itertools.product(
                (2, 3, 4), (None, 1e-3, 1e-5), range(4), (True, False)):
            rng = np.random.default_rng([k, 0 if second is None else 1 + int(-np.log10(second)),
                                         int(in_range), seed])
            low = k + (second is not None)
            n, m = int(rng.integers(low, 9)), int(rng.integers(low, 9))
            a, b = shared_cluster_pair(rng, k, second, n, m)
            U, s, _ = np.linalg.svd(kron_vec_operator(a, b, -1))
            scale = frob(a) + frob(b)
            zero = s <= 1e-10 * scale
            if np.any(s[~zero] <= 1e-6 * scale):
                continue
            c = rhs_in_range(rng, a, b)
            if not in_range:
                w = U[:, zero] @ (rng.normal(size=zero.sum()) + 1j * rng.normal(size=zero.sum()))
                c = c + unvec(w / np.linalg.norm(w), n, m)
            verdict = diagnose(a, b, c)
            assert agrees_with_oracle(verdict, a, b, c), (k, second, seed, in_range)
            if verdict.status is VerdictStatus.SOLVABLE:
                assert verdict.certificate_residual <= verdict.certificate_threshold
            kept += 1
            decided += verdict.status is not VerdictStatus.ILL_CONDITIONED
        assert decided > kept / 2 > 10


class TestRefusalsNameTheirGate:
    @pytest.mark.parametrize("seed", range(10))
    def test_near_cutoff_family_never_contradicts_oracle(self, seed):
        # a 3x3 Jordan block shared by a (8x8) and b (7x7) with a second shared
        # eigenvalue 1e-3 away: the rank decision sits near its cutoff, which
        # once let witnesses through to wrong "solvable" verdicts and
        # WitnessErrors
        rng = np.random.default_rng(seed)
        a, b = shared_cluster_pair(rng, 3, 1e-3, 8, 7)
        c = rhs_outside_range(rng, a, b)
        verdict = diagnose(a, b, c)
        assert agrees_with_oracle(verdict, a, b, c)
        if verdict.status is VerdictStatus.ILL_CONDITIONED:
            assert verdict.ill_conditioned_gate is not None

    def test_near_cutoff_witness_is_not_trusted(self, monkeypatch):
        real = singular.solve_uv_report

        def fragile(p, tol=singular.DEFAULT_TOL):
            rep = real(p, tol)
            rep.near_cutoff = True
            return rep

        monkeypatch.setattr(singular, "solve_uv_report", fragile)
        verdict = diagnose(JORDAN_A, UNIT_B, [[1], [0]])
        assert verdict.status is VerdictStatus.ILL_CONDITIONED
        assert verdict.ill_conditioned_gate == "near_cutoff"
        assert verdict.solution is None

    def test_failed_formula_gate_is_ill_conditioned(self, rng, monkeypatch):
        real = singular.solve_uv_report

        def corrupted(p, tol=singular.DEFAULT_TOL):
            rep = real(p, tol)
            rep.witness.u = rep.witness.u + 0.05 * (frob(rep.witness.u) + 1)
            return rep

        a, b = shared_semisimple_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        monkeypatch.setattr(singular, "solve_uv_report", corrupted)
        verdict = diagnose(a, b, c)
        assert verdict.status is VerdictStatus.ILL_CONDITIONED
        assert verdict.ill_conditioned_gate == "solution_formula_gap"

    def test_failed_certificate_gate_is_ill_conditioned(self, monkeypatch):
        def failing(w, p, tol=singular.DEFAULT_TOL):
            raise WitnessError("forced", gate="solution_certificate")

        monkeypatch.setattr(singular, "particular_solution", failing)
        verdict = diagnose(JORDAN_A, UNIT_B, [[1], [0]])
        assert verdict.status is VerdictStatus.ILL_CONDITIONED
        assert verdict.ill_conditioned_gate == "solution_certificate"


class TestOracleSizeCap:
    def test_oracle_skipped_above_cap(self, rng, monkeypatch):
        a, b = regular_pair(rng, 65, 64)
        assert 65 * 64 > ORACLE_MAX_UNKNOWNS
        c = rng.normal(size=(65, 64)) + 1j * rng.normal(size=(65, 64))
        monkeypatch.setattr(singular, "oracle_solve",
                            lambda *args, **kwargs: pytest.fail("dense oracle above its cap"))
        verdict = diagnose(a, b, c, with_oracle=True)
        assert verdict.status is VerdictStatus.SOLVABLE
        assert verdict.oracle_agreement is None
        assert verdict.certificate_residual <= verdict.certificate_threshold
        entry = verdict.checks["oracle_cross_check"]
        assert entry["status"] == "skipped"
        assert str(ORACLE_MAX_UNKNOWNS) in entry["note"]


class TestVerdictChecks:
    def test_every_step_has_an_entry(self):
        verdict = diagnose(JORDAN_A, UNIT_B, [[1], [0]])
        assert list(verdict.checks) == [
            "system_consistency", "solution_certificate", "solution_formulas_agree",
            "identity_cascade", "oracle_cross_check", "integral_representation",
            "unipotent_bridge"]
        certificate = verdict.checks["solution_certificate"]
        assert certificate["status"] == "pass"
        assert certificate["residual"] == verdict.certificate_residual
        assert certificate["threshold"] == verdict.certificate_threshold
        assert verdict.checks["unipotent_bridge"]["status"] == "skipped"

    def test_unsolvable_skips_the_witness_steps(self):
        verdict = diagnose([[1]], [[1]], [[1]])
        assert verdict.status is VerdictStatus.UNSOLVABLE
        assert verdict.checks["system_consistency"] == {
            "status": "fail", "residual": verdict.system_residual,
            "threshold": verdict.system_threshold}
        for name in ("solution_certificate", "solution_formulas_agree", "identity_cascade"):
            assert verdict.checks[name]["status"] == "skipped"

    def test_quadrature_judged_against_its_named_threshold(self):
        entry = diagnose(JORDAN_A, UNIT_B, [[1], [0]], with_quadrature=True) \
            .checks["integral_representation"]
        assert entry["status"] == "pass"
        assert entry["threshold"] == QUADRATURE_GAP_TOL
        assert entry["residual"] <= QUADRATURE_GAP_TOL

    def test_ill_conditioned_verdict_explains_the_skipped_oracle(self, monkeypatch):
        # eigenvalues 1e-12 apart: the rank decision sits at its cutoff
        monkeypatch.setattr(singular, "oracle_solve",
                            lambda *args, **kwargs: pytest.fail("oracle on a refused verdict"))
        verdict = diagnose([[1.0]], [[1.0 + 1e-12]], [[1.0]], with_oracle=True)
        assert verdict.status is VerdictStatus.ILL_CONDITIONED
        entry = verdict.checks["oracle_cross_check"]
        assert entry["status"] == "skipped"
        assert "ill_conditioned" in entry["note"]
        assert verdict.ill_conditioned_gate in entry["note"]

    def test_oracle_not_asked_for_has_no_note(self):
        entry = diagnose([[1.0]], [[1.0 + 1e-12]], [[1.0]]).checks["oracle_cross_check"]
        assert entry == {"status": "skipped", "residual": None, "threshold": None}


class TestParticularSolution:
    def test_zero_witness_zero_solution(self):
        p = prepare([[1]], [[1]], [[0]])
        w = solve_uv_system(p)
        x = particular_solution(w, p)
        assert frob(x) <= 1e-12

    def test_manual_half_witness(self):
        # for a = b = 1, c = 0: u = 0.5 forces v = -0.5 and both formulas
        # give x = 1, which solves the homogeneous equation
        p = prepare([[1]], [[1]], [[0]])
        w = UVWitness(u=np.array([[0.5]]), v=np.array([[-0.5]]),
                      companion=np.zeros((1, 1)), offset=np.zeros((1, 1)),
                      q=np.array([[-1.0]]))
        x = particular_solution(w, p)
        np.testing.assert_allclose(x, [[1.0]], atol=1e-14)

    def test_corrupted_witness_rejected(self, rng):
        a, b = shared_semisimple_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        w = solve_uv_system(p)
        w.u = w.u + 0.05 * frob(w.u + 1) * np.ones_like(w.u)
        with pytest.raises(WitnessError):
            particular_solution(w, p)

    def test_singular_a_raises_the_package_error(self):
        # a SylvcertError, so the CLI's handler reports it
        with pytest.raises(InversionError):
            solution_from_u([[0]], [[1]], [[1]])

    def test_scalar_solvable_full_pipeline(self):
        verdict = diagnose([[2]], [[1]], [[3]])
        assert verdict.status is VerdictStatus.SOLVABLE
        np.testing.assert_allclose(verdict.solution, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(verdict.witness.q, [[-2.5]], atol=1e-12)


class TestReducedRoutes:
    def test_scalar_obstruction_blocks_both(self):
        p = prepare([[1]], [[1]], [[1]])
        u_route, v_route = reduced_singular_routes(p)
        assert u_route is None and v_route is None

    def test_homogeneous_scalar_allows_both(self):
        p = prepare([[1]], [[1]], [[0]])
        u_route, v_route = reduced_singular_routes(p)
        assert u_route is not None and v_route is not None

    def test_routes_match_system_decision(self, rng):
        # the u-route is the decision's own equation; the v-route and the
        # stacked (u, v) system are the independent sides
        for _ in range(8):
            a, b = shared_jordan_pair(rng, 3, 2)
            c = rhs_in_range(rng, a, b) if rng.uniform() < 0.5 else rhs_outside_range(rng, a, b)
            p = prepare(a, b, c)
            u_route, v_route = reduced_singular_routes(p)
            system = solve_uv_system(p)
            stacked = oracle_solve("uv_stacked", p.a, p.b, p.c)
            assert (u_route is None) == (v_route is None)
            assert (v_route is not None) == (system is not None) == stacked.consistent

    def test_reconstructed_partner_satisfies_first_equation(self, rng):
        a, b = shared_jordan_pair(rng, 3, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        u_route, _ = reduced_singular_routes(p)
        assert u_route is not None
        companion = companion_solve_direct(p.a, p.b, p.c).solution
        a_inv = np.linalg.inv(p.a)
        v = a_inv @ companion - a_inv @ u_route @ p.b
        assert frob(p.a @ v + u_route @ p.b - companion) <= 1e-9 * (1 + frob(companion))


class TestCommutantIdentity:
    def _passing_witness(self, rng):
        a, b = shared_semisimple_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        return solve_uv_system(p), p

    def test_identity_defaults(self, rng):
        w, p = self._passing_witness(rng)
        assert verify_commutant_identity(w, p)

    def test_commutant_independence(self, rng):
        w, p = self._passing_witness(rng)
        assert verify_commutant_identity(w, p, a_prime=p.a, b_prime=p.b)
        assert verify_commutant_identity(w, p, a_prime=p.a @ p.a + 2 * p.a,
                                         b_prime=3 * np.eye(2) + p.b)

    def test_corrupted_witness_fails(self, rng):
        w, p = self._passing_witness(rng)
        w.u = w.u + 1e-2 * np.ones_like(w.u)
        assert not verify_commutant_identity(w, p)

    def test_non_commuting_prime_rejected(self, rng):
        w, p = self._passing_witness(rng)
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        if frob(bad @ p.a - p.a @ bad) < 1e-6:  # pragma: no cover - generic a
            pytest.skip("degenerate draw")
        with pytest.raises(PreconditionError):
            verify_commutant_identity(w, p, a_prime=bad)


class TestCommutatorIdentityVerdict:
    def test_scalar(self):
        verdict = commutator_identity_verdict([[2]])
        assert verdict.status is VerdictStatus.UNSOLVABLE
        assert verdict.oracle_agreement

    def test_diagonal(self):
        verdict = commutator_identity_verdict(np.diag([1.0, 2.0]))
        assert verdict.status is VerdictStatus.UNSOLVABLE

    def test_random_in_sector(self, rng):
        from sylvcert.instances import matrix_with_eigenvalues, random_sector_eigenvalues
        a = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, 3))
        verdict = commutator_identity_verdict(a)
        assert verdict.status is VerdictStatus.UNSOLVABLE
        # the residual is bounded away from zero at the trace scale
        assert verdict.system_residual > np.sqrt(3) / (10 * (1 + frob(verdict.problem.a)) ** 3)


class TestIntertwinedPairs:
    def test_zero_completes_to_zero(self):
        p = prepare([[2]], [[1]], [[0]])
        z, w = complete_intertwined_pair(p, [[0.0]], "z")
        assert frob(z) == 0 and frob(w) == 0

    def test_scalar_completion(self):
        p = prepare([[2]], [[1]], [[0]])
        z, w = complete_intertwined_pair(p, [[1.0]], "z")
        np.testing.assert_allclose(w, [[2.0]], atol=1e-14)

    def test_known_solution_gives_member_with_difference_c(self, rng):
        a, b = shared_semisimple_pair(rng, 3, 2)
        x0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        c = a @ x0 - x0 @ b
        p = prepare(a, b, c)
        # (z, w) = (x b, a x) lies in the intertwined set with w - z = c
        z, w = complete_intertwined_pair(p, x0 @ p.b, "z")
        assert frob(p.a @ z - w @ p.b) <= 1e-9 * (1 + frob(w))
        assert frob((w - z) - c) <= 1e-9 * (1 + frob(c))


class TestVerdictProperties:
    def test_shift_invariance(self, rng):
        for _ in range(6):
            a, b = shared_semisimple_pair(rng, 2, 2)
            solvable = rng.uniform() < 0.5
            c = rhs_in_range(rng, a, b) if solvable else rhs_outside_range(rng, a, b)
            mu = rng.uniform(0.0, 3.0)
            base = diagnose(a, b, c)
            shifted = diagnose(a + mu * np.eye(2), b + mu * np.eye(2), c)
            assert base.status == shifted.status
            if base.status is VerdictStatus.SOLVABLE:
                assert base.certificate_residual <= base.certificate_threshold
                assert shifted.certificate_residual <= shifted.certificate_threshold

    def test_oracle_equivalence_small_sample(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            family = rng.integers(0, 3)
            if family == 0:
                a, b = regular_pair(rng, n, m)
                c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            elif family == 1:
                a, b = shared_jordan_pair(rng, n, m)
                c = rhs_in_range(rng, a, b)
            else:
                a, b = shared_semisimple_pair(rng, n, m)
                c = rhs_outside_range(rng, a, b)
            verdict = diagnose(a, b, c, with_oracle=True)
            if verdict.status is VerdictStatus.ILL_CONDITIONED:
                continue
            assert verdict.oracle_agreement

    def test_degenerate_zero_rhs(self, rng):
        a, b = shared_jordan_pair(rng, 2, 2)
        verdict = diagnose(a, b, np.zeros((2, 2)))
        assert verdict.status is VerdictStatus.SOLVABLE
        assert frob(verdict.solution) == 0.0
        assert frob(verdict.witness.u) == 0.0 and frob(verdict.witness.v) == 0.0


class TestScaleRobustness:
    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_verdicts_are_scale_free(self, scale):
        # (a, b, c) scaled together, then c alone on top of that
        a = scale * np.array([[1.0, 0.3], [0.0, 1.0]], dtype=complex)
        b = scale * np.array([[1.0]], dtype=complex)
        x0 = np.array([[2.0], [1.0]], dtype=complex)
        for c_scale in (1e-16, 1e-11, 1.0, 1e11, 1e16):
            c_in = c_scale * (a @ x0 - x0 @ b)
            v_in = diagnose(a, b, c_in, with_oracle=True)
            assert v_in.status is VerdictStatus.SOLVABLE, c_scale
            assert v_in.oracle_agreement
            assert v_in.certificate_residual <= v_in.certificate_threshold
            c_out = c_in + c_scale * scale * np.array([[0.0], [1.0]])
            v_out = diagnose(a, b, c_out, with_oracle=True)
            assert v_out.status is VerdictStatus.UNSOLVABLE, c_scale
            assert v_out.oracle_agreement

    @pytest.mark.parametrize("c_scale", [1.0, 1e-8, 1e-11, 1e-13, 1e-16])
    def test_small_out_of_range_rhs_stays_unsolvable(self, c_scale):
        # an absolute threshold floor once turned this case ill_conditioned
        # at 1e-11 and into a WitnessError at 1e-13 and below
        rng = np.random.default_rng(1)
        a, b = shared_semisimple_pair(rng, 3, 3)
        c = c_scale * rhs_outside_range(rng, a, b)
        verdict = diagnose(a, b, c, with_oracle=True)
        assert verdict.status is VerdictStatus.UNSOLVABLE
        assert verdict.oracle_agreement


    def test_non_finite_identity_residual_fails_the_cascade(self):
        # a^3 v overflows into NaN at this scale while the other identities
        # stay finite; the cascade must report it, not pass on the others.
        # The solution's own residual norm overflows too, which equilibrating
        # at the entry of diagnose will remove.
        rng = np.random.default_rng(0)
        a, b = shared_jordan_pair(rng, 3, 3)
        c = rhs_in_range(rng, a, b)
        with np.errstate(over="ignore"):
            verdict = diagnose(1e90 * a, 1e90 * b, 1e225 * c)
        assert np.isnan(verdict.witness.residuals["cubic"])
        cascade = verdict.checks["identity_cascade"]
        assert cascade["status"] == "fail" and np.isnan(cascade["residual"])


class TestKnifeEdgeHonesty:
    def test_no_confident_oracle_disagreement_across_eigenvalue_gap(self):
        # as the eigenvalue gap h crosses the rank cutoff the verdict must
        # pass through ill_conditioned instead of confidently contradicting
        # the oracle (tiny gaps admit exact solutions of norm 1/h)
        statuses = []
        for h_exp in range(4, 16):
            h = 10.0 ** (-h_exp)
            a = np.array([[1.0, 0.0], [0.0, 1.0 + h]], dtype=complex)
            b = np.array([[1.0]], dtype=complex)
            c = np.array([[0.0], [1.0]], dtype=complex)
            verdict = diagnose(a, b, c, with_oracle=True)
            statuses.append(verdict.status)
            assert (verdict.status is VerdictStatus.ILL_CONDITIONED
                    or verdict.oracle_agreement)
        assert statuses[0] is VerdictStatus.SOLVABLE
        assert statuses[-1] is VerdictStatus.UNSOLVABLE


class TestPairCascade:
    def test_any_two_imply_all_four(self, rng):
        # solve each pair of identities jointly; whenever the pair is
        # consistent, the other two hold at 10x the tolerance
        tol = 1e-8
        a, b = shared_semisimple_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        companion = companion_solve_direct(p.a, p.b, p.c).solution
        offset = compute_offset(p.a, p.b, companion)
        rows = pair_equation_rows(p.a, p.b, companion, offset, p.c)
        keys = list(rows)
        scale = (frob(companion) + frob(offset)
                 + (1 + frob(p.a)) ** 3 + (1 + frob(p.b)) ** 3)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                K = np.vstack([rows[keys[i]][0], rows[keys[j]][0]])
                rhs = np.concatenate([rows[keys[i]][1], rows[keys[j]][1]])
                res = lstsq_solve(K, rhs)
                v = res.solution[: p.n * p.m].reshape((p.n, p.m), order="F")
                u = res.solution[p.n * p.m:].reshape((p.n, p.m), order="F")
                residuals = pair_equation_residuals(p.a, p.b, companion, offset, p.c, u, v)
                if residuals[keys[i]] <= tol * scale and residuals[keys[j]] <= tol * scale:
                    for key in keys:
                        assert residuals[key] <= 10 * tol * scale, (keys[i], keys[j], key)

    def test_no_pair_consistent_when_unsolvable(self, rng):
        tol = 1e-8
        a, b = shared_semisimple_pair(rng, 2, 2)
        c = rhs_outside_range(rng, a, b)
        p = prepare(a, b, c)
        companion = companion_solve_direct(p.a, p.b, p.c).solution
        offset = compute_offset(p.a, p.b, companion)
        rows = pair_equation_rows(p.a, p.b, companion, offset, p.c)
        keys = list(rows)
        scale = (frob(companion) + frob(offset)
                 + (1 + frob(p.a)) ** 3 + (1 + frob(p.b)) ** 3)
        consistent_pairs = 0
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                K = np.vstack([rows[keys[i]][0], rows[keys[j]][0]])
                rhs = np.concatenate([rows[keys[i]][1], rows[keys[j]][1]])
                res = lstsq_solve(K, rhs)
                v = res.solution[: p.n * p.m].reshape((p.n, p.m), order="F")
                u = res.solution[p.n * p.m:].reshape((p.n, p.m), order="F")
                residuals = pair_equation_residuals(p.a, p.b, companion, offset, p.c, u, v)
                if residuals[keys[i]] <= tol * scale and residuals[keys[j]] <= tol * scale:
                    consistent_pairs += 1
        assert consistent_pairs == 0
