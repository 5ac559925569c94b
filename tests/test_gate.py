import math

import numpy as np
import pytest

from sylvcert.errors import ParameterError
from sylvcert.gate import (CLUSTER_TOLERANCE_FACTOR, GateReport, choose_shift,
                           sector_contains, shared_eigenvalues)
from sylvcert.numerics import frob
from sylvcert.oracle import oracle_solve
from sylvcert.singular import prepare


class TestSectorContains:
    def test_positive_reals(self):
        assert sector_contains([1.0, 2.0], math.pi / 4)

    def test_imaginary_axis_excluded(self):
        assert not sector_contains([1j], math.pi / 4)

    def test_diagonal_direction(self):
        assert sector_contains([1 + 1j], math.pi / 3)
        assert not sector_contains([1 + 1j], math.pi / 4)  # arg exactly pi/4, strict

    def test_zero_excluded(self):
        assert not sector_contains([0.0, 1.0], math.pi / 4)

    def test_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            sector_contains([1.0], math.pi)
        with pytest.raises(ParameterError):
            sector_contains([1.0], 0.0)


class TestSpectraIntersect:
    def test_disjoint(self):
        shared_a, shared_b, _ = shared_eigenvalues([2.0], [1.0], 3.0)
        assert not shared_a.any() and not shared_b.any()

    def test_equal(self):
        shared_a, shared_b, _ = shared_eigenvalues([1.0], [1.0], 2.0)
        assert shared_a.all() and shared_b.all()

    def test_jordan_multiset(self):
        shared_a, shared_b, _ = shared_eigenvalues([1.0, 1.0, 3.0], [1.0], 4.0)
        assert shared_a.tolist() == [True, True, False] and shared_b.all()

    def test_tolerance_is_relative_to_the_data(self):
        # a Jordan-sized split stays shared, at any common scale of the data
        for scale in (1e-150, 1.0, 1e150):
            shared_a, _, tol = shared_eigenvalues(
                scale * np.array([1.0, 3.0]), scale * np.array([1.0 + 1e-6]), 5.0 * scale)
            assert tol == CLUSTER_TOLERANCE_FACTOR * 5.0 * scale
            assert shared_a.tolist() == [True, False]


class TestChooseShift:
    def test_already_in_sector(self):
        assert choose_shift([1.0, 2.0], [1.0], math.pi / 4) == 0.0

    def test_negative_reals(self):
        lam = choose_shift([-1.0], [-2.0], math.pi / 4)
        assert 2.0 < lam <= 3.0
        assert sector_contains(np.array([-1.0]) + lam, math.pi / 4)
        assert sector_contains(np.array([-2.0]) + lam, math.pi / 4)

    def test_imaginary_eigenvalue(self):
        lam = choose_shift([1j], [1j], math.pi / 4)
        assert lam > 1.0
        assert sector_contains(np.array([1j]) + lam, math.pi / 4)

    def test_soundness_on_random_spectra(self, rng):
        for _ in range(25):
            sa = rng.normal(size=3) + 1j * rng.normal(size=3)
            sb = rng.normal(size=2) + 1j * rng.normal(size=2)
            alpha = rng.uniform(0.3, 1.4)
            lam = choose_shift(sa, sb, alpha)
            assert sector_contains(sa + lam, alpha)
            assert sector_contains(sb + lam, alpha)


class TestShiftEquivalence:
    def test_solution_transfers_between_shifted_problems(self, rng):
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            lam = rng.uniform(0.0, 5.0)
            result = oracle_solve(a, b, c)
            if result.solution is None:
                continue
            x = result.solution
            shifted_residual = np.linalg.norm(
                (a + lam * np.eye(3)) @ x - x @ (b + lam * np.eye(2)) - c)
            plain_residual = np.linalg.norm(a @ x - x @ b - c)
            assert abs(shifted_residual - plain_residual) <= 1e-9 * (1 + plain_residual)

    def test_intersection_invariant_under_shift(self, rng):
        for _ in range(10):
            sa = rng.normal(size=3) + 1j * rng.normal(size=3)
            sb = np.concatenate([sa[:1], rng.normal(size=1) + 1j * rng.normal(size=1)])
            lam = rng.uniform(0.0, 10.0)
            scale = 1 + np.abs(sa).max() + np.abs(sb).max()
            assert shared_eigenvalues(sa, sb, scale)[0].any()
            assert shared_eigenvalues(sa + lam, sb + lam, scale)[0].any()


class TestGateReport:
    def test_report_fields(self):
        p = prepare([[-1.0]], [[-1.0]], [[0.0]], alpha=math.pi / 4)
        report = p.gate
        assert isinstance(report, GateReport)
        assert not report.in_sector_a
        assert not report.in_sector_b
        assert report.spectra_intersect
        assert p.lambda_shift > 1.0
        # the intersection is judged on the shifted pair at the cluster tolerance
        assert report.intersection_tolerance == CLUSTER_TOLERANCE_FACTOR * (frob(p.a) + frob(p.b))
