import numpy as np
import pytest

from sylvcert.errors import GateError, InversionError, PreconditionError
from sylvcert.instances import matrix_with_eigenvalues, random_sector_eigenvalues
from sylvcert.numerics import mat_exp
from sylvcert.regular import (companion_solve_direct, companion_solve_quadrature,
                              compute_offset, solve_generalized_regular)


def sector_matrix(rng, k, alpha=np.pi / 4):
    return matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, k, alpha))


class TestDirect:
    def test_scalar(self):
        res = companion_solve_direct([[2]], [[1]], [[3]])
        np.testing.assert_allclose(res.solution, [[1.0]], atol=1e-14)

    def test_identity_left_factor_halves(self, rng):
        c = rng.normal(size=(2, 1))
        res = companion_solve_direct(np.eye(2), [[1.0]], c)
        np.testing.assert_allclose(res.solution, c / 2, atol=1e-14)

    def test_random_instance_residual(self, rng):
        a = sector_matrix(rng, 4)
        b = sector_matrix(rng, 3)
        c = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        res = companion_solve_direct(a, b, c)
        assert res.residual <= 1e-10 * np.linalg.norm(c)

    def test_gate_violation_rejected(self):
        with pytest.raises(GateError):
            companion_solve_direct([[-1.0]], [[1.0]], [[1.0]])

    def test_rectangular_bartels_stewart_residual(self, rng):
        # Schur forms of a and b only; no nm x nm operator is formed
        a = sector_matrix(rng, 40)
        b = sector_matrix(rng, 30)
        c = rng.normal(size=(40, 30)) + 1j * rng.normal(size=(40, 30))
        res = companion_solve_direct(a, b, c)
        assert res.method == "direct"
        assert res.residual <= 1e-10 * np.linalg.norm(c)


class TestQuadrature:
    def test_scalar_integral(self):
        res = companion_solve_quadrature([[2]], [[1]], [[3]])
        np.testing.assert_allclose(res.solution, [[1.0]], atol=1e-10)
        assert res.method == "quadrature"
        assert res.nodes_used > 0

    def test_decoupled_diagonal(self):
        res = companion_solve_quadrature(np.diag([1.0, 2.0]), [[1.0]], [[1.0], [1.0]])
        np.testing.assert_allclose(res.solution, [[0.5], [1.0 / 3.0]], atol=1e-10)

    def test_agrees_with_direct(self, rng):
        for _ in range(5):
            a = sector_matrix(rng, 5)
            b = sector_matrix(rng, 4)
            c = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
            direct = companion_solve_direct(a, b, c).solution
            quad = companion_solve_quadrature(a, b, c).solution
            assert np.linalg.norm(direct - quad) <= 1e-8 * np.linalg.norm(direct)

    def test_decay_bound_at_truncation(self, rng):
        a = sector_matrix(rng, 3)
        b = sector_matrix(rng, 2)
        c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        tol = 1e-10
        res = companion_solve_quadrature(a, b, c, tol=tol)
        T = res.truncation_T
        tail_value = np.linalg.norm(mat_exp(-T * a) @ c @ mat_exp(-T * b))
        assert tail_value <= tol * max(np.linalg.norm(c), 1.0)

    def test_half_plane_precondition(self):
        with pytest.raises(PreconditionError):
            companion_solve_quadrature([[1j]], [[1.0]], [[1.0]])

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
    def test_scale_free_truncation(self, scale):
        a = scale * np.array([[1.0, 0.2], [0.0, 2.0]], dtype=complex)
        b = scale * np.array([[1.5]], dtype=complex)
        c = scale * np.array([[1.0], [0.5]], dtype=complex)
        direct = companion_solve_direct(a, b, c).solution
        quad = companion_solve_quadrature(a, b, c).solution
        assert np.linalg.norm(direct - quad) <= 1e-8 * np.linalg.norm(direct)


class TestOffset:
    def test_scalar_value(self):
        offset = compute_offset([[2]], [[1]], [[1]])
        np.testing.assert_allclose(offset, [[2.5]], atol=1e-14)

    def test_scalar_identity_form(self, rng):
        a = rng.uniform(1.0, 2.0)
        b = rng.uniform(1.0, 2.0)
        s = rng.normal()
        offset = compute_offset([[a]], [[b]], [[s]])
        np.testing.assert_allclose(offset, [[s * (b / a + a / b)]], atol=1e-13)

    def test_characterizing_equation(self, rng):
        # a r + r b = a^-1 c b + a c b^-1 where r is built from the companion
        # solution of c; this pins the offset as that equation's unique answer
        a = sector_matrix(rng, 3)
        b = sector_matrix(rng, 2)
        c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        companion = companion_solve_direct(a, b, c).solution
        offset = compute_offset(a, b, companion)
        lhs = a @ offset + offset @ b
        rhs = np.linalg.inv(a) @ c @ b + a @ c @ np.linalg.inv(b)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_singular_factor_rejected(self):
        with pytest.raises(InversionError):
            compute_offset([[0.0]], [[1.0]], [[1.0]])


class TestGeneralizedRegular:
    def test_zero_rhs_gives_zero(self, rng):
        a = sector_matrix(rng, 3, alpha=np.pi / 3.5)
        b = sector_matrix(rng, 2, alpha=np.pi / 3.5)
        xi = solve_generalized_regular(a, b, np.zeros((3, 2)))
        assert np.linalg.norm(xi) <= 1e-12

    def test_scalar(self):
        xi = solve_generalized_regular([[1.0]], [[1.0]], [[3.0]])
        np.testing.assert_allclose(xi, [[1.0]], atol=1e-14)

    def test_closed_form_candidate(self, rng):
        # rhs assembled so that a s b^-1 is the unique solution
        a = sector_matrix(rng, 3, alpha=np.pi / 4)
        b = sector_matrix(rng, 2, alpha=np.pi / 4)
        c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        s = companion_solve_direct(a, b, c).solution
        b_inv = np.linalg.inv(b)
        rhs = a @ a @ s + a @ s @ b + a @ a @ a @ s @ b_inv
        xi = solve_generalized_regular(a, b, rhs)
        expected = a @ s @ b_inv
        assert np.linalg.norm(xi - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_sector_gate(self):
        with pytest.raises(GateError):
            solve_generalized_regular([[np.exp(1.2j)]], [[1.0]], [[1.0]])


class TestCrossMethodUniqueness:
    def test_two_routes_agree(self, rng):
        for _ in range(5):
            a = sector_matrix(rng, 3)
            b = sector_matrix(rng, 3)
            c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            direct = companion_solve_direct(a, b, c)
            quad = companion_solve_quadrature(a, b, c)
            gap = np.linalg.norm(direct.solution - quad.solution)
            assert gap <= 1e-8 * max(np.linalg.norm(direct.solution), 1e-30)
