import dataclasses

import numpy as np
import pytest

from sylvcert.errors import InversionError, PreconditionError
from sylvcert.instances import matrix_with_eigenvalues, random_sector_eigenvalues
from sylvcert.numerics import mat_exp
from sylvcert.regular import companion_solve_quadrature, compute_offset, reduced_rhs
from sylvcert.singular import prepare

from conftest import companion_solution, gen_square_reference


def sector_matrix(rng, k, alpha=np.pi / 4):
    return matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, k, alpha))


class TestQuadrature:
    def test_scalar_integral(self):
        res = companion_solve_quadrature([[2]], [[1]], [[3]])
        np.testing.assert_allclose(res.solution, [[1.0]], atol=1e-10)
        assert res.nodes_used > 0

    def test_decoupled_diagonal(self):
        res = companion_solve_quadrature(np.diag([1.0, 2.0]), [[1.0]], [[1.0], [1.0]])
        np.testing.assert_allclose(res.solution, [[0.5], [1.0 / 3.0]], atol=1e-10)

    def test_agrees_with_direct(self, rng):
        for _ in range(5):
            a = sector_matrix(rng, 5)
            b = sector_matrix(rng, 4)
            c = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
            reference = companion_solution(a, b, c)
            quad = companion_solve_quadrature(a, b, c).solution
            assert np.linalg.norm(reference - quad) <= 1e-8 * np.linalg.norm(reference)

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
        reference = companion_solution(a, b, c)
        quad = companion_solve_quadrature(a, b, c).solution
        assert np.linalg.norm(reference - quad) <= 1e-8 * np.linalg.norm(reference)


def offset_of(a, b, s):
    """The offset of the companion value s on the prepared problem of (a, b)."""
    p = prepare(a, b, np.zeros((len(a), len(b))))
    s = np.asarray(s, dtype=complex)
    return p, compute_offset(p, s, reduced_rhs(p, s))


class TestOffset:
    def test_scalar_value(self):
        _, offset = offset_of([[2]], [[1]], [[1]])
        np.testing.assert_allclose(offset, [[2.5]], atol=1e-14)

    def test_scalar_identity_form(self, rng):
        # both in the sector, so prepare does not shift them
        a = rng.uniform(1.0, 2.0)
        b = rng.uniform(1.0, 2.0)
        s = rng.normal()
        _, offset = offset_of([[a]], [[b]], [[s]])
        np.testing.assert_allclose(offset, [[s * (b / a + a / b)]], atol=1e-13)

    def test_characterizing_equation(self, rng):
        # a r + r b = a^-1 c b + a c b^-1 where r is built from the companion
        # solution of c; this pins the offset as that equation's unique answer
        c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        p = prepare(sector_matrix(rng, 3), sector_matrix(rng, 2), c)
        a, b = p.a, p.b
        companion = companion_solution(a, b, c)
        offset = compute_offset(p, companion, reduced_rhs(p, companion))
        lhs = a @ offset + offset @ b
        rhs = np.linalg.inv(a) @ c @ b + a @ c @ np.linalg.inv(b)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_singular_factor_rejected(self):
        # prepare shifts a singular a away; a zero Schur diagonal still raises
        p, _ = offset_of([[2.0]], [[1.0]], [[1.0]])
        p = dataclasses.replace(p, schur_a=(np.zeros((1, 1), dtype=complex), p.schur_a[1]))
        with pytest.raises(InversionError):
            compute_offset(p, p.c, reduced_rhs(p, p.c))


class TestGeneralizedRegular:
    def test_closed_form_candidate(self, rng):
        # rhs assembled so that a s b^-1 is the unique solution of
        # a^2 x + a x b + x b^2 = rhs, regular inside the pi/3 sector
        a = sector_matrix(rng, 3, alpha=np.pi / 4)
        b = sector_matrix(rng, 2, alpha=np.pi / 4)
        c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        s = companion_solution(a, b, c)
        b_inv = np.linalg.inv(b)
        rhs = a @ a @ s + a @ s @ b + a @ a @ a @ s @ b_inv
        xi = gen_square_reference(a, b, rhs)
        assert xi.consistent and xi.nullity == 0
        expected = a @ s @ b_inv
        assert np.linalg.norm(xi.solution - expected) <= 1e-9 * np.linalg.norm(expected)


class TestCrossMethodUniqueness:
    def test_two_routes_agree(self, rng):
        for _ in range(5):
            a = sector_matrix(rng, 3)
            b = sector_matrix(rng, 3)
            c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            reference = companion_solution(a, b, c)
            quad = companion_solve_quadrature(a, b, c)
            gap = np.linalg.norm(reference - quad.solution)
            assert gap <= 1e-8 * max(np.linalg.norm(reference), 1e-30)
