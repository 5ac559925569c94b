import numpy as np
import pytest

from sylvcert.instances import regular_pair, shared_semisimple_pair
from sylvcert.numerics import vec
from sylvcert.oracle import _kron, build_operator, oracle_solve

from conftest import (dense_lstsq, gen_square_operator, uv_stacked_operator,
                      uv_stacked_reference)


class TestScalarCases:
    def test_regular_scalar(self):
        res = oracle_solve([[2]], [[1]], [[3]])
        np.testing.assert_allclose(res.solution, [[3.0]], atol=1e-12)
        assert res.residual <= 1e-14
        assert res.nullity == 0
        assert res.consistent

    def test_singular_scalar_inconsistent(self):
        res = oracle_solve([[1]], [[1]], [[1]])
        assert res.solution is None
        assert res.residual == pytest.approx(1.0)
        assert res.nullity == 1
        assert not res.consistent

    def test_right_hand_side_is_required(self):
        with pytest.raises(TypeError):
            oracle_solve([[1]], [[1]])


class TestStackedSystem:
    # the tests' dense (v, u) reference, checked against the oracle
    def test_jordan_instance_reconstruction(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        b = np.array([[1]], dtype=complex)
        c = np.array([[1], [0]], dtype=complex)
        res = uv_stacked_reference(a, b, c)
        assert res.consistent
        v, u = res.solution
        x = np.linalg.inv(a) @ u @ b @ b + u @ b
        # reconstructed solution satisfies the original equation
        assert np.linalg.norm(a @ x - x @ b - c) <= 1e-9
        # and matches the direct answer up to the homogeneous kernel
        direct = oracle_solve(a, b, c).solution
        difference = x - direct
        assert np.linalg.norm(a @ difference - difference @ b) <= 1e-9

    def test_unsolvable_instance_inconsistent(self):
        res = uv_stacked_reference([[1.0]], [[1.0]], [[1.0]])
        assert not res.consistent


class TestHomogeneous:
    # a x = x b is the equation at c = 0, and b y = y a the one on (b, a)
    def test_nullity_zero_iff_disjoint_spectra(self, rng):
        for _ in range(10):
            if rng.uniform() < 0.5:
                a, b = regular_pair(rng, 3, 2)
                expected_nullity_zero = True
            else:
                a, b = shared_semisimple_pair(rng, 3, 2)
                expected_nullity_zero = False
            res = oracle_solve(a, b, np.zeros((3, 2)))
            assert (res.nullity == 0) == expected_nullity_zero
            adj = oracle_solve(b, a, np.zeros((2, 3)))
            assert adj.nullity == res.nullity

    def test_homogeneous_solution_is_zero_vector(self, rng):
        a, b = regular_pair(rng, 2, 2)
        res = oracle_solve(a, b, np.zeros((2, 2)))
        assert res.consistent
        assert np.linalg.norm(res.solution) == 0.0


class TestRankConsistencyEquivalence:
    def test_residual_decision_matches_rank_decision(self, rng):
        # consistency by residual iff rank([K | rhs]) == rank(K), shared cutoff
        for _ in range(20):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            if rng.uniform() < 0.5:
                a, b = shared_semisimple_pair(rng, n, m)
            else:
                a, b = regular_pair(rng, n, m)
            c = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            res = oracle_solve(a, b, c)
            K = build_operator(a, b)
            rank_plain = dense_lstsq(K, np.zeros(K.shape[0]))[0].rank
            augmented = np.hstack([K, vec(c)[:, None]])
            rank_augmented = dense_lstsq(augmented, np.zeros(K.shape[0]))[0].rank
            assert res.consistent == (rank_augmented == rank_plain)


class TestOperators:
    def test_kron_is_numpys_bit_for_bit(self, rng):
        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a, b, r = cplx(3, 3), cplx(4, 4), cplx(2, 5)
        a[0, 0] = complex(-0.0, 0.0)
        for x, y in [(np.eye(4), a), (b.T, np.eye(3)), (a, b), (b.T, a @ a), (r, b),
                     (r.T, a), (a.T, r.T), (cplx(1, 1), r), (np.eye(1), np.eye(2))]:
            assert _kron(x, y).tobytes() == np.kron(x, y).tobytes()
            assert _kron(x, y).shape == np.kron(x, y).shape

    def test_operator_actions(self, rng):
        # each operator reproduces its equation's left side on random input:
        # the oracle's on both (a, b) and (b, a), and the tests' gen_square
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        y = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        cases = [
            (build_operator(a, b), a @ x - x @ b, x),
            (build_operator(b, a), b @ y - y @ a, y),
            (gen_square_operator(a, b), a @ a @ x + a @ x @ b + x @ b @ b, x),
        ]
        for K, expected, operand in cases:
            assert np.all(np.isfinite(K))
            actual = K @ vec(operand)
            assert np.linalg.norm(actual - vec(expected)) <= 1e-12 * np.linalg.norm(expected)

    def test_stacked_operator_action(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        v = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        K = uv_stacked_operator(a, b)
        stacked = np.concatenate([vec(v), vec(u)])
        action = K @ stacked
        first = a @ v + u @ b
        second = a @ a @ a @ v + a @ a @ v @ b + u @ b @ b @ b + a @ u @ b @ b
        expected = np.concatenate([vec(first), vec(second)])
        assert np.linalg.norm(action - expected) <= 1e-12 * np.linalg.norm(expected)
