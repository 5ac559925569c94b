import numpy as np
import pytest

from sylvcert.blockalg import (BlockMatrix, block_identity, block_inverse,
                               block_mul, classify_triangular_commutant,
                               commutes_with_diag_pair, diag_embed)
from sylvcert.errors import DimensionError, InversionError, PreconditionError


def random_block(rng, n=2, m=3):
    shape = lambda r, c: rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
    return BlockMatrix(shape(n, n), shape(n, m), shape(m, n), shape(m, m))


def sylvester_nullspace(a, b):
    """Test-local oracle: nullspace of x -> a x - x b via SVD."""
    n, m = a.shape[0], b.shape[0]
    K = np.kron(np.eye(m), a) - np.kron(b.T, np.eye(n))
    _, s, Vh = np.linalg.svd(K)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return [Vh[i].conj().reshape((n, m), order="F") for i in range(rank, n * m)]


class TestProduct:
    def test_unit_law(self, rng):
        one = block_identity(2, 3)
        x = random_block(rng)
        for product in (block_mul(one, x), block_mul(x, one)):
            assert (product - x).norm() <= 1e-14 * x.norm()

    def test_off_diagonal_spaces_multiply_to_zero(self, rng):
        # the typed product drops the cross terms a full 2x2 product would keep
        n, m = 2, 3
        upper = BlockMatrix.upper(np.zeros((n, n)), rng.normal(size=(n, m)), np.zeros((m, m)))
        lower = BlockMatrix.lower(np.zeros((n, n)), rng.normal(size=(m, n)), np.zeros((m, m)))
        product = block_mul(upper, lower)
        assert product.norm() == 0.0
        flat = upper.flatten() @ lower.flatten()
        assert np.linalg.norm(flat) > 0.1  # the flattened product does not vanish

    def test_diag_embed_squares(self, rng):
        # block-diagonal (a, -b) squares to the (a^2, b^2) embedding
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        d_minus = diag_embed(a, -b)
        d_square = diag_embed(a @ a, b @ b)
        assert (block_mul(d_minus, d_minus) - d_square).norm() <= 1e-13 * d_square.norm()

    def test_intertwiner_embedding_squares(self):
        # x with a x = x b makes [[a, x], [0, -b]] square to the (a^2, b^2) embedding
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0]])
        basis = sylvester_nullspace(a, b)
        assert len(basis) == 1
        x = 3.7 * basis[0]
        candidate = BlockMatrix.upper(a, x, -b)
        d_square = diag_embed(a @ a, b @ b)
        assert (block_mul(candidate, candidate) - d_square).norm() <= 1e-12

    def test_associativity(self, rng):
        for _ in range(10):
            x, y, z = (random_block(rng) for _ in range(3))
            left = block_mul(block_mul(x, y), z)
            right = block_mul(x, block_mul(y, z))
            assert (left - right).norm() <= 1e-12 * max(left.norm(), 1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            block_mul(random_block(rng, 2, 3), random_block(rng, 3, 2))


class TestInverse:
    def test_identity(self):
        one = block_identity(2, 2)
        inv = block_inverse(one)
        assert (inv - one).norm() == 0.0

    def test_unipotent_inverse_is_negated_coupling(self, rng):
        p = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        u = BlockMatrix.upper(np.eye(2), p, np.eye(3))
        inv = block_inverse(u)
        np.testing.assert_array_equal(inv.a12, -p)
        np.testing.assert_array_equal(inv.a11, np.eye(2))

    def test_two_sided_inverse_dense_blocks(self, rng):
        for _ in range(10):
            x = random_block(rng)
            inv = block_inverse(x)
            one = block_identity(x.n, x.m)
            assert (block_mul(x, inv) - one).norm() <= 1e-10 * max(1.0, x.norm() * inv.norm())
            assert (block_mul(inv, x) - one).norm() <= 1e-10 * max(1.0, x.norm() * inv.norm())

    def test_group_element_inverse(self, rng):
        # random member of the invertible triangular commutant over commuting picks
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u1 = np.eye(2) + 0.5 * a  # commutes with a, generically invertible
        u4 = np.eye(3) + 0.5 * b
        u2 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        u = BlockMatrix.upper(u1, u2, u4)
        inv = block_inverse(u)
        one = block_identity(2, 3)
        assert (block_mul(u, inv) - one).norm() <= 1e-10 * max(1.0, u.norm() * inv.norm())
        # the group is closed: the inverse classifies into the same group
        membership = classify_triangular_commutant(inv, a, b)
        assert membership.in_group

    def test_singular_diagonal_rejected(self):
        x = BlockMatrix.upper(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(InversionError):
            block_inverse(x)

    def test_group_closed_under_product(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        members = []
        for _ in range(2):
            u1 = np.eye(2) + rng.uniform(0.1, 0.6) * a + rng.uniform(0.0, 0.3) * a @ a
            u4 = np.eye(2) + rng.uniform(0.1, 0.6) * b
            u2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            members.append(BlockMatrix.upper(u1, u2, u4))
        product = block_mul(members[0], members[1])
        assert classify_triangular_commutant(product, a, b).in_group


class TestCommutantClassification:
    def test_unit_is_group_member(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        membership = classify_triangular_commutant(block_identity(2, 3), a, b)
        assert membership.in_group

    def test_diag_pair_membership_needs_invertible_blocks(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert classify_triangular_commutant(diag_embed(a, b), a, b).in_group
        singular_a = np.diag([1.0, 0.0])
        membership = classify_triangular_commutant(diag_embed(singular_a, b), singular_a, b)
        assert membership.in_monoid
        assert not membership.in_group

    def test_lower_left_block_breaks_membership(self, rng):
        x = random_block(rng)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert not classify_triangular_commutant(x, a, b).is_upper_triangular

    def test_trivial_k_flag_zeroes_block(self, rng):
        x = BlockMatrix.of(np.eye(2), np.zeros((2, 3)), rng.normal(size=(3, 2)), np.eye(3),
                           trivial_k=True)
        assert not np.any(x.a21)


class TestCommutesWithDiagPair:
    def test_unit_commutes(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert commutes_with_diag_pair(block_identity(2, 3), a, b)

    def test_intertwiner_block_commutes(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0]])
        x = sylvester_nullspace(a, b)[0] * 2.0
        u = BlockMatrix.upper(np.eye(2), x, np.eye(1))
        assert commutes_with_diag_pair(u, a, b)

    def test_generic_block_does_not_commute(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0]])
        c = np.array([[0.3], [1.1]])  # not an intertwiner: second row couples 2 vs 1
        u = BlockMatrix.upper(np.eye(2), c, np.eye(1))
        assert not commutes_with_diag_pair(u, a, b)

    def test_equivalence_with_intertwining_residual(self, rng):
        # commutation holds exactly when the upper-right block intertwines
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for _ in range(10):
            u2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u = BlockMatrix.upper(np.eye(2), u2, np.eye(2))
            commutes = commutes_with_diag_pair(u, a, b)
            residual = np.linalg.norm(a @ u2 - u2 @ b)
            scale = np.linalg.norm(a) * np.linalg.norm(u2) + np.linalg.norm(b) * np.linalg.norm(u2)
            assert commutes == (residual <= 1e-9 * scale)

    def test_non_member_rejected(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        with pytest.raises(PreconditionError):
            commutes_with_diag_pair(random_block(rng), a, b)
        # upper triangular, but its diagonal block does not commute with a
        x = BlockMatrix.upper(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)), np.eye(1))
        with pytest.raises(PreconditionError):
            commutes_with_diag_pair(x, np.diag([1.0, 2.0]), np.eye(1))
