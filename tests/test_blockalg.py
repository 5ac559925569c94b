from dataclasses import dataclass

import numpy as np
import pytest

from sylvcert.blockalg import (_inverse_block, _monoid_flags, _operands, block_upper,
                               commutes_with_diag_pair)
from sylvcert.errors import DimensionError, InversionError, PreconditionError
from sylvcert.numerics import rank_cutoff


def cplx(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_block(rng, n=2, m=3):
    """A dense (n+m)-square matrix with a nonzero lower-left block."""
    return cplx(rng, n + m, n + m)


def sylvester_nullspace(a, b):
    """Test-local oracle: nullspace of x -> a x - x b via SVD."""
    n, m = a.shape[0], b.shape[0]
    K = np.kron(np.eye(m), a) - np.kron(b.T, np.eye(n))
    _, s, Vh = np.linalg.svd(K)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return [Vh[i].conj().reshape((n, m), order="F") for i in range(rank, n * m)]


@dataclass(frozen=True)
class _Membership:
    """Flags for membership in the paper's upper-triangular commutant: the
    monoid needs the first three, its invertible subgroup all four."""

    is_upper_triangular: bool
    commutes_with_a: bool
    commutes_with_b: bool
    invertible_diagonal: bool

    @property
    def in_monoid(self) -> bool:
        return self.is_upper_triangular and self.commutes_with_a and self.commutes_with_b

    @property
    def in_group(self) -> bool:
        return self.in_monoid and self.invertible_diagonal


def _numerically_invertible(blk) -> bool:
    s = np.linalg.svd(blk, compute_uv=False)
    return bool(s.size and s[0] > 0 and s[-1] > rank_cutoff(blk.shape, s[0]))


def _classify(x, a, b, tol=1e-9) -> _Membership:
    """The membership flags of the dense block matrix x, split after row and
    column ``a.shape[0]``, by the monoid test ``commutes_with_diag_pair``
    requires."""
    x, a, b = _operands(x, a, b)
    n = a.shape[0]
    return _Membership(*_monoid_flags(x, a, b, tol),
                       invertible_diagonal=_numerically_invertible(x[:n, :n])
                       and _numerically_invertible(x[n:, n:]))


class TestBlockUpper:
    def test_blocks_in_place(self, rng):
        x11, x12, x22 = cplx(rng, 2, 2), cplx(rng, 2, 3), cplx(rng, 3, 3)
        x = block_upper(x11, x12, x22)
        assert x.shape == (5, 5) and x.dtype == np.complex128
        np.testing.assert_array_equal(x[:2, :2], x11)
        np.testing.assert_array_equal(x[:2, 2:], x12)
        np.testing.assert_array_equal(x[2:, 2:], x22)
        assert not np.any(x[2:, :2])

    def test_zero_coupling_is_block_diagonal(self, rng):
        a, b = cplx(rng, 2, 2), cplx(rng, 3, 3)
        np.testing.assert_array_equal(block_upper(a, 0, b), block_upper(a, np.zeros((2, 3)), b))

    def test_ordinary_product_is_the_typed_product(self, rng):
        # on block upper-triangular operands the typed product, which drops
        # the off-diagonal cross terms, is the ordinary one
        for _ in range(10):
            x11, x12, x22 = cplx(rng, 2, 2), cplx(rng, 2, 3), cplx(rng, 3, 3)
            y11, y12, y22 = cplx(rng, 2, 2), cplx(rng, 2, 3), cplx(rng, 3, 3)
            typed = block_upper(x11 @ y11, x11 @ y12 + x12 @ y22, x22 @ y22)
            product = block_upper(x11, x12, x22) @ block_upper(y11, y12, y22)
            assert np.linalg.norm(product - typed) <= 1e-13 * np.linalg.norm(typed)

    def test_diagonal_embedding_squares(self, rng):
        # block-diagonal (a, -b) squares to the (a^2, b^2) embedding
        a, b = cplx(rng, 2, 2), cplx(rng, 3, 3)
        d_minus = block_upper(a, 0, -b)
        d_square = block_upper(a @ a, 0, b @ b)
        assert np.linalg.norm(d_minus @ d_minus - d_square) <= 1e-13 * np.linalg.norm(d_square)

    def test_intertwiner_embedding_squares(self):
        # x with a x = x b makes [[a, x], [0, -b]] square to the (a^2, b^2) embedding
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0]])
        basis = sylvester_nullspace(a, b)
        assert len(basis) == 1
        candidate = block_upper(a, 3.7 * basis[0], -b)
        assert np.linalg.norm(candidate @ candidate - block_upper(a @ a, 0, b @ b)) <= 1e-12


class TestInverseBlock:
    def test_inverse(self, rng):
        blk = np.eye(3) + 0.3 * cplx(rng, 3, 3)
        inv = _inverse_block(blk, "upper-left")
        assert np.linalg.norm(blk @ inv - np.eye(3)) <= 1e-12

    def test_singular_block_rejected(self):
        with pytest.raises(InversionError, match="upper-left"):
            _inverse_block(np.zeros((2, 2)), "upper-left")
        # a subnormal pivot: LAPACK inverts it to inf
        with pytest.raises(InversionError, match="working precision"):
            _inverse_block(np.array([[1e-310]]), "lower-right")


class TestCommutantClassification:
    def test_unit_is_group_member(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        membership = _classify(np.eye(5), a, b)
        assert membership.in_group

    def test_diag_pair_membership_needs_invertible_blocks(self, rng):
        a, b = cplx(rng, 2, 2), cplx(rng, 3, 3)
        assert _classify(block_upper(a, 0, b), a, b).in_group
        singular_a = np.diag([1.0, 0.0])
        membership = _classify(block_upper(singular_a, 0, b), singular_a, b)
        assert membership.in_monoid
        assert not membership.in_group

    def test_lower_left_block_breaks_membership(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert not _classify(random_block(rng), a, b).is_upper_triangular

    def test_group_element_inverse(self, rng):
        # a member of the invertible triangular commutant over commuting picks
        a, b = cplx(rng, 2, 2), cplx(rng, 3, 3)
        u = block_upper(np.eye(2) + 0.5 * a, cplx(rng, 2, 3), np.eye(3) + 0.5 * b)
        assert _classify(u, a, b).in_group
        # the group is closed: the inverse classifies into the same group
        assert _classify(np.linalg.inv(u), a, b).in_group

    def test_group_closed_under_product(self, rng):
        a, b = cplx(rng, 2, 2), cplx(rng, 2, 2)
        members = []
        for _ in range(2):
            u1 = np.eye(2) + rng.uniform(0.1, 0.6) * a + rng.uniform(0.0, 0.3) * a @ a
            u4 = np.eye(2) + rng.uniform(0.1, 0.6) * b
            members.append(block_upper(u1, cplx(rng, 2, 2), u4))
        assert _classify(members[0] @ members[1], a, b).in_group

    def test_split_read_from_a(self, rng):
        # the same 5x5 matrix splits after row 2 for a 2x2 a and after row 3
        # for a 3x3 a, where the dense x22 reaches into the lower-left block
        x = block_upper(np.eye(2), cplx(rng, 2, 3), cplx(rng, 3, 3))
        assert _classify(x, np.eye(2), np.eye(3)).is_upper_triangular
        assert not _classify(x, np.eye(3), np.eye(2)).is_upper_triangular

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            _classify(np.eye(5), np.eye(2), np.eye(2))
        with pytest.raises(DimensionError):
            commutes_with_diag_pair(np.eye(4)[:, :3], np.eye(2), np.eye(2))


class TestCommutesWithDiagPair:
    def test_unit_commutes(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert commutes_with_diag_pair(np.eye(5), a, b)

    def test_intertwiner_block_commutes(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0]])
        x = sylvester_nullspace(a, b)[0] * 2.0
        assert commutes_with_diag_pair(block_upper(np.eye(2), x, np.eye(1)), a, b)

    def test_generic_block_does_not_commute(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0]])
        c = np.array([[0.3], [1.1]])  # not an intertwiner: second row couples 2 vs 1
        assert not commutes_with_diag_pair(block_upper(np.eye(2), c, np.eye(1)), a, b)

    def test_equivalence_with_intertwining_residual(self, rng):
        # commutation holds exactly when the upper-right block intertwines
        a, b = cplx(rng, 2, 2), cplx(rng, 2, 2)
        for _ in range(10):
            u2 = cplx(rng, 2, 2)
            commutes = commutes_with_diag_pair(block_upper(np.eye(2), u2, np.eye(2)), a, b)
            residual = np.linalg.norm(a @ u2 - u2 @ b)
            scale = np.linalg.norm(a) * np.linalg.norm(u2) + np.linalg.norm(b) * np.linalg.norm(u2)
            assert commutes == (residual <= 1e-9 * scale)

    def test_non_member_rejected(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        with pytest.raises(PreconditionError):
            commutes_with_diag_pair(random_block(rng), a, b)
        # upper triangular, but its diagonal block does not commute with a
        x = block_upper(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)), np.eye(1))
        with pytest.raises(PreconditionError):
            commutes_with_diag_pair(x, np.diag([1.0, 2.0]), np.eye(1))
