import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sylvcert.errors import (BranchCutError, DimensionError, InversionError, NumericError,
                             ParameterError)
from sylvcert.instances import matrix_with_eigenvalues, random_sector_eigenvalues
from sylvcert.numerics import (as_complex_matrix, complex_schur, frob, kron_vec_operator,
                               lstsq_solve, mat_exp, orthonormal_columns, rank_cutoff,
                               reorder_schur,
                               schur_solve, schur_sqrt, schur_sylvester,
                               triangular_sylvester, unvec, vec)
from sylvcert.singular import prepare

from conftest import assert_multiset_close


def characteristic_polynomial(m):
    """Coefficients of det(lambda I - m) via Newton's identities on the
    power-sum traces (independent of any eigenvalue routine)."""
    n = m.shape[0]
    power_sums = []
    mk = np.eye(n, dtype=complex)
    for _ in range(n):
        mk = mk @ m
        power_sums.append(np.trace(mk))
    elementary = [1.0 + 0j]
    for k in range(1, n + 1):
        total = 0j
        for i in range(1, k + 1):
            total += (-1) ** (i - 1) * elementary[k - i] * power_sums[i - 1]
        elementary.append(total / k)
    return [(-1) ** k * elementary[k] for k in range(n + 1)]


class TestValidation:
    def test_scalar_coerces_to_1x1(self):
        m = as_complex_matrix(3)
        assert m.shape == (1, 1)
        assert m[0, 0] == 3

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            as_complex_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(NumericError):
            as_complex_matrix([[np.inf]])

    def test_three_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            as_complex_matrix(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("call", [
        lambda bad: lstsq_solve(bad, 0.0),
        lambda bad: kron_vec_operator(bad, [[1.0]], -1),
        lambda bad: kron_vec_operator([[1.0]], bad, -1),
        complex_schur,
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_exported_kernels_reject_non_finite_input(self, call, value):
        with pytest.raises(NumericError):
            call([[value]])

    def test_lstsq_takes_a_scalar_operator(self):
        np.testing.assert_allclose(lstsq_solve(2.0, 1e-12).minimum_norm([4.0]), [2.0])


def spectrum(m) -> np.ndarray:
    """The eigenvalues as the pipeline reads them: the Schur diagonal."""
    return complex_schur(m)[0].diagonal()


class TestEigenvalues:
    def test_one_by_one(self):
        assert_multiset_close(spectrum([[2]]), [2.0], tol=0)

    def test_triangular_exact(self):
        assert list(spectrum([[1, 1], [0, 1]])) == [1.0, 1.0]

    def test_random_triangular_diagonal_exact(self, rng):
        t = np.triu(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert list(spectrum(t)) == list(np.diag(t))

    def test_matches_characteristic_polynomial_roots(self, rng):
        # oracle: char-poly coefficients from traces, roots from the
        # companion matrix of those coefficients
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        expected = np.roots(characteristic_polynomial(m))
        assert_multiset_close(spectrum(m), expected, tol=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            complex_schur(np.zeros((2, 3)))


class TestMatExp:
    def test_zero_gives_exact_identity(self):
        result = mat_exp(np.zeros((2, 2)))
        assert np.array_equal(result, np.eye(2))

    def test_diagonal(self):
        result = mat_exp(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(result, np.diag([np.e, np.e ** 2]), rtol=1e-13)

    def test_nilpotent_truncates_series(self):
        result = mat_exp([[0, 1], [0, 0]])
        np.testing.assert_allclose(result, [[1, 1], [0, 1]], atol=1e-15)

    def test_inverse_property(self, rng):
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            product = mat_exp(m) @ mat_exp(-m)
            bound = 1e-10 * np.linalg.cond(mat_exp(m))
            assert np.linalg.norm(product - np.eye(4)) <= max(bound, 1e-12)


class TestPrincipalSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(schur_sqrt(complex_schur(np.eye(3))), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(schur_sqrt(complex_schur(np.diag([4.0, 9.0]))),
                                   np.diag([2.0, 3.0]), rtol=1e-14)

    def test_random_in_sector_residual(self, rng):
        for _ in range(10):
            # spectrum inside the quarter-sector, mild similarity
            eigs = rng.uniform(0.5, 2.0, 4) * np.exp(1j * rng.uniform(-np.pi / 5, np.pi / 5, 4))
            v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            v = v @ (np.eye(4) + 0.2 * rng.normal(size=(4, 4)))
            m = v @ np.diag(eigs) @ np.linalg.inv(v)
            s = schur_sqrt(complex_schur(m))
            assert np.linalg.norm(s @ s - m) <= 1e-10 * np.linalg.norm(m)
            assert spectrum(s).real.min() > 0

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            schur_sqrt(complex_schur(np.diag([-1.0, 1.0])))
        with pytest.raises(BranchCutError):
            schur_sqrt(complex_schur(np.zeros((2, 2))))

    def test_branch_cut_error_names_the_first_eigenvalue_on_the_cut(self):
        t = np.diag([4.0, -1.0, 0.0, -2.0]).astype(np.complex128)
        with pytest.raises(BranchCutError) as raised:
            schur_sqrt((t, np.eye(4)))
        assert str(raised.value) == (
            "eigenvalue (-1+0j) lies on the closed negative real axis; "
            "shift the matrix before taking the principal square root")
        # an imaginary part within 1e-13 of the scale is still on the cut
        t[1, 1], t[2, 2], t[3, 3] = 1.0, 9.0, -2.0 + 1e-13j
        with pytest.raises(BranchCutError, match=r"^eigenvalue \(-2\+1e-13j\) lies"):
            schur_sqrt((t, np.eye(4)))
        t[3, 3] = -2.0 + 1e-11j
        assert np.all(np.isfinite(schur_sqrt((t, np.eye(4)))))


class TestKronVecOperator:
    def test_scalar_difference(self):
        np.testing.assert_array_equal(kron_vec_operator([[2]], [[1]], -1), [[1]])

    def test_scalar_shared_eigenvalue(self):
        np.testing.assert_array_equal(kron_vec_operator([[1]], [[1]], -1), [[0]])

    def test_action_identity(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for sign in (+1, -1):
            K = kron_vec_operator(a, b, sign)
            for _ in range(20):
                x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
                direct = a @ x + sign * (x @ b)
                via_operator = unvec(K @ vec(x), 2, 3)
                assert np.linalg.norm(via_operator - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_bad_sign_rejected(self):
        with pytest.raises(ParameterError):
            kron_vec_operator([[1]], [[1]], 2)

    def test_equals_the_kronecker_form(self):
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            for m in range(1, 9):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                # a transposed view is a non-contiguous input
                for a_in, b_in in ((a, b), (a.T, b.T)):
                    for sign in (+1, -1):
                        expected = np.kron(np.eye(m), a_in) + sign * np.kron(b_in.T, np.eye(n))
                        assert np.array_equal(kron_vec_operator(a_in, b_in, sign), expected)


class TestFrob:
    @pytest.mark.parametrize("make", [
        lambda x: x,
        np.asfortranarray,
        lambda x: x.T,
        lambda x: x[::2, 1::2],
        lambda x: x.real,
        lambda x: x[0],
        lambda x: x[:0],
    ], ids=["c_order", "f_order", "transposed", "strided", "real", "1d", "empty"])
    def test_agrees_with_numpy(self, rng, make):
        m = make(rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6)))
        assert isinstance(frob(m), float)
        assert math.isclose(frob(m), float(np.linalg.norm(m)), rel_tol=1e-15)

    def test_overflow_is_inf_with_numpy_warning(self):
        m = np.full((3, 3), 1e200 + 1e200j)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert frob(m) == math.inf
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frob(m) == math.inf

    def test_nan_propagates(self):
        assert math.isnan(frob(np.array([[1.0, np.nan]], dtype=np.complex128)))
        assert math.isnan(frob(np.array([np.inf, np.nan])))


class TestOrthonormalColumns:
    def test_is_numpys_reduced_q(self, rng):
        # the thin Householder QR numpy.linalg.qr takes, by the same LAPACK
        # routines: orthonormal columns spanning the leading columns in turn
        for rows, cols in ((1, 1), (6, 1), (8, 3), (28, 2), (16, 16)):
            x = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            q = orthonormal_columns(x)
            assert q.shape == (rows, cols)
            assert frob(q.conj().T @ q - np.eye(cols)) <= 1e-14 * cols
            r = q.conj().T @ x
            assert frob(np.tril(r, -1)) <= 1e-14 * frob(x)
            np.testing.assert_allclose(q, np.linalg.qr(x)[0], rtol=0, atol=1e-13)


class TestLstsq:
    def test_empty_operator_keeps_its_empty_result(self, capfd):
        # gesdd would reject a 0-size operator and write to stderr
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            res = lstsq_solve(np.zeros((rows, cols)), 1e-12)
            np.testing.assert_array_equal(res.minimum_norm(np.zeros(rows)), np.zeros(cols))
            assert (res.rank, res.near_cutoff) == (0, False)
            assert res.null_space.shape == (cols, 0)
        assert capfd.readouterr() == ("", "")

    def test_identity_system(self):
        res = lstsq_solve(np.eye(2), 1e-12)
        np.testing.assert_array_equal(res.minimum_norm([1, 2]), [1, 2])
        assert res.rank == 2

    def test_inconsistent_zero_operator(self):
        res = lstsq_solve([[0.0]], 1e-12)
        assert res.rank == 0
        # the minimum-norm answer of 0 x = 1 is 0, with residual 1
        np.testing.assert_array_equal(res.minimum_norm([1.0]), [0])

    def test_jordan_range_minimum_norm(self):
        K = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = lstsq_solve(K, 1e-12)
        x = res.minimum_norm([1.0, 0.0])
        np.testing.assert_allclose(x, [0, 1], atol=1e-14)
        assert frob(K @ x - [1.0, 0.0]) <= 1e-14
        assert res.rank == 1

    def test_minimum_norm_among_solutions(self, rng):
        # wide consistent system: solution must be the pseudoinverse answer
        K = rng.normal(size=(2, 4))
        rhs = K @ rng.normal(size=4)
        x = lstsq_solve(K, 1e-12).minimum_norm(rhs)
        np.testing.assert_allclose(x, np.linalg.pinv(K) @ rhs, atol=1e-12)

    def test_rank_and_near_cutoff_are_judged_at_the_given_cutoff(self):
        # a singular value at the cutoff counts as zero and one just above
        # it does not, whatever K's own norm; near_cutoff flags a singular
        # value in (cutoff / 10, 10 cutoff]
        K = np.diag([1.0, 2.0 ** -10, 2.0 ** -30])
        for cutoff, rank, near in ((2.0 ** -10, 1, True),
                                   (np.nextafter(2.0 ** -10, 0.0), 2, True),
                                   (2.0 ** -20, 2, False),
                                   (5 * 2.0 ** -30, 2, True),
                                   (10 * 2.0 ** -30, 2, False),
                                   (0.0, 3, False),
                                   (2.0, 0, True)):
            res = lstsq_solve(K, cutoff)
            assert (res.rank, res.near_cutoff) == (rank, near), cutoff

    def test_callers_take_the_rank_rule_at_their_data_and_operator(self):
        # a singular value that is large against the operator but small
        # against the data it was built from counts as zero, and so does one
        # of a diagonal block judged by the rule of the operator it came from
        K = np.array([[1e-9, 0.0], [0.0, 1.0]])
        assert lstsq_solve(K, rank_cutoff(K.shape, 1.0)).rank == 2
        assert lstsq_solve(K, rank_cutoff(K.shape, 1e6)).rank == 1
        block = np.array([[1e-11]])
        assert lstsq_solve(block, rank_cutoff(block.shape, 1.0)).rank == 1
        assert lstsq_solve(block, rank_cutoff((100, 100), 1.0)).rank == 0


class TestSchurKernels:
    def test_factors_are_scipys_bitwise(self):
        rng = np.random.default_rng(11)
        for n in range(1, 71):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            t, q = complex_schur(m)
            t_ref, q_ref = scipy.linalg.schur(m, output="complex")
            assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref), n

    def test_nan_still_rejected_after_the_order_is_cached(self):
        complex_schur(np.eye(3))
        with pytest.raises(NumericError):
            complex_schur(np.diag([1.0, np.nan, 2.0]))

    def test_schur_factors_reproduce_the_matrix(self, rng):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        t, q = complex_schur(m)
        assert not np.any(np.tril(t, k=-1))
        np.testing.assert_allclose(q @ t @ q.conj().T, m, atol=1e-12)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(5), atol=1e-12)

    def test_reorder_moves_selected_eigenvalues_first(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        t, q = complex_schur(m)
        select = np.array([False, True, False, False, True, False])
        t2, q2 = reorder_schur(t, q, select)
        assert_multiset_close(t2.diagonal()[:2], t.diagonal()[select], tol=1e-10)
        np.testing.assert_allclose(q2 @ t2 @ q2.conj().T, m, atol=1e-12)

    @pytest.mark.parametrize("select, leads", [
        ([True, True, False, False, False, False], True),
        ([False] * 6, True),
        ([True] * 6, True),
        ([False, True, False, False, True, False], False),
        ([True, False, True, False, False, False], False),
    ])
    def test_reorder_gives_the_trsen_factors(self, rng, select, leads):
        # a selection that already leads is returned as it came, without a
        # trsen call, which would swap nothing; trsen reorders any other
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        t, q = complex_schur(m)
        t_ref, q_ref, *_, info = scipy.linalg.lapack.ztrsen(
            np.asarray(select, dtype=np.int32), t, q, job="N")
        assert info == 0
        t2, q2 = reorder_schur(t, q, np.array(select))
        assert np.array_equal(t2, t_ref) and np.array_equal(q2, q_ref)
        assert (t2 is t and q2 is q) == leads

    def test_triangular_sylvester_both_signs(self, rng):
        ta = np.triu(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) + 3 * np.eye(4)
        tb = np.triu(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) - 3 * np.eye(3)
        c = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        for sign in (1, -1):
            x = triangular_sylvester(ta, sign * tb, c, sign)
            np.testing.assert_allclose(ta @ x + x @ tb, c, atol=1e-12)

    def test_schur_sylvester_solves_in_original_coordinates(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 6 * np.eye(5)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) - 6 * np.eye(3)
        c = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        for sign, bb in ((1, b), (-1, -b)):
            x = schur_sylvester(complex_schur(a), complex_schur(bb), c, sign)
            np.testing.assert_allclose(a @ x + sign * x @ bb, c, atol=1e-11)
        # the companion equation a x + x b = c in closed form: a scalar, and
        # a = I, b = 1, which halves c
        x = schur_sylvester(complex_schur([[2]]), complex_schur([[1]]), [[3]], +1)
        np.testing.assert_allclose(x, [[1.0]], atol=1e-14)
        c = rng.normal(size=(2, 1))
        x = schur_sylvester(complex_schur(np.eye(2)), complex_schur([[1.0]]), c, +1)
        np.testing.assert_allclose(x, c / 2, atol=1e-14)
        # rectangular, from the Schur forms of a and b only: no nm x nm operator
        a = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, 40))
        b = matrix_with_eigenvalues(rng, random_sector_eigenvalues(rng, 30))
        c = rng.normal(size=(40, 30)) + 1j * rng.normal(size=(40, 30))
        x = schur_sylvester(complex_schur(a), complex_schur(b), c, +1)
        assert np.linalg.norm(a @ x + x @ b - c) <= 1e-10 * np.linalg.norm(c)

    def test_triangular_sylvester_shared_eigenvalue_rejected(self):
        t = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(InversionError):
            triangular_sylvester(t, t, np.ones((2, 2)), -1)

    def test_triangular_sylvester_empty_block(self):
        x = triangular_sylvester(np.eye(2), np.zeros((0, 0)), np.zeros((2, 0)), -1)
        assert x.shape == (2, 0)


class TestSchurSolve:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 6)])
    def test_agrees_with_an_lu_solve(self, rng, n, m):
        # random pairs, shifted into the sector by prepare; the right-hand
        # sides are rectangular, and a single column
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        p = prepare(a, b, np.zeros((n, m)))
        for k in (1, 3):
            left = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            right = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
            for got, expected in (
                    (schur_solve(p.schur_a, left), np.linalg.solve(p.a, left)),
                    (schur_solve(p.schur_b, right, "right"),
                     np.linalg.solve(p.b.T, right.T).T)):
                assert got.shape == expected.shape
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zero_diagonal_raises(self):
        t = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        q = np.eye(2, dtype=complex)
        with pytest.raises(InversionError):
            schur_solve((t, q), np.ones((2, 1)))
        with pytest.raises(InversionError):
            schur_solve((t, q), np.ones((1, 2)), "right")
