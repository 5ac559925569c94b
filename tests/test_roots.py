import itertools

import numpy as np
import pytest

from sylvcert import numerics, regular, roots, singular
from sylvcert.blockalg import block_upper
from sylvcert.errors import DimensionError, NumericError, PreconditionError
from sylvcert.instances import (regular_pair, rhs_in_range, rhs_outside_range,
                                shared_jordan_pair, shared_semisimple_pair)
from sylvcert.numerics import frob, principal_sqrt, schur_sylvester
from sylvcert.oracle import oracle_solve
from sylvcert.regular import companion_solve_direct
from sylvcert.roots import (block_roots, homogeneous_equivalence,
                            homogeneous_nullspaces,
                            similarity_root_from_intertwiner,
                            solve_unipotent_quadratic, verify_unipotent_identity)
from sylvcert.singular import decide_sylvester, prepare, solve_uv_system

from conftest import assert_multiset_close, shared_cluster_pair


class TestNullspaces:
    def test_regular_pair_empty(self):
        p = prepare([[2]], [[1]], [[0]])
        x_basis, y_basis = homogeneous_nullspaces(p)
        assert x_basis == [] and y_basis == []

    def test_scalar_shared_everything_intertwines(self):
        p = prepare([[1]], [[1]], [[0]])
        x_basis, y_basis = homogeneous_nullspaces(p)
        assert len(x_basis) == 1 and len(y_basis) == 1
        np.testing.assert_allclose(np.abs(x_basis[0]), [[1.0]])

    def test_diag_pair_explicit_basis(self):
        p = prepare(np.diag([1.0, 2.0]), [[1.0]], np.zeros((2, 1)))
        x_basis, y_basis = homogeneous_nullspaces(p)
        assert len(x_basis) == 1
        np.testing.assert_allclose(x_basis[0], [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(y_basis[0], [[1.0, 0.0]], atol=1e-12)

    def test_bases_orthonormal_and_deterministic(self, rng):
        a, b = shared_jordan_pair(rng, 3, 2)
        p = prepare(a, b, np.zeros((3, 2)))
        first, _ = homogeneous_nullspaces(p)
        second, _ = homogeneous_nullspaces(p)
        assert len(first) >= 1
        for u, v in zip(first, second):
            np.testing.assert_array_equal(u, v)
        gram = np.array([[np.vdot(u.ravel(order="F"), v.ravel(order="F")) for v in first]
                         for u in first])
        np.testing.assert_allclose(gram, np.eye(len(first)), atol=1e-12)


class TestKernelOnce:
    def test_kernel_taken_once_per_problem(self, monkeypatch):
        calls = []
        kernel = singular.sylvester_kernel

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(singular, "sylvester_kernel", spy)
        rng = np.random.default_rng(101)
        a, b = shared_jordan_pair(rng, 6, 6)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        x_basis, y_basis = homogeneous_nullspaces(p)
        assert homogeneous_equivalence(p) == (True, True, True)
        # the x side once, held by the problem, and the y side once
        assert len(calls) == 2
        assert x_basis and y_basis
        # a second prepare of the same data is a new problem and recomputes
        again = prepare(a, b, c)
        homogeneous_equivalence(again)
        assert len(calls) == 3
        for x, y in zip(homogeneous_nullspaces(again)[0], x_basis, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_bases_are_read_only_fresh_lists(self):
        p = prepare(np.diag([1.0, 2.0]), [[1.0]], np.zeros((2, 1)))
        x_basis, y_basis = homogeneous_nullspaces(p)
        for basis in (x_basis, y_basis):
            with pytest.raises(ValueError):
                basis[0][0, 0] = 5.0
        x_basis.clear()
        assert len(homogeneous_nullspaces(p)[0]) == 1


def reference_similarity_root(p, x, side):
    """(root, similarity, square residual, similarity residual) of
    :func:`similarity_root_from_intertwiner`, with the blocks placed by hand
    and the similarity inverted by numpy."""
    n = p.n
    root = np.zeros((p.n + p.m,) * 2, dtype=complex)
    root[:n, :n], root[n:, n:] = p.a, -p.b
    similarity = np.eye(p.n + p.m, dtype=complex)
    if side == "upper":
        root[:n, n:] = x
        similarity[:n, n:] = schur_sylvester(p.schur_a, p.schur_b, x, +1)
    else:
        root[n:, :n] = x
        similarity[n:, :n] = -schur_sylvester(p.schur_b, p.schur_a, x, +1)
    d_minus, d_square = (np.zeros((p.n + p.m,) * 2, dtype=complex) for _ in range(2))
    d_minus[:n, :n], d_minus[n:, n:] = p.a, -p.b
    d_square[:n, :n], d_square[n:, n:] = p.a @ p.a, p.b @ p.b
    conjugated = np.linalg.inv(similarity) @ d_minus @ similarity
    return root, similarity, frob(root @ root - d_square), frob(conjugated - root)


class TestSimilarityRoots:
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_similarity_root_matches_a_dense_reference(self, side):
        for p in itertools.islice(seeded_bridge_problems(), 6):
            x_basis, y_basis = homogeneous_nullspaces(p)
            x = x_basis[0] if side == "upper" else y_basis[0]
            candidate = similarity_root_from_intertwiner(p, x, side)
            root, similarity, square, conjugation = reference_similarity_root(p, x, side)
            assert frob(candidate.root - root) == 0.0
            assert frob(candidate.similarity - similarity) <= 1e-12 * frob(similarity)
            scale = frob(p.a) ** 2 + frob(p.b) ** 2
            assert abs(candidate.residuals["square"] - square) <= 1e-12 * scale
            assert abs(candidate.residuals["similarity"] - conjugation) <= 1e-12 * scale
            assert candidate.is_square_root and not candidate.is_primary

    def test_zero_intertwiner_gives_primary_root(self):
        p = prepare(np.diag([1.0, 2.0]), [[1.0]], np.zeros((2, 1)))
        candidate = similarity_root_from_intertwiner(p, np.zeros((2, 1)))
        assert candidate.is_square_root
        assert candidate.is_primary
        np.testing.assert_array_equal(candidate.root, block_upper(p.a, 0, -p.b))

    def test_upper_side_nonprimary(self):
        p = prepare(np.diag([1.0, 2.0]), [[1.0]], np.zeros((2, 1)))
        x = homogeneous_nullspaces(p)[0][0]
        candidate = similarity_root_from_intertwiner(p, x, "upper")
        assert candidate.is_square_root and not candidate.is_primary
        assert candidate.residuals["similarity"] <= 1e-9
        # the similarity's coupling block intertwines as well
        t = candidate.similarity[:p.n, p.n:]
        assert frob(p.a @ t - t @ p.b) <= 1e-9 * (1 + frob(t))

    def test_lower_side_nonprimary(self):
        p = prepare(np.diag([1.0, 2.0]), [[1.0]], np.zeros((2, 1)))
        y = homogeneous_nullspaces(p)[1][0]
        candidate = similarity_root_from_intertwiner(p, y, "lower")
        assert candidate.is_square_root and not candidate.is_primary
        assert candidate.residuals["similarity"] <= 1e-9
        t = candidate.similarity[p.n:, :p.n]
        assert frob(p.b @ t - t @ p.a) <= 1e-9 * (1 + frob(t))

    def test_non_intertwiner_rejected(self):
        p = prepare(np.diag([1.0, 2.0]), [[1.0]], np.zeros((2, 1)))
        with pytest.raises(PreconditionError):
            similarity_root_from_intertwiner(p, np.array([[0.0], [1.0]]))

    def test_nonzero_coupled_solution_iff_nonprimary_root(self, rng):
        # existence of a nonzero solution on either side of the coupled
        # homogeneous system matches constructibility of a nonprimary root
        for _ in range(8):
            if rng.uniform() < 0.5:
                a, b = shared_semisimple_pair(rng, 2, 2)
            else:
                a, b = regular_pair(rng, 2, 2)
            p = prepare(a, b, np.zeros((2, 2)))
            x_basis, y_basis = homogeneous_nullspaces(p)
            coupled_nonzero = bool(x_basis) or bool(y_basis)
            if coupled_nonzero:
                source, side = (x_basis[0], "upper") if x_basis else (y_basis[0], "lower")
                candidate = similarity_root_from_intertwiner(p, source, side)
                assert candidate.is_square_root and not candidate.is_primary
            else:
                assert not x_basis and not y_basis


class TestHomogeneousEquivalence:
    def test_scalar_all_true(self):
        p = prepare([[1]], [[1]], [[0]])
        assert homogeneous_equivalence(p) == (True, True, True)

    def test_jordan_all_true(self):
        p = prepare(np.array([[1, 1], [0, 1]]), [[1]], np.zeros((2, 1)))
        assert homogeneous_equivalence(p) == (True, True, True)

    def test_shared_diag_all_true(self):
        p = prepare(np.diag([1.0, 2.0]), [[2.0]], np.zeros((2, 1)))
        triple = homogeneous_equivalence(p)
        assert triple == (True, True, True)
        x_basis, _ = homogeneous_nullspaces(p)
        np.testing.assert_allclose(x_basis[0], [[0.0], [1.0]], atol=1e-12)

    def test_disjoint_precondition_rejected(self):
        p = prepare(np.diag([1.0, 2.0]), [[3.0]], np.zeros((2, 1)))
        with pytest.raises(PreconditionError):
            homogeneous_equivalence(p)

    @pytest.mark.parametrize("k", [3, 4])
    def test_shared_jordan_block_gate_kernel_and_equivalence_agree(self, k):
        # a shared k x k Jordan block splits by about eps^(1/k), far above a
        # fixed 1e-8 gate; the gate, the kernel and the equivalence read one rule
        for seed in range(20):
            rng = np.random.default_rng([k, seed])
            n, m = k + int(rng.integers(0, 3)), k + int(rng.integers(0, 3))
            a, b = shared_cluster_pair(rng, k, None, n, m)
            p = prepare(a, b, np.zeros((n, m)))
            assert p.gate.spectra_intersect, seed
            x_basis, y_basis = homogeneous_nullspaces(p)
            assert len(x_basis) == len(y_basis) == k, seed
            assert homogeneous_equivalence(p) == (True, True, True), seed


class TestBlockRoots:
    def test_scalar_branches(self):
        p = prepare([[2]], [[1]], [[0]])
        roots = block_roots(p)
        assert roots.shape == (4, 2, 2)
        diagonals = [(complex(r[0, 0]), complex(r[1, 1])) for r in roots]
        expected = [(np.sqrt(2), 1j), (np.sqrt(2), -1j), (-np.sqrt(2), 1j), (-np.sqrt(2), -1j)]
        for expected_pair in expected:
            assert any(abs(d[0] - expected_pair[0]) < 1e-12
                       and abs(d[1] - expected_pair[1]) < 1e-12 for d in diagonals)

    def test_each_branch_squares_to_base(self, rng):
        a, b = shared_semisimple_pair(rng, 3, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        companion = companion_solve_direct(p.a, p.b, p.c).solution
        base = block_upper(p.a, -companion, -p.b)
        for root in block_roots(p):
            assert frob(root @ root - base) <= 1e-9 * frob(base)
            assert np.linalg.cond(root) < 1e8  # invertible

    def test_first_branch_eigenvalue_placement(self, rng):
        a, b = shared_semisimple_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        root = block_roots(p)[0]
        actual = np.linalg.eigvals(root)
        expected = np.concatenate([np.sqrt(np.linalg.eigvals(p.a).astype(complex)),
                                   1j * np.sqrt(np.linalg.eigvals(p.b).astype(complex))])
        assert_multiset_close(actual, expected, tol=1e-8)


class TestUnipotentQuadratic:
    def test_zero_rhs_identity_among_solutions(self):
        p = prepare([[2]], [[1]], [[0]])
        quad = solve_unipotent_quadratic(p)
        assert frob(quad.base - quad.target) == 0.0
        assert any(frob(q) <= 1e-12 for q in quad.q_values)

    def test_scalar_solvable_matches_witness(self):
        p = prepare([[2]], [[1]], [[3]])
        quad = solve_unipotent_quadratic(p)
        assert len(quad.q_values) >= 1
        np.testing.assert_allclose(quad.q_values[0], [[-2.5]], atol=1e-10)
        w = solve_uv_system(p)
        np.testing.assert_allclose(w.q, quad.q_values[0], atol=1e-9)

    def test_scalar_unsolvable_no_unipotent(self):
        p = prepare([[1]], [[1]], [[1]])
        quad = solve_unipotent_quadratic(p)
        assert quad.q_values == []
        assert any("coupling equation inconsistent" in note for note in quad.notes)
        # yet the quadratic equation itself has (non-unipotent) solutions
        assert len(quad.y_solutions) >= 1

    def test_results_are_dense_block_upper_triangular(self, rng):
        a, b = shared_jordan_pair(rng, 3, 2)
        p = prepare(a, b, rhs_in_range(rng, a, b))
        quad = solve_unipotent_quadratic(p)
        assert quad.base.shape == quad.target.shape == (5, 5)
        assert quad.base_roots.shape == (4, 5, 5)
        assert quad.y_solutions.ndim == 3 and quad.y_solutions.shape[1:] == (5, 5)
        for x in (quad.base, quad.target, *quad.base_roots, *quad.y_solutions):
            assert not np.any(x[3:, :3])
        np.testing.assert_array_equal(quad.base[:3, :3], p.a)
        np.testing.assert_array_equal(quad.target[3:, 3:], -p.b)
        np.testing.assert_allclose(quad.base[:3, 3:] - quad.target[:3, 3:], quad.offset,
                                   rtol=0, atol=1e-12 * frob(quad.base))

    def test_all_y_solve_quadratic(self, rng):
        a, b = shared_jordan_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        quad = solve_unipotent_quadratic(p)
        for y in quad.y_solutions:
            residual = frob(y @ quad.base @ y - quad.target)
            assert residual <= 1e-8 * max(frob(quad.target), 1.0) * (1 + frob(y)) ** 2

    def test_solvability_bridge(self, rng):
        # a unipotent solution exists in the enumerated family exactly when
        # the (u, v) system is consistent
        for _ in range(8):
            a, b = shared_semisimple_pair(rng, 2, 2)
            solvable = rng.uniform() < 0.5
            c = rhs_in_range(rng, a, b) if solvable else rhs_outside_range(rng, a, b)
            p = prepare(a, b, c)
            quad = solve_unipotent_quadratic(p)
            witness = solve_uv_system(p)
            assert (len(quad.q_values) > 0) == (witness is not None)


def seeded_bridge_problems():
    # shared-Jordan and shared-semisimple pairs, n, m <= 8, c in and out of range
    for family, seed, in_range in itertools.product(
            (shared_jordan_pair, shared_semisimple_pair), range(6), (True, False)):
        rng = np.random.default_rng([seed, int(in_range), family is shared_jordan_pair])
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a, b = family(rng, n, m)
        c = rhs_in_range(rng, a, b) if in_range else rhs_outside_range(rng, a, b)
        yield prepare(a, b, c)


def branch_products(quad):
    """P = R target R for each branch root R, in branch order."""
    return [root @ quad.target @ root for root in quad.base_roots]


class TestBranchCoupling:
    def test_coupling_decision_matches_oracle_per_branch(self):
        # a^2 s - s b^2 = P_12 is decided on the squared Schur factors; the
        # dense oracle must reach the same decision on every branch
        outcomes = set()
        for p in seeded_bridge_problems():
            quad = solve_unipotent_quadratic(p)
            (ta, qa), (tb, qb) = p.schur_a, p.schur_b
            a2, b2 = p.a @ p.a, p.b @ p.b
            for index, P in enumerate(branch_products(quad)):
                p12 = P[:p.n, p.n:]
                decision = decide_sylvester(a2, b2, (ta @ ta, qa), (tb @ tb, qb), p12)
                reference = oracle_solve("sylvester", a2, b2, p12)
                assert not (decision.near_cutoff or decision.marginal or reference.near_cutoff)
                consistent = decision.lstsq_residual <= decision.threshold
                assert consistent == reference.consistent, (p.n, p.m, index)
                noted = any(note.startswith(f"branch {index}: coupling equation inconsistent")
                            for note in quad.notes)
                assert noted == (not reference.consistent)
                outcomes.add(reference.consistent)
        assert outcomes == {True, False}

    def test_bridge_reuses_the_problem_schur_factors(self, monkeypatch):
        p = next(seeded_bridge_problems())

        def refuse(*args, **kwargs):
            pytest.fail("Schur factorization after prepare")

        monkeypatch.setattr(numerics, "complex_schur", refuse)
        monkeypatch.setattr(regular, "complex_schur", refuse)
        monkeypatch.setattr(singular, "complex_schur", refuse)
        homogeneous_equivalence(p)
        quad = solve_unipotent_quadratic(p)
        assert quad.q_values and verify_unipotent_identity(quad.q_values[0], p)

    def test_principal_root_diagonal_is_the_problem_pair(self):
        # on a prepared problem P = R target R has diagonal blocks a^2 and
        # b^2 with spectra in the sector, so their principal roots are a and b
        for p in seeded_bridge_problems():
            quad = solve_unipotent_quadratic(p)
            branches = branch_products(quad)
            assert len(branches) == 4
            for P in branches:
                assert frob(principal_sqrt(P[:p.n, :p.n]) - p.a) <= 1e-10 * frob(p.a)
                assert frob(principal_sqrt(P[p.n:, p.n:]) - p.b) <= 1e-10 * frob(p.b)


class TestStackedSearchFailsClosed:
    def test_overflowing_products_raise(self, rng):
        # a bridge-sized shared-Jordan problem scaled by 1e160: the branch
        # roots are finite, their products with the target overflow
        a, b = shared_jordan_pair(rng, 6, 6)
        c = rhs_in_range(rng, a, b)
        with np.errstate(all="ignore"):
            p = prepare(1e160 * a, 1e160 * b, 1e160 * c)
            with pytest.raises(NumericError):
                solve_unipotent_quadratic(p)

    def test_nonzero_lower_left_block_rejected(self):
        stack = np.tile(np.triu(np.ones((5, 5), dtype=complex)), (3, 1, 1))
        roots._checked(stack, 2)
        stack[1, 4, 0] = 1e-300
        with pytest.raises(PreconditionError):
            roots._checked(stack, 2)


class TestUnipotentIdentity:
    def test_q_of_the_wrong_shape_rejected(self):
        p = prepare(np.eye(2), [[1.0]], np.zeros((2, 1)))
        with pytest.raises(DimensionError):
            verify_unipotent_identity(np.zeros((1, 2)), p)
        with pytest.raises(DimensionError):
            verify_unipotent_identity([[0.0]], p)  # would broadcast into the 2x1 block

    def test_zero_offset(self):
        p = prepare([[2]], [[1]], [[0]])
        assert verify_unipotent_identity(np.zeros((1, 1)), p)

    def test_scalar_closed_form(self):
        # offset 2.5 and q(1) - 2 q = 2.5 force q = -2.5
        p = prepare([[2]], [[1]], [[3]])
        assert verify_unipotent_identity([[-2.5]], p)
        assert not verify_unipotent_identity([[2.5]], p)

    def test_witness_difference_passes(self, rng):
        a, b = shared_jordan_pair(rng, 2, 2)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        w = solve_uv_system(p)
        assert verify_unipotent_identity(w.q, p)
