import itertools

import numpy as np
import pytest

from sylvcert import numerics, regular, roots, singular
from sylvcert.blockalg import block_upper
from sylvcert.errors import DimensionError, NumericError, PreconditionError
from sylvcert.instances import (regular_pair, rhs_in_range, rhs_outside_range,
                                shared_jordan_pair, shared_semisimple_pair)
from sylvcert.numerics import (as_complex_matrix, complex_schur, frob, schur_sqrt,
                               schur_sylvester)
from sylvcert.oracle import oracle_solve
from sylvcert.roots import (_branch_roots, block_roots, homogeneous_equivalence,
                            homogeneous_nullspaces,
                            similarity_root_from_intertwiner,
                            solve_unipotent_quadratic)
from sylvcert.singular import (DEFAULT_TOL, decide_sylvester, prepare,
                               solve_uv_report, unipotent_identity_residual)

from conftest import (assert_multiset_close, candidate_repeat_gaps, closed_form_gaps,
                      reference_unipotent_quadratic, relative_gap, shared_cluster_pair)


def verify_unipotent_identity(q, p, tol=DEFAULT_TOL) -> bool:
    """Whether [[I, q], [0, I]] conjugates the base matrix into the target,
    judged on the reduced form q b - a q = r; the block form's residual must
    agree with it."""
    q = as_complex_matrix(q, "q")
    if q.shape != (p.n, p.m):
        raise DimensionError(f"q must be {p.n}x{p.m}, got {q.shape}")
    base, target = roots._base_and_target(p)
    y = block_upper(np.eye(p.n), q, np.eye(p.m))
    block_residual = frob(y @ base @ y - target)
    reduced_residual, threshold = unipotent_identity_residual(q, p, tol)
    assert abs(block_residual - reduced_residual) <= 1e-9 * threshold / tol + 1e-12
    return reduced_residual <= threshold


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

        # the pair's kernel and cokernel both take it from singular
        monkeypatch.setattr(singular, "sylvester_kernel", spy)
        rng = np.random.default_rng(101)
        a, b = shared_jordan_pair(rng, 6, 6)
        c = rhs_in_range(rng, a, b)
        p = prepare(a, b, c)
        x_basis, y_basis = homogeneous_nullspaces(p)
        assert homogeneous_equivalence(p) == (True, True, True)
        # the x side once and the y side once, both held by the problem
        assert len(calls) == 2
        assert x_basis and y_basis
        homogeneous_nullspaces(p)
        assert len(calls) == 2
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
        companion = schur_sylvester(p.schur_a, p.schur_b, p.c, +1)
        base = block_upper(p.a, -companion, -p.b)
        for root in block_roots(p):
            assert frob(root @ root - base) <= 1e-9 * frob(base)
            assert np.linalg.cond(root) < 1e8  # invertible

    def test_inverses_of_the_two_sign_classes(self, rng):
        # the search reads the inverses of branches 0 and 1 only
        a, b = shared_jordan_pair(rng, 3, 2)
        p = prepare(a, b, rhs_in_range(rng, a, b))
        base = block_upper(p.a, -p.companion, -p.b)
        roots, inverses = _branch_roots(p, base, DEFAULT_TOL)
        assert roots.shape == (4, 5, 5) and inverses.shape == (2, 5, 5)
        np.testing.assert_array_equal(roots, block_roots(p))
        for root, inverse in zip(roots[:2], inverses, strict=True):
            assert frob(root @ inverse - np.eye(5)) <= 1e-10 * np.linalg.cond(root)

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
        w = solve_uv_report(p).witness
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
        np.testing.assert_allclose(quad.base[:3, 3:] - quad.target[:3, 3:], p.offset,
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
            witness = solve_uv_report(p).witness
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
        # the (a, -b) coupling a X - X b = P_12 is decided on the problem's
        # own pair; the dense oracle must reach the same decision on every
        # branch, and so must its decision of the squared coupling
        # a^2 s - s b^2 = P_12, which s -> a s + s b maps onto it one to one
        outcomes = set()
        for p in seeded_bridge_problems():
            quad = solve_unipotent_quadratic(p)
            for index, P in enumerate(branch_products(quad)):
                p12 = P[:p.n, p.n:]
                decision = decide_sylvester(p, p12)
                reference = oracle_solve(p.a, p.b, p12)
                squared = oracle_solve(p.a @ p.a, p.b @ p.b, p12)
                assert not (decision.near_cutoff or decision.marginal or reference.near_cutoff
                            or squared.near_cutoff)
                consistent = decision.lstsq_residual <= decision.threshold
                assert consistent == reference.consistent == squared.consistent, \
                    (p.n, p.m, index)
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
                assert frob(schur_sqrt(complex_schur(P[:p.n, :p.n])) - p.a) <= 1e-10 * frob(p.a)
                assert frob(schur_sqrt(complex_schur(P[p.n:, p.n:])) - p.b) <= 1e-10 * frob(p.b)


class TestSignClasses:
    def test_last_two_branches_are_the_negatives_of_the_first_two(self):
        # (-1, -i) and (-1, i) flip both signs of (1, i) and (1, -i), and the
        # stacked products negate exactly
        for p in seeded_bridge_problems():
            branch_roots = solve_unipotent_quadratic(p).base_roots
            assert np.array_equal(branch_roots[3], -branch_roots[0])
            assert np.array_equal(branch_roots[2], -branch_roots[1])

    def test_search_takes_one_decision_per_class_and_one_principal_solve(self, monkeypatch):
        decided, solved = [], []
        decide, solve = roots.decide_sylvester, roots.schur_sylvester

        def decide_spy(*args):
            decided.append(np.asarray(args[1]).shape)
            return decide(*args)

        def solve_spy(schur_a, schur_b, rhs, sign):
            solved.append(rhs)
            return solve(schur_a, schur_b, rhs, sign)

        monkeypatch.setattr(roots, "decide_sylvester", decide_spy)
        monkeypatch.setattr(roots, "schur_sylvester", solve_spy)
        for p in itertools.islice(seeded_bridge_problems(), 4):
            companion = p.companion
            decided.clear()
            solved.clear()
            quad = solve_unipotent_quadratic(p)
            assert decided == [(p.n, p.m)] * 2
            # the coupling of the branch roots, then class 0's principal root,
            # the one principal root of both classes
            assert len(solved) == 2
            np.testing.assert_array_equal(solved[0], -companion)
            root = quad.base_roots[0]
            np.testing.assert_array_equal(solved[1], root[:p.n] @ quad.target @ root[:, p.n:])

    @pytest.mark.parametrize("family", [shared_jordan_pair, shared_semisimple_pair])
    @pytest.mark.parametrize("in_range", [True, False])
    def test_matches_the_four_branch_reference_at_the_bridge_size(self, family, in_range):
        # the property test draws n, m <= 8; the bridge workload runs up to 12
        for seed in range(3):
            rng = np.random.default_rng([12, seed, int(in_range)])
            a, b = family(rng, 12, 12)
            c = rhs_in_range(rng, a, b) if in_range else rhs_outside_range(rng, a, b)
            p = prepare(a, b, c)
            base_roots, y_solutions, q_values, notes = reference_unipotent_quadratic(p)
            quad = solve_unipotent_quadratic(p)
            assert quad.notes == notes
            assert len(quad.y_solutions) == len(y_solutions)
            assert len(quad.q_values) == len(q_values) and bool(q_values) == in_range
            for root, expected in zip(quad.base_roots, base_roots, strict=True):
                assert relative_gap(root, expected) <= 1e-12
            for y, expected in zip(quad.y_solutions, y_solutions, strict=True):
                assert relative_gap(y, expected) <= 1e-10
            for q, expected in zip(quad.q_values, q_values, strict=True):
                assert relative_gap(q, expected) <= 1e-10


class TestClosedFormBlocks:
    """The search assembles its branch roots and inverses from their blocks
    and forms only the corner P_12 of P = R target R; each must agree with
    the literal product it stands for."""

    def test_roots_inverses_and_corners_are_the_literal_products(self):
        for p in seeded_bridge_problems():
            root_gaps, inverse_gaps, corner_gaps = closed_form_gaps(p)
            assert len(root_gaps) == 4 and len(inverse_gaps) == len(corner_gaps) == 2
            assert max(root_gaps) <= 1e-13, (p.n, p.m)
            assert max(inverse_gaps) <= 1e-13, (p.n, p.m)
            assert max(corner_gaps) <= 1e-13, (p.n, p.m)


class TestSignPairs:
    """The premise of the search: negating a candidate Z negates Y = R^-1 Z
    R^-1 exactly and leaves the residual of Y base Y = target and the norm
    of Y as they are, and a branch root's negative has its square's
    residual.  If a BLAS broke it, the search would change its answers."""

    @staticmethod
    def candidate_pairs(p, products):
        """Each class's candidates Z built as the search builds them, from
        the principal corner and the coupling X of a X - X b = P_12, next to
        their negatives: the principal root's, the (-a, b) variant
        [[-a, -X], [0, b]], and the (-a, -b) variant built from the s with
        a s + s b = X as the four-branch reference builds it."""
        a, b, n = p.a, p.b, p.n
        for k, p12 in enumerate(products[:, :n, n:]):
            principal = block_upper(a, schur_sylvester(p.schur_a, p.schur_b, p12, +1), b)
            yield k, principal, -principal
            coupling = decide_sylvester(p, p12)
            if coupling.lstsq_residual <= coupling.threshold:
                x = coupling.u
                yield k, block_upper(a, x, -b), block_upper(-a, -x, b)
                s = schur_sylvester(p.schur_a, p.schur_b, x, +1)
                yield k, block_upper(a, a @ s - s @ b, b), block_upper(-a, (-a) @ s - s @ (-b), -b)

    def test_negated_candidates_give_negated_solutions(self):
        coupled = set()
        for p in seeded_bridge_problems():
            base, target = roots._base_and_target(p)
            branch_roots, inverses = _branch_roots(p, base, DEFAULT_TOL)
            products = np.stack([root @ target @ root for root in branch_roots[:2]])
            count = 0
            for k, first, negative in self.candidate_pairs(p, products):
                assert np.array_equal(negative, -first)
                inverse = inverses[[k, k]]
                y = inverse @ np.stack((first, negative)) @ inverse
                assert np.array_equal(y[1], -y[0])
                residuals = np.linalg.norm(y @ base @ y - target, axis=(1, 2))
                norms = np.linalg.norm(y, axis=(1, 2))
                assert residuals[1] == residuals[0] and norms[1] == norms[0]
                count += 1
            coupled.add(count)
        # with and without consistent couplings
        assert min(coupled) < 6 and max(coupled) == 6

    def test_negated_branches_square_to_the_same_residuals(self):
        for p in seeded_bridge_problems():
            base, _ = roots._base_and_target(p)
            branch_roots = block_roots(p)
            residuals = np.linalg.norm(branch_roots @ branch_roots - base, axis=(1, 2))
            assert residuals[3] == residuals[0] and residuals[2] == residuals[1]

    def test_the_search_makes_no_trsen_call(self, monkeypatch):
        # the couplings are decided on the problem's pair, whose factors
        # prepare ordered cluster first once
        calls = []
        trsen = numerics.lapack.ztrsen

        def spy(*args, **kwargs):
            calls.append(args)
            return trsen(*args, **kwargs)

        monkeypatch.setattr(numerics.lapack, "ztrsen", spy)
        for p in seeded_bridge_problems():
            calls.clear()
            solve_unipotent_quadratic(p)
            assert calls == []


class TestRepeatedCandidates:
    """The identities behind multiplying out one principal root per problem
    and no (a, b) variant, checked on candidates built one at a time.

    * Every branch gives one principal Y.  For a branch root R of B = base,
      R T R = R (T B) R^-1, and a similarity commutes with the principal
      root, so R^-1 (R T R)^{1/2} R^-1 = (T B)^{1/2} B^-1, whatever R.
    * The (a, b) variant is the principal root: for every solution X of
      the coupling a X - X b = P_12 and the s with a s + s b = X, its
      corner a s - s b solves a w + w b = a X - X b = P_12, which has one
      solution, since the spectra of a and -b are disjoint."""

    def test_principal_roots_agree_and_the_ab_variant_is_the_principal(self):
        coupled = 0
        for p in seeded_bridge_problems():
            principal_gaps, variant_gaps = candidate_repeat_gaps(p)
            assert len(principal_gaps) == 4 and max(principal_gaps) <= 1e-10
            assert all(gap <= 1e-10 for gap in variant_gaps)
            coupled += len(variant_gaps)
        assert coupled > 0


def all_pairs_repeats(y, indices):
    """The repeat rule, comparing every kept y with numpy's norm."""
    kept = []
    for i in indices:
        bound = 1e-8 * (1.0 + np.linalg.norm(y[i]))
        if not any(np.linalg.norm(y[j] - y[i]) <= bound for j in kept):
            kept.append(i)
    return kept


class TestDropRepeats:
    @staticmethod
    def drop(y, indices):
        return roots._drop_repeats(y, np.linalg.norm(y, axis=(1, 2)).tolist(), indices)

    @staticmethod
    def random_stack(rng, k, size=4):
        return (rng.normal(size=(k, size, size))
                + 1j * rng.normal(size=(k, size, size))) * rng.uniform(0.01, 100.0, (k, 1, 1))

    def test_planted_repeats(self, rng):
        for _ in range(20):
            y = self.random_stack(rng, 12)
            for i in rng.choice(12, size=5, replace=False).tolist():
                # a repeat of an earlier matrix, within a tenth of the bound
                j = int(rng.integers(0, 12))
                step = rng.normal(size=y[j].shape)
                y[i] = y[j] + 1e-9 * step / np.linalg.norm(step)
            indices = rng.permutation(12).tolist()
            expected = all_pairs_repeats(y, indices)
            assert len(expected) < 12
            assert self.drop(y, indices) == expected

    def test_equal_norm_non_repeats_are_kept(self, rng):
        y = self.random_stack(rng, 3)
        y = np.concatenate((y, -y, 1j * y, y.transpose(0, 2, 1)))
        indices = list(range(len(y)))
        assert self.drop(y, indices) == all_pairs_repeats(y, indices) == indices

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_repeats_at_the_margin(self, rng, factor):
        # y_i = (1 + delta) y_j: the norms differ by the whole distance, a
        # hair inside or outside the bound
        y = self.random_stack(rng, 8)
        for i, j in ((1, 0), (4, 2), (7, 5)):
            norm = np.linalg.norm(y[j])
            delta = factor * 1e-8 * (1.0 + norm) / (norm - factor * 1e-8 * norm)
            y[i] = (1.0 + delta) * y[j]
        indices = list(range(8))
        expected = all_pairs_repeats(y, indices)
        assert len(expected) == (5 if factor < 1 else 8)
        assert self.drop(y, indices) == expected

    def test_norm_gate_skips_distant_matrices(self, rng, monkeypatch):
        # matrices whose norms differ by more than twice the bound are never
        # subtracted; each kept one with a close norm costs one frob
        differences = []
        monkeypatch.setattr(roots, "frob", lambda x: differences.append(x) or frob(x))
        y = self.random_stack(rng, 6)
        y = np.concatenate((y, -y[:2]))
        assert self.drop(y, list(range(8))) == list(range(8))
        assert len(differences) == 2


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
        w = solve_uv_report(p).witness
        assert verify_unipotent_identity(w.q, p)
