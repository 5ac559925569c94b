"""Seeded random instance generators for tests and the bundled corpus.

All generators take a ``numpy.random.Generator`` so runs are reproducible
from a single seed.  Singular families are engineered structurally: shared
Jordan blocks or shared semisimple eigenvalues between a and b, with right
hand sides constructed inside or outside the range of x |-> a x - x b.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag

from .numerics import kron_vec_operator, rank_cutoff, unvec


def random_sector_eigenvalues(rng: np.random.Generator, k: int,
                              alpha: float = np.pi / 4,
                              modulus: tuple = (0.6, 2.5)) -> np.ndarray:
    radii = rng.uniform(*modulus, size=k)
    angles = rng.uniform(-0.8 * alpha, 0.8 * alpha, size=k)
    return radii * np.exp(1j * angles)


def mild_similarity(rng: np.random.Generator, k: int, spread: float = 0.35) -> np.ndarray:
    """Invertible with moderate condition number: unitary times a small
    perturbation of the identity."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q @ (np.eye(k) + spread * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) / np.sqrt(k))


def matrix_with_eigenvalues(rng: np.random.Generator, eigs: np.ndarray) -> np.ndarray:
    k = len(eigs)
    if k == 1:
        # keep scalar eigenvalues exact: a 1-ulp perturbation would turn an
        # engineered singular pair into a barely-regular one
        return np.array([[complex(eigs[0])]], dtype=np.complex128)
    v = mild_similarity(rng, k)
    return v @ np.diag(eigs) @ np.linalg.inv(v)


def jordan_block(lam: complex, k: int) -> np.ndarray:
    return lam * np.eye(k, dtype=np.complex128) + np.eye(k, k, 1, dtype=np.complex128)


def regular_pair(rng: np.random.Generator, n: int, m: int):
    """(a, b) with spectra separated by at least 0.5 in modulus."""
    eigs_a = random_sector_eigenvalues(rng, n, modulus=(0.6, 1.8))
    eigs_b = random_sector_eigenvalues(rng, m, modulus=(2.3, 4.0))
    a = matrix_with_eigenvalues(rng, eigs_a)
    b = matrix_with_eigenvalues(rng, eigs_b)
    return a, b


def shared_jordan_pair(rng: np.random.Generator, n: int, m: int):
    """(a, b) sharing an eigenvalue carried by a Jordan block on the a side
    (and on the b side when m allows)."""
    shared = complex(rng.uniform(0.8, 2.0))
    blocks_a = [jordan_block(shared, min(2, n))]
    if n > 2:
        extra = random_sector_eigenvalues(rng, n - 2)
        blocks_a.append(np.diag(extra))
    elif n == 1:
        blocks_a = [np.array([[shared]])]
    a_core = block_diag(*blocks_a)

    if m >= 2:
        blocks_b = [jordan_block(shared, 2)]
        if m > 2:
            blocks_b.append(np.diag(random_sector_eigenvalues(rng, m - 2)))
        b_core = block_diag(*blocks_b)
    else:
        b_core = np.array([[shared]])

    def conjugate(core):
        if core.shape[0] == 1:
            return core.astype(np.complex128)
        v = mild_similarity(rng, core.shape[0])
        return v @ core @ np.linalg.inv(v)

    return conjugate(a_core), conjugate(b_core)


def shared_semisimple_pair(rng: np.random.Generator, n: int, m: int):
    """(a, b) diagonalizable with one common eigenvalue."""
    shared = complex(rng.uniform(0.8, 2.0))
    eigs_a = np.concatenate([[shared], random_sector_eigenvalues(rng, n - 1)]) if n > 1 \
        else np.array([shared])
    eigs_b = np.concatenate([[shared], random_sector_eigenvalues(rng, m - 1)]) if m > 1 \
        else np.array([shared])
    return (matrix_with_eigenvalues(rng, eigs_a),
            matrix_with_eigenvalues(rng, eigs_b))


def rhs_in_range(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c = a x0 - x0 b for a random x0 (solvable by construction)."""
    n, m = a.shape[0], b.shape[0]
    x0 = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return a @ x0 - x0 @ b


def rhs_outside_range(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A right-hand side with a unit-norm component in the cokernel of
    x |-> a x - x b; requires a singular pair (nontrivial cokernel)."""
    n, m = a.shape[0], b.shape[0]
    K = kron_vec_operator(a, b, -1)
    _, s, Vh = np.linalg.svd(K.conj().T)
    # cutoff on the data scale, which bounds ||K||_2: K itself may vanish
    # (e.g. equal scalars)
    rank = int(np.sum(s > rank_cutoff(K.shape, np.linalg.norm(a) + np.linalg.norm(b))))
    if rank == K.shape[0]:
        raise ValueError("pair has trivial cokernel; cannot build an unsolvable right-hand side")
    w = Vh[rank].conj()
    return rhs_in_range(rng, a, b) + unvec(w, n, m)
