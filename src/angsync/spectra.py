"""Spectra of the sync matrix: eigenvalue lists, histograms, and
relative-gap clustering for multiplicity checks.

`full_spectrum` takes every eigenvalue by dense eigendecomposition, for the
histograms, and refuses sizes above `DENSE_LIMIT`.  `top_k_spectrum` takes
only the k largest by implicitly restarted Arnoldi (ARPACK's complex driver
through ``scipy.sparse.linalg.eigs``) on `H.matvec`, which runs on a dense
copy of H on dense graphs (see `SyncMatrix`).  It stops at a relative
residual of `ARPACK_TOL`, not at machine precision: the values it returns
are then within about 1e-14 * |lambda_1| of the dense ones.  Its start vector
and restart draws are seeded, so the same H gives the same values bit for
bit.  It stays on the complex driver, unlike `eig.top_eigpair`'s k = 1
Lanczos on H's real form: there every eigenvalue appears twice, and for
k > 1 ``eigsh`` returns each one twice, so the k values it gives are not
H's k largest.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigs

from .core import InvalidInputError, SyncMatrix, TooLargeError, check_integer

DENSE_LIMIT = 5000
# ARPACK's relative residual bound for `top_k_spectrum`.  H is Hermitian, so
# each Ritz value lies within its residual (<= ARPACK_TOL * |value|) of an
# eigenvalue, and in practice the value error is quadratic in the residual:
# well inside the 1e-10 * |lambda_1| that every caller checks.
ARPACK_TOL = 1e-10


def full_spectrum(H: SyncMatrix, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """All eigenvalues of the Hermitian matrix, descending, by dense
    eigendecomposition.  Refuses sizes above `dense_limit`."""
    if H.n > dense_limit:
        raise TooLargeError(f"n={H.n} exceeds dense limit {dense_limit}")
    return np.linalg.eigvalsh(H.to_dense())[::-1]


def top_k_spectrum(H: SyncMatrix, k: int) -> np.ndarray:
    """The k largest (algebraic) eigenvalues, descending.

    One ARPACK ``eigs(k, which="LR")`` call on `H.matvec`, converged to a
    relative residual of `ARPACK_TOL`, keeping the real parts as ``eigsh``
    does for a complex H (which it hands to ``eigs`` without its generator).
    Each value then lies within ``ARPACK_TOL * |value|`` of an eigenvalue.  The
    start vector and ARPACK's restart draws come from a fixed private
    substream, so the same H gives the same values bit for bit.  ARPACK's
    complex driver needs k < n - 1; for k >= n - 1 the values come from
    `full_spectrum`.  When ARPACK does not converge, its
    `ArpackNoConvergence` propagates.
    """
    n = H.n
    check_integer("k", k)
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must lie in [1, {n}], got {k}")
    if k >= n - 1:
        return full_spectrum(H)[:k]
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(19,)))
    v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    op = LinearOperator((n, n), matvec=H.matvec, dtype=np.complex128)
    vals = eigs(op, k=k, which="LR", v0=v0, tol=ARPACK_TOL, return_eigenvectors=False, rng=rng)
    return np.sort(vals.real)[::-1]


def histogram(values, bins: int):
    """Equal-width histogram spanning [min, max]; returns (center, count)
    pairs whose counts sum to len(values)."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise InvalidInputError("cannot histogram an empty value list")
    if bins < 1:
        raise InvalidInputError("bins must be >= 1")
    counts, edges = np.histogram(vals, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), counts.tolist()))


def cluster_sizes(values, rel_gap: float = 0.10) -> list[int]:
    """Group a descending eigenvalue list into clusters, splitting wherever a
    consecutive gap exceeds rel_gap times the largest value."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return []
    threshold = rel_gap * vals[0]
    sizes = []
    current = 1
    for k in range(1, vals.size):
        if vals[k - 1] - vals[k] > threshold:
            sizes.append(current)
            current = 1
        else:
            current += 1
    sizes.append(current)
    return sizes
