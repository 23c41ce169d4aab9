"""The spectral estimator: top eigenvector of the phase-offset matrix.

Build the Hermitian matrix H with e^{i delta_ij} at measured pairs, compute
its top (largest algebraic) eigenpair by implicitly restarted Lanczos, and
read the angle estimates off the entrywise phases of the eigenvector.
ARPACK has no complex Hermitian driver, so its symmetric one (``eigsh``)
runs on H's real form: a complex n-vector viewed as 2n interleaved reals,
on which H = A + iB acts as the real symmetric [[A, -B], [B, A]] with its
rows and columns interleaved.  A complete graph's H is built straight into
a dense array, and the products with any other H run on a dense copy of
its CSR when that copy is no larger (see `SyncMatrix`).

The iteration budget counts applications of H.  Convergence is decided by an
explicit residual check on the returned pair, not by ARPACK's own flag, and
a run that spends its budget returns a result flagged non-converged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .core import (
    AngleEstimate,
    InvalidInputError,
    NoTrianglesError,
    OffsetGraph,
    SyncMatrix,
    ZeroMatrixError,
    _row_entries,
    check_budget,
    check_integer,
    check_seed,
    reduce_angles,
)

ZERO_MAGNITUDE = 1e-14


_PHASORS = 4096  # phasors that the complete build computes at a time (64 KiB)
_TILE = 64  # side of the tiles of the conjugate half that the complete build fills
_LOWER = np.tri(_TILE, k=-1, dtype=bool)  # strictly below the diagonal of a tile
_GATHER = 1 << 13  # CSR slots whose phasors the general build gathers at a time


def build_sync_matrix(graph: OffsetGraph, diagonal_shift: float = 0.0) -> SyncMatrix:
    """H_ij = exp(i delta_ij) at measured pairs, conjugate at (j, i), zero
    elsewhere; constant diagonal `diagonal_shift`.

    A complete graph (m = n(n - 1)/2) from n = 4 on, its edges in any
    order, is built straight into the dense array that ``entries.toarray()``
    would give, and the matrix holds that array alone (16 n^2 bytes; see
    `SyncMatrix`).  The phasors go above the diagonal `_PHASORS` edges at a
    time, through one buffer that every block reuses, and the half below is
    filled tile by tile from the conjugated transpose, with 0.0 added as
    ``toarray`` adds it (so the conjugate 1 - 0j of a zero offset reads
    1 + 0j).  Every other graph takes the graph's cached sorted pattern
    (`OffsetGraph._adjacency`): the phasors of the m edges are computed
    once and gathered into CSR order by its slots, `_GATHER` at a time,
    each conjugated where its slot is m or more (the edge read from j to
    i), so no 2m-phasor buffer is made; the matrix gets its own writable
    copies of the index arrays, each row's columns ascending."""
    n, m = graph.n, graph.m
    if 2 * m == n * (n - 1) and n >= 4:
        D = np.zeros((n, n), dtype=np.complex128)
        flat = D.reshape(-1)
        buf = np.empty(min(m, _PHASORS), dtype=np.complex128)
        for s in range(0, m, _PHASORS):
            w = buf[:min(_PHASORS, m - s)]
            np.multiply(1j, graph.delta[s:s + _PHASORS], out=w)
            np.exp(w, out=w)
            flat[graph.i[s:s + _PHASORS] * n + graph.j[s:s + _PHASORS]] = w
        # square tiles: numpy buffers a transposed operand, one tile at most
        for a in range(0, n, _TILE):
            for c in range(0, a + 1, _TILE):
                t = D[a:a + _TILE, c:c + _TILE]
                below = _LOWER[:t.shape[0], :t.shape[0]] if c == a else True
                np.conjugate(D[c:c + _TILE, a:a + _TILE].T, out=t, where=below)
                np.add(t, 0.0, out=t, where=below)
        return SyncMatrix._of_dense(D, float(diagonal_shift))
    indptr, indices, slots = graph._adjacency
    w = np.multiply(1j, graph.delta)
    np.exp(w, out=w)
    # slot e + m is edge e read backwards, so its phasor is w[e] conjugated;
    # np.take copies its indices to intp first, so they go a block at a time
    data = np.empty(2 * m, dtype=np.complex128)
    for s in range(0, 2 * m, _GATHER):
        block, at = data[s:s + _GATHER], slots[s:s + _GATHER]
        np.take(w, at, mode="wrap", out=block)
        np.conjugate(block, out=block, where=at >= m)
    del w
    entries = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
    entries.has_canonical_format = True  # sorted, no pair repeats
    return SyncMatrix(n=n, entries=entries, diagonal_shift=float(diagonal_shift))


def sync_matrix_of(graph: OffsetGraph, H: SyncMatrix | None = None) -> SyncMatrix:
    """The unshifted sync matrix of `graph`: `H` itself when given, else built.

    A given `H` is how a caller that solves one graph by several methods
    builds the matrix once.  It must come from ``build_sync_matrix(graph)``:
    raises InvalidInputError when its size, its 2m off-diagonal nonzeros or
    its zero diagonal shift do not match."""
    if H is None:
        return build_sync_matrix(graph)
    if H.n != graph.n or H.nnz_offdiag != 2 * graph.m:
        raise InvalidInputError(f"H (n={H.n}, {H.nnz_offdiag} nonzeros) is not the sync "
                                f"matrix of this graph (n={graph.n}, m={graph.m})")
    if H.diagonal_shift != 0.0:
        raise InvalidInputError("H must be unshifted; pass the shift in the options")
    return H


def default_max_iters(n: int) -> int:
    return max(100, math.ceil(10 * n * math.log(max(n, 2))))


@dataclass(frozen=True)
class EigpairResult:
    eigval: float
    eigvec: np.ndarray
    iterations: int  # applications of H, the residual check included
    residual: float  # relative: ||Hv - lambda v|| / |lambda|
    converged: bool


class _BudgetSpent(Exception):
    """Raised from inside the eigensolver once the application budget is used."""


def top_eigpair(H: SyncMatrix, tol: float = 1e-10, max_iters: int | None = None,
                seed: int = 0) -> EigpairResult:
    """Top (largest algebraic) eigenpair of H by implicitly restarted Lanczos.

    ARPACK's symmetric driver (``eigsh``, ``which="LA"``) runs on a counting
    operator over `H.matvec` in H's real form of size 2n, where each complex
    vector is viewed, not copied, as its interleaved real and imaginary
    parts.  Every eigenvalue appears twice there (v and iv), but H's Lanczos
    coefficients are real, so the real recurrence from the start vector is
    the complex one and meets each eigenvalue once: k = 1 is exact, while a
    k > 1 call would return each value twice (so `spectra` stays on
    ``eigs``).  `ncv` is ``min(n + 1, 20)``, ``eigsh``'s default from
    n = 20 on, so a tiny graph takes n + 3 applications, not 2n + 2.
    `max_iters` budgets applications of H, including the one explicit
    residual check on return: converged means ||Hv - lambda v|| <= tol *
    |lambda| with lambda the Rayleigh quotient at the returned unit v.  When
    the budget runs out the result is flagged non-converged, not raised, with
    `iterations == max_iters`; its vector is the one of largest Rayleigh
    quotient among those H was applied to (at worst the start vector).  The
    start vector and ARPACK's restart draws come from a substream of `seed`,
    so the same seed and H give the same eigenvector bit for bit.  For n < 3,
    where ARPACK cannot take k = 1, the pair comes from a dense ``eigh``.
    """
    check_budget(tol, max_iters)
    check_seed(seed)
    if max_iters is None:
        max_iters = default_max_iters(H.n)
    if H.nnz_offdiag == 0 and H.diagonal_shift == 0.0:
        raise ZeroMatrixError("sync matrix has no nonzero entries")

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    v = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
    v /= np.linalg.norm(v)

    # One application is held back for the residual check on return.
    applied = 0
    best_rq, best = -np.inf, v

    def counted_matvec(x):
        # x and the product are real views of complex n-vectors; ARPACK's
        # work slices start at multiples of 2n, so the views are aligned
        nonlocal applied, best_rq, best
        if applied >= max_iters - 1:
            raise _BudgetSpent
        applied += 1
        y = H.matvec(x.view(np.complex128)).view(np.float64)
        xx = x @ x
        rq = float(x @ y) / xx  # Re<x, Hx> / ||x||^2
        if rq > best_rq:
            # a new array: ARPACK reuses the memory that x lies in
            best_rq, best = rq, x.view(np.complex128) / math.sqrt(xx)
        return y

    if H.n < 3:
        v = np.linalg.eigh(H.to_dense())[1][:, -1]
    else:
        op = LinearOperator((2 * H.n, 2 * H.n), matvec=counted_matvec, dtype=np.float64)
        try:
            _, vecs = eigsh(op, k=1, which="LA", v0=v.view(np.float64),
                            ncv=min(H.n + 1, 20), tol=tol, maxiter=max_iters, rng=rng)
            v = vecs[:, 0].view(np.complex128)
            v = v / np.linalg.norm(v)
        except (_BudgetSpent, ArpackNoConvergence):
            v = best

    w = H.matvec(v)
    lam = float(np.vdot(v, w).real)
    resid = float(np.linalg.norm(w - lam * v))
    rel = resid / abs(lam) if lam != 0.0 else np.inf
    converged = resid <= tol * abs(lam)
    return EigpairResult(lam, v, applied + 1, rel, converged)


def round_to_angles(eigvec: np.ndarray):
    """Entrywise phases of a unit vector, mapped to [0, 2pi).

    Entries with magnitude below 1e-14 carry no phase information; they get
    angle 0 and their indices are returned as `flagged`.
    """
    v = np.asarray(eigvec, dtype=np.complex128)
    flagged = np.flatnonzero(np.abs(v) < ZERO_MAGNITUDE)
    theta = reduce_angles(np.angle(v))
    theta[flagged] = 0.0
    return theta, flagged


def _estimate(method_tag: str, t0: float, z, v, top_eigval: float, iterations: int,
              residual: float, converged: bool, **extra) -> AngleEstimate:
    """The ending every estimator shares: round `z` to angles and report `v`.

    `v` is the unit-norm vector reported as `eigvec` (for eig and sdp the
    same array as `z`; it is never renormalized here).  The diagnostics are
    `converged`, the method's `extra` keys in order, `flagged` and `wall_ms`,
    the time since `t0`."""
    theta_hat, flagged = round_to_angles(z)
    return AngleEstimate(
        theta_hat=theta_hat,
        eigvec=v,
        top_eigval=top_eigval,
        iterations=iterations,
        residual=residual,
        method_tag=method_tag,
        diagnostics={
            "converged": bool(converged),
            **extra,
            "flagged": flagged.tolist(),
            "wall_ms": 1e3 * (time.perf_counter() - t0),
        },
    )


@dataclass(frozen=True)
class EigOptions:
    FLAGS = {"--tol": "tol", "--max-iters": "max_iters", "--shift": "diagonal_shift",
             "--seed": "seed"}  # the CLI flags it takes and the field each one sets
    tol: float = 1e-10
    max_iters: int | None = None  # None: 10 n ln n
    diagonal_shift: float = 0.0
    seed: int = 0


def estimate_eig(graph: OffsetGraph, opts: EigOptions | None = None, *,
                 H: SyncMatrix | None = None) -> AngleEstimate:
    """End-to-end spectral estimate: build H, take its top eigenpair, round to angles.

    A given `H` (see `sync_matrix_of`) is used instead of building one, and
    `opts.diagonal_shift` is applied to its entries without a rebuild.  The
    products run on `H`'s dense operand, when it has one, with or without a
    shift, so it is shared with the caller's other uses of `H` and never
    copied again, and a complete graph's CSR is never laid out.
    `diagnostics["wall_ms"]` then leaves out the build.
    """
    opts = opts or EigOptions()
    t0 = time.perf_counter()
    H = sync_matrix_of(graph, H)
    if opts.diagonal_shift != 0.0:
        H = H._with_shift(float(opts.diagonal_shift))
    res = top_eigpair(H, tol=opts.tol, max_iters=opts.max_iters, seed=opts.seed)
    return _estimate("eig", t0, res.eigvec, res.eigvec, res.eigval, res.iterations,
                     res.residual, res.converged, diagonal_shift=opts.diagonal_shift)


_TRIANGLE_BATCH = 128  # edges whose common neighbourhoods one intersect1d call finds


def _stored_offsets(graph: OffsetGraph, slots):
    """The offset d_rc of each adjacency slot's entry (r, c): delta_e for
    slot e, -delta_e for slot m + e."""
    back = slots >= graph.m
    d = graph.delta[slots - graph.m * back]
    np.negative(d, out=d, where=back)
    return d


def triangle_consistency_score(graph: OffsetGraph, sample_size: int, seed: int = 0) -> float:
    """Mean of |e^{i(d_ij + d_jk + d_ki)} - 1| over sampled triangles.

    Zero for triangles of good edges.  Sampling walks edges in seeded random
    order and draws triangles from common neighborhoods, so high-degree
    regions are sampled more often; this is a diagnostic, not an estimator.
    Raises NoTrianglesError when a full pass finds no triangle.

    The edges are taken in batches of 128: one ``intersect1d`` call finds
    the common neighbours of a whole batch, ordered by edge and then by
    neighbour, from the rows of the graph's cached sorted pattern
    (`OffsetGraph._adjacency`, shared with `build_sync_matrix`), and the
    offsets are read only at the sampled triangles' entries.  The
    triangles, and the order in which their values are summed, are those of
    the edge-by-edge walk.  Raises InvalidInputError unless `sample_size`
    is an integer >= 1.
    """
    check_integer("sample_size", sample_size)
    if sample_size < 1:
        raise InvalidInputError("sample_size must be >= 1")
    check_seed(seed)
    indptr, cols, slots = graph._adjacency

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(29,)))
    order = rng.permutation(graph.m)
    total = 0.0
    count = 0
    for start in range(0, graph.m, _TRIANGLE_BATCH):
        batch = order[start:start + _TRIANGLE_BATCH]
        owner_a, at_a = _row_entries(indptr, graph.i[batch])
        owner_b, at_b = _row_entries(indptr, graph.j[batch])
        # keys edge * n + k are unique on each side and sort by edge, then k
        _, ka, kb = np.intersect1d(owner_a * graph.n + cols[at_a],
                                   owner_b * graph.n + cols[at_b],
                                   assume_unique=True, return_indices=True)
        take = min(ka.size, sample_size - count)
        if take == 0:
            continue
        ka, kb = ka[:take], kb[:take]
        # d_ab + d_bk + d_ka, with d_ka = -d_ak
        s = (graph.delta[batch][owner_a[ka]] + _stored_offsets(graph, slots[at_b[kb]])
             - _stored_offsets(graph, slots[at_a[ka]]))
        # |e^{is} - 1| by hypot, as scalar abs() computes it: np.abs on a
        # complex array may take a SIMD path that differs in the last bit
        z = np.exp(1j * s) - 1.0
        for v in np.hypot(z.real, z.imag).tolist():  # summed in order
            total += v
        count += take
        if count >= sample_size:
            return total / count
    if count == 0:
        raise NoTrianglesError("graph contains no triangle")
    return total / count
