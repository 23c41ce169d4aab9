"""The spectral estimator: top eigenvector of the phase-offset matrix.

Build the Hermitian matrix H with e^{i delta_ij} at measured pairs, compute
its top (largest algebraic) eigenpair by implicitly restarted Lanczos
(ARPACK through ``scipy.sparse.linalg.eigsh``), and read the angle estimates
off the entrywise phases of the eigenvector.

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
    reduce_angles,
)

ZERO_MAGNITUDE = 1e-14


def build_sync_matrix(graph: OffsetGraph, diagonal_shift: float = 0.0) -> SyncMatrix:
    """H_ij = exp(i delta_ij) at measured pairs, conjugate at (j, i), zero
    elsewhere; constant diagonal `diagonal_shift`."""
    w = np.exp(1j * graph.delta)
    entries = sp.coo_matrix(
        (np.concatenate([w, w.conj()]),
         (np.concatenate([graph.i, graph.j]), np.concatenate([graph.j, graph.i]))),
        shape=(graph.n, graph.n),
    ).tocsr()
    return SyncMatrix(n=graph.n, entries=entries, diagonal_shift=float(diagonal_shift))


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

    ARPACK (``eigsh``) runs on a counting operator over `H.matvec`.
    `max_iters` budgets applications of H, including the one explicit
    residual check on return: converged means ||Hv - lambda v|| <= tol *
    |lambda| with lambda the Rayleigh quotient at the returned unit v.  When
    the budget runs out the result is flagged non-converged, not raised, with
    `iterations == max_iters`; its vector is the one of largest Rayleigh
    quotient among those H was applied to (at worst the start vector).  The
    start vector is seeded random complex, so the same seed gives the same
    eigenvector bit for bit.  For n < 3, where ARPACK cannot take k = 1, the
    pair comes from a dense ``eigh``.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be > 0")
    if max_iters is None:
        max_iters = default_max_iters(H.n)
    if max_iters < 1:
        raise InvalidInputError("max_iters must be >= 1")
    if H.nnz_offdiag == 0 and H.diagonal_shift == 0.0:
        raise ZeroMatrixError("sync matrix has no nonzero entries")

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    v = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
    v /= np.linalg.norm(v)

    # One application is held back for the residual check on return.
    applied = 0
    best_rq, best = -np.inf, v

    def counted_matvec(x):
        nonlocal applied, best_rq, best
        if applied >= max_iters - 1:
            raise _BudgetSpent
        applied += 1
        y = H.matvec(x)
        nrm = np.linalg.norm(x)
        rq = float(np.vdot(x, y).real) / nrm**2
        if rq > best_rq:
            best_rq, best = rq, x / nrm
        return y

    if H.n < 3:
        v = np.linalg.eigh(H.to_dense())[1][:, -1]
    else:
        op = LinearOperator((H.n, H.n), matvec=counted_matvec, dtype=np.complex128)
        try:
            _, vecs = eigsh(op, k=1, which="LA", v0=v, tol=tol, maxiter=max_iters,
                            rng=rng)
            v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
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


@dataclass(frozen=True)
class EigOptions:
    tol: float = 1e-10
    max_iters: int | None = None  # None: 10 n ln n
    diagonal_shift: float = 0.0
    seed: int = 0


def estimate_eig(graph: OffsetGraph, opts: EigOptions | None = None) -> AngleEstimate:
    """End-to-end spectral estimate: build H, take its top eigenpair, round to angles."""
    opts = opts or EigOptions()
    t0 = time.perf_counter()
    H = build_sync_matrix(graph, opts.diagonal_shift)
    res = top_eigpair(H, tol=opts.tol, max_iters=opts.max_iters, seed=opts.seed)
    theta_hat, flagged = round_to_angles(res.eigvec)
    return AngleEstimate(
        theta_hat=theta_hat,
        eigvec=res.eigvec,
        top_eigval=res.eigval,
        iterations=res.iterations,
        residual=res.residual,
        method_tag="eig",
        diagnostics={
            "converged": res.converged,
            "diagonal_shift": opts.diagonal_shift,
            "flagged": flagged.tolist(),
            "wall_ms": 1e3 * (time.perf_counter() - t0),
        },
    )


def triangle_consistency_score(graph: OffsetGraph, sample_size: int, seed: int = 0) -> float:
    """Mean of |e^{i(d_ij + d_jk + d_ki)} - 1| over sampled triangles.

    Zero for triangles of good edges.  Sampling walks edges in seeded random
    order and draws triangles from common neighborhoods, so high-degree
    regions are sampled more often; this is a diagnostic, not an estimator.
    Raises NoTrianglesError when a full pass finds no triangle.
    """
    if sample_size < 1:
        raise InvalidInputError("sample_size must be >= 1")
    n, m = graph.n, graph.m
    signed = {}
    neighbors = [set() for _ in range(n)]
    for a, b, d in zip(graph.i, graph.j, graph.delta):
        signed[(int(a), int(b))] = float(d)
        neighbors[a].add(int(b))
        neighbors[b].add(int(a))

    def offset(a, b):
        return signed[(a, b)] if a < b else -signed[(b, a)]

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(29,)))
    order = rng.permutation(m)
    total = 0.0
    count = 0
    for e in order:
        a, b = int(graph.i[e]), int(graph.j[e])
        common = neighbors[a] & neighbors[b]
        if not common:
            continue
        for k in sorted(common):
            s = offset(a, b) + offset(b, k) + offset(k, a)
            total += abs(np.exp(1j * s) - 1.0)
            count += 1
            if count >= sample_size:
                return total / count
    if count == 0:
        raise NoTrianglesError("graph contains no triangle")
    return total / count
