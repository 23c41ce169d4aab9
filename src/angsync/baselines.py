"""Comparison solvers: anchored least squares and the unit-diagonal SDP.

The least-squares route minimizes sum |z_i - e^{i delta_ij} z_j|^2 with one
entry pinned to 1, solved through its normal equations (a connection-Laplacian
system, D - H) by conjugate gradients.

The SDP route maximizes the quadratic objective trace(H VV*) over complex
factors V with unit-norm rows (a low-rank factorization of the feasible set
{Theta >= 0, Theta_ii = 1}), by projected gradient ascent with backtracking.
The estimate is read off the top left singular vector of V, and the numerical
rank of Theta = VV* is reported alongside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .core import (
    AngleEstimate,
    InvalidInputError,
    OffsetGraph,
    connected_component_labels,
)
from .eig import build_sync_matrix, round_to_angles


@dataclass(frozen=True)
class LsqrOptions:
    tol: float = 1e-10
    max_iters: int | None = None  # None: 20 n


def estimate_lsqr(graph: OffsetGraph, opts: LsqrOptions | None = None) -> AngleEstimate:
    """Anchored least squares on the offset equations.

    Pins z=1 at the lowest-index vertex of each connected component (the
    anchor of the component containing vertex 0 matches the usual z_1 = 1
    convention) and solves the grounded normal equations per component.
    """
    opts = opts or LsqrOptions()
    t0 = time.perf_counter()
    n = graph.n
    H = build_sync_matrix(graph, 0.0)
    deg = graph.degrees().astype(np.float64)
    L = (sp.diags(deg) - H.entries).tocsr()

    ncomp, labels = connected_component_labels(graph)
    z = np.zeros(n, dtype=np.complex128)
    max_iters = opts.max_iters if opts.max_iters is not None else 20 * n
    iterations = 0
    residual = 0.0
    all_converged = True
    for comp in range(ncomp):
        verts = np.flatnonzero(labels == comp)
        anchor = verts[0]
        z[anchor] = 1.0
        free = verts[1:]
        if free.size == 0:
            continue
        Lff = L[free][:, free]
        rhs = -L[:, anchor].toarray().ravel()[free]
        count = [0]

        def tick(_xk):
            count[0] += 1

        u, info = cg(Lff, rhs, rtol=opts.tol, atol=0.0, maxiter=max_iters,
                     callback=tick)
        z[free] = u
        iterations += count[0]
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm > 0:
            residual = max(residual,
                           float(np.linalg.norm(Lff @ u - rhs) / rhs_norm))
        if info != 0:
            all_converged = False

    theta_hat, flagged = round_to_angles(z)
    znorm = np.linalg.norm(z)
    v = z / znorm
    rayleigh = float(np.vdot(v, H.matvec(v)).real)
    return AngleEstimate(
        theta_hat=theta_hat,
        eigvec=v,
        top_eigval=rayleigh,
        iterations=iterations,
        residual=residual,
        method_tag="lsqr",
        diagnostics={
            "converged": all_converged,
            "components": int(ncomp),
            "disconnected": bool(ncomp > 1),
            "flagged": flagged.tolist(),
            "wall_ms": 1e3 * (time.perf_counter() - t0),
        },
    )


@dataclass(frozen=True)
class SdpOptions:
    rank: int | None = None  # None: max(3, ceil(sqrt(2 n)))
    max_iters: int = 2000
    step_tolerance: float = 0.0  # 0: ascend until float-level stagnation
    seed: int = 0
    rank_tolerance: float = 1e-6


def default_sdp_rank(n: int) -> int:
    # Wide enough that the factorized problem has no spurious local maxima
    # in practice; an extra perturbed restart guards the remaining risk.
    return min(n, max(3, math.ceil(math.sqrt(2 * n))))


def sdp_objective(graph: OffsetGraph, theta) -> float:
    """Quadratic objective sum_ij conj(z_i) H_ij z_j at z = e^{i theta}.

    Each edge and its conjugate mirror contribute 2 cos(delta_ij - theta_i +
    theta_j), so the sum runs over the m stored edges without building H.
    """
    th = np.asarray(theta, dtype=np.float64)
    if th.size != graph.n:
        raise InvalidInputError("theta length != n")
    return float(2.0 * np.sum(np.cos(graph.delta - th[graph.i] + th[graph.j])))


def _normalize_rows(V):
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return V / norms


def _ascend(Hmat, V, t0, max_iters, step_tol):
    """Projected gradient ascent with backtracking; objective never decreases."""
    W = Hmat @ V
    f = float(np.vdot(V, W).real)
    trace = [f]
    t = t0
    feas_dev = 0.0
    last_improve = np.inf
    steps = 0
    for _ in range(max_iters):
        accepted = False
        tt = t
        for _ in range(60):
            Vn = _normalize_rows(V + tt * W)
            Wn = Hmat @ Vn
            fn = float(np.vdot(Vn, Wn).real)
            if fn >= f:
                accepted = True
                break
            tt *= 0.5
        if not accepted:
            break
        feas_dev = max(feas_dev,
                       float(np.abs(np.linalg.norm(Vn, axis=1) - 1.0).max()))
        last_improve = fn - f
        V, W, f = Vn, Wn, fn
        trace.append(f)
        steps += 1
        t = min(tt * 1.5, 1e6)
        if last_improve <= step_tol * max(1.0, abs(f)):
            break
    return V, f, trace, steps, feas_dev


def estimate_sdp(graph: OffsetGraph, opts: SdpOptions | None = None):
    """Low-rank SDP relaxation; returns (AngleEstimate, theta_rank).

    theta_rank counts singular values of the factor V above
    rank_tolerance * largest, i.e. the numerical rank of Theta = VV*.
    """
    opts = opts or SdpOptions()
    n = graph.n
    r = opts.rank if opts.rank is not None else default_sdp_rank(n)
    if not 1 <= r <= n:
        raise InvalidInputError(f"rank must lie in [1, {n}], got {r}")
    if opts.max_iters < 1 or opts.step_tolerance < 0 or opts.rank_tolerance <= 0:
        raise InvalidInputError("bad solver options")

    t_start = time.perf_counter()
    H = build_sync_matrix(graph, 0.0)
    Hmat = H.entries
    step0 = 1.0 / max(1.0, float(graph.degrees().max(initial=1)))
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(41,)))

    V0 = _normalize_rows(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    V1, f1, trace1, steps1, dev1 = _ascend(Hmat, V0, step0, opts.max_iters,
                                           opts.step_tolerance)
    # One perturbed restart to escape a poor stationary point; keep the better.
    noise = _normalize_rows(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    V2, f2, trace2, steps2, dev2 = _ascend(Hmat, _normalize_rows(V1 + 0.1 * noise),
                                           step0, opts.max_iters, opts.step_tolerance)
    if f2 > f1:
        V, f, trace = V2, f2, trace2
    else:
        V, f, trace = V1, f1, trace1
    steps = steps1 + steps2
    feas_dev = max(dev1, dev2)

    U, s, _ = np.linalg.svd(V, full_matrices=False)
    theta_rank = int(np.count_nonzero(s > opts.rank_tolerance * s[0]))
    u1 = U[:, 0]
    theta_hat, flagged = round_to_angles(u1)
    rayleigh = float(np.vdot(u1, H.matvec(u1)).real)
    rel_improve = (trace[-1] - trace[-2]) / max(1.0, abs(trace[-1])) if len(trace) > 1 else 0.0
    estimate = AngleEstimate(
        theta_hat=theta_hat,
        eigvec=u1,
        top_eigval=rayleigh,
        iterations=steps,
        residual=float(rel_improve),
        method_tag="sdp",
        diagnostics={
            "converged": bool(steps < 2 * opts.max_iters),
            "objective": f,
            "objective_traces": [trace1, trace2],  # each ascent separately
            "singular_values": s.tolist(),
            "theta_rank": theta_rank,
            "rank": r,
            "feasibility_max_dev": feas_dev,
            "flagged": flagged.tolist(),
            "wall_ms": 1e3 * (time.perf_counter() - t_start),
        },
    )
    return estimate, theta_rank
