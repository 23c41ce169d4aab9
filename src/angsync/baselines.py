"""Comparison solvers: anchored least squares and the unit-diagonal SDP.

The least-squares route minimizes sum |z_i - e^{i delta_ij} z_j|^2 with one
entry pinned to 1 in each connected component.  Its normal equations are the
connection Laplacian D - H grounded at those anchors (their rows and columns
removed), solved for all components together by one conjugate-gradient run.
D - H is applied through H's own product, x -> deg x - H x, so no second
matrix is laid out.

The SDP route maximizes the quadratic objective trace(H VV*) over complex
factors V with unit-norm rows (a low-rank factorization of the feasible set
{Theta >= 0, Theta_ii = 1}), by projected gradient ascent with backtracking.
The estimate is read off the top left singular vector of V, and the numerical
rank of Theta = VV* is reported alongside.  Its block products H V run on
`SyncMatrix.matmat`, a dense BLAS product on dense graphs.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from . import eig
from .core import (
    AngleEstimate,
    InvalidInputError,
    OffsetGraph,
    SyncMatrix,
    check_budget,
    check_integer,
    check_seed,
    connected_component_labels,
)


@dataclass(frozen=True)
class LsqrOptions:
    FLAGS = {"--tol": "tol", "--max-iters": "max_iters"}  # as in `eig.EigOptions`
    tol: float = 1e-10
    max_iters: int | None = None  # None: 20 n


def estimate_lsqr(graph: OffsetGraph, opts: LsqrOptions | None = None, *,
                  H: SyncMatrix | None = None) -> AngleEstimate:
    """Anchored least squares on the offset equations.

    Pins z=1 at the lowest-index vertex of each connected component (the
    anchor of the component containing vertex 0 matches the usual z_1 = 1
    convention) and solves the grounded normal equations L_ff u = b of all
    components by one conjugate-gradient run.  The components share no edge,
    so the grounded connection Laplacian L_ff is block diagonal and the one
    solve gives each component's answer.  `tol` and `max_iters` apply to that
    one system; `iterations` counts its CG steps and `residual` is its
    relative residual ||L_ff u - b|| / ||b||.  L_ff is applied through H's
    own product (deg x - H x, x being u padded with zeros at the anchors),
    so no second matrix is laid out; it and the Rayleigh quotient use the
    given `H` (see `eig.sync_matrix_of`) when there is one.
    """
    opts = opts or LsqrOptions()
    check_budget(opts.tol, opts.max_iters)
    t0 = time.perf_counter()
    n = graph.n
    H = eig.sync_matrix_of(graph, H)
    deg = H._degrees()
    # every degree at least (n - 1)/2: two vertices that are not adjacent
    # share a neighbour, so the graph is one component and skips the search
    if 2 * deg.min() >= n - 1:
        ncomp, labels = 1, np.zeros(n, dtype=np.int32)
    else:
        ncomp, labels = connected_component_labels(graph)
    anchors = np.unique(labels, return_index=True)[1]
    free = np.ones(n, dtype=bool)
    free[anchors] = False
    padded = np.zeros(n, dtype=np.complex128)

    def laplacian(x):  # (D - H) x, on H's own product
        return deg * x - H.matvec(x)

    def grounded(u):  # L_ff u, as D - H applied to u padded with zeros at the anchors
        padded[free] = u.ravel()
        return laplacian(padded)[free]

    Lff = LinearOperator((n - ncomp, n - ncomp), matvec=grounded, dtype=np.complex128)
    rhs = -laplacian((~free).astype(np.complex128))[free]
    max_iters = opts.max_iters if opts.max_iters is not None else 20 * n
    ticks = itertools.count()
    u, info = cg(Lff, rhs, rtol=opts.tol, atol=0.0, maxiter=max_iters,
                 callback=lambda _xk: next(ticks))
    iterations = next(ticks)  # the count of callbacks made
    z = np.ones(n, dtype=np.complex128)
    z[free] = u
    # b is empty only when every vertex is isolated; otherwise each anchor
    # with a neighbour puts that neighbour's entry of b at -L[f, anchor] != 0.
    residual = (float(np.linalg.norm(grounded(u) - rhs) / np.linalg.norm(rhs))
                if rhs.size else 0.0)

    v = z / np.linalg.norm(z)
    return eig._estimate("lsqr", t0, z, v, float(np.vdot(v, H.matvec(v)).real), iterations,
                         residual, info == 0, components=int(ncomp),
                         disconnected=bool(ncomp > 1))


RANK_TOLERANCE = 1e-6  # relative singular-value cutoff for theta_rank


@dataclass(frozen=True)
class SdpOptions:
    FLAGS = {"--seed": "seed"}  # as in `eig.EigOptions`
    rank: int | None = None  # None: max(3, ceil(sqrt(2 n)))
    max_iters: int = 2000
    step_tolerance: float = 0.0  # 0: ascend until float-level stagnation
    seed: int = 0


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
    x = th[graph.i]
    np.subtract(graph.delta, x, out=x)
    y = th[graph.j]
    y += x  # th_j + (delta - th_i) is (delta - th_i) + th_j: IEEE addition commutes
    return float(2.0 * np.sum(np.cos(y, out=y)))


def _normalize_rows(V):
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return V / norms


def _ascend(H, V, t, max_iters, step_tol):
    """Projected gradient ascent with backtracking; objective never decreases.

    Returns the last accepted factor and the objective trace: its start value,
    then one value per accepted step."""
    W = H.matmat(V)
    trace = [float(np.vdot(V, W).real)]
    for _ in range(max_iters):
        for _ in range(60):
            Vn = _normalize_rows(V + t * W)
            Wn = H.matmat(Vn)
            fn = float(np.vdot(Vn, Wn).real)
            if fn >= trace[-1]:
                break
            t *= 0.5
        else:
            break
        V, W = Vn, Wn
        trace.append(fn)
        t = min(t * 1.5, 1e6)
        if trace[-1] - trace[-2] <= step_tol * max(1.0, abs(fn)):
            break
    return V, trace


def estimate_sdp(graph: OffsetGraph, opts: SdpOptions | None = None, *,
                 H: SyncMatrix | None = None):
    """Low-rank SDP relaxation; returns (AngleEstimate, theta_rank).

    The better of two ascents (the second from a perturbed copy of the
    first one's factor) is kept.  `iterations` is the accepted steps of both;
    `residual` is the kept ascent's last relative improvement; `converged` is
    true unless both spent `max_iters` (no optimality certificate);
    `feasibility_max_dev` is measured on the two factors they return.
    theta_rank counts singular values of the kept factor V above
    RANK_TOLERANCE * largest, i.e. the numerical rank of Theta = VV*.  The
    ascent runs on the given `H` (see `eig.sync_matrix_of`) when there is one.
    """
    opts = opts or SdpOptions()
    n = graph.n
    r = opts.rank if opts.rank is not None else default_sdp_rank(n)
    check_integer("rank", r)
    check_integer("max_iters", opts.max_iters)
    if not 1 <= r <= n:
        raise InvalidInputError(f"rank must lie in [1, {n}], got {r}")
    if opts.max_iters < 1:
        raise InvalidInputError("max_iters must be >= 1")
    if not 0 <= opts.step_tolerance < math.inf:
        raise InvalidInputError("step_tolerance must be finite and >= 0")
    check_seed(opts.seed)

    t_start = time.perf_counter()
    H = eig.sync_matrix_of(graph, H)
    step0 = 1.0 / float(H._degrees().max(initial=1))  # 1 / the top degree
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(41,)))

    V0 = _normalize_rows(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    V1, trace1 = _ascend(H, V0, step0, opts.max_iters, opts.step_tolerance)
    # One perturbed restart to escape a poor stationary point; keep the better.
    noise = _normalize_rows(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    V2, trace2 = _ascend(H, _normalize_rows(V1 + 0.1 * noise), step0, opts.max_iters,
                         opts.step_tolerance)
    V, trace = (V2, trace2) if trace2[-1] > trace1[-1] else (V1, trace1)
    steps = len(trace1) + len(trace2) - 2
    feas_dev = max(float(np.abs(np.linalg.norm(X, axis=1) - 1.0).max()) for X in (V1, V2))

    U, s, _ = np.linalg.svd(V, full_matrices=False)
    theta_rank = int(np.count_nonzero(s > RANK_TOLERANCE * s[0]))
    u1 = U[:, 0]
    rel_improve = (trace[-1] - trace[-2]) / max(1.0, abs(trace[-1])) if len(trace) > 1 else 0.0
    estimate = eig._estimate("sdp", t_start, u1, u1, float(np.vdot(u1, H.matvec(u1)).real),
                             steps, float(rel_improve), steps < 2 * opts.max_iters,
                             objective=trace[-1],
                             objective_traces=[trace1, trace2],  # each ascent separately
                             singular_values=s.tolist(),
                             theta_rank=theta_rank,
                             rank=r,
                             feasibility_max_dev=feas_dev)
    return estimate, theta_rank


# Each method's options type, in the order the CLI lists the methods.
METHODS = {"eig": eig.EigOptions, "sdp": SdpOptions, "lsqr": LsqrOptions}


def solve(graph: OffsetGraph, method: str, opts=None, *,
          H: SyncMatrix | None = None) -> AngleEstimate:
    """`method`'s estimate with `opts` (its `METHODS` type; None: defaults), on
    the given `H` when there is one.  Each estimator is looked up in its module
    at call time, so a wrapped or patched `eig.estimate_eig` is the one run."""
    if method == "eig":
        return eig.estimate_eig(graph, opts, H=H)
    if method == "lsqr":
        return estimate_lsqr(graph, opts, H=H)
    if method == "sdp":
        return estimate_sdp(graph, opts, H=H)[0]
    raise InvalidInputError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
