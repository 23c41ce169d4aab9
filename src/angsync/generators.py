"""Seeded synthetic instance generators.

Three models: the complete graph with independent outlier edges, the
small-world graph built by rewiring a neighborhood graph on the unit sphere,
and a clock network whose real-valued time offsets compactify onto the circle.

Reproducibility contract: the same seed yields a bit-identical instance.  Each
sampling purpose draws from its own named substream (spawned off the instance
seed), so adding one sampler never perturbs another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    GroundTruth,
    InvalidInputError,
    OffsetGraph,
    _lock,
    _row_entries,
    check_prob,
    check_seed,
    is_connected,
    reduce_angles,
)

# Substream ids, one per sampling purpose.
_STREAM_ANGLES = 0    # planted angles theta
_STREAM_GRAPH = 1     # graph structure (edge presence, sphere points, times)
_STREAM_NOISE = 2     # outlier labels and outlier offsets / measurement noise
_STREAM_REWIRE = 3    # small-world rewiring targets

# Sidecar layout written by `instance_metadata`.  Version 1 also held the good
# mask as a JSON list; version 2 leaves it to the instance file's flag column.
SIDECAR_SCHEMA_VERSION = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class CompleteModelParams:
    """All-pairs measurements; each edge good independently with probability p."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")
        check_prob("p", self.p)
        check_seed(self.seed)


@dataclass(frozen=True)
class SmallWorldParams:
    """Sphere neighborhood graph with inner-product cap epsilon, rewired w.p. 1-p."""

    n: int
    epsilon: float
    p: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")
        if not 0.0 < self.epsilon < 2.0:
            raise InvalidInputError("epsilon must lie in (0, 2)")
        check_prob("p", self.p)
        check_seed(self.seed)


@dataclass(frozen=True)
class ClockModelParams:
    """Clocks at random times; pairwise time differences measured with noise.

    Good measurements carry Gaussian error sigma_good (seconds); outliers are
    uniform on [-outlier_scale, outlier_scale].  omega is the compactification
    frequency mapping seconds to phases.
    """

    n: int
    edge_probability: float
    sigma_good: float
    outlier_fraction: float
    outlier_scale: float
    omega: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")
        check_prob("edge_probability", self.edge_probability)
        check_prob("outlier_fraction", self.outlier_fraction)
        if self.sigma_good < 0 or self.outlier_scale < 0:
            raise InvalidInputError("noise scales must be >= 0")
        if self.omega <= 0:
            raise InvalidInputError("omega must be > 0")
        check_seed(self.seed)


def gen_complete(params: CompleteModelParams):
    """Complete-graph instance: every pair measured, outliers uniform.

    The `triu_indices` arrays are handed to `OffsetGraph` read-only, so it
    adopts them without a copy, and it reduces the offsets mod 2pi: the
    good ones are theta_i - theta_j, the outliers already lie in [0, 2pi)."""
    n = params.n
    theta = _rng(params.seed, _STREAM_ANGLES).uniform(0.0, TWO_PI, n)
    ii, jj = np.triu_indices(n, k=1)
    noise = _rng(params.seed, _STREAM_NOISE)
    good = noise.random(ii.size) < params.p
    delta = theta[ii]
    delta -= theta[jj]
    nbad = int(np.count_nonzero(~good))
    delta[~good] = noise.uniform(0.0, TWO_PI, nbad)
    graph = OffsetGraph(n=n, i=_lock(ii), j=_lock(jj), delta=delta)
    truth = GroundTruth(theta=theta, good_mask=good)
    truth.validate_against(graph)
    return graph, truth


def _sphere_points(rng, n):
    # Normalized i.i.d. Gaussians are uniform on the sphere; rejection-free.
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


_EDGE_BLOCK = 128  # rows of pts @ pts.T computed at a time by `_cap_edges`


def _cap_edges(pts, cap):
    """Pairs i < j with <pts_i, pts_j> > cap, in ascending (i, j) order.

    Row block [a, a+B) is compared only with points a and up, so each block
    holds the upper triangle of its rows.  Its inner products and their
    comparison with `cap` are written into one Gram buffer and one hit
    buffer of B x n entries, which every block reuses, and the hits' flat
    indices split into (row, column) pairs.  The edges are those of the full
    ``pts @ pts.T``, in its row-major order."""
    n = pts.shape[0]
    gram_buf = np.empty(min(n, _EDGE_BLOCK) * n)
    hit_buf = np.empty(gram_buf.size, dtype=bool)
    rows, cols = [], []
    for a in range(0, n, _EDGE_BLOCK):
        block = pts[a:a + _EDGE_BLOCK]
        width = n - a
        size = block.shape[0] * width
        gram = gram_buf[:size]
        np.matmul(block, pts[a:].T, out=gram.reshape(-1, width))
        hit = np.greater(gram, cap, out=hit_buf[:size])
        r, c = np.divmod(np.flatnonzero(hit), width)
        upper = c > r
        rows.append(r[upper] + a)
        cols.append(c[upper] + a)
    return np.concatenate(rows), np.concatenate(cols)


_REWIND = 1 << 13  # values drawn at a time when `_rewire_pairs` rewinds the stream


def _rewire_pairs(rewire, n, base_i, base_j, rewired):
    """Fresh endpoints for the edges `rewired` (ascending indices into the
    base edges, which ascend in (i, j) order), as two int64 arrays.  The
    base edges are read only for their keys i * n + j, before anything is
    drawn, so the caller may write the result into them.

    The rule is that of a scalar loop: step s removes rewired edge s from the
    edge set, then takes pairs a, b = integers(0, n) until a != b and the
    ordered pair is not an edge, and adds that pair.  A candidate's outcome
    depends only on the candidates before it, so numpy decides almost all of
    them at once (`_classify`):

    - a == b, or a base edge that is never rewired: always rejected;
    - a pair that is no base edge: taken where its key first occurs among
      the candidates (no edge has that key yet) and rejected after that
      (nothing removes it again);
    - the base edge of step t is a suspect: it is an edge before step t,
      and after step t only once taken again.

    One Python loop walks the suspects in stream order.  It gives each its
    step q, the candidates taken before it (those taken for sure, counted in
    bulk, plus the suspects it took), and rejects it when q < t or when its
    key was taken already; it stops at the last step.  Every candidate is
    thus decided as the scalar loop decides it.  The candidates come from
    one `rewire.integers(0, n, size=...)` call, which gives the same values
    as that many scalar calls, so a longer call gives a longer stream with
    the same start: a stream too short for every step (a dense graph) is
    drawn again, twice as long, from the saved state, and decided again.
    Only the candidate keys are kept between passes, and the endpoints of
    the pairs used are read back off them.  Afterwards `rewire` is rewound
    and exactly the values used are redrawn, `_REWIND` at a time, so it is
    left where the scalar draws would leave it.
    """
    steps = rewired.size
    if steps == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    saved = rewire.bit_generator.state
    keys = base_i * n
    keys += base_j
    size = 2 * (steps + steps // 4) + 128  # ~1.25 tries an edge
    while True:
        rewire.bit_generator.state = saved
        values = rewire.integers(0, n, size=size)
        cand = np.minimum(values[0::2], values[1::2])  # lo, then the key lo * n + hi
        hi = np.maximum(values[0::2], values[1::2])
        del values
        same = cand == hi
        cand *= n
        cand += hi
        cand[same] = -1
        del hi, same
        taken, pos, step = _classify(keys, rewired, cand)
        done = set()  # the steps whose base edge a suspect took back
        for p, t, q in zip(pos.tolist(), step.tolist(), np.cumsum(taken)[pos].tolist()):
            q += len(done)
            if q >= steps:
                break
            if q >= t and t not in done:
                done.add(t)
                taken[p] = True
        used = np.flatnonzero(taken)[:steps]
        if used.size == steps:
            break
        size *= 2

    rewire.bit_generator.state = saved
    for left in range(2 * (int(used[-1]) + 1), 0, -_REWIND):
        rewire.integers(0, n, size=min(left, _REWIND))
    return np.divmod(cand[used], n)


def _classify(keys, rewired, cand):
    """Bulk part of `_rewire_pairs` for the candidate keys `cand` (-1 where
    a == b): a mask of the candidates taken for sure, and the suspects'
    stream positions, ascending, with their steps.

    The candidates are sorted once, unstably, and grouped by key; each key is
    looked up among the ascending base `keys`, and a base edge's index among
    `rewired` gives its step.  The suspects are the members of the groups
    whose key is a rewired base edge, found from those groups alone."""
    order = np.argsort(cand)
    ordered = cand[order]
    new = np.empty(cand.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    group = ordered[starts]
    del ordered
    base = np.searchsorted(keys, group)
    hit = keys[np.minimum(base, keys.size - 1)] == group
    fresh = ~hit
    fresh &= group >= 0
    del group
    taken = np.zeros(cand.size, dtype=bool)
    taken[np.minimum.reduceat(order, starts)[fresh]] = True

    hits = np.flatnonzero(hit)
    edge = base[hits]
    step = np.searchsorted(rewired, edge)
    is_rewired = rewired[np.minimum(step, rewired.size - 1)] == edge
    # the groups' runs in the sort order, read as the rows of a CSR pattern
    member, at = _row_entries(np.append(starts, cand.size), hits[is_rewired])
    pos = order[at]
    step = step[is_rewired]
    by_pos = np.argsort(pos)
    return taken, pos[by_pos], step[member][by_pos]


def gen_small_world(params: SmallWorldParams):
    """Neighborhood graph on S^2 (edge iff <b_i, b_j> > 1 - epsilon), then each
    edge independently rewired with probability 1-p to a uniformly random fresh
    pair carrying a uniform offset.  Edge count is preserved exactly; kept
    edges are good with exact offsets.

    The base edges come from row blocks of ``pts @ pts.T`` (`_cap_edges`),
    so the working memory is O(block * n) instead of the n x n Gram matrix,
    with the same edges in the same order, and they become the instance's
    edges: the rewired ones are overwritten in place.  The rewiring draws
    come in bulk from vectorized `integers(0, n, size=...)` calls and numpy
    decides almost all of them at once (`_rewire_pairs`), giving the same
    instances as one scalar `integers(0, n)` call per endpoint.  n=20,000,
    epsilon=0.05 (m = 4,999,861 at seed 1, 125 MB returned) generates in
    1.5-1.6 s of CPU at p=1 and 2.9-3.2 s at p=0.3, on one core of a
    2-vCPU VM.  Its tracemalloc peaks are 341 and 402 MB, and the process's
    peak RSS 0.39-0.41 and 0.48 GB (0.06 GB of it imports); the n x n
    matrix alone would take 3.2 GB."""
    n = params.n
    pts = _sphere_points(_rng(params.seed, _STREAM_GRAPH), n)
    out_i, out_j = _cap_edges(pts, 1.0 - params.epsilon)
    m = out_i.size

    theta = _rng(params.seed, _STREAM_ANGLES).uniform(0.0, TWO_PI, n)
    rewire = _rng(params.seed, _STREAM_REWIRE)
    rewire_mask = rewire.random(m) >= params.p

    rewired = np.flatnonzero(rewire_mask)
    good = ~rewire_mask
    # the base edges become the instance's, the rewired ones overwritten in place
    out_i[rewired], out_j[rewired] = _rewire_pairs(rewire, n, out_i, out_j, rewired)

    delta = np.empty(m, dtype=np.float64)
    delta[good] = reduce_angles(theta[out_i[good]] - theta[out_j[good]])
    delta[rewire_mask] = rewire.uniform(0.0, TWO_PI, int(rewire_mask.sum()))

    graph = OffsetGraph(n=n, i=_lock(out_i), j=_lock(out_j), delta=delta)
    truth = GroundTruth(theta=theta, good_mask=good)
    truth.validate_against(graph)
    return graph, truth


def clock_time_span(params: ClockModelParams) -> float:
    """Sampling window for clock times: many noise scales wide, but keeping
    omega*span numerically benign."""
    if params.sigma_good > 0:
        return 1000.0 * params.sigma_good
    return 100.0 / params.omega


def gen_clock(params: ClockModelParams):
    """Clock network instance.

    Returns (graph, truth, times): the phase graph with delta = omega * t_ij
    mod 2pi, the planted phases theta_i = omega * t_i mod 2pi, and the raw
    times for evaluation.  Good edges carry the Gaussian measurement error, so
    their offsets are near, not exactly, theta_i - theta_j.
    """
    n = params.n
    struct = _rng(params.seed, _STREAM_GRAPH)
    times = struct.uniform(0.0, clock_time_span(params), n)
    iu, ju = np.triu_indices(n, k=1)
    present = struct.random(iu.size) < params.edge_probability
    ii, jj = iu[present], ju[present]
    m = ii.size

    noise = _rng(params.seed, _STREAM_NOISE)
    outlier = noise.random(m) < params.outlier_fraction
    err = noise.normal(0.0, params.sigma_good, m) if params.sigma_good > 0 else np.zeros(m)
    err[outlier] = noise.uniform(-params.outlier_scale, params.outlier_scale,
                                 int(outlier.sum()))
    t_ij = times[ii] - times[jj] + err
    t_ij *= params.omega  # OffsetGraph reduces it mod 2pi

    graph = OffsetGraph(n=n, i=_lock(ii), j=_lock(jj), delta=t_ij)
    truth = GroundTruth(theta=reduce_angles(params.omega * times), good_mask=~outlier)
    truth.validate_against(graph, tol=None)  # good edges keep their Gaussian error
    return graph, truth, times


def instance_metadata(model: str, params, graph: OffsetGraph, truth: GroundTruth) -> dict:
    """Sidecar metadata for a generated instance (JSON-serializable).

    The good mask is not repeated here: the instance file carries it."""
    m_good = int(truth.good_mask.sum())
    return {
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "model": model,
        "params": {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                   for k, v in vars(params).items()},
        "seed": int(params.seed),
        "n": graph.n,
        "m": graph.m,
        "m_good": m_good,
        "m_bad": graph.m - m_good,
        "connected": bool(is_connected(graph)),
        "theta": truth.theta.tolist(),
    }
