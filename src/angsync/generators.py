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
    """Complete-graph instance: every pair measured, outliers uniform."""
    n = params.n
    theta = _rng(params.seed, _STREAM_ANGLES).uniform(0.0, TWO_PI, n)
    ii, jj = np.triu_indices(n, k=1)
    noise = _rng(params.seed, _STREAM_NOISE)
    good = noise.random(ii.size) < params.p
    delta = reduce_angles(theta[ii] - theta[jj])
    nbad = int(np.count_nonzero(~good))
    delta[~good] = noise.uniform(0.0, TWO_PI, nbad)
    graph = OffsetGraph(n=n, i=ii, j=jj, delta=delta)
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
    holds the upper triangle of its rows and at most B x n inner products
    exist at a time.  The edges are those of the full ``pts @ pts.T``, in its
    row-major order."""
    n = pts.shape[0]
    rows, cols = [], []
    for a in range(0, n, _EDGE_BLOCK):
        r, c = np.nonzero(pts[a:a + _EDGE_BLOCK] @ pts[a:].T > cap)
        upper = c > r
        rows.append(r[upper] + a)
        cols.append(c[upper] + a)
    return np.concatenate(rows), np.concatenate(cols)


def _rewire_pairs(rewire, n, base_i, base_j, rewired):
    """Fresh endpoints for the edges `rewired` (ascending indices into the
    base edges), one edge at a time.

    Each rewired edge leaves the edge set, then pairs a, b = integers(0, n)
    are drawn until a != b and the ordered pair is not an edge.  The draws
    come in chunks of `rewire.integers(0, n, size=...)`, which gives the same
    values as that many scalar calls.  Afterwards `rewire` is rewound and
    exactly the values used are redrawn, so it is left where the scalar
    draws would leave it.
    """
    if rewired.size == 0:
        return [], []
    saved = rewire.bit_generator.state
    keys = base_i * n + base_j
    edges = set(keys.tolist())
    chunk = 2 * (rewired.size + rewired.size // 4) + 128  # ~1.25 attempts per edge
    values, t = [], 0
    new_i, new_j = [], []
    for old in keys[rewired].tolist():
        edges.discard(old)
        while True:
            if t + 2 > len(values):
                values += rewire.integers(0, n, size=chunk).tolist()
            a, b = values[t], values[t + 1]
            t += 2
            if a > b:
                a, b = b, a
            if a != b and a * n + b not in edges:
                break
        edges.add(a * n + b)
        new_i.append(a)
        new_j.append(b)

    rewire.bit_generator.state = saved
    rewire.integers(0, n, size=t)
    return new_i, new_j


def gen_small_world(params: SmallWorldParams):
    """Neighborhood graph on S^2 (edge iff <b_i, b_j> > 1 - epsilon), then each
    edge independently rewired with probability 1-p to a uniformly random fresh
    pair carrying a uniform offset.  Edge count is preserved exactly; kept
    edges are good with exact offsets.

    The base edges come from row blocks of ``pts @ pts.T`` (`_cap_edges`),
    so the working memory is O(block * n) instead of the n x n Gram matrix,
    with the same edges in the same order.  n=20,000, epsilon=0.05 (about 5M
    edges) generates in 2.5 s at p=1 and 7.0 s at p=0.3 on one core of a
    2-vCPU VM; the n x n matrix alone would take 3.2 GB.  The rewiring draws
    come in bulk from vectorized `integers(0, n, size=...)` calls
    (`_rewire_pairs`), giving the same instances as one scalar
    `integers(0, n)` call per endpoint."""
    n = params.n
    pts = _sphere_points(_rng(params.seed, _STREAM_GRAPH), n)
    base_i, base_j = _cap_edges(pts, 1.0 - params.epsilon)
    m = base_i.size

    theta = _rng(params.seed, _STREAM_ANGLES).uniform(0.0, TWO_PI, n)
    rewire = _rng(params.seed, _STREAM_REWIRE)
    rewire_mask = rewire.random(m) >= params.p

    rewired = np.flatnonzero(rewire_mask)
    out_i = base_i.copy()
    out_j = base_j.copy()
    good = ~rewire_mask
    out_i[rewired], out_j[rewired] = _rewire_pairs(rewire, n, base_i, base_j, rewired)

    delta = np.empty(m, dtype=np.float64)
    delta[good] = reduce_angles(theta[out_i[good]] - theta[out_j[good]])
    delta[rewire_mask] = rewire.uniform(0.0, TWO_PI, int(rewire_mask.sum()))

    graph = OffsetGraph(n=n, i=out_i, j=out_j, delta=delta)
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
    delta = reduce_angles(params.omega * t_ij)

    graph = OffsetGraph(n=n, i=ii, j=jj, delta=delta)
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
