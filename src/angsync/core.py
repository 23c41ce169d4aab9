"""Shared domain types and estimate-scoring metrics.

Angles are stored in radians on [0, 2*pi), double precision.  All reductions
mod 2*pi happen at type boundaries so the stored invariants are checkable.
Every type here is immutable after construction and safe to share across
threads; the metric functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

TWO_PI = 2.0 * np.pi

# Default number of circle subdivisions used where a discretization level is
# needed (the allowed-error scale of sce_f); overridable everywhere.
DEFAULT_L = 16
DEFAULT_THETA0 = TWO_PI / DEFAULT_L


class AngsyncError(Exception):
    """Base class for package errors."""


class InvalidInputError(AngsyncError):
    """Arguments violate a documented precondition."""


class ZeroMatrixError(AngsyncError):
    """The synchronization matrix has no nonzero entries."""


class NoTrianglesError(AngsyncError):
    """The measurement graph contains no triangle."""


class TooLargeError(AngsyncError):
    """Problem size exceeds the configured dense limit."""


def reduce_angles(x):
    """Reduce angles to [0, 2*pi). Accepts scalars or arrays, returns float64.

    np.mod can return exactly 2*pi for tiny negative inputs; those are mapped
    back to 0 so the half-open interval invariant holds exactly.
    """
    out = np.mod(np.asarray(x, dtype=np.float64), TWO_PI)
    out = np.where(out >= TWO_PI, 0.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def circdist(a, b):
    """Circular distance between angles: min(|a-b| mod 2pi, 2pi - that)."""
    d = np.mod(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)), TWO_PI)
    out = np.minimum(d, TWO_PI - d)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def _lock(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class OffsetGraph:
    """A measurement instance: n vertices and undirected edges carrying offsets.

    Each unordered pair appears at most once, stored with i < j.  The implied
    reverse offset is -delta mod 2pi (offsets are skew symmetric), so only one
    direction is stored.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        i = np.asarray(self.i, dtype=np.int64).copy()
        j = np.asarray(self.j, dtype=np.int64).copy()
        delta = reduce_angles(np.asarray(self.delta, dtype=np.float64))
        delta = np.atleast_1d(delta).copy()
        if n < 1:
            raise InvalidInputError(f"need n >= 1, got {n}")
        if not (i.ndim == j.ndim == delta.ndim == 1 and i.size == j.size == delta.size):
            raise InvalidInputError("i, j, delta must be 1-d arrays of equal length")
        if i.size:
            if not np.all((0 <= i) & (i < j) & (j < n)):
                raise InvalidInputError("edges must satisfy 0 <= i < j < n")
            # sort and diff: np.unique takes a hash path in numpy 2.4 that
            # is about 20x slower at m = 79,800
            codes = np.sort(i * n + j)
            if not np.all(np.diff(codes)):
                raise InvalidInputError("duplicate edge pair")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "i", _lock(i))
        object.__setattr__(self, "j", _lock(j))
        object.__setattr__(self, "delta", _lock(delta))

    @property
    def m(self) -> int:
        return self.i.size

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.i, self.j]), minlength=self.n)


@dataclass(frozen=True)
class GroundTruth:
    """Planted angles and per-edge good/bad labels. Simulator-side only."""

    theta: np.ndarray
    good_mask: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(reduce_angles(np.asarray(self.theta, dtype=np.float64))).copy()
        good = np.asarray(self.good_mask, dtype=bool).copy()
        if theta.ndim != 1 or good.ndim != 1:
            raise InvalidInputError("theta and good_mask must be 1-d")
        object.__setattr__(self, "theta", _lock(theta))
        object.__setattr__(self, "good_mask", _lock(good))

    def validate_against(self, graph: OffsetGraph, tol: float = 1e-12) -> None:
        """Check pairing with `graph`: lengths, and exact offsets on good edges.

        Generators whose good edges carry exact offsets call this with the
        default tol; models with small good-edge noise (clocks) check lengths
        only by passing tol=None.
        """
        if self.theta.size != graph.n:
            raise InvalidInputError("theta length != n")
        if self.good_mask.size != graph.m:
            raise InvalidInputError("good_mask length != m")
        if tol is None:
            return
        g = self.good_mask
        expect = reduce_angles(self.theta[graph.i[g]] - self.theta[graph.j[g]])
        if g.any() and np.max(circdist(expect, graph.delta[g])) > tol:
            raise InvalidInputError("good edge offset differs from planted angles")


@dataclass(frozen=True)
class SyncMatrix:
    """Hermitian matrix with unit-modulus entries at measured pairs.

    `entries` stores only the 2m off-diagonal nonzeros (CSR); the constant
    diagonal lives in `diagonal_shift` so shifting never changes the sparsity.
    """

    n: int
    entries: sp.csr_matrix
    diagonal_shift: float = 0.0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.entries @ v
        if self.diagonal_shift != 0.0:
            out = out + self.diagonal_shift * v
        return out

    def to_dense(self) -> np.ndarray:
        H = np.asarray(self.entries.todense(), dtype=np.complex128)
        if self.diagonal_shift != 0.0:
            H[np.diag_indices(self.n)] += self.diagonal_shift
        return H

    @property
    def nnz_offdiag(self) -> int:
        return self.entries.nnz

    def validate(self, atol: float = 1e-12) -> None:
        a = self.entries
        if a.shape != (self.n, self.n):
            raise InvalidInputError("entries shape mismatch")
        if a.nnz and np.abs(np.abs(a.data) - 1.0).max() > atol:
            raise InvalidInputError("off-diagonal entries must have unit modulus")
        if np.abs((a - a.conj().T).data).max(initial=0.0) > atol:
            raise InvalidInputError("entries must be Hermitian")
        if a.diagonal().any():
            raise InvalidInputError("diagonal must live in diagonal_shift")


@dataclass(frozen=True)
class AngleEstimate:
    """Solver output: rounded angles, the unrounded vector, and diagnostics.

    `eigvec` has unit Euclidean norm; `top_eigval` is the Rayleigh quotient of
    `eigvec` with the sync matrix (for the spectral method that is the top
    eigenvalue itself).  `residual` is the solver's relative convergence
    measure at exit.
    """

    theta_hat: np.ndarray
    eigvec: np.ndarray
    top_eigval: float
    iterations: int
    residual: float
    method_tag: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CorrelationReport:
    rho1: float
    rho2: float
    sce: int
    sce_f: float


def rho1(theta_hat, theta_true) -> float:
    """Modulus of the mean phasor of per-entry angle differences.

    Equals 1 iff the two angle sets agree up to one global rotation; invariant
    to adding a constant to either argument.
    """
    a = np.atleast_1d(np.asarray(theta_hat, dtype=np.float64))
    b = np.atleast_1d(np.asarray(theta_true, dtype=np.float64))
    if a.size != b.size or a.size < 1:
        raise InvalidInputError("angle vectors must have equal nonzero length")
    return float(np.abs(np.mean(np.exp(1j * (a - b)))))


def rho2(eigvec, theta_true) -> float:
    """|<z, v>| against the normalized true phasor vector z_k = e^{i theta_k}/sqrt(n)."""
    v = np.atleast_1d(np.asarray(eigvec, dtype=np.complex128))
    th = np.atleast_1d(np.asarray(theta_true, dtype=np.float64))
    if v.size != th.size or v.size < 1:
        raise InvalidInputError("vectors must have equal nonzero length")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise InvalidInputError(f"eigvec must be unit norm, got {nrm!r}")
    z = np.exp(1j * th) / np.sqrt(th.size)
    return float(np.abs(np.vdot(z, v)))


def sce(theta, graph: OffsetGraph, tol: float) -> int:
    """Count of offset equations violated beyond `tol` (circular distance)."""
    if tol < 0:
        raise InvalidInputError("tol must be >= 0")
    th = np.asarray(theta, dtype=np.float64)
    diffs = reduce_angles(th[graph.i] - th[graph.j])
    return int(np.count_nonzero(circdist(diffs, graph.delta) > tol))


def sce_f(theta, graph: OffsetGraph, theta0: float = DEFAULT_THETA0) -> float:
    """Soft self-consistency error with a clamped quadratic penalty.

    Per edge: f(x) = min(1, (circdist(x, 0)/theta0)^2), smooth near 0 and
    saturating at 1 beyond theta0.
    """
    if not 0.0 < theta0 < np.pi:
        raise InvalidInputError("theta0 must lie in (0, pi)")
    th = np.asarray(theta, dtype=np.float64)
    x = th[graph.i] - th[graph.j] - graph.delta
    d = circdist(x, 0.0)
    return float(np.sum(np.minimum(1.0, (d / theta0) ** 2)))


def align_global_phase(theta_hat, theta_ref) -> np.ndarray:
    """Shift the estimate by the phase of the mean phasor so per-angle errors
    are reported in a common gauge.  rho1/rho2 themselves need no alignment."""
    a = np.asarray(theta_hat, dtype=np.float64)
    b = np.asarray(theta_ref, dtype=np.float64)
    phi = np.angle(np.sum(np.exp(1j * (b - a))))
    return reduce_angles(a + phi)


def evaluate(graph: OffsetGraph, truth: GroundTruth, estimate: AngleEstimate,
             sce_tol: float = 1e-6, theta0: float = DEFAULT_THETA0) -> CorrelationReport:
    """Score an estimate against ground truth and against the measurements."""
    return CorrelationReport(
        rho1=rho1(estimate.theta_hat, truth.theta),
        rho2=rho2(estimate.eigvec, truth.theta),
        sce=sce(estimate.theta_hat, graph, sce_tol),
        sce_f=sce_f(estimate.theta_hat, graph, theta0),
    )


def adjacency(graph: OffsetGraph) -> sp.csr_matrix:
    ones = np.ones(graph.m, dtype=np.int8)
    a = sp.coo_matrix((np.concatenate([ones, ones]),
                       (np.concatenate([graph.i, graph.j]),
                        np.concatenate([graph.j, graph.i]))),
                      shape=(graph.n, graph.n))
    return a.tocsr()


def connected_component_labels(graph: OffsetGraph):
    """(component count, per-vertex labels) of the measurement graph."""
    if graph.m == 0:
        return graph.n, np.arange(graph.n)
    return _cc(adjacency(graph), directed=False)


def is_connected(graph: OffsetGraph) -> bool:
    count, _ = connected_component_labels(graph)
    return count == 1


# ---------------------------------------------------------------------------
# Instance file format (text): comment lines start with '#'; first data line
# is "n m"; then one edge per line, "i j delta" with delta printed to 17
# significant digits, plus an optional trailing column g in {0,1} flagging a
# ground-truth good edge.  Either every edge row carries g or none does.

def write_instance(path, graph: OffsetGraph, good_mask=None) -> None:
    path = Path(path)
    lines = [f"{graph.n} {graph.m}"]
    if good_mask is None:
        for a, b, d in zip(graph.i, graph.j, graph.delta):
            lines.append(f"{a} {b} {d:.17g}")
    else:
        good = np.asarray(good_mask, dtype=bool)
        if good.size != graph.m:
            raise InvalidInputError("good_mask length != m")
        for a, b, d, g in zip(graph.i, graph.j, graph.delta, good):
            lines.append(f"{a} {b} {d:.17g} {int(g)}")
    path.write_text("\n".join(lines) + "\n")


def read_instance(path):
    """Read an instance file. Returns (OffsetGraph, good_mask or None)."""
    rows = []
    header = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split()
            continue
        rows.append(line.split())
    if header is None or len(header) != 2:
        raise InvalidInputError(f"{path}: missing 'n m' header")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: bad header {header!r}") from exc
    if len(rows) != m:
        raise InvalidInputError(f"{path}: expected {m} edge rows, found {len(rows)}")
    widths = {len(r) for r in rows}
    if widths - {3, 4} or len(widths) > 1:
        raise InvalidInputError(f"{path}: edge rows must uniformly have 3 or 4 columns")
    try:
        i = np.array([int(r[0]) for r in rows], dtype=np.int64)
        j = np.array([int(r[1]) for r in rows], dtype=np.int64)
        delta = np.array([float(r[2]) for r in rows], dtype=np.float64)
        mask = None
        if widths == {4}:
            flags = [int(r[3]) for r in rows]
            if any(f not in (0, 1) for f in flags):
                raise InvalidInputError(f"{path}: good flag must be 0 or 1")
            mask = np.array(flags, dtype=bool)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: unparsable edge row") from exc
    return OffsetGraph(n=n, i=i, j=j, delta=delta), mask
