"""Shared domain types and estimate-scoring metrics.

Angles are stored in radians on [0, 2*pi), double precision.  All reductions
mod 2*pi happen at type boundaries so the stored invariants are checkable.
Every type here is immutable after construction and safe to share across
threads, and the metric functions are pure.  A CorrelationReport from
`evaluate` computes its sce and sce_f on their first read, from a graph
that it holds until then and its own copy of the angles, and always reads
the same values.

The per-edge passes (scoring, angle reduction, the codes of OffsetGraph)
write into a few arrays that they reuse, through ``out=`` and in-place
operators, instead of making a new array at each numpy call.  Under glibc's
initial threshold every fresh array of 128 KiB or more (16,384 doubles) is a
new mapping whose pages fault in on first touch, so at m = 79,800 edges each
temporary cost more than the arithmetic done in it.  Each pass still runs
the same IEEE operations in the same order, so every result keeps its bits.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import zgemv

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
    """Problem size exceeds the dense limit (`spectra.DENSE_LIMIT`)."""


def check_prob(name: str, value) -> None:
    """Raise InvalidInputError unless `value` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")


def check_seed(seed) -> None:
    """Raise InvalidInputError unless `seed` is an integer (see check_integer)
    in [0, 2^64), as every seed must be."""
    check_integer("seed", seed)
    if not 0 <= seed < 2 ** 64:
        raise InvalidInputError("seed must be a nonnegative 64-bit integer")


def check_integer(name: str, value) -> None:
    """Raise InvalidInputError naming `name` unless `value` is an int or a
    numpy integer (a float, even an integral one, is rejected)."""
    if not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def check_budget(tol, max_iters) -> None:
    """Raise InvalidInputError unless tol is finite and > 0 and max_iters is
    None or an integer >= 1."""
    if not 0 < tol < np.inf:
        raise InvalidInputError("tol must be finite and > 0")
    if max_iters is not None:
        check_integer("max_iters", max_iters)
        if max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")


def _mod2pi(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.mod(x, 2*pi) bit for bit, for a float64 array, without a division.

    When every value lies in (-2pi, 4pi) one add per entry suffices: x + 2pi
    below 0, x - 2pi from 2pi up (exact by Sterbenz), x + 0.0 otherwise,
    which turns -0.0 into +0.0 as np.mod does.  The masks come from x, not
    from the shifted values, so a tiny negative x gives exactly 2pi, as
    np.mod does.  Other inputs, NaN and inf included, go to np.mod.
    Writes into `out` (a fresh array when None), which must not be `x`.
    """
    if not (x.size and x.min() > -TWO_PI and x.max() < 2.0 * TWO_PI):
        return np.mod(x, TWO_PI, out=out)
    if out is None:
        out = np.empty_like(x)
    np.less(x, 0.0, out=out)  # the shift, built in `out`
    out -= x >= TWO_PI
    out *= TWO_PI
    out += x  # shift + x is x + shift: IEEE addition commutes
    return out


def _reduce(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """reduce_angles of a float64 array into `out` (fresh when None; not `x`)."""
    out = _mod2pi(x, out)
    out[out >= TWO_PI] = 0.0
    return out


def reduce_angles(x):
    """Reduce angles to [0, 2*pi). Accepts scalars or arrays, returns float64.

    np.mod can return exactly 2*pi for tiny negative inputs; those are mapped
    back to 0 so the half-open interval invariant holds exactly.  An array
    comes back as a new array.
    """
    out = _reduce(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def _circdist0(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """circdist(x, 0.0) into `out`, with `x` overwritten as work space."""
    np.abs(x, out=x)
    _mod2pi(x, out)
    np.subtract(TWO_PI, out, out=x)
    return np.minimum(out, x, out=out)


def circdist(a, b):
    """Circular distance between angles: min(|a-b| mod 2pi, 2pi - that)."""
    x = np.asarray(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    out = _circdist0(x, np.empty_like(x))
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def _lock(arr):
    arr.flags.writeable = False
    return arr


def _adopt_index(name: str, x) -> np.ndarray:
    """`x` itself when it is a read-only int64 array that owns its memory,
    else a new int64 array with its values.  Raises InvalidInputError naming
    `name` when a value is not integral (0.5, NaN or inf); a float array of
    integral values, as ``np.loadtxt`` gives, is taken."""
    if (isinstance(x, np.ndarray) and x.dtype == np.int64 and x.flags.owndata
            and not x.flags.writeable):
        return x
    a = np.asarray(x)
    if a.dtype.kind not in "iub":
        a = np.asarray(a, dtype=np.float64)
        if not (np.isfinite(a).all() and (np.floor(a) == a).all()):
            raise InvalidInputError(f"{name} must hold integers")
    return np.array(a, dtype=np.int64)


def _row_entries(indptr, rows):
    """Positions of the CSR entries of `rows`, concatenated row after row,
    and for each position the index into `rows` it belongs to."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lengths)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, starts[owner] + offset


# edges per OffsetGraph validation block: its int64 codes and boolean
# temporaries stay below glibc's 128 KiB mapping threshold
_CHECK_BLOCK = 1 << 13


@dataclass(frozen=True)
class OffsetGraph:
    """A measurement instance: n vertices and undirected edges carrying offsets.

    Each unordered pair appears at most once, stored with i < j.  The implied
    reverse offset is -delta mod 2pi (offsets are skew symmetric), so only one
    direction is stored.

    The stored arrays are read-only.  An `i` or `j` that is already a
    read-only int64 array owning its memory is adopted as it is: the caller
    hands it over (as the generators do with the index arrays they make).
    Any other `i` or `j`, a writable array or a read-only view included, is
    copied; its values must be integers (as `n` must be one), though a float
    array of them is taken.  `delta` is always reduced into a new array.
    The checks run over blocks of `_CHECK_BLOCK` edges, so they make no
    m-sized temporary unless the edges do not ascend in (i, j) order, when
    the duplicate check sorts one array of the codes i * n + j in place.
    Whether they ascend is kept as `_ascending` for the tests of that check;
    the sync matrix build does not read it.

    The sparsity pattern of the symmetric matrix, both directions of every
    edge, is the private `_adjacency`: computed on first use, kept, and
    read by `eig.build_sync_matrix`, `eig.triangle_consistency_score` and
    `connected_component_labels`, so a graph is sorted once however many
    of them run.  Its arrays are read-only and take 16 bytes per edge at
    scipy's int32 index dtype (a 4-byte column index and a 4-byte slot for
    each direction), plus 4 (n + 1).
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        check_integer("n", self.n)
        n = int(self.n)
        i = _adopt_index("i", self.i)
        j = _adopt_index("j", self.j)
        raw = np.atleast_1d(np.asarray(self.delta, dtype=np.float64))
        flat = raw.reshape(-1)
        delta = np.empty(flat.size)
        for s in range(0, flat.size, _CHECK_BLOCK):
            block = flat[s:s + _CHECK_BLOCK]
            if not np.isfinite(block).all():
                raise InvalidInputError("offsets must be finite")
            _reduce(block, delta[s:s + _CHECK_BLOCK])
        delta = delta.reshape(raw.shape)
        if n < 1:
            raise InvalidInputError(f"need n >= 1, got {n}")
        if not (i.ndim == j.ndim == delta.ndim == 1 and i.size == j.size == delta.size):
            raise InvalidInputError("i, j, delta must be 1-d arrays of equal length")
        # strictly ascending codes i * n + j hold no duplicate; others are
        # laid out in one array, sorted in place and compared with their
        # neighbours (np.unique takes a hash path in numpy 2.4 that is about
        # 20x slower at m = 79,800)
        ascending, last = True, -1
        codes = np.empty(min(i.size, _CHECK_BLOCK), dtype=np.int64)
        for s in range(0, i.size, _CHECK_BLOCK):
            bi, bj = i[s:s + _CHECK_BLOCK], j[s:s + _CHECK_BLOCK]
            if not (bi.min() >= 0 and bj.max() < n and np.all(bi < bj)):
                raise InvalidInputError("edges must satisfy 0 <= i < j < n")
            if ascending:
                c = np.multiply(bi, n, out=codes[:bi.size])
                c += bj
                ascending = bool(c[0] > last and np.all(c[1:] > c[:-1]))
                last = c[-1]
        if not ascending:
            codes = np.multiply(i, n)
            codes += j
            codes.sort()
            if np.equal(codes[1:], codes[:-1]).any():
                raise InvalidInputError("duplicate edge pair")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "i", _lock(i))
        object.__setattr__(self, "j", _lock(j))
        object.__setattr__(self, "delta", _lock(delta))
        object.__setattr__(self, "_ascending", ascending)

    @property
    def m(self) -> int:
        return self.i.size

    @cached_property
    def _adjacency(self):
        """(indptr, indices, slots): the CSR pattern of the 2m entries (i, j)
        and (j, i), each row's columns ascending, all three in scipy's index
        dtype for that many entries.  slots[k] names the entry at CSR position k: e for
        edge e read as (i_e, j_e), m + e for (j_e, i_e).  The order is one
        ``np.argsort`` of the keys row * n + col, which are distinct, so it
        is the only one."""
        n, m = self.n, self.m
        idx = sp.get_index_dtype(maxval=max(n, 2 * m))
        keys = np.empty(2 * m, dtype=np.int64)
        for half, rows, cols in ((keys[:m], self.i, self.j), (keys[m:], self.j, self.i)):
            np.multiply(rows, n, out=half)
            half += cols
        order = np.argsort(keys)
        del keys
        indices = np.concatenate([self.j, self.i], dtype=idx)[order]
        slots = order.astype(idx, copy=False)
        del order
        counts = np.bincount(self.i, minlength=n)
        counts += np.bincount(self.j, minlength=n)
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(counts, out=indptr[1:])
        return _lock(indptr), _lock(indices), _lock(slots)


@dataclass(frozen=True)
class GroundTruth:
    """Planted angles and per-edge good/bad labels. Simulator-side only."""

    theta: np.ndarray
    good_mask: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if not np.isfinite(theta).all():
            raise InvalidInputError("theta must be finite")
        theta = np.atleast_1d(reduce_angles(theta)).copy()
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


def _dense_fits(n: int, nnz: int) -> bool:
    """Whether an n x n array (16 n^2 bytes) is no larger than the CSR of
    `nnz` entries at scipy's index dtype for them: complete graphs from
    n = 4 on, and graphs nearly as dense."""
    index = np.dtype(sp.get_index_dtype(maxval=max(n, nnz))).itemsize
    return 16 * n ** 2 <= 16 * nnz + index * (nnz + n + 1)


@dataclass(frozen=True, init=False, eq=False)
class SyncMatrix:
    """Hermitian matrix with unit-modulus entries at measured pairs.

    It holds its `nnz_offdiag` off-diagonal nonzeros in one layout; the
    constant diagonal lives in `diagonal_shift` so shifting never changes
    the sparsity.  The layout is chosen by `eig.build_sync_matrix`, by one
    rule on n and the nonzero count (`_dense_fits`): a dense array when it
    takes no more bytes than the CSR arrays (`_of_dense`; 16 n^2 bytes
    instead of about 36 n^2 for both layouts), the CSR `entries` otherwise,
    which the constructor keeps as given.  A matrix held as a dense array
    lays its `entries` out from it on first read, with the bytes the CSR
    build gives.  numpy and scipy each link their own BLAS with its own
    thread pool, and a product from one pool inside a loop driven by the
    other oversubscribes the CPUs (at 2 threads, numpy's product inside
    ARPACK took a top eigenpair at complete n = 400 from 7 ms to 252 ms).
    So each product uses the pool its caller's loop already uses: `matvec`,
    which ARPACK calls, goes through scipy's ``zgemv``, and `matmat`, which
    the numpy-driven SDP ascent calls, through numpy's ``@``.
    """

    n: int
    nnz_offdiag: int
    diagonal_shift: float = 0.0
    _dense = None  # the dense operand of a matrix held as one

    def __init__(self, n: int, entries: sp.csr_matrix, diagonal_shift: float = 0.0):
        if entries.shape != (n, n):
            raise InvalidInputError("entries shape mismatch")
        self._hold(diagonal_shift, n=n, nnz_offdiag=entries.nnz, entries=entries)

    @classmethod
    def _of_dense(cls, D: np.ndarray, nnz: int, diagonal_shift: float = 0.0) -> SyncMatrix:
        """The matrix whose off-diagonal is D's, with its `nnz` nonzeros,
        held as D alone.  D must be what ``entries.toarray()`` would give,
        byte for byte."""
        H = cls.__new__(cls)
        H._hold(diagonal_shift, n=D.shape[0], nnz_offdiag=nnz, _dense=D)
        return H

    def _with_shift(self, diagonal_shift: float) -> SyncMatrix:
        """This matrix with another diagonal shift, holding the same arrays."""
        H = copy.copy(self)
        H._hold(diagonal_shift)
        return H

    def _hold(self, diagonal_shift: float, **held) -> None:
        if not np.isfinite(diagonal_shift):
            raise InvalidInputError("diagonal_shift must be finite")
        vars(self).update(diagonal_shift=diagonal_shift, **held)

    @cached_property
    def entries(self) -> sp.csr_matrix:
        """The off-diagonal nonzeros as CSR, each row's columns ascending:
        given at construction, or laid out from the dense array on this first
        read by a matrix held as one.  There, the general build stores the
        conjugate 1 - 0j of a zero offset's phasor below the diagonal, where
        the array holds 1 + 0j as ``toarray`` does, so those entries (the
        only ones below the diagonal with a zero imaginary part) are
        conjugated back."""
        a = sp.csr_matrix(self._dense)
        zero = np.flatnonzero(a.data.imag == 0.0)
        rows = np.searchsorted(a.indptr, zero, side="right") - 1
        below = zero[a.indices[zero] < rows]
        a.data[below] = np.conjugate(a.data[below])
        return a

    def _degrees(self) -> np.ndarray:
        """The row counts of `entries`, as floats: the degrees of H's graph,
        read off the layout that H holds, or n - 1 each when H is complete."""
        if self._dense is None:
            return np.diff(self.entries.indptr).astype(np.float64)
        if self.nnz_offdiag == self.n * (self.n - 1):
            return np.full(self.n, self.n - 1, dtype=np.float64)
        return np.count_nonzero(self._dense, axis=1).astype(np.float64)

    def _shifted(self, out: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.diagonal_shift != 0.0:
            out = out + self.diagonal_shift * v
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for a vector v, through scipy's BLAS on the dense operand."""
        D = self._dense
        if D is None:
            return self._shifted(self.entries @ v, v)
        # D.T is D's memory in Fortran order, so zgemv takes it without a copy
        return self._shifted(zgemv(1.0, D.T, v, trans=1), v)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """H V for an n x r block V, through numpy's BLAS on the dense operand."""
        D = self._dense
        return self._shifted(self.entries @ V if D is None else D @ V, V)

    def to_dense(self) -> np.ndarray:
        """H as a new array: a copy of the dense operand when H holds one, else
        of ``entries.toarray()``, with `diagonal_shift` on the diagonal."""
        D = self._dense
        H = np.asarray(self.entries.toarray() if D is None else D.copy(), dtype=np.complex128)
        if self.diagonal_shift != 0.0:
            H[np.diag_indices(self.n)] += self.diagonal_shift
        return H


@dataclass(frozen=True)
class AngleEstimate:
    """Solver output: rounded angles, the unrounded vector, and diagnostics.

    `eigvec` has unit Euclidean norm; `top_eigval` is the Rayleigh quotient of
    `eigvec` with the sync matrix (for the spectral method that is the top
    eigenvalue itself).  `residual` is the solver's relative convergence
    measure at exit.  Every method's `diagnostics` holds `converged` (bool)
    first and `flagged` (indices rounded from a near-zero entry) and
    `wall_ms` (the estimator's own timer) last, with its own keys between.
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
    """An estimate's scores: rho1 and rho2 against the planted angles, sce
    and sce_f against the measurements.

    A report made by `evaluate` holds rho1 and rho2, and computes sce and
    sce_f together on the first read of either, from the graph and its own
    copy of the estimate's angles; it then keeps the two values and drops
    the graph.  So an unread report keeps its graph alive.  Two threads that
    read it first at once both compute the same values.  `repr` and `==`
    read all four fields."""

    rho1: float
    rho2: float
    sce: int
    sce_f: float

    @classmethod
    def _deferred(cls, rho1: float, rho2: float, *edges) -> CorrelationReport:
        """The report whose sce and sce_f `_score_edges(*edges)` gives."""
        report = cls.__new__(cls)
        vars(report).update(rho1=rho1, rho2=rho2, _edges=edges)
        return report

    def __getattr__(self, name):
        # reached only when normal lookup fails: sce or sce_f before the first read
        edges = vars(self).get("_edges")
        if name not in ("sce", "sce_f") or edges is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self).update(zip(("sce", "sce_f"), _score_edges(*edges)))
        vars(self).pop("_edges", None)
        return vars(self)[name]


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


def _check_sce_tol(tol) -> None:
    if tol < 0:
        raise InvalidInputError("tol must be >= 0")


def _check_theta0(theta0) -> None:
    if not 0.0 < theta0 < np.pi:
        raise InvalidInputError("theta0 must lie in (0, pi)")


def _edge_diffs(theta, graph: OffsetGraph):
    """(theta[i] - theta[j] per edge, a work array of the same size)."""
    th = np.asarray(theta, dtype=np.float64)
    diffs, work = th[graph.i], th[graph.j]
    diffs -= work
    return diffs, work


def _violations(diffs, delta, tol, a) -> int:
    """sce from the edge differences, with `a` as a work array.

    a = reduce(diffs) and delta both lie in [0, 2pi), so the rounded a - delta
    lies in [-delta, a] and |a - delta| < 2pi is its own value mod 2pi: the
    circular distance is min(|a - delta|, 2pi - |a - delta|), which exceeds
    `tol` exactly when both terms do (NaN exceeds nothing either way)."""
    _reduce(diffs, a)
    a -= delta
    np.abs(a, out=a)
    far = a > tol
    np.subtract(TWO_PI, a, out=a)
    np.greater(a, tol, out=far, where=far)
    return int(np.count_nonzero(far))


def _soft_penalty(diffs, delta, theta0, a) -> float:
    """sce_f from the edge differences, which it overwrites, with `a` as a
    work array."""
    diffs -= delta
    d = _circdist0(diffs, a)
    d /= theta0
    np.square(d, out=d)
    np.minimum(1.0, d, out=d)
    return float(np.sum(d))


def sce(theta, graph: OffsetGraph, tol: float) -> int:
    """Count of offset equations violated beyond `tol` (circular distance)."""
    _check_sce_tol(tol)
    diffs, work = _edge_diffs(theta, graph)
    return _violations(diffs, graph.delta, tol, work)


def sce_f(theta, graph: OffsetGraph, theta0: float = DEFAULT_THETA0) -> float:
    """Soft self-consistency error with a clamped quadratic penalty.

    Per edge: f(x) = min(1, (circdist(x, 0)/theta0)^2), smooth near 0 and
    saturating at 1 beyond theta0.
    """
    _check_theta0(theta0)
    diffs, work = _edge_diffs(theta, graph)
    return _soft_penalty(diffs, graph.delta, theta0, work)


def _score_edges(theta, graph: OffsetGraph, sce_tol, theta0):
    """(sce, sce_f) from one gather of theta[i] - theta[j] and one work array."""
    diffs, a = _edge_diffs(theta, graph)
    return (_violations(diffs, graph.delta, sce_tol, a),
            _soft_penalty(diffs, graph.delta, theta0, a))


def evaluate(graph: OffsetGraph, truth: GroundTruth, estimate: AngleEstimate,
             sce_tol: float = 1e-6, theta0: float = DEFAULT_THETA0) -> CorrelationReport:
    """Score an estimate against ground truth and against the measurements.

    rho1 and rho2 are computed here; sce and sce_f on the first read of
    either (see CorrelationReport), from a copy of theta_hat taken here, so
    a caller that reads neither, as the sweep does, skips the per-edge
    passes.  The checks run here, in the order that calling rho1, rho2, sce
    and sce_f one after the other would run them, so a bad input raises the
    same error; an estimate whose shape is not (n,) takes the gather here
    too, so one that does not fit the graph fails as it always has."""
    r1 = rho1(estimate.theta_hat, truth.theta)
    r2 = rho2(estimate.eigvec, truth.theta)
    _check_sce_tol(sce_tol)
    theta = np.array(estimate.theta_hat, dtype=np.float64)
    if theta.shape != (graph.n,):
        _edge_diffs(theta, graph)
    _check_theta0(theta0)
    return CorrelationReport._deferred(r1, r2, theta, graph, sce_tol, theta0)


def _cc(csgraph, directed):
    """scipy's ``connected_components``.  Its module is imported here, on the
    first search, not with the package: it costs about 1 MB of resident
    memory, and a process that only meets complete graphs never searches."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(csgraph, directed=directed)


def connected_component_labels(graph: OffsetGraph):
    """(component count, per-vertex labels) of the measurement graph.

    `connected_components(directed=False)` searches the graph's cached
    symmetric pattern (`OffsetGraph._adjacency`), the one the sync matrix's
    CSR build and the triangle score read, so it is built once.  A graph
    with m = n(n - 1)/2 holds every pair (OffsetGraph forbids a repeated
    one), so it is one component and skips the search."""
    n = graph.n
    if 2 * graph.m == n * (n - 1):
        return 1, np.zeros(n, dtype=np.int32)
    indptr, indices, _ = graph._adjacency
    return _cc(sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n)),
               directed=False)


def is_connected(graph: OffsetGraph) -> bool:
    count, _ = connected_component_labels(graph)
    return count == 1


# ---------------------------------------------------------------------------
# Instance file format (text): whole-line comments start with '#'; first data line
# is "n m"; then one edge per line, "i j delta" with delta printed to 17
# significant digits, plus an optional trailing column g in {0,1} flagging a
# ground-truth good edge.  Either every edge row carries g or none does.

_EDGE_FIELDS = [("i", np.int64), ("j", np.int64), ("delta", np.float64), ("good", np.int64)]

# edges per write_instance block: small enough that its temporaries stay in
# cache and come from the heap, not from fresh mappings (glibc maps blocks
# of 128 KiB and more anew).  At m = 499,500 that is 1.5x faster than one
# block, and 2.2x under a fixed 128 KiB mmap threshold.
_BLOCK = 1 << 12

# Tables of the vectorized writer.  _DIGITS4[v] is the 4 ASCII digits of
# v < 10**4 as one uint32 (in memory order), leading zeros included, and
# _DIGITS4[10**4 + v] the same with v's trailing zeros as 0 bytes.
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                indexing="ij"), axis=-1).reshape(-1, 4)
_trailing = np.logical_and.accumulate(_DIGITS4[:, ::-1] == ord("0"), axis=1)[:, ::-1]
_DIGITS4 = np.vstack([_DIGITS4, np.where(_trailing, 0, _DIGITS4)]).view(np.uint32).ravel()
# An offset v in [1e-4, 2pi) lies in binade b = e + 14 in [0, 16], v =
# M * 2**(e - 52), and prints in fixed notation with decimal exponent
# d = t - 4 in [-4, 0].  Each decade double lies just above its power of
# ten, and the double below it just below, so t = floor(log10 v) + 4 is
# the decade of 2**e plus one where v >= _SPLIT[b], the decade double in
# the binade (inf if none).  The 17 significant digits of v are then
# N = M * 5**(20 - t) * 2**(b - t) / 2**46, and b - t lies in [0, 12].
# _KEY_T and the 32-bit limbs of _KEY_P = 5**(20 - t) * 2**(b - t) are
# indexed by 2 * b + (v >= _SPLIT[b]); t is clipped to [0, 4] on the two
# keys no offset in [1e-4, 2pi) has.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_t0 = np.searchsorted(_DECADES, np.ldexp(1.0, np.arange(17) - 14), side="right") - 1
_SPLIT = np.append(_DECADES, np.inf)[_t0 + 1]
_KEY_T = np.clip(_t0[:, None] + [0, 1], 0, 4).ravel()
_KEY_P = (5 ** (20 - _KEY_T).astype(np.uint64)) << (np.arange(34) // 2 - _KEY_T).astype(np.uint64)
_KEY_P_LO, _KEY_P_HI = _KEY_P & 0xFFFFFFFF, _KEY_P >> 32
del _trailing, _t0, _KEY_P
# the first 8 bytes of the fixed notation as one uint64, indexed by
# (t, first digit, fraction all zero): "0.", -d - 1 zeros and the digit for
# d < 0, "D." for d = 0 and "D" for an integral value, all right-aligned
_LEAD = np.zeros((5, 10, 2, 8), dtype=np.uint8)
for _t in range(4):
    _LEAD[_t, ..., _t + 2:7] = np.frombuffer(b"0.000"[:5 - _t], dtype=np.uint8)
_LEAD[:4, ..., 7] = _LEAD[4, ..., 6] = (ord("0") + np.arange(10))[:, None]
_LEAD[4, :, 0, 7] = ord(".")
_LEAD = _LEAD.view(np.uint64).ravel()
del _t


def _format_17g(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for every v of a float64 array, as rows of ASCII bytes.

    Returns a (len(x), 24) uint8 array whose row k, with its 0 bytes
    dropped, is exactly the bytes of '%.17g' % x[k].  For v in [1e-4, 2pi)
    the 17 digits N are M * _KEY_P / 2**46 rounded half to even: M * _KEY_P
    has up to 104 bits and is formed exactly from 32-bit limbs in two uint64
    words.  N has 17 digits: no offset lies close enough below a power of
    ten to round up to it.  Other values (0, subnormals, anything printed
    with an exponent) go through '%.17g'.
    """
    fast = (x >= 1e-4) & (x < TWO_PI)
    slow = np.flatnonzero(~fast)
    v = np.where(fast, x, 1.0)  # 1.0 stands in for the other values
    bits = v.view(np.uint64)
    binade = (bits >> 52).astype(np.intp) - 1009
    key = 2 * binade + (v >= _SPLIT[binade])
    t, p_lo, p_hi = _KEY_T[key], _KEY_P_LO[key], _KEY_P_HI[key]
    m_lo = bits & 0xFFFFFFFF
    m_hi = (bits >> 32) & 0xFFFFF
    m_hi |= 0x100000
    # M * _KEY_P as the two 64-bit words (high, low)
    mid = m_lo * p_hi
    mid += m_hi * p_lo
    high = m_hi * p_hi
    high += mid >> 32
    mid <<= 32
    low = m_lo * p_lo
    low += mid
    high += low < mid
    # adding 2**45 - 1, plus the bit that becomes N's last, carries into bit
    # 46 exactly when the remainder rounds N up, half to even
    bias = (low >> 46) & 1
    bias += 2**45 - 1
    low += bias
    high += low < bias
    n17 = high << 18
    n17 |= low >> 46
    n17 = n17.view(np.int64)
    top = n17 // 10**8
    first = top // 10**8
    high8, low8 = top - first * 10**8, n17 - top * 10**8
    high4, low4 = high8 // 10_000, low8 // 10_000
    quads = [high4, high8 - high4 * 10_000, low4, low8 - low4 * 10_000]
    # bytes 8-24 (uint32 words 2-5) hold the 16 fraction digits, filled last
    # quad first: a quad with only zero quads after it drops trailing zeros
    out = np.empty((x.size, 3), dtype=np.uint64)
    words = out.view(np.uint32)
    blank = np.ones(x.size, dtype=bool)
    for col in range(5, 1, -1):
        quad = quads[col - 2]
        words[:, col] = _DIGITS4[quad + 10_000 * blank]
        blank &= quad == 0
    out[:, 0] = _LEAD[(t * 10 + first) * 2 + blank]
    out = out.view(np.uint8)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=bytes)
        out[slow] = 0
        out[slow, :text.itemsize] = text.view(np.uint8).reshape(slow.size, -1)
    return out


def _int_chars(v: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of non-negative integers below 10**width, one row each,
    right-aligned in `width` columns with leading zeros as 0 bytes."""
    chunks, rest = [], v
    for _ in range(-(-width // 4)):
        left = rest // 10_000
        chunks.insert(0, _DIGITS4[rest - left * 10_000].view(np.uint8).reshape(-1, 4))
        rest = left
    out = np.hstack(chunks)[:, -width:]
    out[:, :-1][v[:, None] < _POW10[width - 1:0:-1]] = 0
    return out


def write_instance(path, graph: OffsetGraph, good_mask=None) -> None:
    """Write `graph` (and optionally a per-edge good mask) as an instance file.

    One "i j delta" row per edge in stored order, delta as %.17g so it reads
    back bit-identical; with `good_mask`, each row gains a 0/1 flag column.
    The file is written in binary mode, so every line ends in "\\n" on every
    platform.  Rows are laid out by numpy, _BLOCK edges at a time, in a byte
    buffer padded with 0 bytes, and hold exactly the bytes of the format
    '%d %d %.17g' (and ' %d'); see _format_17g.
    Raises InvalidInputError if `good_mask` does not have one entry per edge.
    """
    m = graph.m
    if good_mask is not None:
        good_mask = np.asarray(good_mask, dtype=bool)
        if good_mask.size != m:
            raise InvalidInputError("good_mask length != m")
    width = len(str(graph.n - 1))
    with open(path, "wb") as f:
        f.write(f"{graph.n} {m}\n".encode())
        for start in range(0, m, _BLOCK):
            block = slice(start, start + _BLOCK)
            cols = [_int_chars(graph.i[block], width), _int_chars(graph.j[block], width),
                    _format_17g(graph.delta[block])]
            if good_mask is not None:
                cols.append((good_mask[block].astype(np.uint8) + ord("0"))[:, None])
            rows = np.full((len(cols[0]), sum(c.shape[1] + 1 for c in cols)), ord(" "),
                           dtype=np.uint8)
            at = 0
            for c in cols:
                rows[:, at:at + c.shape[1]] = c
                at += c.shape[1] + 1
            rows[:, -1] = ord("\n")
            f.write(rows[rows != 0].tobytes())


# A plain file holds only ASCII, no '#' and none of the line breaks that
# str.splitlines knows besides \r and \n (the others, \x85, \u2028 and
# \u2029, are not ASCII), and its name has no suffix that makes numpy's
# loadtxt decompress it.
_NOT_PLAIN = (b"#", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _data_lines(lines):
    """(index, line) of the first two data lines of `lines`, each None if
    absent: lines that are neither blank nor whole-line comments."""
    data = ((k, raw) for k, raw in enumerate(lines)
            if raw.strip() and not raw.lstrip().startswith("#"))
    return next(data, None), next(data, None)


def read_instance(path):
    """Read an instance file. Returns (OffsetGraph, good_mask or None).

    Blank lines and whole-line comments (first non-blank character '#') are
    skipped anywhere; a '#' after data on a row is not a comment and makes
    the row invalid.  The first data line is the header "n m"; then exactly
    m edge rows "i j delta", or "i j delta g" with g in {0, 1}, all of one
    width.  The good mask is None for 3-column rows and for m = 0.

    The bytes are read once.  A plain regular file (ASCII, no '#', no line
    break but \n, \r\n and \r, no compressed suffix; every file
    write_instance makes) is scanned from them up to its first edge row,
    and np.loadtxt then parses it from its path with numpy's chunked C
    reader, so its text is never held as a list of lines.  Any other file,
    a pipe too, is decoded from those bytes, split with str.splitlines,
    stripped of comment lines and handed to the same loadtxt call as that
    list.  Both routes give the same arrays and raise the same errors.

    Raises InvalidInputError for: no header or a header without exactly two
    tokens ("missing 'n m' header"); non-integer n or m ("bad header"); rows
    not uniformly 3 or 4 columns wide; a token that does not parse as its
    column's type, integers for i, j and g ("unparsable edge row"); a flag
    outside {0, 1}; a row count other than m; and anything OffsetGraph
    rejects (index order, duplicate pairs, non-finite delta).
    """
    data = Path(path).read_bytes()
    plain = (Path(path).is_file() and Path(path).suffix not in _COMPRESSED
             and data.isascii() and not any(c in data for c in _NOT_PLAIN))
    # the bytes in hand are decoded as read_text would: locale encoding and
    # universal newlines, which number a plain file's lines as
    # str.splitlines does; a pipe is read only once
    text = io.TextIOWrapper(io.BytesIO(data))
    del data
    if plain:
        head, first = _data_lines(text)
    else:
        lines = text.read().splitlines()
        head, first = _data_lines(lines)
    del text
    header = head[1].split() if head is not None else []
    if len(header) != 2:
        raise InvalidInputError(f"{path}: missing 'n m' header")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: bad header {header!r}") from exc

    bad_width = f"{path}: edge rows must uniformly have 3 or 4 columns"
    if first is None:
        width, edges = 3, np.zeros(0, dtype=_EDGE_FIELDS[:3])
    else:
        # the first edge row's width picks the dtype; loadtxt rejects any
        # other width and, with comments=None, any trailing '#'
        width = len(first[1].split())
        if width not in (3, 4):
            raise InvalidInputError(bad_width)
        if plain:
            rows, skip = str(Path(path)), first[0]
        else:
            rows = [r for r in lines[first[0]:] if not r.lstrip().startswith("#")]
            skip = 0
        try:
            edges = np.loadtxt(rows, dtype=_EDGE_FIELDS[:width], comments=None, ndmin=1,
                               skiprows=skip)
        except ValueError as exc:
            if "columns" in str(exc):
                raise InvalidInputError(bad_width) from exc
            raise InvalidInputError(f"{path}: unparsable edge row") from exc
    if edges.size != m:
        raise InvalidInputError(f"{path}: expected {m} edge rows, found {edges.size}")
    mask = None
    if width == 4:
        flags = edges["good"]
        if not np.all((flags == 0) | (flags == 1)):
            raise InvalidInputError(f"{path}: good flag must be 0 or 1")
        mask = flags.astype(bool)
    return OffsetGraph(n=n, i=edges["i"], j=edges["j"], delta=edges["delta"]), mask
