"""The complete-graph route of `build_sync_matrix` against the COO build.

A complete graph from n = 4 on, its edges in any order, is built into one
dense array, and the matrix holds that array alone.  Its CSR arrays, laid
out when `entries` is first read, must be the bytes of the COO build (kept
here as the reference; the route every other graph takes gives them too),
the dense operand the bytes of ``entries.toarray()``, and lsqr, which applies
D - H through H's own product, the solve of the sparse subtraction's grounded
CSR.  No solver reads the CSR.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from angsync import cli, core, eig
from angsync.baselines import LsqrOptions, SdpOptions, estimate_lsqr, estimate_sdp
from angsync.core import OffsetGraph, SyncMatrix, connected_component_labels
from angsync.eig import EigOptions, build_sync_matrix, estimate_eig
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)
from angsync.spectra import full_spectrum


def _coo_entries(graph):
    """H's CSR through a COO matrix, the bytes `build_sync_matrix` gives every
    graph."""
    m = graph.m
    data = np.empty(2 * m, dtype=np.complex128)
    w = data[m:]
    np.multiply(1j, graph.delta, out=w)
    np.exp(w, out=w)
    np.conjugate(w, out=data[:m])
    idx = sp.get_index_dtype(maxval=max(graph.n, 2 * m))
    rows = np.concatenate([graph.j, graph.i], dtype=idx)
    cols = np.concatenate([graph.i, graph.j], dtype=idx)
    return sp.coo_matrix((data, (rows, cols)), shape=(graph.n, graph.n)).tocsr()


def _csr_bytes(a):
    return [(x.dtype.str, x.tobytes()) for x in (a.data, a.indices, a.indptr)]


def _complete(n, p=0.3, seed=None):
    return gen_complete(CompleteModelParams(n=n, p=p, seed=n if seed is None else seed))[0]


def _zero_offsets():
    """Complete n=60 with a zero offset on every 7th edge: the conjugate of
    exp(0i) is 1 - 0j in the CSR and 1 + 0j in ``toarray``."""
    g = _complete(60)
    delta = np.array(g.delta)
    delta[::7] = 0.0
    return OffsetGraph(n=g.n, i=g.i, j=g.j, delta=delta)


def _clock():
    return gen_clock(ClockModelParams(n=50, edge_probability=1.0, sigma_good=0.05,
                                      outlier_fraction=0.3, outlier_scale=20.0,
                                      omega=1.0, seed=4))[0]


def _shuffled(graph, seed=1):
    perm = np.random.default_rng(seed).permutation(graph.m)
    return OffsetGraph(n=graph.n, i=graph.i[perm], j=graph.j[perm], delta=graph.delta[perm])


COMPLETE = {"complete-4": lambda: _complete(4),
            "complete-60": lambda: _complete(60),
            "complete-400": lambda: _complete(400),
            "complete-1000": lambda: _complete(1000),
            "zero-offsets": _zero_offsets,
            "clock-p1": _clock,
            "shuffled-400": lambda: _shuffled(_complete(400)),
            "shuffled-zero-offsets": lambda: _shuffled(_zero_offsets())}


@pytest.mark.parametrize("name", list(COMPLETE))
def test_entries_and_operand_bytes(name):
    graph = COMPLETE[name]()
    H = build_sync_matrix(graph)
    assert "_dense" in vars(H)  # carried from construction, not copied later
    assert "entries" not in vars(H)  # laid out on first read
    # answered from n while the CSR is not laid out
    nnz, degrees = H.nnz_offdiag, H._degrees()
    ref = _coo_entries(graph)
    assert _csr_bytes(H.entries) == _csr_bytes(ref)
    assert H.entries.has_canonical_format is ref.has_canonical_format is True
    assert H.entries is H.entries  # laid out once
    assert H._dense.tobytes() == ref.toarray().tobytes()
    assert nnz == H.nnz_offdiag == ref.nnz
    assert degrees.tobytes() == np.diff(ref.indptr).astype(np.float64).tobytes()
    assert core._dense_fits(H.n, nnz) is True


@pytest.mark.parametrize("name", ["complete-60", "zero-offsets", "clock-p1"])
def test_entries_read_after_the_solves(name):
    graph = COMPLETE[name]()
    H = build_sync_matrix(graph)
    estimate_eig(graph, EigOptions(diagonal_shift=0.5), H=H)
    estimate_lsqr(graph, H=H)
    assert _csr_bytes(H.entries) == _csr_bytes(_coo_entries(graph))
    assert H._dense.tobytes() == _coo_entries(graph).toarray().tobytes()


def _no_csr(monkeypatch):
    """Make laying out a complete graph's CSR, and any CSR -> dense copy, fail."""
    def fail(*args, **kwargs):
        raise AssertionError("laid out or copied a complete graph's CSR")

    monkeypatch.setattr(SyncMatrix.__dict__["entries"], "func", fail)
    monkeypatch.setattr(sp.csr_matrix, "toarray", fail)


@pytest.mark.parametrize("solve", [
    lambda g, H: estimate_eig(g, H=H),
    lambda g, H: estimate_eig(g, EigOptions(diagonal_shift=1.0), H=H),
    lambda g, H: estimate_eig(g, EigOptions(diagonal_shift=1.0)),
    lambda g, H: estimate_lsqr(g, LsqrOptions(), H=H),
    lambda g, H: estimate_sdp(g, SdpOptions(max_iters=20), H=H),
    lambda g, H: full_spectrum(H),
], ids=["eig", "eig-shifted", "eig-shifted-own-build", "lsqr", "sdp", "full-spectrum"])
def test_solvers_never_lay_out_the_csr(solve, monkeypatch):
    graph = _complete(60)
    H = build_sync_matrix(graph)
    _no_csr(monkeypatch)
    solve(graph, H)
    assert "entries" not in vars(H)


def test_sweep_never_lays_out_the_csr(monkeypatch, tmp_path):
    built = []
    build = eig.build_sync_matrix

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(eig, "build_sync_matrix", keep)
    _no_csr(monkeypatch)
    assert cli.main(["sweep", "--model", "complete", "--n", "40", "--p", "0.5",
                     "--trials", "2", "--method", "eig,lsqr,sdp",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert len(built) == 2 and not any("entries" in vars(H) for H in built)


def test_build_holds_one_n_squared_array():
    """The build's traced peak is the dense array plus buffers of a fixed
    size, in either edge order: at most 1.1 times 16 n^2 bytes at n = 400,
    where holding the CSR too takes about 2.25 times."""
    n = 400
    for graph in (_complete(n), _shuffled(_complete(n))):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            H = build_sync_matrix(graph)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert "entries" not in vars(H) and H._dense.nbytes == 16 * n * n
        assert peak <= 1.1 * 16 * n * n


def test_lsqr_holds_no_second_matrix():
    """lsqr applies D - H through H's own product: its traced peak at
    complete n = 400 stays below a quarter of one 16 n^2 array, where laying
    out the Laplacian as a CSR takes about 1.3 times, and it leaves H's CSR
    unlaid."""
    n = 400
    graph = _complete(n, p=0.1)
    H = build_sync_matrix(graph)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimate_lsqr(graph, H=H)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 16 * n * n
    assert "entries" not in vars(H)


def test_zero_offset_case_has_signed_zeros():
    ref = _coo_entries(_zero_offsets())
    assert np.signbit(ref.data.imag[ref.data.imag == 0.0]).any()
    dense = ref.toarray().imag
    assert not np.signbit(dense[dense == 0.0]).any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_below_dense_size(n):
    graph = _complete(n) if n > 1 else OffsetGraph(n=1, i=[], j=[], delta=[])
    H = build_sync_matrix(graph)
    assert _csr_bytes(H.entries) == _csr_bytes(_coo_entries(graph))
    assert H._dense is None  # 16 n^2 bytes exceed the CSR's below n = 4


def _missing_edge():
    """Complete n=60 without its first edge: not complete, yet dense-sized."""
    g = _complete(60)
    return OffsetGraph(n=g.n, i=g.i[1:], j=g.j[1:], delta=g.delta[1:])


def test_shuffled_edges_take_coo_route():
    graph = _missing_edge()
    shuffled = _shuffled(graph)
    assert not shuffled._ascending
    H = build_sync_matrix(shuffled)
    assert "entries" in vars(H)  # the general build's CSR, copied at construction
    assert _csr_bytes(H.entries) == _csr_bytes(build_sync_matrix(graph).entries)
    assert H._dense.tobytes() == build_sync_matrix(graph)._dense.tobytes()


def test_missing_edge_takes_coo_route():
    graph = _missing_edge()
    H = build_sync_matrix(graph)
    assert "entries" in vars(H) and "_dense" in vars(H)
    assert _csr_bytes(H.entries) == _csr_bytes(_coo_entries(graph))
    assert H._dense.tobytes() == _coo_entries(graph).toarray().tobytes()


def test_shift_kept():
    H = build_sync_matrix(_complete(20), diagonal_shift=0.5)
    assert H.diagonal_shift == 0.5
    v = np.arange(20, dtype=np.complex128)
    ref = H.entries @ v + 0.5 * v
    assert np.max(np.abs(H.matvec(v) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _shuffled_complete():
    return _shuffled(_complete(40), seed=2)


@pytest.mark.parametrize("build", [
    *COMPLETE.values(),
    lambda: _complete(3),
    _shuffled_complete,
    lambda: gen_small_world(SmallWorldParams(n=200, epsilon=0.1, p=0.5, seed=3))[0],
], ids=[*COMPLETE, "complete-3", "shuffled-complete", "small-world"])
def test_laplacian_bytes(build):
    """lsqr's one CG run on H's own product takes the steps of one CG run on
    the explicit grounded CSR of the sparse subtraction D - H, and agrees
    with it to rounding."""
    graph = build()
    H = build_sync_matrix(graph)
    got = estimate_lsqr(graph, H=H)

    n = graph.n
    deg = np.diff(H.entries.indptr).astype(np.float64)
    L = (sp.diags(deg) - H.entries).tocsr()
    labels = connected_component_labels(graph)[1]
    free = np.ones(n, dtype=bool)
    free[np.unique(labels, return_index=True)[1]] = False
    rhs = -(L @ (~free).astype(np.complex128))[free]
    ticks = []
    u, info = cg(L[free][:, free], rhs, rtol=LsqrOptions().tol, atol=0.0, maxiter=20 * n,
                 callback=ticks.append)
    z = np.ones(n, dtype=np.complex128)
    z[free] = u
    assert got.iterations == len(ticks)
    assert got.diagnostics["converged"] == (info == 0)
    assert np.abs(got.eigvec - z / np.linalg.norm(z)).max() <= 1e-13


@pytest.mark.parametrize("shift", [0.0, 0.7])
@pytest.mark.parametrize("build", [
    lambda: _complete(60),
    lambda: _complete(3),
    _zero_offsets,
    _shuffled_complete,
    lambda: gen_small_world(SmallWorldParams(n=120, epsilon=0.2, p=0.5, seed=3))[0],
], ids=["complete-60", "complete-3", "zero-offsets", "shuffled-complete", "small-world"])
def test_to_dense_bytes(build, shift):
    graph = build()
    H = build_sync_matrix(graph, diagonal_shift=shift)
    got = H.to_dense()
    ref = _coo_entries(graph).toarray()
    ref[np.diag_indices(graph.n)] += shift
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    if H._dense is not None:
        assert not np.shares_memory(got, H._dense)
