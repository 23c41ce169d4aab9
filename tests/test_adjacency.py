"""The sorted symmetric adjacency an `OffsetGraph` keeps, against scipy.

`OffsetGraph._adjacency` is the CSR pattern of both directions of every
edge, with the slot (edge and direction) stored at each position.  The sync
matrix, the triangle score and the component search all read it, so it must
be the pattern a COO -> CSR conversion gives, be computed once per graph,
and stay read-only.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from angsync.core import OffsetGraph, connected_component_labels
from angsync.eig import build_sync_matrix, triangle_consistency_score
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)


def _reference(graph):
    """(indptr, indices, slots) by scipy's COO -> CSR conversion, with each
    entry's slot carried as its value: e at (i_e, j_e), m + e at (j_e, i_e)."""
    m = graph.m
    rows = np.concatenate([graph.i, graph.j])
    cols = np.concatenate([graph.j, graph.i])
    a = sp.coo_matrix((np.arange(2 * m), (rows, cols)), shape=(graph.n, graph.n)).tocsr()
    return a.indptr, a.indices, a.data


def _coo_entries(graph):
    """H's CSR by a COO -> CSR conversion, phasors at (i, j), conjugates at (j, i)."""
    w = np.exp(1j * graph.delta)
    return sp.coo_matrix(
        (np.concatenate([w, w.conj()]),
         (np.concatenate([graph.i, graph.j]), np.concatenate([graph.j, graph.i]))),
        shape=(graph.n, graph.n),
    ).tocsr()


def _rewired():
    graph = gen_small_world(SmallWorldParams(n=300, epsilon=0.15, p=0.5, seed=4))[0]
    assert not graph._ascending
    return graph


def _shuffled_complete():
    g = gen_complete(CompleteModelParams(n=50, p=0.3, seed=2))[0]
    perm = np.random.default_rng(3).permutation(g.m)
    return OffsetGraph(n=g.n, i=g.i[perm], j=g.j[perm], delta=g.delta[perm])


def _clock_half():
    return gen_clock(ClockModelParams(n=80, edge_probability=0.5, sigma_good=0.05,
                                      outlier_fraction=0.3, outlier_scale=20.0,
                                      omega=1.0, seed=6))[0]


GRAPHS = {
    "rewired-small-world": _rewired,
    "shuffled-complete": _shuffled_complete,
    "clock-p0.5": _clock_half,
    "no-edges": lambda: OffsetGraph(n=5, i=[], j=[], delta=[]),
    "one-vertex": lambda: OffsetGraph(n=1, i=[], j=[], delta=[]),
    "isolated-vertices": lambda: OffsetGraph(n=9, i=[6, 0, 2, 0], j=[7, 2, 6, 7],
                                             delta=[0.1, 0.2, 0.3, 0.4]),
}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_structure_and_slots_match_scipy(name):
    graph = GRAPHS[name]()
    indptr, indices, slots = graph._adjacency
    ref_indptr, ref_indices, ref_slots = _reference(graph)
    assert indptr.dtype == ref_indptr.dtype and indices.dtype == ref_indices.dtype
    assert indptr.tobytes() == ref_indptr.tobytes()
    assert indices.tobytes() == ref_indices.tobytes()
    assert np.array_equal(slots, ref_slots)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_general_route_entries_match_coo_build(name):
    graph = GRAPHS[name]()
    entries = build_sync_matrix(graph).entries
    ref = _coo_entries(graph)
    for got, want in ((entries.data, ref.data), (entries.indices, ref.indices),
                      (entries.indptr, ref.indptr)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert entries.has_canonical_format is ref.has_canonical_format is True
    assert entries.has_sorted_indices


def _counting(monkeypatch):
    """Count the computations of `OffsetGraph._adjacency`."""
    prop = OffsetGraph.__dict__["_adjacency"]
    compute = prop.func
    calls = []

    def counting(graph):
        calls.append(graph)
        return compute(graph)

    monkeypatch.setattr(prop, "func", counting)
    return calls


def test_computed_once_per_graph(monkeypatch):
    calls = _counting(monkeypatch)
    graph = _rewired()
    build_sync_matrix(graph)
    triangle_consistency_score(graph, 500, seed=1)
    connected_component_labels(graph)
    build_sync_matrix(graph)
    assert len(calls) == 1 and calls[0] is graph


def test_complete_ascending_graph_never_computes_it(monkeypatch):
    calls = _counting(monkeypatch)
    graph = gen_complete(CompleteModelParams(n=40, p=0.3, seed=1))[0]
    assert graph._ascending
    # nor does the same graph with its edges shuffled: the build reads no order
    for g in (graph, _shuffled_complete()):
        build_sync_matrix(g)
        assert connected_component_labels(g)[0] == 1
        assert "_adjacency" not in vars(g)
    assert not calls


def test_read_only_and_not_shared_with_h():
    graph = _rewired()
    entries = build_sync_matrix(graph).entries
    for a in graph._adjacency:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0
    indptr, indices, _ = graph._adjacency
    for own, cached in ((entries.indices, indices), (entries.indptr, indptr)):
        assert own.flags.writeable and not np.shares_memory(own, cached)


def test_slots_in_index_dtype():
    # 16 bytes an edge: a column index and a slot for each direction
    graph = _rewired()
    indptr, indices, slots = graph._adjacency
    assert slots.dtype == indices.dtype == indptr.dtype
    assert indices.nbytes + slots.nbytes == 16 * graph.m


def test_general_build_holds_m_phasors():
    # n=2000, epsilon=0.05, p=0.3: the build keeps the CSR (40 bytes an
    # edge) and caches the adjacency (16); computing the m phasors once and
    # gathering them into CSR order a block at a time peaks at about 66
    # bytes an edge, where a 2m-phasor buffer and 8-byte slots took 96
    graph = gen_small_world(SmallWorldParams(n=2000, epsilon=0.05, p=0.3, seed=5))[0]
    tracemalloc.start()
    try:
        build_sync_matrix(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * graph.m
