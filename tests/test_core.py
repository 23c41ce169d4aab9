import dataclasses
import hashlib
import os
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import angsync.core
from angsync.baselines import sdp_objective
from angsync.core import (
    DEFAULT_THETA0,
    TWO_PI,
    AngleEstimate,
    CorrelationReport,
    GroundTruth,
    InvalidInputError,
    OffsetGraph,
    SyncMatrix,
    _format_17g,
    _mod2pi,
    circdist,
    connected_component_labels,
    evaluate,
    is_connected,
    read_instance,
    reduce_angles,
    rho1,
    rho2,
    sce,
    sce_f,
    write_instance,
)
from angsync.eig import estimate_eig
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)

angles = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


@st.composite
def angle_pair(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = draw(st.lists(angles, min_size=n, max_size=n))
    b = draw(st.lists(angles, min_size=n, max_size=n))
    return np.array(a), np.array(b)


def test_reduce_angles_range():
    x = np.array([-1e-20, 0.0, TWO_PI, TWO_PI + 0.5, -0.5, 100.0])
    out = reduce_angles(x)
    assert np.all((0.0 <= out) & (out < TWO_PI))
    assert reduce_angles(-1e-20) == 0.0


def test_circdist_basic():
    assert circdist(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert circdist(0.0, np.pi) == pytest.approx(np.pi)
    assert circdist(3.0, 3.0) == 0.0


@given(angles, angles)
def test_circdist_symmetric_and_bounded(a, b):
    d = circdist(a, b)
    assert 0.0 <= d <= np.pi + 1e-12
    assert d == pytest.approx(circdist(b, a))


# The mod-free reductions must give np.mod's bits.  np.mod is kept here as
# the reference, on the values where a shortcut could go wrong: signed
# zeros and subnormals, both ends of each period, and non-finite input.
EDGE_ANGLES = [-0.0, -1e-300, -5e-324, TWO_PI, np.nextafter(TWO_PI, 0.0),
               np.nextafter(-TWO_PI, 0.0), np.nextafter(2.0 * TWO_PI, 0.0),
               np.nan, np.inf, -np.inf]


def _mod_reference(x):
    with np.errstate(invalid="ignore"):
        return np.mod(x, TWO_PI)


def _reduce_reference(x):
    out = _mod_reference(np.asarray(x, dtype=np.float64))
    return np.where(out >= TWO_PI, 0.0, out)


def _circdist_reference(a, b):
    d = _mod_reference(np.abs(a - b))
    return np.minimum(d, TWO_PI - d)


class TestMod2Pi:
    @pytest.mark.parametrize("x", EDGE_ANGLES)
    def test_edge_values_bit_identical(self, x):
        arr = np.array([x])
        with np.errstate(invalid="ignore"):
            assert _mod2pi(arr).tobytes() == _mod_reference(arr).tobytes()
            assert reduce_angles(arr).tobytes() == _reduce_reference(arr).tobytes()
            assert circdist(arr, 0.0).tobytes() == _circdist_reference(arr, 0.0).tobytes()

    def test_edge_values_next_to_uniform_draws(self):
        # the finite edge values inside one array that stays in (-2pi, 4pi)
        finite = [x for x in EDGE_ANGLES if np.isfinite(x)]
        x = np.concatenate([finite, np.random.default_rng(1).uniform(-6.0, 12.0, 100)])
        assert _mod2pi(x).tobytes() == _mod_reference(x).tobytes()
        assert reduce_angles(x).tobytes() == _reduce_reference(x).tobytes()

    def test_tiny_negative_gives_two_pi(self):
        assert _mod2pi(np.array([-1e-300]))[0] == TWO_PI
        assert reduce_angles(-1e-300) == 0.0
        assert not np.signbit(_mod2pi(np.array([-0.0]))[0])

    def test_uniform_draws_bit_identical(self):
        rng = np.random.default_rng(2024)
        x = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 10**6)
        assert _mod2pi(x).tobytes() == _mod_reference(x).tobytes()
        assert reduce_angles(x).tobytes() == _reduce_reference(x).tobytes()
        # |a - b| spans [0, 4pi)
        b = rng.uniform(0.0, TWO_PI, 10**6)
        assert circdist(x, b).tobytes() == _circdist_reference(x, b).tobytes()

    @pytest.mark.parametrize("x", [-TWO_PI, 2.0 * TWO_PI, -100.0, 1e300])
    def test_out_of_range_falls_back(self, x):
        arr = np.array([x, 0.5])
        assert _mod2pi(arr).tobytes() == _mod_reference(arr).tobytes()

    def test_empty(self):
        assert _mod2pi(np.zeros(0)).size == 0


class TestOffsetGraph:
    def test_valid_construction_reduces_delta(self):
        g = OffsetGraph(n=3, i=[0, 0], j=[1, 2], delta=[-0.5, TWO_PI + 1.0])
        assert g.m == 2
        assert np.all((0 <= g.delta) & (g.delta < TWO_PI))
        assert g.delta[0] == pytest.approx(TWO_PI - 0.5)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidInputError):
            OffsetGraph(n=3, i=[1], j=[0], delta=[0.0])
        with pytest.raises(InvalidInputError):
            OffsetGraph(n=3, i=[0], j=[3], delta=[0.0])
        with pytest.raises(InvalidInputError):
            OffsetGraph(n=3, i=[0], j=[0], delta=[0.0])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            OffsetGraph(n=3, i=[0, 0], j=[1, 1], delta=[0.0, 1.0])

    def test_duplicate_in_unsorted_input_rejected(self):
        with pytest.raises(InvalidInputError, match="duplicate"):
            OffsetGraph(n=4, i=[0, 2, 1, 0], j=[3, 3, 2, 3], delta=[0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("i, j, sorts", [
        ([0, 0, 1, 2], [1, 3, 2, 3], 0),  # codes i*n + j strictly ascend
        ([2, 0, 1, 0], [3, 1, 2, 3], 1),  # unsorted: sort and diff
    ])
    def test_sort_only_for_unsorted_codes(self, i, j, sorts):
        # the codes are sorted in place, which no spy on a numpy function
        # sees, so the test reads the flag that picks the sorting branch
        g = OffsetGraph(n=4, i=i, j=j, delta=[0.1, 0.2, 0.3, 0.4])
        assert g._ascending is (sorts == 0)
        assert g.i.tolist() == i and g.j.tolist() == j

    def test_unsorted_check_holds_one_code_array(self):
        # the duplicate check of edges that do not ascend lays out one int64
        # code per edge and sorts it in place: with the reduced offsets that
        # is about 17 bytes an edge, against 24 or more for i * n, the sum,
        # a sorted copy and the diff
        g, _ = gen_complete(CompleteModelParams(n=400, p=0.5, seed=1))
        perm = np.random.default_rng(0).permutation(g.m)
        i, j, delta = _locked(g.i[perm]), _locked(g.j[perm]), g.delta[perm]
        tracemalloc.start()
        try:
            h = OffsetGraph(n=g.n, i=i, j=j, delta=delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not h._ascending and h.i is i
        assert peak < 20 * g.m

    def test_immutable(self):
        g = OffsetGraph(n=3, i=[0], j=[1], delta=[0.2])
        with pytest.raises(ValueError):
            g.delta[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_offsets(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            OffsetGraph(n=3, i=[0, 0], j=[1, 2], delta=[0.5, bad])

    @pytest.mark.parametrize("n, i, j, message", [
        (3, [0.5], [1.7], "i must hold integers"),  # once stored as the edge (0, 1)
        (3, [0], [np.nan], "j must hold integers"),
        (3, [0], [np.inf], "j must hold integers"),
        (2.7, [0], [1], "n must be an integer"),  # once truncated to 2
        (3.0, [0], [1], "n must be an integer"),
    ])
    def test_rejects_non_integers(self, n, i, j, message):
        with pytest.raises(InvalidInputError, match=message):
            OffsetGraph(n=n, i=i, j=j, delta=[0.1])

    def test_integral_floats_and_integer_dtypes_taken(self):
        for i, j in ((np.array([0.0, 1.0]), np.array([1.0, 2.0])),
                     (np.array([0, 1], dtype=np.int32), np.array([1, 2], dtype=np.uint8))):
            g = OffsetGraph(n=np.int64(3), i=i, j=j, delta=[0.1, 0.2])
            assert g.n == 3 and type(g.n) is int
            assert g.i.dtype == g.j.dtype == np.int64
            assert g.i.tolist() == [0, 1] and g.j.tolist() == [1, 2]


def _locked(values, dtype=np.int64):
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


class TestOffsetGraphAdoption:
    """Read-only int64 arrays that own their memory are adopted; any other
    index array is copied, so no later write reaches the graph."""

    def test_writable_arrays_copied(self):
        i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
        g = OffsetGraph(n=3, i=i, j=j, delta=[0.1, 0.2, 0.3])
        i[0], j[0] = 1, 2
        assert g.i.tolist() == [0, 0, 1] and g.j.tolist() == [1, 2, 2]
        assert not (g.i.flags.writeable or g.j.flags.writeable)

    def test_read_only_owners_adopted(self):
        i, j = _locked([0, 0, 1]), _locked([1, 2, 2])
        g = OffsetGraph(n=3, i=i, j=j, delta=[0.1, 0.2, 0.3])
        assert g.i is i and g.j is j

    def test_read_only_views_copied(self):
        pairs = np.array([[0, 0, 1], [1, 2, 2]])
        i, j = pairs[0], pairs[1]
        i.flags.writeable = j.flags.writeable = False
        g = OffsetGraph(n=3, i=i, j=j, delta=[0.1, 0.2, 0.3])
        assert not (np.shares_memory(g.i, pairs) or np.shares_memory(g.j, pairs))
        pairs[0, 0], pairs[1, 0] = 1, 2  # the owner is still writable
        assert g.i.tolist() == [0, 0, 1] and g.j.tolist() == [1, 2, 2]

    def test_read_only_owner_of_another_dtype_copied(self):
        i = _locked([0, 0, 1], np.int32)
        g = OffsetGraph(n=3, i=i, j=_locked([1, 2, 2]), delta=[0.1, 0.2, 0.3])
        assert g.i.dtype == np.int64 and not np.shares_memory(g.i, i)

    def test_delta_always_new(self):
        delta = _locked([0.1, 0.2, 0.3], np.float64)
        g = OffsetGraph(n=3, i=_locked([0, 0, 1]), j=_locked([1, 2, 2]), delta=delta)
        assert not np.shares_memory(g.delta, delta)

    @pytest.mark.parametrize("model", ["complete", "clock", "small-world"])
    def test_generators_hand_over_their_index_arrays(self, model, monkeypatch):
        seen = []
        init = OffsetGraph.__post_init__

        def spy(self):
            seen.append((self.i, self.j))
            init(self)

        monkeypatch.setattr(OffsetGraph, "__post_init__", spy)
        if model == "complete":
            g = gen_complete(CompleteModelParams(n=20, p=0.5, seed=1))[0]
        elif model == "clock":
            g = gen_clock(ClockModelParams(n=20, edge_probability=0.5, sigma_good=0.01,
                                           outlier_fraction=0.2, outlier_scale=5.0,
                                           omega=1.0, seed=1))[0]
        else:
            g = gen_small_world(SmallWorldParams(n=60, epsilon=0.3, p=0.5, seed=1))[0]
        assert seen[-1][0] is g.i and seen[-1][1] is g.j


# (i, j, delta) that the checks reject, with the message; at a validation
# block of 2 edges each fault sits in a later block than the first
_REJECTED = [
    pytest.param([0, 0, 1, 1], [1, 2, 2, 3], [0.1, 0.2, 0.3, np.nan],
                 "offsets must be finite", id="non-finite"),
    pytest.param([0, 0, 1, 3], [1, 2, 2, 3], [0.1] * 4,
                 "edges must satisfy 0 <= i < j < n", id="i-equals-j"),
    pytest.param([0, 0, 1, 2], [1, 2, 2, 1], [0.1] * 4,
                 "edges must satisfy 0 <= i < j < n", id="i-above-j"),
    pytest.param([0, 0, 1, 1], [1, 2, 2, 4], [0.1] * 4,
                 "edges must satisfy 0 <= i < j < n", id="j-at-n"),
    pytest.param([0, 0, 1, -1], [1, 2, 2, 3], [0.1] * 4,
                 "edges must satisfy 0 <= i < j < n", id="negative-i"),
    pytest.param([0, 0, 0, 1], [1, 2, 2, 3], [0.1] * 4,
                 "duplicate edge pair", id="duplicate-across-blocks"),
    pytest.param([1, 0, 0, 1], [2, 1, 2, 2], [0.1] * 4,
                 "duplicate edge pair", id="duplicate-unsorted"),
    # the range check covers every block before any duplicate is reported
    pytest.param([0, 0, 1, 1, 2, 2], [1, 1, 2, 3, 3, 4], [0.1] * 6,
                 "edges must satisfy 0 <= i < j < n", id="range-before-duplicate"),
    # non-finite offsets are reported before anything else
    pytest.param([0, 0], [0, 0], [0.1, np.inf],
                 "offsets must be finite", id="finite-before-range"),
]


@pytest.mark.parametrize("block", [2, None])
@pytest.mark.parametrize("locked", [False, True])
@pytest.mark.parametrize("i, j, delta, message", _REJECTED)
def test_rejections_in_blocks(i, j, delta, message, locked, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(angsync.core, "_CHECK_BLOCK", block)
    if locked:
        i, j = _locked(i), _locked(j)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        OffsetGraph(n=4, i=i, j=j, delta=delta)


@pytest.mark.parametrize("block", [2, 3, None])
@pytest.mark.parametrize("i, j, ascending", [
    ([0, 0, 1, 1, 2], [1, 2, 2, 3, 3], True),
    ([0, 1, 0, 1, 2], [1, 2, 2, 3, 3], False),  # descends inside the first block
    ([0, 0, 2, 1, 2], [1, 2, 3, 3, 4], False),  # descends across a block boundary
    ([], [], True),
])
def test_ascending_recorded(i, j, ascending, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(angsync.core, "_CHECK_BLOCK", block)
    g = OffsetGraph(n=5, i=i, j=j, delta=np.full(len(i), 0.5))
    assert g._ascending is ascending
    assert g.i.tolist() == i and g.j.tolist() == j


def test_blocked_reduction_matches_whole_array(monkeypatch):
    delta = np.random.default_rng(3).uniform(-20.0, 20.0, 9)
    delta[[2, 7]] = [-1e-300, 4 * np.pi]  # one block takes np.mod, the others not
    i, j = np.triu_indices(5, 1)
    whole = OffsetGraph(n=5, i=i[:9], j=j[:9], delta=delta).delta
    monkeypatch.setattr(angsync.core, "_CHECK_BLOCK", 2)
    blocked = OffsetGraph(n=5, i=i[:9], j=j[:9], delta=delta).delta
    assert blocked.tobytes() == whole.tobytes() == reduce_angles(delta).tobytes()


class TestGroundTruth:
    def test_validate_against_good_edges(self):
        theta = np.array([0.3, 1.2, 5.0])
        delta = reduce_angles(np.array([theta[0] - theta[1], theta[0] - theta[2]]))
        g = OffsetGraph(n=3, i=[0, 0], j=[1, 2], delta=delta)
        t = GroundTruth(theta=theta, good_mask=[True, True])
        t.validate_against(g)

    def test_validate_against_detects_mismatch(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[1.0])
        t = GroundTruth(theta=[0.0, 0.0], good_mask=[True])
        with pytest.raises(InvalidInputError):
            t.validate_against(g)
        # A bad edge is unconstrained.
        GroundTruth(theta=[0.0, 0.0], good_mask=[False]).validate_against(g)

    def test_length_checks(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[1.0])
        with pytest.raises(InvalidInputError):
            GroundTruth(theta=[0.0], good_mask=[False]).validate_against(g)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: OffsetGraph(n=0, i=[], j=[], delta=[]),
                 "need n >= 1, got 0", id="graph-n-below-1"),
    pytest.param(lambda: OffsetGraph(n=3, i=[[0]], j=[[1]], delta=[[0.5]]),
                 "i, j, delta must be 1-d arrays of equal length", id="graph-not-1d"),
    pytest.param(lambda: OffsetGraph(n=3, i=[0, 0], j=[1], delta=[0.5, 0.5]),
                 "i, j, delta must be 1-d arrays of equal length", id="graph-unequal-lengths"),
    pytest.param(lambda: GroundTruth(theta=[[0.0, 1.0]], good_mask=[True]),
                 "theta and good_mask must be 1-d", id="truth-not-1d"),
    pytest.param(lambda: GroundTruth(theta=[0.0, 1.0], good_mask=[True, False]).validate_against(
                     OffsetGraph(n=2, i=[0], j=[1], delta=[1.0])),
                 "good_mask length != m", id="truth-mask-length"),
    # refused when made, not by numpy's dimension check at the first product
    pytest.param(lambda: SyncMatrix(n=3, entries=sp.csr_matrix((2, 2))),
                 "entries shape mismatch", id="sync-shape-at-construction"),
])
def test_input_check_messages(build, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        build()


class TestRho1:
    def test_identical_angles(self):
        th = np.array([0.1, 2.0, 4.4])
        assert rho1(th, th) == pytest.approx(1.0)

    def test_global_shift_invariance_exact(self):
        th = np.array([0.1, 2.0, 4.4, 5.9])
        assert rho1(th + 1.234, th) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_angles(self):
        # |(1 + e^{i pi})/2| = 0
        assert rho1(np.array([0.0, np.pi]), np.array([0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            rho1([0.0, 1.0], [0.0])

    @given(angle_pair())
    @settings(max_examples=60)
    def test_range_and_shift_invariance(self, pair):
        a, b = pair
        r = rho1(a, b)
        assert 0.0 <= r <= 1.0 + 1e-12
        assert abs(rho1(a + 0.77, b) - r) < 1e-12


class TestRho2:
    def test_self_inner_product(self):
        th = np.array([0.4, 1.0, 2.2, 6.0])
        z = np.exp(1j * th) / 2.0
        assert rho2(z, th) == pytest.approx(1.0)

    def test_orthogonal(self):
        z = np.array([1.0, -1.0]) / np.sqrt(2)
        assert rho2(z, np.array([0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_non_unit_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            rho2(np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            rho2(np.array([1.0]), np.array([0.0, 0.0]))

    def test_random_unit_vectors_near_chance_level(self):
        # Haar-random unit pairs: |<z, v>| is Rayleigh with mean
        # sqrt(pi)/(2 sqrt(n)), i.e. "near 1/sqrt(n)" = 0.05 for n=400.
        n = 400
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(100):
            th = rng.uniform(0, TWO_PI, n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            vals.append(rho2(v, th))
        mean = np.mean(vals)
        assert 0.03 < mean < 0.07
        assert mean == pytest.approx(np.sqrt(np.pi) / (2 * np.sqrt(n)), abs=0.01)

    @given(angle_pair(max_n=20))
    @settings(max_examples=40)
    def test_range_and_shift_invariance(self, pair):
        a, th = pair
        v = np.exp(1j * a)
        v = v / np.linalg.norm(v)
        r = rho2(v, th)
        assert 0.0 <= r <= 1.0 + 1e-12
        assert abs(rho2(v, th + 0.9) - r) < 1e-12


class TestSce:
    def test_planted_all_good_is_zero(self):
        graph, truth = gen_complete(CompleteModelParams(n=12, p=1.0, seed=5))
        assert sce(truth.theta, graph, 1e-9) == 0
        assert sce(truth.theta, graph, 0.0) <= 1  # exact reduction, fp noise only

    def test_single_violated_edge(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[np.pi])
        assert sce(np.zeros(2), g, 0.1) == 1

    def test_counts_bad_edges_of_planted_solution(self):
        graph, truth = gen_complete(CompleteModelParams(n=30, p=0.5, seed=11))
        tol = 1e-6
        # independent oracle: recount violations edge by edge from the labels
        viol = 0
        for a, b, d, good in zip(graph.i, graph.j, graph.delta, truth.good_mask):
            diff = (truth.theta[a] - truth.theta[b]) % TWO_PI
            dist = abs(diff - d) % TWO_PI
            dist = min(dist, TWO_PI - dist)
            viol += dist > tol
        got = sce(truth.theta, graph, tol)
        assert got == viol
        assert got == int(np.count_nonzero(~truth.good_mask))

    def test_global_shift_invariance(self):
        graph, truth = gen_complete(CompleteModelParams(n=15, p=0.4, seed=2))
        a = sce(truth.theta, graph, 1e-6)
        b = sce(reduce_angles(truth.theta + 2.1), graph, 1e-6)
        assert a == b

    def test_negative_tol_rejected(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        with pytest.raises(InvalidInputError):
            sce(np.zeros(2), g, -1.0)


class TestSceF:
    def test_exact_solution_zero(self):
        graph, truth = gen_complete(CompleteModelParams(n=10, p=1.0, seed=1))
        assert sce_f(truth.theta, graph, 0.3) == pytest.approx(0.0, abs=1e-20)

    def test_boundary_violation_is_one(self):
        theta0 = 0.4
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[theta0])
        assert sce_f(np.zeros(2), g, theta0) == pytest.approx(1.0)

    def test_matches_bruteforce_sum(self):
        graph, truth = gen_complete(CompleteModelParams(n=20, p=0.5, seed=77))
        theta0 = 0.35
        total = 0.0
        for a, b, d in zip(graph.i, graph.j, graph.delta):
            x = truth.theta[a] - truth.theta[b] - d
            dist = abs(x) % TWO_PI
            dist = min(dist, TWO_PI - dist)
            total += min(1.0, (dist / theta0) ** 2)
        assert sce_f(truth.theta, graph, theta0) == pytest.approx(total, rel=1e-12)

    def test_theta0_out_of_range(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        for bad in (0.0, -1.0, np.pi, 4.0):
            with pytest.raises(InvalidInputError):
                sce_f(np.zeros(2), g, bad)


def test_evaluate_report_consistency():
    graph, truth = gen_complete(CompleteModelParams(n=25, p=0.8, seed=3))
    est = estimate_eig(graph)
    report = evaluate(graph, truth, est)
    assert report.rho1 == pytest.approx(rho1(est.theta_hat, truth.theta))
    assert report.rho2 == pytest.approx(rho2(est.eigvec, truth.theta))
    assert 0 <= report.sce <= graph.m
    assert report.sce_f >= 0.0


# sce, sce_f, evaluate and sdp_objective as they stood before their per-edge
# passes wrote into work arrays, kept as references: the rewrite must keep
# every bit of their results and every error they raised.
def _sce_reference(theta, graph, tol):
    if tol < 0:
        raise InvalidInputError("tol must be >= 0")
    th = np.asarray(theta, dtype=np.float64)
    diffs = _reduce_reference(th[graph.i] - th[graph.j])
    return int(np.count_nonzero(_circdist_reference(diffs, graph.delta) > tol))


def _sce_f_reference(theta, graph, theta0=DEFAULT_THETA0):
    if not 0.0 < theta0 < np.pi:
        raise InvalidInputError("theta0 must lie in (0, pi)")
    th = np.asarray(theta, dtype=np.float64)
    x = th[graph.i] - th[graph.j] - graph.delta
    d = _circdist_reference(x, 0.0)
    return float(np.sum(np.minimum(1.0, (d / theta0) ** 2)))


def _evaluate_reference(graph, truth, estimate, sce_tol=1e-6, theta0=DEFAULT_THETA0):
    return CorrelationReport(
        rho1=rho1(estimate.theta_hat, truth.theta),
        rho2=rho2(estimate.eigvec, truth.theta),
        sce=_sce_reference(estimate.theta_hat, graph, sce_tol),
        sce_f=_sce_f_reference(estimate.theta_hat, graph, theta0),
    )


def _sdp_objective_reference(graph, theta):
    th = np.asarray(theta, dtype=np.float64)
    if th.size != graph.n:
        raise InvalidInputError("theta length != n")
    return float(2.0 * np.sum(np.cos(graph.delta - th[graph.i] + th[graph.j])))


def _bits(x):
    return np.float64(x).tobytes()


def _report_bits(r):
    return (_bits(r.rho1), _bits(r.rho2), r.sce, _bits(r.sce_f))


def _estimate(theta_hat):
    th = np.asarray(theta_hat, dtype=np.float64)
    return AngleEstimate(theta_hat=th, eigvec=np.exp(1j * th) / np.sqrt(th.size),
                         top_eigval=0.0, iterations=0, residual=0.0, method_tag="test")


_SCORED = {
    "complete-400": lambda: gen_complete(CompleteModelParams(n=400, p=0.1, seed=3)),
    "small-world": lambda: gen_small_world(SmallWorldParams(n=300, epsilon=0.2, p=0.5,
                                                            seed=1)),
    "clock": lambda: gen_clock(ClockModelParams(n=120, edge_probability=0.3,
                                                sigma_good=0.01, outlier_fraction=0.4,
                                                outlier_scale=50.0, omega=1.0,
                                                seed=5))[:2],
}


def _hand_made(theta):
    """theta_hat values where a rewritten reduction could move a bit: exact 0,
    the double below 2pi, -0.0, and arrays outside (-2pi, 4pi), which take
    the np.mod fallback."""
    n = theta.size
    mixed = theta.copy()
    mixed[::3], mixed[1::3] = 0.0, np.nextafter(TWO_PI, 0.0)
    mixed[2::6] = -0.0
    return {
        "zeros": np.zeros(n),
        "below-2pi": np.full(n, np.nextafter(TWO_PI, 0.0)),
        "minus-zero": np.full(n, -0.0),
        "mixed": mixed,
        "shifted-up": theta + 20.0,
        "spread": 3.0 * theta - 9.0,
        "edge-angles": np.resize([x for x in EDGE_ANGLES if np.isfinite(x)], n),
    }


class TestWorkArrayPasses:
    """Scoring and the SDP objective match the references bit for bit and
    leave their inputs as they were."""

    @pytest.fixture(scope="class", params=list(_SCORED))
    def instance(self, request):
        graph, truth = _SCORED[request.param]()
        est = estimate_eig(graph)
        thetas = {"estimate": est.theta_hat, "truth": truth.theta,
                  **_hand_made(truth.theta)}
        return graph, truth, est, thetas

    def test_evaluate_matches_reference(self, instance):
        graph, truth, est, thetas = instance
        for name, theta in thetas.items():
            e = est if name == "estimate" else _estimate(theta)
            for sce_tol, theta0 in [(1e-6, DEFAULT_THETA0), (0.0, 0.01), (np.nan, 3.0)]:
                got = evaluate(graph, truth, e, sce_tol, theta0)
                want = _evaluate_reference(graph, truth, e, sce_tol, theta0)
                assert _report_bits(got) == _report_bits(want), (name, sce_tol)

    def test_parts_match_reference(self, instance):
        graph, _, _, thetas = instance
        with np.errstate(invalid="ignore"):
            thetas = {**thetas, "nan": np.where(np.arange(graph.n) % 5, thetas["truth"],
                                                np.nan)}
            for name, theta in thetas.items():
                assert sce(theta, graph, 1e-6) == _sce_reference(theta, graph, 1e-6), name
                assert _bits(sce_f(theta, graph, 0.3)) == _bits(
                    _sce_f_reference(theta, graph, 0.3)), name
                assert _bits(sdp_objective(graph, theta)) == _bits(
                    _sdp_objective_reference(graph, theta)), name

    def test_one_work_array_matches_public_functions(self, instance):
        # sce takes |a - delta| for its own circular distance (both terms lie
        # in [0, 2pi)); the counts and sums must match circdist's to the bit
        graph, truth, _, thetas = instance
        rng = np.random.default_rng(7)
        nan = rng.uniform(-20.0, 20.0, graph.n)
        nan[graph.n // 2] = np.nan
        thetas = {**thetas, "uniform-20": rng.uniform(-20.0, 20.0, graph.n), "nan": nan}
        with np.errstate(invalid="ignore"):
            for name, th in thetas.items():
                x = th[graph.i] - th[graph.j]
                for tol in (0.0, 1e-6, 0.5):
                    want = np.count_nonzero(circdist(reduce_angles(x), graph.delta) > tol)
                    assert sce(th, graph, tol) == want, (name, tol)
                want_f = np.sum(np.minimum(1.0, (circdist(x, graph.delta) / 0.3) ** 2))
                assert _bits(sce_f(th, graph, 0.3)) == _bits(want_f), name
                report = evaluate(graph, truth, _estimate(th), 1e-6, 0.3)
                assert report.sce == sce(th, graph, 1e-6), name
                assert _bits(report.sce_f) == _bits(want_f), name

    def test_inputs_untouched(self, instance):
        graph, truth, _, thetas = instance
        theta = thetas["spread"].copy()
        est = _estimate(theta)
        before = [a.copy() for a in (theta, est.eigvec, truth.theta, truth.good_mask,
                                     graph.i, graph.j, graph.delta)]
        evaluate(graph, truth, est)
        sce(theta, graph, 1e-6)
        sce_f(theta, graph)
        sdp_objective(graph, theta)
        after = (theta, est.eigvec, truth.theta, truth.good_mask, graph.i, graph.j,
                 graph.delta)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        assert theta is est.theta_hat


def _raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


class TestScoringErrors:
    """Bad input raises what the references raise, checks in the same order."""

    graph, truth = gen_complete(CompleteModelParams(n=30, p=0.5, seed=2))

    @pytest.mark.parametrize("size, eigvec_scale, sce_tol, theta0", [
        (29, 1.0, 1e-6, DEFAULT_THETA0),
        (31, 1.0, 1e-6, DEFAULT_THETA0),
        (30, 2.0, 1e-6, DEFAULT_THETA0),
        (30, 1.0, -1e-9, DEFAULT_THETA0),
        (30, 1.0, 1e-6, 0.0),
        (30, 1.0, 1e-6, np.pi),
        (30, 1.0, 1e-6, np.nan),
        (30, 1.0, -1e-9, np.nan),
    ], ids=["short-theta", "long-theta", "non-unit-eigvec", "negative-tol", "theta0-zero",
            "theta0-pi", "theta0-nan", "negative-tol-and-bad-theta0"])
    def test_evaluate(self, size, eigvec_scale, sce_tol, theta0):
        est = _estimate(np.resize(self.truth.theta, size))
        est = dataclasses.replace(est, eigvec=eigvec_scale * est.eigvec)
        args = (self.graph, self.truth, est, sce_tol, theta0)
        want = _raised(_evaluate_reference, *args)
        assert _raised(evaluate, *args) == want
        if sce_tol < 0:
            assert want == (InvalidInputError, "tol must be >= 0")

    @pytest.mark.parametrize("theta", [np.zeros(29), np.zeros(0)], ids=["short", "empty"])
    def test_parts_with_short_theta(self, theta):
        g = self.graph
        assert _raised(sce, theta, g, 1e-6) == _raised(_sce_reference, theta, g, 1e-6)
        assert _raised(sce_f, theta, g, 0.3) == _raised(_sce_f_reference, theta, g, 0.3)
        assert (_raised(sdp_objective, g, theta)
                == _raised(_sdp_objective_reference, g, theta))


    def test_estimate_that_does_not_fit_the_graph(self):
        # theta_hat and truth agree in length but are shorter than the
        # graph: the gather fails in evaluate, before the theta0 check
        short = GroundTruth(theta=self.truth.theta[:20], good_mask=np.ones(20, dtype=bool))
        for theta0 in (DEFAULT_THETA0, np.nan):
            args = (self.graph, short, _estimate(short.theta), 1e-6, theta0)
            want = _raised(_evaluate_reference, *args)
            assert want[0] is IndexError
            assert _raised(evaluate, *args) == want


class TestDeferredEdgeScores:
    """evaluate computes rho1 and rho2; sce and sce_f wait for their first
    read, share one gather then, and keep the values of the call."""

    graph, truth = gen_complete(CompleteModelParams(n=40, p=0.5, seed=6))

    @pytest.fixture
    def gathers(self, monkeypatch):
        calls = []
        edge_diffs = angsync.core._edge_diffs

        def spy(*args):
            calls.append(args)
            return edge_diffs(*args)

        monkeypatch.setattr(angsync.core, "_edge_diffs", spy)
        return calls

    @pytest.mark.parametrize("first, second", [("sce", "sce_f"), ("sce_f", "sce")])
    def test_one_gather_on_first_read(self, gathers, first, second):
        est = estimate_eig(self.graph)
        report = evaluate(self.graph, self.truth, est)
        assert gathers == []
        want = _evaluate_reference(self.graph, self.truth, est)
        for name in (first, second, first):
            assert _bits(getattr(report, name)) == _bits(getattr(want, name))
        assert len(gathers) == 1
        assert _report_bits(report) == _report_bits(want)
        assert len(gathers) == 1

    def test_estimate_changed_after_evaluate(self):
        est = estimate_eig(self.graph)
        before = evaluate(self.graph, self.truth, est)
        want = _report_bits(before)  # read before the change
        report = evaluate(self.graph, self.truth, est)
        est.theta_hat[:] = 0
        assert _report_bits(report) == want

    def test_graph_held_until_read(self):
        graph, truth = gen_complete(CompleteModelParams(n=20, p=0.5, seed=1))
        est = _estimate(truth.theta + 1.0)
        report = evaluate(graph, truth, est)
        want = _report_bits(_evaluate_reference(graph, truth, est))
        ref = weakref.ref(graph)
        del graph
        assert ref() is not None
        assert _report_bits(report) == want
        assert ref() is None

    def test_repr_eq_and_hash_read_all_four(self, gathers):
        est = estimate_eig(self.graph)
        want = _evaluate_reference(self.graph, self.truth, est)
        given = CorrelationReport(rho1=want.rho1, rho2=want.rho2, sce=want.sce,
                                  sce_f=want.sce_f)
        assert evaluate(self.graph, self.truth, est) == given
        assert repr(evaluate(self.graph, self.truth, est)) == repr(given)
        assert hash(evaluate(self.graph, self.truth, est)) == hash(given)
        assert len(gathers) == 3
        assert re.fullmatch(r"CorrelationReport\(rho1=\S+, rho2=\S+, sce=\d+, sce_f=\S+\)",
                            repr(given))

    def test_other_attributes_still_missing(self):
        report = evaluate(self.graph, self.truth, estimate_eig(self.graph))
        with pytest.raises(AttributeError, match="'CorrelationReport' object has no "
                                                 "attribute 'sce_g'"):
            report.sce_g
        report.sce
        with pytest.raises(AttributeError):
            report._edges


class TestReduceAngles:
    @pytest.mark.parametrize("x", [-1e-300, 7.0, np.float64(-0.0), np.array(13.0)])
    def test_scalar_gives_float(self, x):
        out = reduce_angles(x)
        assert type(out) is float
        assert _bits(out) == _reduce_reference(np.float64(x)).tobytes()

    def test_array_gives_new_array(self):
        x = np.array([0.5, -0.5, TWO_PI])
        out = reduce_angles(x)
        assert not np.shares_memory(out, x)
        assert x.tolist() == [0.5, -0.5, TWO_PI]

    def test_offset_graph_owns_its_delta(self):
        delta = np.array([0.25, 1.5])
        g = OffsetGraph(n=3, i=[0, 1], j=[1, 2], delta=delta)
        assert not np.shares_memory(g.delta, delta)
        delta[0] = 2.0
        assert g.delta.tolist() == [0.25, 1.5]


def test_connected_components():
    g = OffsetGraph(n=4, i=[0], j=[1], delta=[0.0])
    count, labels = connected_component_labels(g)
    assert count == 3
    assert labels[0] == labels[1]
    assert not is_connected(g)
    g2 = OffsetGraph(n=3, i=[0, 1], j=[1, 2], delta=[0.0, 0.0])
    assert is_connected(g2)


def _symmetric_component_labels(graph):
    # reference: both directions of every edge, 2m entries
    ones = np.ones(2 * graph.m)
    rows = np.concatenate([graph.i, graph.j])
    cols = np.concatenate([graph.j, graph.i])
    adj = sp.coo_matrix((ones, (rows, cols)), shape=(graph.n, graph.n)).tocsr()
    return connected_components(adj, directed=False)


@pytest.mark.parametrize("graph", [
    OffsetGraph(n=7, i=[5, 0, 3, 1], j=[6, 2, 4, 2], delta=[0.1, 0.2, 0.3, 0.4]),
    OffsetGraph(n=4, i=[], j=[], delta=[]),
    gen_small_world(SmallWorldParams(n=60, epsilon=0.02, p=1.0, seed=3))[0],
    gen_small_world(SmallWorldParams(n=200, epsilon=0.01, p=0.5, seed=8))[0],
], ids=["unsorted-rows", "no-edges", "cap-graph", "rewired"])
def test_component_labels_match_symmetric_build(graph):
    count, labels = connected_component_labels(graph)
    ref_count, ref_labels = _symmetric_component_labels(graph)
    assert count == ref_count > 1
    assert np.array_equal(labels, ref_labels)


def _complete_graph(n):
    i, j = np.triu_indices(n, 1)
    return OffsetGraph(n=n, i=i, j=j, delta=np.zeros(i.size))


def _counting_search(monkeypatch):
    """Count the calls connected_component_labels makes to scipy."""
    calls = []
    search = angsync.core._cc

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(angsync.core, "_cc", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 400])
def test_complete_graph_skips_component_search(n, monkeypatch):
    graph = _complete_graph(n)
    ref_count, ref_labels = _symmetric_component_labels(graph)
    calls = _counting_search(monkeypatch)
    count, labels = connected_component_labels(graph)
    assert not calls
    assert count == ref_count == 1 and type(count) is type(ref_count)
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)
    assert is_connected(graph)


@pytest.mark.parametrize("n", [3, 400])
def test_complete_graph_missing_an_edge_is_searched(n, monkeypatch):
    full = _complete_graph(n)
    graph = OffsetGraph(n=n, i=full.i[1:], j=full.j[1:], delta=full.delta[1:])
    ref_count, ref_labels = _symmetric_component_labels(graph)
    calls = _counting_search(monkeypatch)
    count, labels = connected_component_labels(graph)
    assert len(calls) == 1
    assert count == ref_count == 1 and np.array_equal(labels, ref_labels)


def _read_recording_source(path, monkeypatch):
    """read_instance(path), and what it handed np.loadtxt to parse."""
    sources = []
    loadtxt = np.loadtxt

    def recording(fname, *args, **kwargs):
        sources.append(fname)
        return loadtxt(fname, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "loadtxt", recording)
        result = read_instance(path)
    return result, sources


def _line_list_reference(text):
    """The edge rows of an instance text as loadtxt parses its line list
    from the first edge row on (files without comments)."""
    lines = text.splitlines()
    data = [k for k, line in enumerate(lines) if line.strip()]
    if len(data) < 2:
        return None
    first = data[1]
    width = len(lines[first].split())
    return np.loadtxt(lines[first:], dtype=angsync.core._EDGE_FIELDS[:width], comments=None,
                      ndmin=1)


class TestInstanceFile:
    def test_roundtrip_exact(self, tmp_path):
        graph, truth = gen_complete(CompleteModelParams(n=9, p=0.5, seed=21))
        path = tmp_path / "inst.txt"
        write_instance(path, graph, good_mask=truth.good_mask)
        back, mask = read_instance(path)
        assert back.n == graph.n and back.m == graph.m
        assert np.array_equal(back.i, graph.i)
        assert np.array_equal(back.j, graph.j)
        assert np.array_equal(back.delta, graph.delta)  # 17 sig digits round-trips
        assert np.array_equal(mask, truth.good_mask)

    def test_roundtrip_without_mask(self, tmp_path):
        graph, _ = gen_complete(CompleteModelParams(n=5, p=1.0, seed=0))
        path = tmp_path / "inst.txt"
        write_instance(path, graph)
        back, mask = read_instance(path)
        assert mask is None
        assert np.array_equal(back.delta, graph.delta)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# a comment\n2 1\n# another\n0 1 0.5\n")
        g, mask = read_instance(path)
        assert g.m == 1 and mask is None

    def test_mixed_columns_rejected(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("3 2\n0 1 0.5 1\n0 2 0.5\n")
        with pytest.raises(InvalidInputError):
            read_instance(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# nothing\n")
        with pytest.raises(InvalidInputError):
            read_instance(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("3 2\n0 1 0.5\n")
        with pytest.raises(InvalidInputError):
            read_instance(path)

    def test_byte_format_pinned(self, tmp_path):
        # SHA-256 of the files written for this instance by the per-line
        # f-string writer; any change to the text format shows here.
        graph, truth = gen_complete(CompleteModelParams(n=6, p=0.5, seed=3))
        path = tmp_path / "inst.txt"
        write_instance(path, graph, good_mask=truth.good_mask)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "bd7d79ea6bae02b3221ab034928c6f6c57974a743821c9e07cf3c9b96656f920"
        write_instance(path, graph)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "8ff34d80c60e23dc38681ad69f09ff1d85db78bb4bbc0bbdfc60b49f5aa1bfa2"

    def test_roundtrip_extreme_offsets(self, tmp_path):
        delta = [0.0, 5e-324, np.nextafter(TWO_PI, 0.0), 1e-300, np.pi]
        graph = OffsetGraph(n=4, i=[0, 0, 0, 1, 2], j=[1, 2, 3, 2, 3], delta=delta)
        good = np.array([True, False, True, False, True])
        path = tmp_path / "inst.txt"
        write_instance(path, graph, good_mask=good)
        text = path.read_text()
        assert "\n0 2 4.9406564584124654e-324 0\n" in text
        assert "\n0 3 6.2831853071795853 1\n" in text
        back, mask = read_instance(path)
        assert back.delta.tobytes() == graph.delta.tobytes()
        assert back.i.tobytes() == graph.i.tobytes()
        assert back.j.tobytes() == graph.j.tobytes()
        assert mask.dtype == bool and np.array_equal(mask, good)

    def test_write_rejects_wrong_mask_length(self, tmp_path):
        graph, _ = gen_complete(CompleteModelParams(n=4, p=1.0, seed=0))
        with pytest.raises(InvalidInputError, match="good_mask length"):
            write_instance(tmp_path / "inst.txt", graph, good_mask=[True] * 5)

    def test_empty_instance(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("3 0\n")
        g, mask = read_instance(path)
        assert g.n == 3 and g.m == 0 and mask is None
        write_instance(path, g, good_mask=np.zeros(0, dtype=bool))
        assert path.read_text() == "3 0\n"
        assert read_instance(path)[0].m == 0

    def test_blank_and_comment_lines_between_rows_skipped(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("3 3\n0 1 0.5 1\n\n  # between rows\n0 2 0.25 0\n"
                        "   \n# another\n1 2 1.5 1\n\n")
        g, mask = read_instance(path)
        assert g.m == 3
        assert np.array_equal(g.i, [0, 0, 1]) and np.array_equal(g.j, [1, 2, 2])
        assert np.array_equal(g.delta, [0.5, 0.25, 1.5])
        assert np.array_equal(mask, [True, False, True])

    @pytest.mark.parametrize("text, message", [
        ("3 x\n0 1 0.5\n", "bad header"),
        ("3 1 2\n0 1 0.5\n", "missing 'n m' header"),
        ("3 1\n0 y 0.5\n", "unparsable edge row"),
        ("3 1\n0.5 1 0.5\n", "unparsable edge row"),
        ("3 1\n0 1 half\n", "unparsable edge row"),
        ("3 2\n0 1 0.5 1\n0 2 0.5 x\n", "unparsable edge row"),
        ("3 2\n0 1 0.5 1\n0 2 0.5 2\n", "good flag must be 0 or 1"),
        ("3 1\n0 1 0.5 -1\n", "good flag must be 0 or 1"),
        ("3 1\n0 1\n", "3 or 4 columns"),
        ("3 2\n0 1 0.5\n0 2\n", "3 or 4 columns"),
        ("3 1\n0 1 0.5 1 1\n", "3 or 4 columns"),
        ("3 2\n0 1 0.5 1\n0 2 0.5 1 1\n", "3 or 4 columns"),
        ("3 2\n0 1 0.5\n0 2 0.5 # c\n", "3 or 4 columns"),
        ("3 2\n0 1 0.5\n0 2 0.5 #c\n", "3 or 4 columns"),
        ("3 2\n0 1 0.5 1\n0 2 0.5 1 # c\n", "3 or 4 columns"),
        ("3 2\n0 1 0.5 1\n0 2 0.5 1#c\n", "unparsable edge row"),
        ("3 3\n0 1 0.5\n0 2 0.5\n", "expected 3 edge rows, found 2"),
        ("3 1\n0 1 0.5\n0 2 0.5\n", "expected 1 edge rows, found 2"),
        ("3 0\n0 1 0.5\n", "expected 0 edge rows, found 1"),
    ])
    def test_malformed_rejected(self, tmp_path, text, message):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=message):
            read_instance(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_offset_rejected(self, tmp_path, token):
        path = tmp_path / "inst.txt"
        path.write_text(f"3 2\n0 1 0.5\n0 2 {token}\n")
        with pytest.raises(InvalidInputError, match="finite"):
            read_instance(path)

    @pytest.mark.parametrize("text", [
        "\n  \n\n3 3\n\n0 1 0.5\n   \n\n0 2 0.25\n\n1 2 1.5\n\n",
        "3 2\r\n0 1 0.5 1\r\n\r\n0 2 0.25 0\r\n",
        "\r3 2\r0 1 0.5\r\r0 2 0.25\r",
        "3 2\n\r\n0 1 0.5 0\r\r\n\n0 2 0.25 1",
        "3 2\n0 1 0.5\n0 2 0.25",
        "3 2\n0\t1 0.5\x1f\n0 2\t0.25\n",
        "3 0\n",
        "\n3 0\n\n\n",
    ], ids=["blank-lines", "crlf", "lone-cr", "mixed-endings", "no-final-newline",
            "other-whitespace", "empty", "empty-blank-lines"])
    def test_plain_file_parsed_from_path_like_line_list(self, tmp_path, monkeypatch, text):
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode())
        (graph, mask), sources = _read_recording_source(path, monkeypatch)
        want = _line_list_reference(text)
        if want is None:
            assert graph.m == 0 and mask is None and sources == []
            return
        assert sources == [str(path)]
        assert graph.i.tobytes() == want["i"].tobytes()
        assert graph.j.tobytes() == want["j"].tobytes()
        assert graph.delta.tobytes() == want["delta"].tobytes()
        if "good" in want.dtype.names:
            assert np.array_equal(mask, want["good"].astype(bool))
        else:
            assert mask is None
        # a compressed suffix makes numpy decompress a path; such a file is
        # read as text and gives the same arrays
        other = tmp_path / "inst.txt.gz"
        other.write_bytes(text.encode())
        (back, back_mask), sources = _read_recording_source(other, monkeypatch)
        assert isinstance(sources[0], list)
        assert back.delta.tobytes() == graph.delta.tobytes()
        assert back.i.tobytes() == graph.i.tobytes() and back.j.tobytes() == graph.j.tobytes()
        assert (back_mask is None) == (mask is None)

    def test_written_files_are_plain(self, tmp_path, monkeypatch):
        graph, truth = gen_complete(CompleteModelParams(n=30, p=0.5, seed=2))
        path = tmp_path / "inst.txt"
        for good in (truth.good_mask, None):
            write_instance(path, graph, good_mask=good)
            (back, _), sources = _read_recording_source(path, monkeypatch)
            assert sources == [str(path)]
            assert back.delta.tobytes() == graph.delta.tobytes()

    # '\x0b', '\x0c', '\x1d' and '\u2028' end a line for str.splitlines but
    # are whitespace inside a row for loadtxt, so such files are read as a
    # line list; the expected outcomes are those of the line-list reader.
    @pytest.mark.parametrize("text, want", [
        ("3 2\n0 1 0.5\x0c0 2 0.25\n", ([0, 0], [1, 2], [0.5, 0.25], None)),
        ("3 2\n0 1 0.5\x0b0 2 0.25\n", ([0, 0], [1, 2], [0.5, 0.25], None)),
        ("3 2\n0 1 0.5\u20280 2 0.25\n", ([0, 0], [1, 2], [0.5, 0.25], None)),
        ("\x0c3 1\n\u2028\n0 1 0.5 1\x0b", ([0], [1], [0.5], [True])),
        ("3 1\n0 1\x0c0.5\n", "3 or 4 columns"),
        ("3 1\n0 1\x0b0.5\n", "3 or 4 columns"),
        ("3 1\n0 1\u20280.5\n", "3 or 4 columns"),
        ("3 1\n0 1 0.5\x1d1\n", "3 or 4 columns"),
    ])
    def test_other_line_breaks_split_rows(self, tmp_path, monkeypatch, text, want):
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode())
        if isinstance(want, str):
            with pytest.raises(InvalidInputError, match=want):
                read_instance(path)
            return
        (graph, mask), sources = _read_recording_source(path, monkeypatch)
        assert isinstance(sources[0], list)
        i, j, delta, good = want
        assert graph.i.tolist() == i and graph.j.tolist() == j and graph.delta.tolist() == delta
        assert (mask is None and good is None) or mask.tolist() == good

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_pipe_is_read_once(self, tmp_path, monkeypatch):
        # a pipe cannot be reopened: its bytes are read once and parsed as a
        # line list, giving what the regular file gives
        graph, truth = gen_complete(CompleteModelParams(n=20, p=0.5, seed=5))
        path = tmp_path / "inst.txt"
        write_instance(path, graph, good_mask=truth.good_mask)
        want, want_mask = read_instance(path)
        r, w = os.pipe()
        try:
            with os.fdopen(w, "wb") as f:  # well under a pipe's buffer
                f.write(path.read_bytes())
            (back, mask), sources = _read_recording_source(f"/dev/fd/{r}", monkeypatch)
        finally:
            os.close(r)
        assert isinstance(sources[0], list)
        assert back.delta.tobytes() == want.delta.tobytes()
        assert back.i.tobytes() == want.i.tobytes() and back.j.tobytes() == want.j.tobytes()
        assert np.array_equal(mask, want_mask)

    def test_read_holds_no_line_list(self, tmp_path):
        # complete n=400 (m = 79,800, a 2.28 MB file): reading it from its
        # path peaks at about 2.3x the file size; decoding it and splitting
        # it into a list of lines peaked at about 6.6x
        graph, truth = gen_complete(CompleteModelParams(n=400, p=0.5, seed=1))
        path = tmp_path / "inst.txt"
        write_instance(path, graph, good_mask=truth.good_mask)
        tracemalloc.start()
        try:
            read_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size


def _reference_write(path, graph, good_mask=None):
    """The per-row writer that the vectorized write_instance replaced."""
    cols = [graph.i.tolist(), graph.j.tolist(), graph.delta.tolist()]
    fmt = "%d %d %.17g"
    if good_mask is not None:
        cols.append(np.asarray(good_mask, dtype=bool).tolist())
        fmt += " %d"
    rows = map(fmt.__mod__, zip(*cols))
    Path(path).write_bytes(("\n".join([f"{graph.n} {graph.m}", *rows]) + "\n").encode())


def _formatted(x):
    """_format_17g's rows, 0 bytes dropped, each ended by a newline."""
    rows = np.hstack([_format_17g(x), np.full((x.size, 1), ord("\n"), dtype=np.uint8)])
    return rows[rows != 0].tobytes()


def _formatted_reference(x):
    return "".join("%.17g\n" % v for v in x.tolist()).encode()


def _ties():
    """Offsets j / 2**(17 + t), j odd, in decade -t: exactly halfway between
    two 17-digit decimals, so they round half to even."""
    rng = np.random.default_rng(17)
    out = []
    for t in range(5):
        lo, hi = 10.0 ** -t, min(10.0 ** (1 - t), TWO_PI)
        scale = 2.0 ** (17 + t)
        j = 2 * rng.integers(np.ceil(lo * scale / 2), np.floor(hi * scale / 2), 2_000) + 1
        out.append(j / scale)
    return np.concatenate(out)


class TestVectorizedWriter:
    """write_instance and _format_17g against the per-row '%.17g' writer."""

    def _assert_same_files(self, tmp_path, graph, mask):
        for good in (mask, None):
            write_instance(tmp_path / "new.txt", graph, good_mask=good)
            _reference_write(tmp_path / "ref.txt", graph, good_mask=good)
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("n", [2, 9, 10, 11, 100, 101, 1000])
    def test_complete_files_identical(self, tmp_path, n):
        graph, truth = gen_complete(CompleteModelParams(n=n, p=0.4, seed=n))
        self._assert_same_files(tmp_path, graph, truth.good_mask)

    def test_small_world_and_clock_files_identical(self, tmp_path):
        for graph, truth in [
                gen_small_world(SmallWorldParams(n=300, epsilon=0.1, p=0.5, seed=4)),
                gen_clock(ClockModelParams(n=120, edge_probability=0.3, sigma_good=0.01,
                                           outlier_fraction=0.4, outlier_scale=50.0,
                                           omega=1.0, seed=5))[:2]]:
            self._assert_same_files(tmp_path, graph, truth.good_mask)

    def test_wide_indices_identical(self, tmp_path):
        # vertex indices of up to 7 digits take two 4-digit chunks
        rng = np.random.default_rng(6)
        n = 10**6 + 1
        i = np.sort(rng.choice(n - 1, 500, replace=False))
        j = i + rng.integers(1, n - i)
        j[:3] = [1, 10, n - 1]
        i[:3] = 0
        graph = OffsetGraph(n=n, i=i, j=j, delta=rng.uniform(0.0, TWO_PI, i.size))
        self._assert_same_files(tmp_path, graph, rng.random(i.size) < 0.5)

    def test_empty_files_identical(self, tmp_path):
        self._assert_same_files(tmp_path, OffsetGraph(n=3, i=[], j=[], delta=[]),
                                np.zeros(0, dtype=bool))

    def test_extreme_offsets_identical(self, tmp_path):
        delta = [0.0, 5e-324, 1e-300, 9.999999999999999e-05, 1e-4, 2.0, 0.5, 3.0,
                 np.nextafter(TWO_PI, 0.0)]
        graph = OffsetGraph(n=10, i=np.zeros(9, dtype=int), j=np.arange(1, 10), delta=delta)
        self._assert_same_files(tmp_path, graph, np.arange(9) % 2 == 0)

    def test_decade_boundaries(self):
        decades = 10.0 ** np.arange(-4, 1)
        x = np.concatenate([decades, np.nextafter(decades, 0.0), np.nextafter(decades, 1.0)])
        assert _formatted(x) == _formatted_reference(x)

    def test_special_values(self):
        x = np.array([np.nextafter(TWO_PI, 0.0), 0.0, 5e-324, 1e-300,
                      9.999999999999999e-05, 0.5, 1.5, 2.0, 0.25, 1.0, 6.0, 0.125,
                      0.1015625, 1e-4 + 2.0**-60,
                      # outside the fixed-notation range: '%.17g' all the same
                      -0.0, -1.5, TWO_PI, 10.0, 1e300, np.inf, -np.inf, np.nan])
        assert _formatted(x) == _formatted_reference(x)

    def test_exact_ties_round_half_even(self):
        x = _ties()
        for v in x[::97].tolist():
            scaled = Fraction(v) * 10 ** (16 - int(np.floor(np.log10(v))))
            assert scaled.denominator == 2
        assert _formatted(x) == _formatted_reference(x)

    def test_uniform_draws(self):
        x = np.random.default_rng(8).uniform(0.0, TWO_PI, 10**6)
        assert _formatted(x) == _formatted_reference(x)

    def test_log_uniform_draws(self):
        rng = np.random.default_rng(9)
        x = np.exp(rng.uniform(np.log(1e-6), np.log(TWO_PI), 10**6))
        assert _formatted(x) == _formatted_reference(x)
