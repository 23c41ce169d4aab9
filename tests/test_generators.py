import hashlib
import tracemalloc

import numpy as np
import pytest

from angsync import generators
from angsync.core import TWO_PI, InvalidInputError, circdist, rho1, sce, write_instance
from angsync.eig import EigOptions, estimate_eig
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    clock_time_span,
    gen_clock,
    gen_complete,
    gen_small_world,
    instance_metadata,
)


class TestParamValidation:
    def test_complete(self):
        with pytest.raises(InvalidInputError):
            CompleteModelParams(n=1, p=0.5, seed=0)
        with pytest.raises(InvalidInputError):
            CompleteModelParams(n=5, p=1.5, seed=0)
        with pytest.raises(InvalidInputError):
            CompleteModelParams(n=5, p=0.5, seed=-1)

    def test_small_world(self):
        for eps in (0.0, 2.0, -0.1):
            with pytest.raises(InvalidInputError):
                SmallWorldParams(n=10, epsilon=eps, p=0.5, seed=0)

    def test_clock(self):
        with pytest.raises(InvalidInputError):
            ClockModelParams(n=5, edge_probability=0.5, sigma_good=0.1,
                             outlier_fraction=0.0, outlier_scale=1.0,
                             omega=0.0, seed=0)
        with pytest.raises(InvalidInputError):
            ClockModelParams(n=5, edge_probability=0.5, sigma_good=-0.1,
                             outlier_fraction=0.0, outlier_scale=1.0,
                             omega=1.0, seed=0)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: SmallWorldParams(n=1, epsilon=0.3, p=0.5, seed=0), id="small-world"),
        pytest.param(lambda: ClockModelParams(n=1, edge_probability=0.5, sigma_good=0.1,
                                              outlier_fraction=0.0, outlier_scale=1.0,
                                              omega=1.0, seed=0), id="clock"),
    ])
    def test_n_below_2(self, build):
        with pytest.raises(InvalidInputError, match="need n >= 2, got 1"):
            build()


class TestComplete:
    def test_all_good_when_p_one(self):
        graph, truth = gen_complete(CompleteModelParams(n=5, p=1.0, seed=123))
        assert graph.m == 10
        assert truth.good_mask.all()
        assert sce(truth.theta, graph, 1e-9) == 0

    def test_all_bad_when_p_zero(self):
        _, truth = gen_complete(CompleteModelParams(n=10, p=0.0, seed=4))
        assert not truth.good_mask.any()

    def test_good_count_within_binomial_band(self):
        graph, truth = gen_complete(CompleteModelParams(n=400, p=0.1, seed=99))
        m = graph.m
        assert m == 400 * 399 // 2
        mean = 0.1 * m
        band = 4.0 * np.sqrt(m * 0.1 * 0.9)
        assert abs(truth.good_mask.sum() - mean) <= band

    def test_reproducible_and_seed_sensitive(self):
        a1, t1 = gen_complete(CompleteModelParams(n=30, p=0.5, seed=8))
        a2, t2 = gen_complete(CompleteModelParams(n=30, p=0.5, seed=8))
        assert np.array_equal(a1.delta, a2.delta)
        assert np.array_equal(t1.theta, t2.theta)
        assert np.array_equal(t1.good_mask, t2.good_mask)
        b1, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=9))
        assert not np.array_equal(a1.delta, b1.delta)

    def test_substreams_isolated(self):
        # Changing the outlier labels must not disturb the planted angles.
        _, t_half = gen_complete(CompleteModelParams(n=30, p=0.5, seed=8))
        _, t_full = gen_complete(CompleteModelParams(n=30, p=1.0, seed=8))
        assert np.array_equal(t_half.theta, t_full.theta)

    def test_empirical_good_fraction_converges(self):
        graph, truth = gen_complete(CompleteModelParams(n=400, p=0.3, seed=17))
        frac = truth.good_mask.mean()
        band = 4.0 * np.sqrt(0.3 * 0.7 / graph.m)
        assert abs(frac - 0.3) <= band

    def test_pinned_instance_digest(self, tmp_path):
        # SHA-256 of (i, j, delta, theta, good mask) and of the written file,
        # recorded before the per-edge passes wrote into work arrays
        graph, truth = gen_complete(CompleteModelParams(n=60, p=0.3, seed=5))
        h = hashlib.sha256()
        for arr, dtype in ((graph.i, np.int64), (graph.j, np.int64),
                           (graph.delta, np.float64), (truth.theta, np.float64),
                           (truth.good_mask, np.uint8)):
            h.update(np.ascontiguousarray(arr.astype(dtype)).tobytes())
        assert h.hexdigest() == (
            "5cd812bf42914df9ca9002b591b303bfdcc2763049d9957a9c74cb5ae6856e72")
        path = tmp_path / "inst.txt"
        write_instance(path, graph, truth.good_mask)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e1c85d8d922bd57c8f0eac17e60abe29dea782a56408ef5fa43b3a48ef5f4c49")


class TestSmallWorld:
    def test_edge_count_near_cap_prediction_n400(self):
        for seed in (1, 2, 3):
            graph, _ = gen_small_world(SmallWorldParams(n=400, epsilon=0.2, p=1.0, seed=seed))
            assert abs(graph.m - 8000) <= 0.10 * 8000

    def test_edge_count_near_cap_prediction_n100(self):
        for seed in (1, 2, 3):
            graph, _ = gen_small_world(SmallWorldParams(n=100, epsilon=0.3, p=1.0, seed=seed))
            assert abs(graph.m - 750) <= 0.15 * 750

    def test_cap_degree_relation(self):
        # 4m/n^2 estimates the cap height 1 - cos(eta) = epsilon
        graph, _ = gen_small_world(SmallWorldParams(n=400, epsilon=0.2, p=1.0, seed=5))
        c = 4.0 * graph.m / 400.0 ** 2
        assert abs(c - 0.2) <= 0.1 * 0.2

    def test_p_one_all_good_exact_offsets(self):
        graph, truth = gen_small_world(SmallWorldParams(n=80, epsilon=0.4, p=1.0, seed=6))
        assert truth.good_mask.all()
        assert sce(truth.theta, graph, 1e-9) == 0

    def test_p_zero_all_bad(self):
        graph, truth = gen_small_world(SmallWorldParams(n=50, epsilon=0.3, p=0.0, seed=7))
        assert not truth.good_mask.any()
        # uniform offsets violate essentially every equation
        assert sce(truth.theta, graph, 1e-6) >= graph.m - 1

    def test_rewiring_preserves_edge_count_and_uniqueness(self):
        p1, _ = gen_small_world(SmallWorldParams(n=120, epsilon=0.3, p=1.0, seed=31))
        p0, _ = gen_small_world(SmallWorldParams(n=120, epsilon=0.3, p=0.3, seed=31))
        assert p0.m == p1.m  # same point stream, rewiring preserves m
        codes = p0.i * 120 + p0.j
        assert np.unique(codes).size == codes.size

    def test_reproducible(self):
        a, ta = gen_small_world(SmallWorldParams(n=60, epsilon=0.3, p=0.5, seed=13))
        b, tb = gen_small_world(SmallWorldParams(n=60, epsilon=0.3, p=0.5, seed=13))
        assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(ta.good_mask, tb.good_mask)

    @pytest.mark.parametrize("params, expected", [
        (SmallWorldParams(n=300, epsilon=0.2, p=0.5, seed=1),
         "66d516b105d3b37b4c639c0c42f6ce1aae3b08cdbb705711a0f92a3e3268db1a"),
        (SmallWorldParams(n=500, epsilon=0.1, p=0.3, seed=2),
         "aee25ccde1ef003f5bd641ccfd1c70c88328bad878de8d79c87ebd360fdef101"),
    ], ids=["n300", "n500"])
    def test_pinned_instance_digest(self, params, expected):
        # SHA-256 of (i, j, delta, good mask), recorded before the base edges
        # were taken by np.nonzero instead of triu_indices
        graph, truth = gen_small_world(params)
        h = hashlib.sha256()
        for arr, dtype in ((graph.i, np.int64), (graph.j, np.int64),
                           (graph.delta, np.float64), (truth.good_mask, np.uint8)):
            h.update(np.ascontiguousarray(arr.astype(dtype)).tobytes())
        assert h.hexdigest() == expected


def _scalar_rewire_pairs(rewire, n, base_i, base_j, rewired):
    """The scalar rewiring loop that `_rewire_pairs` replaced, kept as the
    reference: two `integers(0, n)` calls per attempt."""
    edge_set = set(zip(base_i.tolist(), base_j.tolist()))
    new_i, new_j = [], []
    for k in rewired:
        edge_set.discard((int(base_i[k]), int(base_j[k])))
        while True:
            a = int(rewire.integers(0, n))
            b = int(rewire.integers(0, n))
            if a == b:
                continue
            if a > b:
                a, b = b, a
            if (a, b) in edge_set:
                continue
            break
        edge_set.add((a, b))
        new_i.append(a)
        new_j.append(b)
    return new_i, new_j


def _assert_same_instance(params, monkeypatch):
    graph, truth = gen_small_world(params)
    with monkeypatch.context() as mp:
        mp.setattr(generators, "_rewire_pairs", _scalar_rewire_pairs)
        ref_graph, ref_truth = gen_small_world(params)
    for got, want in ((graph.i, ref_graph.i), (graph.j, ref_graph.j),
                      (graph.delta, ref_graph.delta), (truth.theta, ref_truth.theta),
                      (truth.good_mask, ref_truth.good_mask)):
        assert np.array_equal(got, want)


# PCG64 steps its 128-bit LCG, then outputs rotr64(hi ^ lo, state >> 122), so
# a post-step state below 2**64 outputs itself.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _rng_emitting(first_word, seed=0):
    """A generator whose next raw 64-bit word is `first_word`."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    pre = (first_word - inc) * pow(_PCG64_MULTIPLIER, -1, 2 ** 128) % 2 ** 128
    state["state"] = {"state": pre, "inc": inc}
    rng.bit_generator.state = state
    return rng


class TestBulkRewiring:
    """The rewiring draws come in bulk from vectorized `integers` calls;
    instances, and the generator state left behind, must equal those of the
    scalar loop bit for bit."""

    @pytest.mark.parametrize("n, epsilon, p", [
        (300, 0.2, 0.5), (500, 0.1, 0.3), (2000, 0.05, 0.3),
        (300, 0.2, 0.0), (300, 0.2, 1.0),
        # almost complete: nearly every candidate is the base edge of some
        # step, the stream is extended, and many come before their step
        (40, 1.99, 0.5),
    ])
    def test_matches_scalar_loop_over_seeds(self, n, epsilon, p, monkeypatch):
        for seed in range(1, 21):
            _assert_same_instance(SmallWorldParams(n=n, epsilon=epsilon, p=p, seed=seed),
                                  monkeypatch)

    def test_near_complete_case_classifies_again(self, monkeypatch):
        # the (40, 1.99, 0.5) case above runs out of candidates at every seed:
        # the longer stream drawn again from the saved state is classified
        # anew, so that case covers the refill path
        calls = []
        classify = generators._classify

        def counted(*args):
            calls.append(args[2].size)
            return classify(*args)

        monkeypatch.setattr(generators, "_classify", counted)
        for seed in range(1, 21):
            calls.clear()
            gen_small_world(SmallWorldParams(n=40, epsilon=1.99, p=0.5, seed=seed))
            assert len(calls) > 1
            assert all(b == 2 * a for a, b in zip(calls, calls[1:]))

    def test_dense_case_refills(self, monkeypatch):
        # 3/4 of all pairs are edges, so each rewired edge takes about four
        # attempts: far more words than the first chunk of ~1.25 per edge
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def integers(self, *args):
                self.draws += 1
                return self.rng.integers(*args)

        for seed in range(1, 21):
            params = SmallWorldParams(n=50, epsilon=1.5, p=0.0, seed=seed)
            _assert_same_instance(params, monkeypatch)
            base, _ = gen_small_world(SmallWorldParams(n=50, epsilon=1.5, p=1.0, seed=seed))
            rewire = generators._rng(seed, generators._STREAM_REWIRE)
            rewire.random(base.m)
            counting = CountingRng(rewire)
            _scalar_rewire_pairs(counting, 50, base.i, base.j, range(base.m))
            assert counting.draws / 2 > 2 * base.m

    def test_buffered_half_on_entry_matches_scalar_loop(self):
        # one scalar draw leaves the high half of a word buffered; the bulk
        # draws must start from it, as the scalar ones do
        graph, _ = gen_small_world(SmallWorldParams(n=50, epsilon=1.5, p=1.0, seed=4))
        rewired = np.arange(graph.m)
        for seed in range(5):
            bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (bulk, scalar):
                rng.integers(0, 50)
            assert bulk.bit_generator.state["has_uint32"] == 1
            got = generators._rewire_pairs(bulk, 50, graph.i, graph.j, rewired)
            want = _scalar_rewire_pairs(scalar, 50, graph.i, graph.j, rewired)
            assert np.array_equal(got, want)
            assert bulk.bit_generator.state == scalar.bit_generator.state
            assert bulk.random() == scalar.random()

    def test_rejected_half_gives_odd_count_and_same_state(self):
        # A rejected first half makes the halves used odd, leaves one decoded
        # value over at each refill (dense case), and must leave the high half
        # of the last word buffered, as the scalar draws do.
        graph, _ = gen_small_world(SmallWorldParams(n=50, epsilon=1.5, p=1.0, seed=4))
        rewired = np.arange(graph.m)
        for seed in range(5):
            bulk = _rng_emitting(0x89ABCDEF << 32, seed)
            scalar = _rng_emitting(0x89ABCDEF << 32, seed)
            got = generators._rewire_pairs(bulk, 50, graph.i, graph.j, rewired)
            want = _scalar_rewire_pairs(scalar, 50, graph.i, graph.j, rewired)
            assert np.array_equal(got, want)
            assert bulk.bit_generator.state == scalar.bit_generator.state
            assert scalar.bit_generator.state["has_uint32"] == 1
            assert bulk.random() == scalar.random()


class TestBaseEdges:
    """The base edges come from row blocks of pts @ pts.T; they must be those
    of the full Gram matrix, in the same order, bit for bit."""

    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300, 2000])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 1.5])
    def test_match_full_gram_reference(self, n, epsilon):
        for seed in range(20):
            pts = generators._sphere_points(generators._rng(seed, generators._STREAM_GRAPH), n)
            want_i, want_j = np.nonzero(np.triu(pts @ pts.T > 1.0 - epsilon, 1))
            got_i, got_j = generators._cap_edges(pts, 1.0 - epsilon)
            assert got_i.dtype == want_i.dtype and got_j.dtype == want_j.dtype
            assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j)

    def test_no_n_by_n_temporaries(self):
        # the 3000 x 3000 Gram matrix alone would take 72 MB
        tracemalloc.start()
        try:
            gen_small_world(SmallWorldParams(n=3000, epsilon=0.05, p=1.0, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_nothing_rewired_builds_no_edge_set(self):
        # at p=1 the rewiring step must not hold a set of all m edge keys
        tracemalloc.start()
        try:
            gen_small_world(SmallWorldParams(n=3000, epsilon=0.05, p=1.0, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13e6

    def test_rewiring_holds_no_per_edge_python_objects(self):
        # a set of all m edge keys and lists of the new endpoints would lift
        # the peak to about 29 MB
        tracemalloc.start()
        try:
            gen_small_world(SmallWorldParams(n=3000, epsilon=0.05, p=0.3, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_allocates_little_beyond_the_instance(self):
        # n=2000, epsilon=0.05, p=0.3 returns 1.26 MB (m = 49,586 at seed 5).
        # The rewired edges overwrite the base edges in place, only the
        # candidate keys outlive a rewiring pass, and its intermediates are
        # freed as they are used: the traced peak is about 4.1 MB, set by
        # `_cap_edges`.  Copying the base edges, keeping the
        # drawn values and a candidate-sized step array took it to 7.0 MB.
        gen_small_world(SmallWorldParams(n=100, epsilon=0.3, p=0.3, seed=1))  # warm
        for seed in (1, 5):
            tracemalloc.start()
            try:
                gen_small_world(SmallWorldParams(n=2000, epsilon=0.05, p=0.3, seed=seed))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5.5e6

    def test_nothing_rewired_leaves_state_as_scalar_loop(self):
        graph, _ = gen_small_world(SmallWorldParams(n=50, epsilon=1.5, p=1.0, seed=4))
        for seed in range(3):
            bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (bulk, scalar):
                rng.integers(0, 50)  # a buffered half must survive
            none = np.arange(0)
            got = generators._rewire_pairs(bulk, 50, graph.i, graph.j, none)
            assert np.array_equal(got, _scalar_rewire_pairs(scalar, 50, graph.i, graph.j, none))
            assert bulk.bit_generator.state == scalar.bit_generator.state


class TestClock:
    def test_noiseless_recovery(self):
        params = ClockModelParams(n=60, edge_probability=1.0, sigma_good=0.0,
                                  outlier_fraction=0.0, outlier_scale=0.0,
                                  omega=0.7, seed=3)
        graph, truth, times = gen_clock(params)
        assert np.allclose(truth.theta, (0.7 * times) % TWO_PI)
        est = estimate_eig(graph, EigOptions(tol=1e-12))
        assert rho1(est.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)

    def test_pure_outliers_random_level(self):
        vals = []
        for seed in range(5):
            params = ClockModelParams(n=100, edge_probability=1.0, sigma_good=0.01,
                                      outlier_fraction=1.0, outlier_scale=100.0,
                                      omega=3.0, seed=seed)
            graph, truth, _ = gen_clock(params)
            assert not truth.good_mask.any()
            est = estimate_eig(graph, EigOptions(tol=1e-6, max_iters=2000))
            vals.append(rho1(est.theta_hat, truth.theta))
        assert np.mean(vals) < 0.3  # chance level is ~1/sqrt(n) = 0.1

    def test_good_edge_phasor_error_small(self):
        delta_t = 0.2
        params = ClockModelParams(n=80, edge_probability=0.5, sigma_good=delta_t,
                                  outlier_fraction=0.1, outlier_scale=50 * delta_t,
                                  omega=0.5 / delta_t, seed=12)
        graph, truth, _ = gen_clock(params)
        g = truth.good_mask
        implied = truth.theta[graph.i[g]] - truth.theta[graph.j[g]]
        err = np.abs(np.exp(1j * (graph.delta[g] - implied)) - 1.0)
        # phase error is omega * N(0, sigma) with omega*sigma = 0.5, so the
        # mean of |e^{i x} - 1| = 2|sin(x/2)| sits near 0.4
        assert err.mean() < 0.6
        assert 0.2 < err.mean()

    def test_time_span_default(self):
        p1 = ClockModelParams(n=5, edge_probability=1.0, sigma_good=0.5,
                              outlier_fraction=0.0, outlier_scale=0.0,
                              omega=1.0, seed=0)
        assert clock_time_span(p1) == 500.0
        p2 = ClockModelParams(n=5, edge_probability=1.0, sigma_good=0.0,
                              outlier_fraction=0.0, outlier_scale=0.0,
                              omega=2.0, seed=0)
        assert clock_time_span(p2) == 50.0


def test_instance_metadata_fields():
    params = SmallWorldParams(n=40, epsilon=0.3, p=0.5, seed=9)
    graph, truth = gen_small_world(params)
    meta = instance_metadata("small-world", params, graph, truth)
    assert meta["n"] == 40 and meta["m"] == graph.m
    assert meta["m_good"] + meta["m_bad"] == graph.m
    assert meta["m_good"] == int(truth.good_mask.sum())
    assert isinstance(meta["connected"], bool)
    assert len(meta["theta"]) == 40


def test_instance_metadata_disconnected_flag():
    # nearly empty cap graph: disconnected with near-certainty
    params = SmallWorldParams(n=30, epsilon=0.01, p=1.0, seed=2)
    graph, truth = gen_small_world(params)
    meta = instance_metadata("small-world", params, graph, truth)
    assert meta["connected"] is False
