import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from angsync import core
from angsync.baselines import (
    METHODS,
    LsqrOptions,
    SdpOptions,
    default_sdp_rank,
    estimate_lsqr,
    estimate_sdp,
    sdp_objective,
    solve,
)
from angsync.core import (
    TWO_PI,
    AngleEstimate,
    InvalidInputError,
    OffsetGraph,
    connected_component_labels,
    rho1,
)
from angsync.eig import EigOptions, build_sync_matrix, estimate_eig, round_to_angles
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)


class TestLsqr:
    def test_all_good_exact_recovery(self):
        graph, truth = gen_complete(CompleteModelParams(n=30, p=1.0, seed=1))
        est = estimate_lsqr(graph)
        assert est.method_tag == "lsqr"
        assert rho1(est.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)
        assert est.diagnostics["converged"]

    def test_all_good_small_world(self):
        graph, truth = gen_small_world(SmallWorldParams(n=80, epsilon=0.4, p=1.0, seed=2))
        est = estimate_lsqr(graph)
        assert rho1(est.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)

    def test_unit_norm_vector(self):
        graph, _ = gen_complete(CompleteModelParams(n=25, p=0.6, seed=3))
        est = estimate_lsqr(graph)
        assert abs(np.linalg.norm(est.eigvec) - 1.0) < 1e-10

    def test_disconnected_solved_per_component(self):
        # two consistent components: {0,1,2} and {3,4}
        theta = np.array([0.3, 1.1, 2.0, 4.0, 5.5])
        i = [0, 1, 3]
        j = [1, 2, 4]
        delta = (theta[np.array(i)] - theta[np.array(j)]) % TWO_PI
        g = OffsetGraph(n=5, i=i, j=j, delta=delta)
        est = estimate_lsqr(g)
        assert est.diagnostics["disconnected"]
        assert est.diagnostics["components"] == 2
        # each component internally consistent up to its own phase
        for verts in ([0, 1, 2], [3, 4]):
            sub = est.theta_hat[verts] - theta[verts]
            assert np.abs(np.exp(1j * sub) - np.exp(1j * sub[0])).max() < 1e-6

    @pytest.mark.parametrize("opts", [LsqrOptions(tol=0.0), LsqrOptions(tol=-1.0),
                                      LsqrOptions(max_iters=0), LsqrOptions(max_iters=-3),
                                      LsqrOptions(tol=np.nan), LsqrOptions(tol=np.inf)])
    def test_bad_options(self, opts):
        graph, _ = gen_complete(CompleteModelParams(n=12, p=0.5, seed=3))
        with pytest.raises(InvalidInputError, match="tol|max_iters"):
            estimate_lsqr(graph, opts)

    @pytest.mark.parametrize("value", [2.5, 30.0])
    def test_non_integer_max_iters_named(self, value):
        graph, _ = gen_complete(CompleteModelParams(n=12, p=0.5, seed=3))
        with pytest.raises(InvalidInputError, match="^max_iters must be an integer, got "):
            estimate_lsqr(graph, LsqrOptions(max_iters=value))

    def test_noise_degrades_but_runs(self):
        graph, truth = gen_small_world(SmallWorldParams(n=100, epsilon=0.3, p=0.5, seed=9))
        est = estimate_lsqr(graph, LsqrOptions(tol=1e-10))
        r = rho1(est.theta_hat, truth.theta)
        assert 0.0 <= r <= 1.0


SOLVERS = {
    "eig": lambda graph, H: estimate_eig(graph, H=H),
    "eig-shift-0.3": lambda graph, H: estimate_eig(graph, EigOptions(diagonal_shift=0.3), H=H),
    "lsqr": lambda graph, H: estimate_lsqr(graph, H=H),
    "sdp": lambda graph, H: estimate_sdp(graph, SdpOptions(max_iters=200), H=H)[0],
}


class TestPassedSyncMatrix:
    """An estimator given H, the sync matrix built once for several methods,
    computes what it computes from the H it builds itself."""

    @pytest.mark.parametrize("method", list(SOLVERS))
    def test_bit_identical_to_self_built(self, method):
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=21))
        own = SOLVERS[method](graph, None)
        passed = SOLVERS[method](graph, build_sync_matrix(graph))
        assert passed.theta_hat.tobytes() == own.theta_hat.tobytes()
        assert passed.eigvec.tobytes() == own.eigvec.tobytes()
        for name in ("top_eigval", "iterations", "residual", "method_tag"):
            assert getattr(passed, name) == getattr(own, name), name
        assert passed.diagnostics["converged"] == own.diagnostics["converged"]

    @pytest.mark.parametrize("method", list(SOLVERS))
    def test_matrix_of_another_graph_rejected(self, method):
        graph, _ = gen_complete(CompleteModelParams(n=12, p=0.5, seed=3))
        fewer = OffsetGraph(n=12, i=graph.i[1:], j=graph.j[1:], delta=graph.delta[1:])
        larger, _ = gen_complete(CompleteModelParams(n=13, p=0.5, seed=3))
        for other in (fewer, larger):
            with pytest.raises(InvalidInputError, match="not the sync matrix"):
                SOLVERS[method](graph, build_sync_matrix(other))

    @pytest.mark.parametrize("method", list(SOLVERS))
    def test_shifted_matrix_rejected(self, method):
        graph, _ = gen_complete(CompleteModelParams(n=12, p=0.5, seed=3))
        with pytest.raises(InvalidInputError, match="unshifted"):
            SOLVERS[method](graph, build_sync_matrix(graph, diagonal_shift=0.3))


DIAGNOSTIC_KEYS = {
    "eig": ["converged", "diagonal_shift", "flagged", "wall_ms"],
    "lsqr": ["converged", "components", "disconnected", "flagged", "wall_ms"],
    "sdp": ["converged", "objective", "objective_traces", "singular_values",
            "theta_rank", "rank", "feasibility_max_dev", "flagged", "wall_ms"],
}


@pytest.mark.parametrize("method", list(DIAGNOSTIC_KEYS))
def test_diagnostics_contract(method):
    graph, _ = gen_complete(CompleteModelParams(n=20, p=0.5, seed=8))
    est = SOLVERS[method](graph, None)
    assert est.method_tag == method
    assert list(est.diagnostics) == DIAGNOSTIC_KEYS[method]
    assert type(est.diagnostics["converged"]) is bool
    assert est.diagnostics["wall_ms"] >= 0.0


class TestSolve:
    """`solve` runs the named method's estimator; SDP's estimate comes unpaired."""

    ESTIMATORS = {"eig": estimate_eig, "lsqr": estimate_lsqr,
                  "sdp": lambda *args, **kwargs: estimate_sdp(*args, **kwargs)[0]}

    @pytest.mark.parametrize("method", list(METHODS))
    def test_same_estimate_as_the_estimator(self, method):
        graph, _ = gen_complete(CompleteModelParams(n=20, p=0.5, seed=8))
        opts = METHODS[method]()
        for H in (None, build_sync_matrix(graph)):
            ours = solve(graph, method, opts, H=H)
            theirs = self.ESTIMATORS[method](graph, opts, H=H)
            assert ours.method_tag == method
            np.testing.assert_array_equal(ours.theta_hat, theirs.theta_hat)
            np.testing.assert_array_equal(ours.eigvec, theirs.eigvec)
            assert (ours.top_eigval, ours.iterations) == (theirs.top_eigval, theirs.iterations)

    def test_methods_in_cli_order(self):
        assert list(METHODS) == ["eig", "sdp", "lsqr"]

    def test_flags_are_not_fields(self):
        fields = {name: [f.name for f in dataclasses.fields(opts)]
                  for name, opts in METHODS.items()}
        assert fields == {"eig": ["tol", "max_iters", "diagonal_shift", "seed"],
                          "sdp": ["rank", "max_iters", "step_tolerance", "seed"],
                          "lsqr": ["tol", "max_iters"]}
        for name, opts in METHODS.items():
            assert set(opts.FLAGS.values()) <= set(fields[name])

    def test_unknown_method_rejected(self):
        graph, _ = gen_complete(CompleteModelParams(n=6, p=1.0, seed=1))
        with pytest.raises(InvalidInputError, match="unknown method 'power' "
                                                    r"\(choose from eig, sdp, lsqr\)"):
            solve(graph, "power")


def _per_component_lsqr(graph, opts=None):
    """The per-component loop that the one grounded solve replaced, kept as
    the reference: one `cg` call per connected component, each on D - H
    applied through H's own product."""
    opts = opts or LsqrOptions()
    n = graph.n
    H = build_sync_matrix(graph, 0.0)
    deg = H._degrees()

    def laplacian(x):
        return deg * x - H.matvec(x)

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
        padded = np.zeros(n, dtype=np.complex128)

        def grounded(u):
            padded[free] = u.ravel()
            return laplacian(padded)[free]

        Lff = LinearOperator((free.size, free.size), matvec=grounded, dtype=np.complex128)
        a = np.zeros(n, dtype=np.complex128)
        a[anchor] = 1.0
        rhs = -laplacian(a)[free]
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
                           float(np.linalg.norm(grounded(u) - rhs) / rhs_norm))
        if info != 0:
            all_converged = False

    theta_hat, flagged = round_to_angles(z)
    v = z / np.linalg.norm(z)
    return AngleEstimate(
        theta_hat=theta_hat, eigvec=v,
        top_eigval=float(np.vdot(v, H.matvec(v)).real),
        iterations=iterations, residual=residual, method_tag="lsqr",
        diagnostics={"converged": all_converged, "components": int(ncomp),
                     "disconnected": bool(ncomp > 1), "flagged": flagged.tolist()})


class TestGroundedSolve:
    """One CG run on the grounded Laplacian of all components must give the
    per-component loop's answer: bit for bit on a connected graph, where the
    two are the same system, and to rounding on a fragmented one."""

    @pytest.mark.parametrize("params", [
        *(pytest.param(CompleteModelParams(n=400, p=0.1, seed=s), id=f"complete-{s}")
          for s in range(1, 9)),
        *(pytest.param(SmallWorldParams(n=200, epsilon=0.3, p=p, seed=s),
                       id=f"small-world-p{p}-{s}")
          for p in (0.7, 0.4) for s in range(1, 9)),
    ])
    def test_bit_identical_on_connected_graphs(self, params):
        gen = gen_complete if isinstance(params, CompleteModelParams) else gen_small_world
        graph, _ = gen(params)
        got, want = estimate_lsqr(graph), _per_component_lsqr(graph)
        assert got.diagnostics["components"] == want.diagnostics["components"] == 1
        assert np.array_equal(got.theta_hat, want.theta_hat)
        assert np.array_equal(got.eigvec, want.eigvec)
        assert got.top_eigval == want.top_eigval
        assert got.iterations == want.iterations
        assert got.residual == want.residual
        assert got.diagnostics["converged"] == want.diagnostics["converged"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_loop_on_fragmented_graphs(self, seed):
        graph, _ = gen_small_world(SmallWorldParams(n=2000, epsilon=0.003, p=0.8,
                                                    seed=seed))
        # tol is relative to the whole right-hand side now, not to each
        # component's, so at the default 1e-10 the two stop at different
        # points (z apart by up to 1.2e-9 on these seeds); a tighter tol
        # compares the two formulations rather than where CG stopped.
        opts = LsqrOptions(tol=1e-12)
        got, want = estimate_lsqr(graph, opts), _per_component_lsqr(graph, opts)
        assert got.diagnostics["components"] == want.diagnostics["components"] > 100
        assert got.diagnostics["converged"] and want.diagnostics["converged"]
        # z is the eigvec scaled so that the anchor of vertex 0 is 1
        z_got, z_want = got.eigvec / got.eigvec[0], want.eigvec / want.eigvec[0]
        assert np.abs(z_got - z_want).max() <= 1e-10
        assert got.iterations <= 20 * graph.n

    def test_iterations_within_budget(self):
        graph, _ = gen_small_world(SmallWorldParams(n=2000, epsilon=0.003, p=0.8, seed=1))
        est = estimate_lsqr(graph, LsqrOptions(max_iters=3))
        assert est.iterations <= 3
        assert not est.diagnostics["converged"]

    def test_edgeless_graph(self):
        est = estimate_lsqr(OffsetGraph(n=4, i=[], j=[], delta=[]))
        assert np.array_equal(est.theta_hat, np.zeros(4))
        assert est.iterations == 0
        assert est.residual == 0.0
        assert est.diagnostics["converged"]
        assert est.diagnostics["components"] == 4


def _clock(n, seed=4):
    """A noisy clock graph at edge probability 0.9: dense, not complete."""
    return gen_clock(ClockModelParams(n=n, edge_probability=0.9, sigma_good=0.05,
                                      outlier_fraction=0.4, outlier_scale=20.0, omega=1.0,
                                      seed=seed))[0]


def _offset_graph(n, pairs, seed=0):
    """The graph on the edges `pairs` (i < j), with uniform random offsets."""
    i, j = np.array(sorted(pairs)).T
    delta = np.random.default_rng(seed).uniform(0.0, TWO_PI, i.size)
    return OffsetGraph(n=n, i=i, j=j, delta=delta)


def _circulant(n, reach):
    """Each vertex joined to the `reach` nearest on either side: degree 2 reach."""
    return _offset_graph(n, {tuple(sorted((v, (v + d) % n)))
                             for v in range(n) for d in range(1, reach + 1)})


def _cliques(size, count):
    return _offset_graph(size * count, {(c * size + a, c * size + b) for c in range(count)
                                        for a in range(size) for b in range(a + 1, size)})


class TestDegreeRule:
    """A graph whose every degree is at least (n - 1)/2 is connected (two
    vertices that are not adjacent share a neighbour), so lsqr takes it as
    one component without a search.  Below that it searches."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        cc = core._cc

        def spy(*args, **kwargs):
            calls.append(args)
            return cc(*args, **kwargs)

        monkeypatch.setattr(core, "_cc", spy)
        return calls

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _clock(60), id="clock-60-0.9"),
        pytest.param(lambda: _clock(200), id="clock-200-0.9"),
        pytest.param(lambda: _circulant(9, 2), id="circulant-9-at-threshold"),
        pytest.param(lambda: _offset_graph(2, {(0, 1)}), id="one-edge"),
        pytest.param(lambda: OffsetGraph(n=1, i=[], j=[], delta=[]), id="one-vertex"),
        pytest.param(lambda: _offset_graph(30, {(a, b) for a in range(30)
                                                for b in range(a + 1, 30)} - {(3, 7)}),
                     id="complete-30-less-one-edge"),
    ])
    def test_same_labels_and_bits_as_the_search(self, make, searches):
        graph = make()
        got = estimate_lsqr(graph)
        assert searches == []
        want = _per_component_lsqr(graph)  # searches, unless the graph is complete
        ncomp, labels = connected_component_labels(graph)
        assert ncomp == 1
        assert labels.dtype == np.int32 and np.array_equal(labels, np.zeros(graph.n))
        assert got.diagnostics["components"] == 1
        assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
        assert got.eigvec.tobytes() == want.eigvec.tobytes()
        assert (got.top_eigval, got.iterations, got.residual) == (
            want.top_eigval, want.iterations, want.residual)

    @pytest.mark.parametrize("make, components", [
        pytest.param(lambda: _cliques(5, 2), 2, id="two-cliques-of-5"),
        pytest.param(lambda: _cliques(40, 2), 2, id="two-cliques-of-40"),
        pytest.param(lambda: _circulant(10, 2), 1, id="circulant-10"),
        pytest.param(lambda: OffsetGraph(n=2, i=[], j=[], delta=[]), 2, id="two-vertices"),
    ])
    def test_below_the_threshold_searches(self, make, components, searches):
        graph = make()
        est = estimate_lsqr(graph)
        assert len(searches) == 1
        assert est.diagnostics["components"] == components


class TestSdp:
    def test_all_good_rank_one_recovery(self):
        graph, truth = gen_complete(CompleteModelParams(n=30, p=1.0, seed=4))
        est, rank = estimate_sdp(graph, SdpOptions(seed=0))
        assert est.method_tag == "sdp"
        assert rank == 1
        assert rho1(est.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)

    def test_objective_trace_monotone(self):
        graph, _ = gen_small_world(SmallWorldParams(n=80, epsilon=0.3, p=0.6, seed=5))
        est, _ = estimate_sdp(graph, SdpOptions(seed=1))
        for trace in est.diagnostics["objective_traces"]:
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs >= -1e-12)

    def test_rows_stay_feasible(self):
        graph, _ = gen_small_world(SmallWorldParams(n=60, epsilon=0.3, p=0.5, seed=6))
        est, _ = estimate_sdp(graph, SdpOptions(seed=2))
        assert est.diagnostics["feasibility_max_dev"] <= 1e-12

    def test_relaxation_dominates_rounded_point(self):
        # the rounded angles are feasible for the relaxation, so their
        # objective cannot exceed the solved one (up to solver truncation)
        for seed in range(4):
            graph, _ = gen_small_world(SmallWorldParams(n=70, epsilon=0.3, p=0.6,
                                                        seed=20 + seed))
            est, _ = estimate_sdp(graph, SdpOptions(seed=seed))
            f = est.diagnostics["objective"]
            rounded = sdp_objective(build_sync_matrix(graph), est.theta_hat)
            assert f >= rounded - 1e-6 * max(1.0, abs(f))

    def test_mid_noise_reference_correlation(self):
        # small-world n=200, eps=0.3, p=0.4: mean correlation near 0.89
        vals = []
        for seed in range(10):
            graph, truth = gen_small_world(SmallWorldParams(n=200, epsilon=0.3,
                                                            p=0.4, seed=500 + seed))
            est, rank = estimate_sdp(graph, SdpOptions(seed=seed))
            vals.append(rho1(est.theta_hat, truth.theta))
            assert rank <= 5
        assert abs(np.mean(vals) - 0.893) <= 0.08

    def test_agrees_with_eigenvector_on_clean_data(self):
        graph, truth = gen_small_world(SmallWorldParams(n=50, epsilon=0.4, p=1.0, seed=8))
        e1 = estimate_eig(graph)
        e2, rank = estimate_sdp(graph, SdpOptions(seed=3))
        assert rho1(e1.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)
        assert rho1(e2.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)
        assert rank == 1

    def test_option_validation(self):
        graph, _ = gen_complete(CompleteModelParams(n=10, p=1.0, seed=0))
        with pytest.raises(InvalidInputError):
            estimate_sdp(graph, SdpOptions(rank=0))
        with pytest.raises(InvalidInputError):
            estimate_sdp(graph, SdpOptions(rank=11))
        with pytest.raises(InvalidInputError, match="max_iters must be >= 1"):
            estimate_sdp(graph, SdpOptions(max_iters=0))
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="step_tolerance must be finite and >= 0"):
                estimate_sdp(graph, SdpOptions(step_tolerance=bad))

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", None), ("max_iters", 2000.0), ("rank", 2.5),
    ])
    def test_non_integer_option_named(self, field, value):
        # these used to raise TypeError from range() or a comparison
        graph, _ = gen_complete(CompleteModelParams(n=10, p=1.0, seed=0))
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got "):
            estimate_sdp(graph, SdpOptions(**{field: value}))

    def test_default_rank(self):
        assert default_sdp_rank(200) == 20
        assert default_sdp_rank(4) == 3
        assert default_sdp_rank(2) == 2


def sdp_digest(est, theta_rank):
    """SHA-256 over the SDP outputs that must not move: the reported vector,
    both objective traces, the singular values of V, the step count, the
    convergence flag, the residual and theta_rank."""
    h = hashlib.sha256()
    h.update(est.eigvec.tobytes())
    for trace in est.diagnostics["objective_traces"]:
        h.update(np.asarray(trace, dtype=np.float64).tobytes())
    h.update(np.asarray(est.diagnostics["singular_values"], dtype=np.float64).tobytes())
    h.update(f"{est.iterations} {est.diagnostics['converged']} {est.residual!r} "
             f"{theta_rank}".encode())
    return h.hexdigest()


class TestSdpPinned:
    # Recorded before the ascent loop lost its counters.  At n <= 80 every
    # reduction gives the same bits at 1 and 2 BLAS threads.
    @pytest.mark.parametrize("gen,params,opts,digest", [
        (gen_complete, CompleteModelParams(n=60, p=0.3, seed=17), SdpOptions(seed=5),
         "b6a976c3a1b78c9e3f6136e5889e1d8ccbc854c055b9e8eaf7dc13377293bc4e"),
        (gen_small_world, SmallWorldParams(n=80, epsilon=0.3, p=0.5, seed=18),
         SdpOptions(seed=5, max_iters=300),  # both ascents spend the budget
         "b07053693eec8cd118428f19a3aa16288e98284bc328a131ff8bacfd40f3fc51"),
        (gen_small_world, SmallWorldParams(n=80, epsilon=0.3, p=0.5, seed=18),
         SdpOptions(seed=5, step_tolerance=1e-10),
         "6aa76269da41f26c2188855eff489c4657998bc9e3f8dc711dcbb1a22d0eb2e7"),
    ], ids=["complete-60", "small-world-80-budget", "small-world-80-step-tol"])
    def test_digest(self, gen, params, opts, digest):
        graph, _ = gen(params)
        est, theta_rank = estimate_sdp(graph, opts)
        assert sdp_digest(est, theta_rank) == digest


class TestSdpObjective:
    def test_planted_on_all_good(self):
        graph, truth = gen_complete(CompleteModelParams(n=12, p=1.0, seed=2))
        assert sdp_objective(build_sync_matrix(graph), truth.theta) == pytest.approx(
            2.0 * graph.m)

    def test_single_flipped_edge(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[np.pi])
        assert sdp_objective(build_sync_matrix(g), np.zeros(2)) == pytest.approx(-2.0)

    def test_random_assignment_on_outliers_cancels(self):
        # sum of m random unit phasors has modulus O(sqrt(m)) << m
        rng = np.random.default_rng(3)
        for seed in range(5):
            graph, _ = gen_complete(CompleteModelParams(n=100, p=0.0, seed=40 + seed))
            theta = rng.uniform(0, TWO_PI, 100)
            val = sdp_objective(build_sync_matrix(graph), theta)
            assert abs(val) <= 10.0 * np.sqrt(graph.m)

    def test_length_mismatch(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        with pytest.raises(InvalidInputError):
            sdp_objective(build_sync_matrix(g), np.zeros(3))


def exhaustive_grid_max(graph, levels=64):
    """Oracle: maximize the quadratic objective over a discretized angle grid
    (first angle pinned at 0), by full enumeration."""
    grid = np.arange(levels) * TWO_PI / levels
    free = graph.n - 1

    def axis(k):
        shape = [1] * free
        shape[k - 1] = levels
        return grid.reshape(shape)

    total = np.zeros((levels,) * free)
    for a, b, d in zip(graph.i, graph.j, graph.delta):
        A = 0.0 if a == 0 else axis(a)
        B = 0.0 if b == 0 else axis(b)
        total = total + 2.0 * np.cos(A - B - d)
    return float(total.max())


class TestGridOracle:
    # Full-width factorization (r = n) against exhaustive grid search.  The
    # grid can undershoot the continuum optimum by at most m*2*(1-cos(h)) for
    # spacing h, so a tight relaxation must land within that deficit.
    LEVELS = 64

    @pytest.mark.parametrize("n,seed", [(4, 100), (4, 102), (5, 100), (5, 101), (5, 102)])
    def test_matches_grid_within_resolution_deficit(self, n, seed):
        graph, _ = gen_complete(CompleteModelParams(n=n, p=0.6, seed=seed))
        grid_max = exhaustive_grid_max(graph, self.LEVELS)
        est, _ = estimate_sdp(graph, SdpOptions(rank=n, seed=seed, max_iters=6000,
                                                step_tolerance=1e-14))
        f = est.diagnostics["objective"]
        h = TWO_PI / self.LEVELS
        deficit = graph.m * 2.0 * (1.0 - np.cos(h))
        assert f >= grid_max - 1e-9
        assert f - grid_max <= deficit

    def test_relaxation_never_below_grid(self):
        # only the dominance direction is asserted.  `rank >= 2` holds
        # because step_tolerance=1e-14 stops the ascent early (sigma2/sigma1
        # = 1.7e-6 after 367 steps); at the default tolerance 0 it runs on to
        # rank 1 (2.5e-7 after 437 steps, RANK_TOLERANCE is 1e-6), so the
        # optimum is not shown to be rank 2
        graph, _ = gen_complete(CompleteModelParams(n=4, p=0.6, seed=101))
        grid_max = exhaustive_grid_max(graph, self.LEVELS)
        est, rank = estimate_sdp(graph, SdpOptions(rank=4, seed=101, max_iters=6000,
                                                   step_tolerance=1e-14))
        assert est.diagnostics["objective"] >= grid_max - 1e-9
        assert rank >= 2
