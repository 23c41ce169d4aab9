import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, eigs

import angsync.eig

from angsync.core import (
    TWO_PI,
    InvalidInputError,
    NoTrianglesError,
    OffsetGraph,
    ZeroMatrixError,
    circdist,
    reduce_angles,
    rho1,
    rho2,
)
from angsync.eig import (
    EigOptions,
    build_sync_matrix,
    default_max_iters,
    estimate_eig,
    round_to_angles,
    top_eigpair,
    triangle_consistency_score,
)
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)


def all_good_triangle(theta):
    th = np.asarray(theta, dtype=float)
    delta = reduce_angles([th[0] - th[1], th[0] - th[2], th[1] - th[2]])
    return OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2], delta=delta)


def reference_sync_entries(graph):
    """H's CSR entries built with the forward half (i, j) first."""
    w = np.exp(1j * graph.delta)
    return sp.coo_matrix(
        (np.concatenate([w, w.conj()]),
         (np.concatenate([graph.i, graph.j]), np.concatenate([graph.j, graph.i]))),
        shape=(graph.n, graph.n),
    ).tocsr()


def reversed_edges(graph):
    return OffsetGraph(n=graph.n, i=graph.i[::-1], j=graph.j[::-1],
                       delta=graph.delta[::-1])


class TestBuildSyncMatrix:
    def test_single_edge_with_shift(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        H = build_sync_matrix(g, diagonal_shift=0.7)
        dense = H.to_dense()
        assert np.allclose(dense, np.array([[0.7, 1.0], [1.0, 0.7]]))
        res = top_eigpair(H, tol=1e-12, seed=0)
        v = res.eigvec
        assert abs(abs(np.vdot(v, np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-8

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, shift):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        with pytest.raises(InvalidInputError, match="diagonal_shift must be finite"):
            build_sync_matrix(g, diagonal_shift=shift)

    def test_triangle_entries(self):
        g = all_good_triangle([0.0, np.pi / 2, np.pi])
        dense = build_sync_matrix(g).to_dense()
        assert dense[0, 1] == pytest.approx(np.exp(-1j * np.pi / 2))
        assert dense[0, 2] == pytest.approx(np.exp(-1j * np.pi))
        assert dense[1, 2] == pytest.approx(np.exp(-1j * np.pi / 2))

    def test_hermitian_and_structure(self):
        graph, _ = gen_complete(CompleteModelParams(n=20, p=0.5, seed=4))
        H = build_sync_matrix(graph, 0.3)
        dense = H.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        assert H.nnz_offdiag == 2 * graph.m
        # unit-modulus entries, Hermitian, the shift kept off the stored diagonal
        a = H.entries
        assert np.abs(np.abs(a.data) - 1.0).max() <= 1e-12
        assert np.abs((a - a.conj().T).data).max(initial=0.0) == 0.0
        assert not a.diagonal().any()

    @pytest.mark.parametrize("graph", [
        gen_complete(CompleteModelParams(n=60, p=0.3, seed=5))[0],
        gen_small_world(SmallWorldParams(n=200, epsilon=0.3, p=0.5, seed=5))[0],
        reversed_edges(gen_complete(CompleteModelParams(n=60, p=0.3, seed=5))[0]),
    ], ids=["sorted", "small-world", "reversed"])
    def test_same_arrays_as_forward_half_first(self, graph):
        entries = build_sync_matrix(graph).entries
        ref = reference_sync_entries(graph)
        assert entries.has_sorted_indices
        assert entries.indptr.tobytes() == ref.indptr.tobytes()
        assert entries.indices.tobytes() == ref.indices.tobytes()
        assert entries.data.tobytes() == ref.data.tobytes()


def complex_arnoldi_reference(H, tol, seed):
    """(eigenvalue, unit eigenvector, applications) of ARPACK's complex
    driver on H, from `top_eigpair`'s start vector and generator; the
    applications count the residual check, as `top_eigpair` does."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    v0 = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
    v0 /= np.linalg.norm(v0)
    calls = []

    def matvec(x):
        calls.append(1)
        return H.matvec(x)

    op = LinearOperator((H.n, H.n), matvec=matvec, dtype=np.complex128)
    vals, vecs = eigs(op, k=1, which="LR", v0=v0, tol=tol,
                      maxiter=default_max_iters(H.n), rng=rng)
    return vals[0].real, vecs[:, 0] / np.linalg.norm(vecs[:, 0]), len(calls) + 1


LANCZOS_GRAPHS = {
    "complete-60": lambda: gen_complete(CompleteModelParams(n=60, p=0.05, seed=1))[0],
    "complete-400": lambda: gen_complete(CompleteModelParams(n=400, p=0.05, seed=1))[0],
    "small-world-200": lambda: gen_small_world(
        SmallWorldParams(n=200, epsilon=0.3, p=0.5, seed=2))[0],
    "clock-100": lambda: gen_clock(ClockModelParams(
        n=100, edge_probability=0.5, sigma_good=0.05, outlier_fraction=0.3,
        outlier_scale=20.0, omega=1.0, seed=3))[0],
}


class TestTopEigpair:
    def test_two_by_two(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        res = top_eigpair(build_sync_matrix(g), tol=1e-12, seed=1)
        assert res.eigval == pytest.approx(1.0, abs=1e-10)
        assert res.converged

    def test_all_good_triangle_spectrum_and_recovery(self):
        theta = np.array([0.7, 2.9, 4.1])
        g = all_good_triangle(theta)
        res = top_eigpair(build_sync_matrix(g), tol=1e-12, seed=0)
        assert res.eigval == pytest.approx(2.0, abs=1e-8)
        rounded, _ = round_to_angles(res.eigvec)
        assert np.max(circdist(reduce_angles(rounded - rounded[0]),
                               reduce_angles(theta - theta[0]))) < 1e-8

    def test_residual_contract(self):
        graph, _ = gen_complete(CompleteModelParams(n=50, p=0.6, seed=8))
        H = build_sync_matrix(graph)
        tol = 1e-9
        res = top_eigpair(H, tol=tol, seed=3)
        assert res.converged
        resid = np.linalg.norm(H.matvec(res.eigvec) - res.eigval * res.eigvec)
        assert resid <= tol * abs(res.eigval)

    def test_zero_matrix_rejected(self):
        g = OffsetGraph(n=3, i=[], j=[], delta=[])
        with pytest.raises(ZeroMatrixError):
            top_eigpair(build_sync_matrix(g))

    def test_nonconvergence_flagged_not_raised(self):
        graph, _ = gen_complete(CompleteModelParams(n=40, p=0.3, seed=2))
        for max_iters in (1, 2, 5):
            res = top_eigpair(build_sync_matrix(graph), tol=1e-14, max_iters=max_iters,
                              seed=0)
            assert not res.converged
            assert res.iterations == max_iters
            assert abs(np.linalg.norm(res.eigvec) - 1.0) < 1e-12
            # a copy, never a view of ARPACK's reused work space
            assert res.eigvec.dtype == np.complex128 and res.eigvec.flags.owndata

    def test_converged_run_counts_applications_below_budget(self):
        graph, _ = gen_complete(CompleteModelParams(n=60, p=0.5, seed=7))
        H = build_sync_matrix(graph)
        calls = []

        class CountingH:
            n, nnz_offdiag, diagonal_shift = H.n, H.nnz_offdiag, H.diagonal_shift

            def matvec(self, v):
                calls.append(1)
                return H.matvec(v)

        res = top_eigpair(CountingH(), tol=1e-10, max_iters=500, seed=0)
        assert res.converged
        assert res.iterations == len(calls) < 500

    def test_near_threshold_converges(self):
        # n p^2 = 1, the recovery threshold: the spectral gap is small there
        graph, _ = gen_complete(CompleteModelParams(n=400, p=0.05, seed=1))
        H = build_sync_matrix(graph)
        res = top_eigpair(H, tol=1e-8, max_iters=2000, seed=1)
        assert res.converged
        w, V = np.linalg.eigh(H.to_dense())
        assert res.eigval == pytest.approx(w[-1], rel=1e-8)
        assert abs(np.vdot(res.eigvec, V[:, -1])) >= 1 - 1e-6

    def test_deterministic_given_seed(self):
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=6))
        H = build_sync_matrix(graph)
        a = top_eigpair(H, tol=1e-10, seed=42)
        b = top_eigpair(H, tol=1e-10, seed=42)
        assert np.array_equal(a.eigvec, b.eigvec)
        assert a.eigval == b.eigval

    def test_bad_options(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        H = build_sync_matrix(g)
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="tol"):
                top_eigpair(H, tol=tol)
        with pytest.raises(InvalidInputError):
            top_eigpair(H, max_iters=0)

    def test_arpack_gets_the_seeded_generator(self, monkeypatch):
        states = []
        real = angsync.eig.eigsh

        def spy(*args, rng=None, **kwargs):
            states.append(rng.bit_generator.state)
            return real(*args, rng=rng, **kwargs)

        monkeypatch.setattr(angsync.eig, "eigsh", spy)
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=6))
        top_eigpair(build_sync_matrix(graph), tol=1e-10, seed=42)
        expected = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(17,)))
        expected.normal(size=30), expected.normal(size=30)  # the start vector
        assert states == [expected.bit_generator.state]

    @pytest.mark.parametrize("name", sorted(LANCZOS_GRAPHS))
    def test_real_form_matches_complex_arnoldi(self, name):
        # the symmetric driver on H's real form against ARPACK's complex
        # driver on H, from the same start vector with the same tol and budget
        H = build_sync_matrix(LANCZOS_GRAPHS[name]())
        res = top_eigpair(H, tol=1e-10, seed=4)
        lam, v, applications = complex_arnoldi_reference(H, tol=1e-10, seed=4)
        assert res.converged
        assert res.iterations == applications
        assert abs(res.eigval - lam) <= 1e-12 * abs(lam)
        assert abs(np.vdot(v, res.eigvec)) >= 1 - 1e-12

    @pytest.mark.parametrize("n, shift", [(1, 0.7), (1, -0.4), (2, 0.0), (2, 1.5), (4, 0.0),
                                          (10, 0.0)],
                             ids=["1-shift0.7", "1-shift-0.4", "2", "2-shift1.5", "4", "10"])
    def test_tiny_graph_applications(self, n, shift, monkeypatch):
        # ncv = n + 1 below n = 19: n + 2 products and the residual check;
        # the real form's 2n rows take k = 1 from n = 1, with no dense solve
        graph = (gen_complete(CompleteModelParams(n=n, p=0.5, seed=1))[0] if n > 1
                 else OffsetGraph(n=1, i=[], j=[], delta=[]))
        H = build_sync_matrix(graph, diagonal_shift=shift)
        want = np.linalg.eigvalsh(H.to_dense())[-1]

        def no_eigh(*args, **kwargs):
            raise AssertionError("dense eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        res = top_eigpair(H, tol=1e-10, seed=0)
        assert res.converged
        # at n = 1, H = shift I: every vector is an eigenvector, and the
        # count depends on ARPACK's draws (n + 4 at shift 0.7 with seed 0)
        assert res.iterations in ((n + 3, n + 4) if n == 1 else (n + 3,))
        assert abs(res.eigval - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("n,p,seed", [(5, 1.0, 1), (8, 0.7, 2), (12, 0.7, 3)])
    def test_oracle_equivalence_dense(self, n, p, seed):
        graph, _ = gen_complete(CompleteModelParams(n=n, p=p, seed=seed))
        H = build_sync_matrix(graph)
        res = top_eigpair(H, tol=1e-12, max_iters=200000, seed=0)
        w, V = np.linalg.eigh(H.to_dense())
        assert res.eigval == pytest.approx(w[-1], rel=1e-8)
        assert abs(np.vdot(res.eigvec, V[:, -1])) > 1 - 1e-8


class TestRoundToAngles:
    def test_recovers_planted_phasors(self):
        theta = np.array([0.0, 1.5, 3.7, 6.0])
        v = np.exp(1j * theta) / 2.0
        rounded, flagged = round_to_angles(v)
        assert flagged.size == 0
        assert np.allclose(rounded, theta, atol=1e-12)

    def test_zero_entry_flagged(self):
        v = np.array([1.0, 0.0, 1j]) / np.sqrt(2)
        rounded, flagged = round_to_angles(v)
        assert flagged.tolist() == [1]
        assert rounded[1] == 0.0


class TestEstimateEig:
    def test_all_good_exact_recovery(self):
        graph, truth = gen_complete(CompleteModelParams(n=40, p=1.0, seed=14))
        est = estimate_eig(graph)
        assert rho1(est.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)
        assert est.method_tag == "eig"
        assert abs(np.linalg.norm(est.eigvec) - 1.0) < 1e-10
        # rounded angles are the entrywise phases of the eigenvector
        ok = np.abs(est.eigvec) > 0
        assert np.allclose(np.exp(1j * est.theta_hat[ok]),
                           est.eigvec[ok] / np.abs(est.eigvec[ok]))

    def test_all_good_small_world(self):
        graph, truth = gen_small_world(SmallWorldParams(n=60, epsilon=0.4, p=1.0, seed=5))
        est = estimate_eig(graph, EigOptions(tol=1e-10))
        assert rho1(est.theta_hat, truth.theta) == pytest.approx(1.0, abs=1e-6)

    def test_default_budget(self):
        assert default_max_iters(400) >= 10 * 400 * np.log(400) - 1

    @pytest.mark.parametrize("value", [2.5, 100.0, "50"])
    def test_non_integer_max_iters_named(self, value):
        # 2.5 used to run and report iterations=3, over its own budget
        graph, _ = gen_complete(CompleteModelParams(n=20, p=0.5, seed=3))
        with pytest.raises(InvalidInputError, match="^max_iters must be an integer, got "):
            estimate_eig(graph, EigOptions(max_iters=value))
        with pytest.raises(InvalidInputError, match="^max_iters must be an integer, got "):
            top_eigpair(build_sync_matrix(graph), max_iters=value)

    def test_numpy_integer_max_iters_accepted(self):
        graph, _ = gen_complete(CompleteModelParams(n=20, p=0.5, seed=3))
        got = estimate_eig(graph, EigOptions(tol=1e-14, max_iters=np.int64(3)))
        want = estimate_eig(graph, EigOptions(tol=1e-14, max_iters=3))
        assert got.iterations == want.iterations == 3
        assert got.eigvec.tobytes() == want.eigvec.tobytes()

    def test_diagonal_shift_invariance(self):
        graph, _ = gen_complete(CompleteModelParams(n=60, p=0.5, seed=9))
        base = estimate_eig(graph, EigOptions(tol=1e-12, seed=5))
        shifted = estimate_eig(graph, EigOptions(tol=1e-12, seed=5, diagonal_shift=1.7))
        assert abs(np.vdot(shifted.eigvec, base.eigvec)) > 1 - 1e-8
        assert shifted.top_eigval == pytest.approx(base.top_eigval + 1.7, abs=1e-8)

    def test_gauge_covariance_constant_shift(self):
        graph, truth = gen_complete(CompleteModelParams(n=50, p=0.6, seed=10))
        est = estimate_eig(graph, EigOptions(tol=1e-12, seed=2))
        phi = 1.234
        shifted_truth = reduce_angles(truth.theta + phi)
        assert abs(rho1(est.theta_hat, truth.theta)
                   - rho1(est.theta_hat, shifted_truth)) < 1e-10
        assert abs(rho2(est.eigvec, truth.theta)
                   - rho2(est.eigvec, shifted_truth)) < 1e-10

    def test_gauge_covariance_diagonal_conjugation(self):
        # Re-gauging every vertex phase maps H to D H D*: same spectrum, same
        # correlation scores against the re-gauged truth.
        graph, truth = gen_complete(CompleteModelParams(n=40, p=0.7, seed=11))
        rng = np.random.default_rng(0)
        psi = rng.uniform(0, TWO_PI, graph.n)
        regauged = OffsetGraph(
            n=graph.n, i=graph.i, j=graph.j,
            delta=reduce_angles(graph.delta + psi[graph.i] - psi[graph.j]))
        truth2 = reduce_angles(truth.theta + psi)
        a = estimate_eig(graph, EigOptions(tol=1e-13, seed=3))
        b = estimate_eig(regauged, EigOptions(tol=1e-13, seed=3))
        assert b.top_eigval == pytest.approx(a.top_eigval, rel=1e-10)
        assert abs(rho1(b.theta_hat, truth2) - rho1(a.theta_hat, truth.theta)) < 1e-8

    def test_correlation_law_complete_model(self):
        # measured rho2 tracks (1 + 1/(n p^2))^(-1/2) for np^2 in {4, 9, 16}
        n = 400
        for np2 in (4.0, 9.0, 16.0):
            p = np.sqrt(np2 / n)
            vals = []
            for seed in range(20):
                graph, truth = gen_complete(CompleteModelParams(n=n, p=p, seed=300 + seed))
                est = estimate_eig(graph, EigOptions(tol=1e-6, max_iters=3000, seed=seed))
                vals.append(rho2(est.eigvec, truth.theta))
            predicted = (1.0 + 1.0 / np2) ** -0.5
            assert abs(np.mean(vals) - predicted) < 0.05


def reference_triangle_score(graph, sample_size, seed):
    """The score by dict and set lookups, edge by edge, as a reference."""
    signed = {(int(a), int(b)): float(d) for a, b, d in zip(graph.i, graph.j, graph.delta)}
    neighbors = [set() for _ in range(graph.n)]
    for a, b in signed:
        neighbors[a].add(b)
        neighbors[b].add(a)

    def offset(a, b):
        return signed[(a, b)] if a < b else -signed[(b, a)]

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(29,)))
    total, count = 0.0, 0
    for e in rng.permutation(graph.m):
        a, b = int(graph.i[e]), int(graph.j[e])
        for k in sorted(neighbors[a] & neighbors[b]):
            total += abs(np.exp(1j * (offset(a, b) + offset(b, k) + offset(k, a))) - 1.0)
            count += 1
            if count >= sample_size:
                return total / count
    return total / count


def triangles_per_edge(graph, seed):
    """Common-neighbour counts of the edges, in the score's seeded order."""
    neighbors = [set() for _ in range(graph.n)]
    for a, b in zip(graph.i.tolist(), graph.j.tolist()):
        neighbors[a].add(b)
        neighbors[b].add(a)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(29,)))
    return np.array([len(neighbors[graph.i[e]] & neighbors[graph.j[e]])
                     for e in rng.permutation(graph.m)])


class TestTriangleBatches:
    """The score takes edges 128 at a time; a sample may end anywhere in a
    batch, and the values must be summed as in the edge-by-edge walk."""

    def assert_matches_reference(self, graph, sizes, seed):
        for sample_size in sizes:
            assert (triangle_consistency_score(graph, sample_size, seed=seed)
                    == reference_triangle_score(graph, sample_size, seed))

    def test_sample_ends_inside_and_at_batch_ends(self):
        graph, _ = gen_small_world(SmallWorldParams(n=400, epsilon=0.2, p=0.5, seed=3))
        for seed in (0, 1):
            done = np.cumsum(triangles_per_edge(graph, seed))
            first, second = int(done[127]), int(done[255])
            assert first > done[126] and second > done[254]  # batch ends add triangles
            self.assert_matches_reference(
                graph, [int(done[63]), first - 1, first, first + 1, second, second + 1],
                seed)

    def test_fewer_edges_than_a_batch(self):
        graph, _ = gen_complete(CompleteModelParams(n=12, p=0.4, seed=2))
        assert graph.m < 128
        done = np.cumsum(triangles_per_edge(graph, 0))
        self.assert_matches_reference(graph, [1, int(done[30]), int(done[-1]), 10**7], 0)

    def test_first_batch_without_triangles(self):
        # a 400-edge path, then two triangles on vertices 401..405
        rng = np.random.default_rng(5)
        i = list(range(400)) + [401, 401, 402, 403, 403, 404]
        j = list(range(1, 401)) + [402, 403, 403, 404, 405, 405]
        graph = OffsetGraph(n=406, i=i, j=j, delta=rng.uniform(0, TWO_PI, len(i)))
        seeds = [seed for seed in range(50)
                 if not triangles_per_edge(graph, seed)[:128].any()]
        assert seeds
        self.assert_matches_reference(graph, [1, 3, 4, 6, 10**7], seeds[0])

    def test_complete_graph(self):
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=4))
        done = np.cumsum(triangles_per_edge(graph, 2))
        self.assert_matches_reference(
            graph, [int(done[127]), int(done[127]) + 5, int(done[300]), 10**7], 2)

    def test_full_pass_runs_out(self):
        graph, _ = gen_small_world(SmallWorldParams(n=300, epsilon=0.1, p=0.2, seed=7))
        assert triangles_per_edge(graph, 0).sum() < 10**7
        self.assert_matches_reference(graph, [10**7], 0)


class TestTriangleConsistency:
    @pytest.mark.parametrize("gen, params", [
        (gen_small_world, SmallWorldParams(n=150, epsilon=0.2, p=0.5, seed=9)),
        (gen_complete, CompleteModelParams(n=40, p=0.3, seed=1)),
    ], ids=["small-world", "complete"])
    def test_matches_reference_to_the_bit(self, gen, params):
        graph, _ = gen(params)
        for seed in (0, 1, 2):
            for sample_size in (1, 300, 10**7):
                assert (triangle_consistency_score(graph, sample_size, seed=seed)
                        == reference_triangle_score(graph, sample_size, seed))

    def test_all_good_is_zero(self):
        graph, _ = gen_complete(CompleteModelParams(n=15, p=1.0, seed=3))
        assert triangle_consistency_score(graph, 300, seed=1) < 1e-9

    def test_single_triangle_summing_to_pi(self):
        g = OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2],
                        delta=[np.pi / 2, 0.0, np.pi / 2])
        # signed cycle sum: d01 + d12 - d02 = pi, |e^{i pi} - 1| = 2
        assert triangle_consistency_score(g, 10, seed=0) == pytest.approx(2.0)

    def test_all_bad_matches_uniform_integral(self):
        # oracle: E|e^{iU} - 1| for uniform U, by numeric quadrature
        oracle, _ = quad(lambda u: abs(np.exp(1j * u) - 1.0) / TWO_PI, 0, TWO_PI)
        assert oracle == pytest.approx(4 / np.pi, rel=1e-9)
        graph, _ = gen_complete(CompleteModelParams(n=50, p=0.0, seed=6))
        score = triangle_consistency_score(graph, 4000, seed=2)
        assert abs(score - oracle) < 0.08

    def test_pinned_score(self):
        # exact value recorded before the score moved from dict and set
        # lookups to a CSR of signed offsets; the summation order is unchanged
        graph, _ = gen_small_world(SmallWorldParams(n=400, epsilon=0.2, p=0.5, seed=3))
        assert triangle_consistency_score(graph, 2000, seed=1) == 0.5620766698977393

    def test_no_triangles_raises(self):
        g = OffsetGraph(n=4, i=[0, 1, 2], j=[1, 2, 3], delta=[0.0, 0.0, 0.0])
        with pytest.raises(NoTrianglesError):
            triangle_consistency_score(g, 10, seed=0)

    def test_bad_sample_size(self):
        g = OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2], delta=[0, 0, 0])
        with pytest.raises(InvalidInputError):
            triangle_consistency_score(g, 0, seed=0)

    @pytest.mark.parametrize("value", [2.5, 100.0])
    def test_non_integer_sample_size_named(self, value):
        # these used to raise TypeError from a slice
        g = OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2], delta=[0, 0, 0])
        with pytest.raises(InvalidInputError, match="^sample_size must be an integer, got "):
            triangle_consistency_score(g, value, seed=0)

    def test_numpy_integer_sample_size_accepted(self):
        graph, _ = gen_small_world(SmallWorldParams(n=150, epsilon=0.2, p=0.5, seed=9))
        assert (triangle_consistency_score(graph, np.int32(300), seed=1)
                == triangle_consistency_score(graph, 300, seed=1))
