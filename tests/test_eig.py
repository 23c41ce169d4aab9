import numpy as np
import pytest
from scipy.integrate import quad

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
from angsync.generators import CompleteModelParams, SmallWorldParams, gen_complete, gen_small_world


def all_good_triangle(theta):
    th = np.asarray(theta, dtype=float)
    delta = reduce_angles([th[0] - th[1], th[0] - th[2], th[1] - th[2]])
    return OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2], delta=delta)


class TestBuildSyncMatrix:
    def test_single_edge_with_shift(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[0.0])
        H = build_sync_matrix(g, diagonal_shift=0.7)
        dense = H.to_dense()
        assert np.allclose(dense, np.array([[0.7, 1.0], [1.0, 0.7]]))
        res = top_eigpair(H, tol=1e-12, seed=0)
        v = res.eigvec
        assert abs(abs(np.vdot(v, np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-8

    def test_triangle_entries(self):
        g = all_good_triangle([0.0, np.pi / 2, np.pi])
        dense = build_sync_matrix(g).to_dense()
        assert dense[0, 1] == pytest.approx(np.exp(-1j * np.pi / 2))
        assert dense[0, 2] == pytest.approx(np.exp(-1j * np.pi))
        assert dense[1, 2] == pytest.approx(np.exp(-1j * np.pi / 2))

    def test_hermitian_and_structure(self):
        graph, _ = gen_complete(CompleteModelParams(n=20, p=0.5, seed=4))
        H = build_sync_matrix(graph, 0.3)
        H.validate()
        dense = H.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        assert H.nnz_offdiag == 2 * graph.m
        assert np.allclose(np.abs(H.entries.data), 1.0)


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
        with pytest.raises(InvalidInputError):
            top_eigpair(H, tol=0.0)
        with pytest.raises(InvalidInputError):
            top_eigpair(H, max_iters=0)

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


class TestTriangleConsistency:
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

    def test_no_triangles_raises(self):
        g = OffsetGraph(n=4, i=[0, 1, 2], j=[1, 2, 3], delta=[0.0, 0.0, 0.0])
        with pytest.raises(NoTrianglesError):
            triangle_consistency_score(g, 10, seed=0)

    def test_bad_sample_size(self):
        g = OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2], delta=[0, 0, 0])
        with pytest.raises(InvalidInputError):
            triangle_consistency_score(g, 0, seed=0)
