import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

import angsync.spectra
from angsync.core import InvalidInputError, OffsetGraph, TooLargeError, reduce_angles
from angsync.eig import build_sync_matrix, top_eigpair
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)
from angsync.spectra import cluster_sizes, full_spectrum, histogram, top_k_spectrum
from angsync.theory import wigner_edge

ROOT = Path(__file__).resolve().parents[1]


def all_good_triangle(theta):
    th = np.asarray(theta, dtype=float)
    delta = reduce_angles([th[0] - th[1], th[0] - th[2], th[1] - th[2]])
    return OffsetGraph(n=3, i=[0, 0, 1], j=[1, 2, 2], delta=delta)


class TestFullSpectrum:
    def test_triangle_spectrum(self):
        H = build_sync_matrix(all_good_triangle([0.3, 1.8, 5.2]))
        w = full_spectrum(H)
        assert np.allclose(w, [2.0, -1.0, -1.0], atol=1e-10)

    def test_single_edge(self):
        g = OffsetGraph(n=2, i=[0], j=[1], delta=[1.3])
        assert np.allclose(full_spectrum(build_sync_matrix(g)), [1.0, -1.0])

    def test_descending_order(self):
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=1))
        w = full_spectrum(build_sync_matrix(graph))
        assert np.all(np.diff(w) <= 0)

    def test_trace_and_frobenius_identities(self):
        graph, _ = gen_complete(CompleteModelParams(n=50, p=0.4, seed=3))
        shift = 0.3
        H = build_sync_matrix(graph, shift)
        w = full_spectrum(H)
        assert abs(w.sum() - 50 * shift) <= 1e-8 * 50
        assert abs((w**2).sum() - (2 * graph.m + 50 * shift**2)) <= 1e-8 * graph.m

    def test_matches_power_iteration(self):
        for seed in (1, 2):
            graph, _ = gen_complete(CompleteModelParams(n=60, p=0.6, seed=seed))
            H = build_sync_matrix(graph)
            w = full_spectrum(H)
            pi = top_eigpair(H, tol=1e-11, seed=0)
            assert pi.eigval == pytest.approx(w[0], rel=1e-8)

    def test_below_threshold_stays_at_bulk_edge(self):
        # p at the recovery threshold: no separated outlier eigenvalue
        n, p = 400, 0.05
        edge = wigner_edge(n, p)
        hits = 0
        for seed in range(10):
            graph, _ = gen_complete(CompleteModelParams(n=n, p=p, seed=700 + seed))
            w = full_spectrum(build_sync_matrix(graph, diagonal_shift=p))
            hits += w[0] < 1.05 * edge
        assert hits >= 8

    def test_too_large_rejected(self):
        graph, _ = gen_complete(CompleteModelParams(n=30, p=1.0, seed=0))
        with pytest.raises(TooLargeError):
            full_spectrum(build_sync_matrix(graph), dense_limit=10)


class TestTopK:
    def test_k_one_matches_power_iteration(self):
        graph, _ = gen_complete(CompleteModelParams(n=40, p=0.7, seed=5))
        H = build_sync_matrix(graph)
        top = top_k_spectrum(H, 1)
        pi = top_eigpair(H, tol=1e-11, seed=1)
        assert top[0] == pytest.approx(pi.eigval, rel=1e-6)

    def test_all_bad_within_semicircle_band(self):
        graph, _ = gen_complete(CompleteModelParams(n=400, p=0.0, seed=9))
        top = top_k_spectrum(build_sync_matrix(graph), 5)
        assert np.all(top <= 1.1 * wigner_edge(400, 0.0))

    @pytest.mark.parametrize("gen, params", [
        (gen_small_world, SmallWorldParams(n=400, epsilon=0.2, p=1.0, seed=2)),
        (gen_complete, CompleteModelParams(n=400, p=0.0, seed=9)),  # no spectral gap
        (gen_clock, ClockModelParams(n=120, edge_probability=1.0, sigma_good=0.05,
                                     outlier_fraction=0.5, outlier_scale=20.0, omega=1.0,
                                     seed=3)),
    ], ids=["small-world", "complete-p0", "clock"])
    def test_matches_dense_eigvalsh(self, gen, params):
        H = build_sync_matrix(gen(params)[0])
        dense = np.linalg.eigvalsh(H.to_dense())[::-1][:9]
        top = top_k_spectrum(H, 9)
        assert np.all(np.diff(top) <= 0)
        assert np.max(np.abs(top - dense)) <= 1e-10 * abs(dense[0])

    def test_arpack_gets_the_fixed_generator(self, monkeypatch):
        # eigsh hands a complex operator to eigs without its generator
        states = []
        real = angsync.spectra.eigs

        def spy(*args, rng=None, **kwargs):
            states.append(rng.bit_generator.state)
            return real(*args, rng=rng, **kwargs)

        monkeypatch.setattr(angsync.spectra, "eigs", spy)
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=6))
        top_k_spectrum(build_sync_matrix(graph), 4)
        expected = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(19,)))
        expected.normal(size=30), expected.normal(size=30)  # the start vector
        assert states == [expected.bit_generator.state]

    def test_repeat_calls_bit_identical(self):
        graph, _ = gen_small_world(SmallWorldParams(n=300, epsilon=0.2, p=0.5, seed=4))
        H = build_sync_matrix(graph)
        assert np.array_equal(top_k_spectrum(H, 9), top_k_spectrum(H, 9))

    def test_dense_fallback_for_k_from_n_minus_one(self):
        graph, _ = gen_complete(CompleteModelParams(n=10, p=0.5, seed=0))
        H = build_sync_matrix(graph, diagonal_shift=0.2)
        for k in (9, 10):
            assert np.array_equal(top_k_spectrum(H, k), full_spectrum(H)[:k])

    def test_k_validation(self):
        graph, _ = gen_complete(CompleteModelParams(n=10, p=1.0, seed=0))
        H = build_sync_matrix(graph)
        with pytest.raises(InvalidInputError):
            top_k_spectrum(H, 0)
        with pytest.raises(InvalidInputError):
            top_k_spectrum(H, 11)

    @pytest.mark.parametrize("k", [2.5, 29.5, 3.0, "3", None])
    def test_non_integer_k_rejected(self, k):
        # 2.5 used to reach ARPACK (SystemError) and 29.5 a slice (TypeError)
        graph, _ = gen_complete(CompleteModelParams(n=30, p=1.0, seed=0))
        with pytest.raises(InvalidInputError, match="k must be an integer, got"):
            top_k_spectrum(build_sync_matrix(graph), k)

    def test_numpy_integer_k_accepted(self):
        graph, _ = gen_complete(CompleteModelParams(n=30, p=0.5, seed=0))
        H = build_sync_matrix(graph)
        assert np.array_equal(top_k_spectrum(H, np.int64(4)), top_k_spectrum(H, 4))


class TestArpackTolerance:
    """`top_k_spectrum` stops ARPACK at a relative residual of `ARPACK_TOL`,
    not at machine precision: fewer products, values as accurate as callers
    need."""

    @pytest.mark.parametrize("gen, params", [
        (gen_complete, CompleteModelParams(n=400, p=0.0, seed=9)),  # no spectral gap
        (gen_small_world, SmallWorldParams(n=1000, epsilon=0.3, p=0.5, seed=1)),
    ], ids=["complete-p0", "small-world-1000"])
    def test_top_25_match_dense_eigvalsh(self, gen, params):
        # k = 25 as in scripts/reproduce_spectra.py
        H = build_sync_matrix(gen(params)[0])
        dense = np.linalg.eigvalsh(H.to_dense())[::-1][:25]
        assert np.max(np.abs(top_k_spectrum(H, 25) - dense)) <= 1e-12 * abs(dense[0])

    def test_fewer_products_than_machine_precision(self, monkeypatch):
        # each eigs call records its arguments and counts its products
        calls = []
        real = angsync.spectra.eigs

        def spy(op, **kwargs):
            call = {"kwargs": kwargs, "rng_state": kwargs["rng"].bit_generator.state,
                    "products": 0}
            calls.append(call)

            def matvec(v):
                call["products"] += 1
                return op.matvec(v)

            return real(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), **kwargs)

        monkeypatch.setattr(angsync.spectra, "eigs", spy)
        graph, _ = gen_small_world(SmallWorldParams(n=2000, epsilon=0.05, p=0.3, seed=0))
        H = build_sync_matrix(graph)
        top_k_spectrum(H, 9)
        (call,) = calls
        assert call["kwargs"]["tol"] == angsync.spectra.ARPACK_TOL
        # the same seeded start, run to machine precision
        rng = np.random.default_rng()
        rng.bit_generator.state = call["rng_state"]
        spy(LinearOperator((H.n, H.n), matvec=H.matvec, dtype=np.complex128),
            **dict(call["kwargs"], tol=0, rng=rng))
        assert call["products"] < calls[1]["products"]

    def test_values_independent_of_blas_threads(self):
        """The same values bit for bit at one and at two BLAS threads (two
        subprocesses, at most two threads each), on dense and sparse H."""
        script = (
            "import hashlib\n"
            "from angsync.eig import build_sync_matrix\n"
            "from angsync.generators import (CompleteModelParams, SmallWorldParams,\n"
            "                                gen_complete, gen_small_world)\n"
            "from angsync.spectra import top_k_spectrum\n"
            "h = hashlib.sha256()\n"
            "for graph in (gen_complete(CompleteModelParams(n=400, p=0.1, seed=1))[0],\n"
            "              gen_complete(CompleteModelParams(n=400, p=0.0, seed=9))[0],\n"
            "              gen_small_world(SmallWorldParams(n=400, epsilon=0.2, p=1.0,\n"
            "                                               seed=2))[0],\n"
            "              gen_small_world(SmallWorldParams(n=2000, epsilon=0.05, p=0.3,\n"
            "                                               seed=0))[0]):\n"
            "    h.update(top_k_spectrum(build_sync_matrix(graph), 9).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])))
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[key] = threads
            proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=300)
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestHistogram:
    def test_all_in_one_bin(self):
        out = histogram([1.0, 1.1, 0.9], 1)
        assert len(out) == 1
        assert out[0][1] == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            histogram([], 4)

    def test_bins_below_1_rejected(self):
        with pytest.raises(InvalidInputError, match="bins must be >= 1"):
            histogram([1.0, 2.0], 0)

    def test_uniform_grid_balanced(self):
        vals = np.linspace(0.0, 1.0, 100, endpoint=False)
        out = histogram(vals, 10)
        assert [count for _, count in out] == [10] * 10

    def test_counts_sum(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=257)
        out = histogram(vals, 13)
        assert sum(count for _, count in out) == 257


class TestClusterSizes:
    def test_synthetic_split(self):
        vals = [10.0, 9.5, 9.4, 5.0, 4.9]
        assert cluster_sizes(vals, rel_gap=0.10) == [3, 2]

    def test_single_cluster_when_gaps_small(self):
        vals = [10.0, 9.8, 9.6, 9.4]
        assert cluster_sizes(vals, rel_gap=0.10) == [4]

    def test_empty(self):
        assert cluster_sizes([]) == []
