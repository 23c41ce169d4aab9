"""The dense product operand of `SyncMatrix` against the CSR it copies.

A sync matrix multiplies through a dense array when 16 n^2 bytes is no more
than the CSR's data, indices and indptr (complete and clock graphs from
n = 4 on), and through the CSR otherwise; the choice is made once, at
construction.  On the dense graphs every product, and every solver built on
them, must agree with the CSR.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigs, eigsh

from angsync.baselines import SdpOptions, estimate_sdp
from angsync.core import OffsetGraph, SyncMatrix
from angsync.eig import EigOptions, build_sync_matrix, estimate_eig, round_to_angles, top_eigpair
from angsync.generators import (
    ClockModelParams,
    CompleteModelParams,
    SmallWorldParams,
    gen_clock,
    gen_complete,
    gen_small_world,
)
from angsync.spectra import top_k_spectrum

ROOT = Path(__file__).resolve().parents[1]


def _complete(n, p, seed):
    return gen_complete(CompleteModelParams(n=n, p=p, seed=seed))[0]


def _clock():
    return gen_clock(ClockModelParams(n=60, edge_probability=1.0, sigma_good=0.05,
                                      outlier_fraction=0.4, outlier_scale=20.0,
                                      omega=1.0, seed=4))[0]


DENSE = {"complete-4": lambda: _complete(4, 0.5, 1),
         "complete-60": lambda: _complete(60, 0.3, 2),
         "complete-400": lambda: _complete(400, 0.1, 3),
         "clock-60": _clock}
CSR = {"complete-3": lambda: _complete(3, 0.5, 1),
       "small-world": lambda: gen_small_world(SmallWorldParams(n=400, epsilon=0.05, p=0.3,
                                                               seed=5))[0]}


@pytest.mark.parametrize("name", [*DENSE, *CSR])
def test_operand_choice(name):
    H = build_sync_matrix({**DENSE, **CSR}[name]())
    if name in DENSE:
        assert H._dense is H._dense  # held from construction
        assert np.array_equal(H._dense, H.entries.toarray())
    else:
        assert H._dense is None


@pytest.mark.parametrize("shift", [0.0, 0.3])
@pytest.mark.parametrize("name", list(DENSE))
def test_products_equal_csr_products(name, shift):
    H = build_sync_matrix(DENSE[name](), diagonal_shift=shift)
    rng = np.random.default_rng(6)
    v = rng.normal(size=H.n) + 1j * rng.normal(size=H.n)
    V = rng.normal(size=(H.n, 5)) + 1j * rng.normal(size=(H.n, 5))
    for got, ref in ((H.matvec(v), H.entries @ v + shift * v),
                     (H.matmat(V), H.entries @ V + shift * V)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", list(DENSE))
def test_top_eigpair_matches_csr_reference(name):
    H = build_sync_matrix(DENSE[name]())
    res = top_eigpair(H, tol=1e-12, seed=1)
    vals, vecs = eigsh(H.entries, k=1, which="LA", tol=1e-14)
    assert res.converged
    assert res.eigval == pytest.approx(vals[0], rel=1e-10)
    assert abs(np.vdot(vecs[:, 0], res.eigvec)) >= 1 - 1e-8


@pytest.mark.parametrize("name", ["complete-60", "complete-400", "clock-60"])
def test_top_k_spectrum_matches_csr_reference(name):
    H = build_sync_matrix(DENSE[name]())
    ref = np.sort(eigs(H.entries, k=9, which="LR", tol=0,
                       return_eigenvectors=False).real)[::-1]
    assert np.max(np.abs(top_k_spectrum(H, 9) - ref)) <= 1e-10 * abs(ref[0])


@pytest.mark.parametrize("name", ["complete-4", "complete-60", "clock-60"])
def test_sdp_matches_csr_run(name, monkeypatch):
    graph = DENSE[name]()
    est, rank = estimate_sdp(graph, SdpOptions(seed=2))
    # the reference runs on a sync matrix of the same entries without a
    # dense operand, so every product goes through the CSR
    csr_only = SyncMatrix(n=graph.n, entries=build_sync_matrix(graph).entries)
    object.__setattr__(csr_only, "_dense", None)
    on_csr = []
    matmat = SyncMatrix.matmat

    def spy(self, V):
        on_csr.append(self is csr_only and self._dense is None)
        return matmat(self, V)

    monkeypatch.setattr(SyncMatrix, "matmat", spy)
    ref, ref_rank = estimate_sdp(graph, SdpOptions(seed=2), H=csr_only)
    assert on_csr and all(on_csr)
    assert rank == ref_rank
    f, f_ref = est.diagnostics["objective"], ref.diagnostics["objective"]
    assert f == pytest.approx(f_ref, rel=1e-12)
    assert abs(np.vdot(ref.eigvec, est.eigvec)) >= 1 - 1e-8


def _shuffled(graph):
    perm = np.random.default_rng(4).permutation(graph.m)
    return OffsetGraph(n=graph.n, i=graph.i[perm], j=graph.j[perm], delta=graph.delta[perm])


@pytest.mark.parametrize("route", ["complete", "shuffled"])
def test_shifted_eig_shares_the_operand(route, monkeypatch):
    graph = _complete(400, 0.1, 7)
    if route == "shuffled":  # one edge short of complete: the general build
        graph = _shuffled(OffsetGraph(n=graph.n, i=graph.i[1:], j=graph.j[1:],
                                      delta=graph.delta[1:]))
    opts = EigOptions(diagonal_shift=1.0, seed=3)
    # the reference wraps the entries in a shifted matrix of its own, which
    # copies them into a fresh operand
    ref_H = SyncMatrix(n=graph.n, entries=build_sync_matrix(graph).entries,
                       diagonal_shift=1.0)
    ref = top_eigpair(ref_H, tol=opts.tol, max_iters=opts.max_iters, seed=opts.seed)
    ref_theta, ref_flagged = round_to_angles(ref.eigvec)

    copies = []
    toarray = sp.csr_matrix.toarray

    def spy(self, *args, **kwargs):
        copies.append(self.shape)
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "toarray", spy)
    H = build_sync_matrix(graph)
    est = estimate_eig(graph, opts, H=H)
    estimate_eig(graph, EigOptions(seed=3), H=H)
    # the complete route lays its operand out at the build; the general one
    # copies its CSR once, at construction, for both runs
    assert copies == ([] if route == "complete" else [(400, 400)])
    assert est.theta_hat.tobytes() == ref_theta.tobytes()
    assert est.eigvec.tobytes() == ref.eigvec.tobytes()
    assert (est.top_eigval, est.iterations, est.residual) == (ref.eigval, ref.iterations,
                                                              ref.residual)
    diagnostics = dict(est.diagnostics)
    del diagnostics["wall_ms"]
    assert diagnostics == {"converged": ref.converged, "diagonal_shift": 1.0,
                           "flagged": ref_flagged.tolist()}


def test_sweep_bytes_independent_of_blas_threads(tmp_path):
    """A deterministic sweep on a dense graph writes the same bytes with one
    and with two BLAS threads (two subprocesses, at most two threads each)."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else [])))
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = threads
        out = tmp_path / f"sweep-{threads}.csv"
        subprocess.run([sys.executable, "-m", "angsync.cli", "sweep", "--model", "complete",
                        "--n", "60", "--p", "0.4,0.2", "--trials", "2", "--seed", "3",
                        "--method", "eig,lsqr,sdp", "--deterministic", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append((out.read_bytes(), out.with_name(out.stem + ".agg.csv").read_bytes()))
    assert outputs[0] == outputs[1]
