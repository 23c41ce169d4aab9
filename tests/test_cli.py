import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from angsync import baselines, cli, eig, generators
from angsync.cli import derive_seed, main
from angsync.core import (
    InvalidInputError,
    OffsetGraph,
    ZeroMatrixError,
    read_instance,
    write_instance,
)


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(args):
    return main(args)


def _load_bench():
    """perfbench/bench.py, for its BLAS thread probe (it imports its sibling
    probe.py, so perfbench/ must be on sys.path)."""
    spec = importlib.util.spec_from_file_location("perfbench_bench", _PERFBENCH / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _worker_blas_threads(_):
    """The BLAS thread counts a pool worker reports."""
    sys.path.insert(0, str(_PERFBENCH))
    return _load_bench().blas_threads()


class TestGenerate:
    def test_complete_instance_and_sidecar(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert run(["generate", "--model", "complete", "--n", "5", "--p", "1",
                    "--seed", "0", "--out", str(out)]) == 0
        graph, mask = read_instance(out)
        assert graph.n == 5 and graph.m == 10
        assert mask.all()
        meta = json.loads((tmp_path / "inst.txt.meta.json").read_text())
        assert meta["m_good"] == 10 and meta["m_bad"] == 0
        assert meta["connected"] is True
        assert len(meta["theta"]) == 5
        # schema 2: the good mask lives only in the instance file
        assert meta["schema_version"] == 2
        assert "good_mask" not in meta

    def test_schema_1_sidecar_gives_same_correlation_line(self, tmp_path, capsys):
        # an instance file without flags, next to a sidecar that lists the mask:
        # the scores come from the sidecar's angles alone
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "30", "--p", "0.5",
             "--seed", "6", "--out", str(out)])
        run(["solve", str(out)])
        expected = capsys.readouterr().out.splitlines()[-1]
        graph, mask = read_instance(out)
        write_instance(out, graph)
        meta_path = tmp_path / "inst.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["schema_version"]
        meta["good_mask"] = mask.astype(int).tolist()
        meta_path.write_text(json.dumps(meta))
        assert run(["solve", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == expected

    def test_small_world_edge_count(self, tmp_path):
        out = tmp_path / "sw.txt"
        assert run(["generate", "--model", "small-world", "--n", "100",
                    "--epsilon", "0.3", "--p", "1", "--seed", "1",
                    "--out", str(out)]) == 0
        graph, _ = read_instance(out)
        assert abs(graph.m - 750) <= 0.15 * 750

    def test_clock_sidecar_has_times(self, tmp_path):
        out = tmp_path / "clk.txt"
        assert run(["generate", "--model", "clock", "--n", "20",
                    "--omega", "2.0", "--seed", "3", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "clk.txt.meta.json").read_text())
        assert len(meta["times"]) == 20

    def test_clock_noiseless_solves_to_one(self, tmp_path, capsys):
        out = tmp_path / "clk.txt"
        run(["generate", "--model", "clock", "--n", "30", "--omega", "1.5",
             "--seed", "2", "--out", str(out)])
        assert run(["solve", str(out), "--method", "eig"]) == 0
        assert "rho1=1.0000" in capsys.readouterr().out

    def test_clock_outlier_fraction_defaults_to_one_minus_p(self, tmp_path):
        out = tmp_path / "clk.txt"
        assert run(["generate", "--model", "clock", "--n", "30", "--p", "0.2",
                    "--seed", "1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "clk.txt.meta.json").read_text())
        assert meta["params"]["outlier_fraction"] == 0.8
        assert meta["m_bad"] > 0
        # an explicit --outlier-fraction wins over --p
        assert run(["generate", "--model", "clock", "--n", "30", "--p", "0.2",
                    "--outlier-fraction", "0.1", "--seed", "1", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "clk.txt.meta.json").read_text())
        assert meta["params"]["outlier_fraction"] == 0.1

    def test_clock_defaults_shared_with_spectrum(self):
        # `spectrum --model clock` has no clock flags and takes generate's defaults
        common = ["--model", "clock", "--n", "30", "--p", "0.2", "--seed", "1"]
        parser = cli.build_parser()
        gen = parser.parse_args(["generate", *common, "--out", "x"])
        spc = parser.parse_args(["spectrum", *common])
        assert cli._model_params(gen, 0.2, 1) == cli._model_params(spc, 0.2, 1) \
            == generators.ClockModelParams(n=30, edge_probability=1.0, sigma_good=0.0,
                                           outlier_fraction=0.8, outlier_scale=0.0,
                                           omega=1.0, seed=1)

    def test_rejects_bad_probability(self, tmp_path, capsys):
        code = run(["generate", "--model", "complete", "--n", "5", "--p", "1.5",
                    "--seed", "0", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "p must lie" in capsys.readouterr().err


class TestSolve:
    def test_all_good_reports_perfect_rho(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        for method in ("eig", "sdp", "lsqr"):
            assert run(["solve", str(out), "--method", method]) == 0
            text = capsys.readouterr().out
            assert "rho1=1.0000" in text

    def test_missing_file_exits_2(self, capsys):
        assert run(["solve", "nope.txt"]) == 2
        assert "no such instance" in capsys.readouterr().err

    def test_without_sidecar_no_correlations(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        (tmp_path / "inst.txt.meta.json").unlink()
        assert run(["solve", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rho1" not in text
        assert "lambda1" in text

    def test_sidecar_without_theta_no_correlations(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        meta_path = tmp_path / "inst.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["theta"]
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert run(["solve", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rho1" not in text
        assert "lambda1" in text

    def test_strict_nonconvergence_exits_3(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "40", "--p", "0.5",
             "--seed", "4", "--out", str(out)])
        code = run(["solve", str(out), "--method", "eig", "--tol", "1e-14",
                    "--max-iters", "2", "--strict"])
        assert code == 3

    @pytest.mark.parametrize("flag, value", [("--tol", "1e-6"),
                                             ("--max-iters", "50")])
    def test_sdp_rejects_eig_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert run(["solve", str(out), "--method", "sdp", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("method", ["lsqr", "sdp"])
    def test_shift_rejected_outside_eig(self, tmp_path, capsys, method):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert run(["solve", str(out), "--method", method, "--shift", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--shift" in err

    def test_eig_accepts_shift(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        assert run(["solve", str(out), "--method", "eig", "--shift", "5"]) == 0
        assert "rho1=1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--shift", "nan"), ("--shift", "inf"),
    ])
    def test_eig_rejects_non_finite_options(self, tmp_path, capsys, flag, value):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert run(["solve", str(out), "--method", "eig", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "converged" not in captured.out

    @pytest.mark.parametrize("method", ["eig", "lsqr"])
    @pytest.mark.parametrize("flag, value", [("--tol", "1e-6"),
                                             ("--max-iters", "50")])
    def test_eig_and_lsqr_accept_flags(self, tmp_path, capsys, method, flag, value):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        assert run(["solve", str(out), "--method", method, flag, value]) == 0
        assert "rho1=1.0000" in capsys.readouterr().out

    def test_max_iters_reaches_lsqr(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "40", "--p", "0.5",
             "--seed", "4", "--out", str(out)])
        assert run(["solve", str(out), "--method", "lsqr", "--tol", "1e-14",
                    "--max-iters", "1"]) == 0
        assert "iterations=1 " in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "0", "tol must be finite and > 0"),
        ("--tol", "-1", "tol must be finite and > 0"),
        ("--tol", "nan", "tol must be finite and > 0"),
        ("--tol", "inf", "tol must be finite and > 0"),
        ("--max-iters", "0", "max_iters must be >= 1"),
    ], ids=["tol-0", "tol-negative", "tol-nan", "tol-inf", "max-iters-0"])
    def test_lsqr_rejects_bad_options(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert run(["solve", str(out), "--method", "lsqr", flag, value, "--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "converged" not in captured.out


class TestSeedRule:
    """Every seed that reaches a SeedSequence follows the generator's rule."""

    @pytest.mark.parametrize("method", ["eig", "sdp"])
    def test_solve_bad_seed_exits_2(self, tmp_path, capsys, method):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert run(["solve", str(out), "--method", method, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a nonnegative 64-bit integer\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["-1", "0", "3"])
    def test_solve_lsqr_rejects_seed(self, tmp_path, capsys, seed):
        # lsqr draws nothing, so a seed given to it is an error, not dropped
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert run(["solve", str(out), "--method", "lsqr", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed not supported by --method lsqr\n"
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["eig", "sdp"])
    def test_solve_seed_reaches_method(self, tmp_path, capsys, monkeypatch, method):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        seeds = []
        solve = baselines.solve

        def recording(graph, method, opts=None, *, H=None):
            seeds.append(opts.seed)
            return solve(graph, method, opts, H=H)

        monkeypatch.setattr(baselines, "solve", recording)
        for given in ([], ["--seed", "0"], ["--seed", "7"]):
            assert run(["solve", str(out), "--method", method, *given]) == 0
        assert seeds == [0, 0, 7]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_library_seeds_checked(self, seed):
        graph, _ = generators.gen_complete(generators.CompleteModelParams(n=8, p=1.0, seed=2))
        calls = [
            lambda: eig.top_eigpair(eig.build_sync_matrix(graph), seed=seed),
            lambda: baselines.estimate_sdp(graph, baselines.SdpOptions(seed=seed)),
            lambda: eig.triangle_consistency_score(graph, 10, seed=seed),
            lambda: derive_seed(seed, 0, 0),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="seed must be a nonnegative"):
                call()


def timed_123(monkeypatch, module, name):
    """Make `module.name` return estimates whose own timer reads 123 ms (for
    `estimate_sdp`, the estimate of its (estimate, rank) pair)."""
    estimate = getattr(module, name)

    def stamp(est):
        return dataclasses.replace(est, diagnostics={**est.diagnostics, "wall_ms": 123.0})

    def stamped(*args, **kwargs):
        est = estimate(*args, **kwargs)
        return (stamp(est[0]), *est[1:]) if isinstance(est, tuple) else stamp(est)

    monkeypatch.setattr(module, name, stamped)


class TestWallMs:
    """solve and sweep print the estimate's own `wall_ms`, not a second timer."""

    def test_solve_prints_estimate_wall_ms(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        timed_123(monkeypatch, baselines, "estimate_lsqr")
        capsys.readouterr()
        assert run(["solve", str(out), "--method", "lsqr"]) == 0
        assert " wall_ms=123.0 " in capsys.readouterr().out

    def test_sweep_row_carries_estimate_wall_ms(self, tmp_path, monkeypatch):
        timed_123(monkeypatch, eig, "estimate_eig")
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--n", "10", "--p", "0.9", "--trials", "1",
                    "--method", "eig,lsqr", "--out", str(out)]) == 0
        rows = {row["method"]: row for row in read_csv(out)}
        assert float(rows["eig"]["wall_ms"]) == 123.0
        assert float(rows["lsqr"]["wall_ms"]) != 123.0

    @pytest.mark.parametrize("method, module, name", [
        ("eig", eig, "estimate_eig"),
        ("lsqr", baselines, "estimate_lsqr"),
        ("sdp", baselines, "estimate_sdp"),
    ])
    def test_dispatch_reaches_estimator_through_its_module(self, tmp_path, capsys, monkeypatch,
                                                           method, module, name):
        # `solve` looks each estimator up at call time, so a patched (or traced)
        # module attribute is what runs, under solve and sweep alike
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "8", "--p", "1",
             "--seed", "2", "--out", str(out)])
        timed_123(monkeypatch, module, name)
        capsys.readouterr()
        assert run(["solve", str(out), "--method", method]) == 0
        assert " wall_ms=123.0 " in capsys.readouterr().out
        sweep = tmp_path / "sw.csv"
        assert run(["sweep", "--n", "10", "--p", "0.9", "--trials", "1",
                    "--method", "eig,sdp,lsqr", "--out", str(sweep)]) == 0
        stamped = [row["method"] for row in read_csv(sweep) if float(row["wall_ms"]) == 123.0]
        assert stamped == [method]


def _objective_graphs():
    complete = generators.gen_complete(generators.CompleteModelParams(n=60, p=0.3, seed=5))[0]
    small_world = generators.gen_small_world(
        generators.SmallWorldParams(n=200, epsilon=0.3, p=0.5, seed=5))[0]
    clock = generators.gen_clock(generators.ClockModelParams(
        n=80, edge_probability=0.5, sigma_good=0.01, outlier_fraction=0.3,
        outlier_scale=5.0, omega=1.0, seed=5))[0]
    edgeless = OffsetGraph(n=5, i=[], j=[], delta=[])
    return {"complete": (complete, True), "small-world": (small_world, False),
            "clock": (clock, False), "edgeless": (edgeless, False)}


class TestObjective:
    """solve and sweep take the objective as Re<z, Hz> on the H they built,
    which agrees with the per-edge cosine sum `sdp_objective` but for the
    last bits."""

    @pytest.mark.parametrize("kind", ["complete", "small-world", "clock", "edgeless"])
    def test_agrees_with_sdp_objective(self, kind):
        graph, dense = _objective_graphs()[kind]
        H = eig.build_sync_matrix(graph)
        assert (H._dense is not None) == dense  # both operands are covered
        rng = np.random.default_rng(3)
        for theta in (np.zeros(graph.n), rng.uniform(0.0, 2 * np.pi, graph.n)):
            f = baselines.sdp_objective(graph, theta)
            got = cli._objective(H, theta)
            if graph.m == 0:
                assert got == f == 0.0
            else:
                assert abs(got - f) <= 1e-13 * max(1.0, abs(f)), kind

    @pytest.mark.parametrize("method, extra", [("eig", []), ("eig", ["--shift", "2"]),
                                               ("lsqr", []), ("sdp", [])],
                             ids=["eig", "eig-shift", "lsqr", "sdp"])
    def test_solve_prints_sdp_objective(self, tmp_path, capsys, monkeypatch, method, extra):
        # taken on the unshifted H, so a shift moves the estimate only
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "30", "--p", "0.5",
             "--seed", "3", "--out", str(out)])
        estimates = []
        solve = baselines.solve

        def recording(*args, **kwargs):
            estimates.append(solve(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(baselines, "solve", recording)
        capsys.readouterr()
        assert run(["solve", str(out), "--method", method, *extra]) == 0
        graph = read_instance(out)[0]
        objective = baselines.sdp_objective(graph, estimates[0].theta_hat)
        assert f" objective={objective:.6f} " in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["eig", "lsqr", "sdp"])
    def test_solve_drops_h_before_evaluate(self, tmp_path, monkeypatch, method):
        # H held through `evaluate` would raise the process's peak memory
        out = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "60", "--p", "0.5",
             "--seed", "3", "--out", str(out)])
        refs, alive = [], []
        build, evaluate = eig.build_sync_matrix, cli.evaluate

        def tracked(*args, **kwargs):
            H = build(*args, **kwargs)
            refs.append(weakref.ref(H))
            return H

        def checked(*args, **kwargs):
            alive.extend(ref() is not None for ref in refs)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(eig, "build_sync_matrix", tracked)
        monkeypatch.setattr(cli, "evaluate", checked)
        assert run(["solve", str(out), "--method", method]) == 0
        assert refs and alive == [False] * len(refs)


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestSweep:
    def test_single_cell_single_row(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--model", "complete", "--n", "20", "--p", "0.9",
                    "--trials", "1", "--seed", "5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "eig"
        assert float(rows[0]["rho1"]) > 0.9

    def test_small_world_rows_and_predictions(self, tmp_path):
        # np2 and the threshold use the instance's edge count; the complete
        # graph's rho2 and lambda1 predictors have no small-world value
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--model", "small-world", "--n", "60", "--epsilon", "0.4",
                    "--p", "1.0,0.5", "--trials", "2", "--seed", "3",
                    "--method", "eig,lsqr", "--deterministic", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 8  # 2 p values x 2 trials x 2 methods
        for row in rows:
            n, p, seed = int(row["n"]), float(row["p"]), int(row["seed"])
            graph, _ = generators.gen_small_world(
                generators.SmallWorldParams(n=n, epsilon=0.4, p=p, seed=seed))
            m = graph.m
            assert row["model"] == "small-world" and int(row["m"]) == m
            assert float(row["np2"]) == 2.0 * m * p * p / n
            assert float(row["pred_p_threshold"]) == float(np.sqrt(n / (2.0 * m)))
            assert row["pred_rho2"] == row["pred_lambda1_mu"] == ""
            if p == 1.0:
                assert float(row["rho1"]) > 0.999
        assert len(read_csv(tmp_path / "sw.agg.csv")) == 4

    def test_edgeless_small_world_leaves_threshold_empty(self, tmp_path):
        # n=5 at epsilon=0.01 draws no edge: sqrt(n / 2m) has no value
        out = tmp_path / "x.csv"
        assert run(["sweep", "--model", "small-world", "--n", "5", "--epsilon", "0.01",
                    "--p", "0.5", "--trials", "1", "--method", "lsqr",
                    "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert int(row["m"]) == 0 and float(row["np2"]) == 0.0
        assert row["pred_p_threshold"] == row["pred_rho2"] == row["pred_lambda1_mu"] == ""

    def test_edgeless_instance_leaves_eig_row_empty(self, tmp_path, capsys):
        # the sync matrix of a graph without edges is zero, so eig raises
        # ZeroMatrixError: its row keeps the instance and predictor columns,
        # its solver cells stay empty, one stderr line names it, and every
        # other row is written, in the same bytes by one worker or two
        args = ["sweep", "--model", "small-world", "--n", "5", "--epsilon", "0.01",
                "--p", "0.5", "--trials", "2", "--method", "eig,lsqr,sdp",
                "--deterministic"]
        out = {}
        for workers in ("1", "2"):
            out[workers] = tmp_path / f"w{workers}.csv"
            assert run(args + ["--workers", workers, "--out", str(out[workers])]) == 0
            err = capsys.readouterr().err.splitlines()
            seeds = [derive_seed(0, 0, trial) for trial in range(2)]
            assert err == [f"skipped eig at p=0.5, seed={seed}: sync matrix has no nonzero "
                           f"entries" for seed in seeds]
        assert out["1"].read_bytes() == out["2"].read_bytes()
        assert ((tmp_path / "w1.agg.csv").read_bytes()
                == (tmp_path / "w2.agg.csv").read_bytes())
        rows = read_csv(out["1"])
        assert [r["method"] for r in rows] == ["eig", "lsqr", "sdp"] * 2
        solver = ["rho1", "rho2", "lambda1", "objective", "iterations", "wall_ms"]
        for row in rows:
            assert int(row["m"]) == 0 and float(row["np2"]) == 0.0
            assert all((row[c] == "") is (row["method"] == "eig") for c in solver)
        aggs = {a["method"]: a for a in read_csv(tmp_path / "w1.agg.csv")}
        assert int(aggs["eig"]["trials"]) == 0
        assert all(v == "" for k, v in aggs["eig"].items() if k.endswith(("_mean", "_std")))
        for method in ("lsqr", "sdp"):
            sel = [float(r["rho1"]) for r in rows if r["method"] == method]
            assert int(aggs[method]["trials"]) == 2
            assert float(aggs[method]["rho1_mean"]) == np.mean(sel)

    def test_aggregate_leaves_out_skipped_rows(self, tmp_path, capsys, monkeypatch):
        # a skipped instance among solved ones: the aggregate averages the
        # rows with values and counts only them as trials
        solve = baselines.solve
        first = []

        def sometimes_zero(graph, method, opts, H=None):
            if not first:
                first.append(graph)
                raise ZeroMatrixError("sync matrix has no nonzero entries")
            return solve(graph, method, opts, H=H)

        monkeypatch.setattr(baselines, "solve", sometimes_zero)
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--model", "complete", "--n", "20", "--p", "0.9",
                    "--trials", "3", "--seed", "1", "--out", str(out)]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 1
        rows = read_csv(out)
        assert [r["rho1"] == "" for r in rows] == [True, False, False]
        (agg,) = read_csv(tmp_path / "sw.agg.csv")
        sel = np.array([float(r["rho1"]) for r in rows[1:]])
        assert int(agg["trials"]) == 2
        assert float(agg["rho1_mean"]) == sel.mean() and float(agg["rho1_std"]) == sel.std()

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        code = run(["sweep", "--model", "complete", "--n", "10", "--p", ",",
                    "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_deterministic_reruns_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--model", "complete", "--n", "25", "--p", "0.8,0.4",
                "--trials", "2", "--seed", "9", "--deterministic"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()

    def test_aggregate_means_match_rows(self, tmp_path):
        out = tmp_path / "sw.csv"
        run(["sweep", "--model", "complete", "--n", "20", "--p", "0.9,0.5",
             "--trials", "3", "--seed", "1", "--method", "eig,lsqr",
             "--out", str(out)])
        rows = read_csv(out)
        aggs = read_csv(tmp_path / "sw.agg.csv")
        assert len(aggs) == 4  # 2 p values x 2 methods
        for agg in aggs:
            sel = [float(r["rho1"]) for r in rows
                   if r["p"] == agg["p"] and r["method"] == agg["method"]]
            assert len(sel) == int(agg["trials"]) == 3
            assert np.mean(sel) == pytest.approx(float(agg["rho1_mean"]), rel=1e-15)

    @pytest.mark.parametrize("methods, flags", [
        ("sdp", ["--tol", "1e-3", "--max-iters", "1"]),
        ("sdp", ["--tol", "1e-3"]),
        ("eig,sdp", ["--max-iters", "1"]),
    ])
    def test_sdp_in_method_list_rejects_flags(self, tmp_path, capsys, methods, flags):
        out = tmp_path / "sw.csv"
        code = run(["sweep", "--model", "complete", "--n", "10", "--p", "0.9",
                    "--trials", "1", "--method", methods, *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("methods, message", [
        ("eig,eig", "repeated method 'eig'"), ("eig,foo", "unknown method 'foo'"),
    ])
    def test_bad_method_list_rejected_before_generating(self, tmp_path, capsys,
                                                        monkeypatch, methods, message):
        def generate(*args):
            raise AssertionError("generated an instance for a bad method list")

        monkeypatch.setattr(cli, "_generate", generate)
        out = tmp_path / "sw.csv"
        code = run(["sweep", "--model", "complete", "--n", "10", "--p", "0.9",
                    "--trials", "1", "--method", methods, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "sw.agg.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--tol", "nan"], "tol must be finite and > 0"),
        (["--tol", "inf"], "tol must be finite and > 0"),
        (["--tol", "0"], "tol must be finite and > 0"),
        (["--max-iters", "0"], "max_iters must be >= 1"),
        (["--workers", "0"], "need workers >= 1"),
        (["--workers", "-2"], "need workers >= 1"),
    ], ids=["tol-nan", "tol-inf", "tol-0", "max-iters-0", "workers-0", "workers-neg"])
    def test_bad_options_rejected_before_generating(self, tmp_path, capsys, monkeypatch,
                                                    flags, message):
        calls = []
        gen_complete = generators.gen_complete

        def counted(params):
            calls.append(params)
            return gen_complete(params)

        monkeypatch.setattr(generators, "gen_complete", counted)
        out = tmp_path / "sw.csv"
        code = run(["sweep", "--model", "complete", "--n", "10", "--p", "0.9,0.5",
                    "--trials", "3", "--method", "eig,lsqr", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and message in err
        assert calls == []
        assert not out.exists() and not (tmp_path / "sw.agg.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed must be a nonnegative 64-bit integer"),
        (["--p", "0.5,1.5"], "p must lie in [0, 1], got 1.5"),
        (["--model", "small-world", "--epsilon", "3"], "epsilon must lie in (0, 2)"),
        (["--n", "1"], "need n >= 2, got 1"),
    ], ids=["seed-neg", "late-p", "epsilon", "n-1"])
    def test_bad_grid_rejected_before_generating(self, tmp_path, capsys, monkeypatch,
                                                 flags, message):
        calls = []
        for name in ("gen_complete", "gen_small_world"):
            def counted(params, generate=getattr(generators, name)):
                calls.append(params)
                return generate(params)

            monkeypatch.setattr(generators, name, counted)
        out = tmp_path / "sw.csv"
        code = run(["sweep", "--n", "300", "--p", "0.5", "--trials", "10",
                    "--method", "eig,lsqr", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"
        assert calls == []
        assert not out.exists() and not (tmp_path / "sw.agg.csv").exists()

    def test_pinned_deterministic_digest(self, tmp_path):
        # SHA-256 of the CSV; a pass that moves a bit changes it.  Re-pinned
        # when lsqr came to apply D - H through H's own product instead of a
        # Laplacian CSR: its sums run in another order, so the last digits of
        # the four lsqr rows moved, while the eig rows and every `iterations`
        # cell kept their bytes.  Re-pinned again when the objective column
        # came to be Re<z, Hz> on the instance's H instead of a cosine sum
        # over the edges: the same terms summed in another order, so the last
        # digits of 6 of the 8 `objective` cells moved, while every other
        # cell and the aggregate file kept their bytes.  Re-pinned again when
        # eig came to run ARPACK's symmetric Lanczos driver on H's real form
        # instead of its complex Arnoldi driver: the same eigenvector up to
        # rounding, so the last digits of eig cells moved (rho1, rho2 and
        # lambda1 in 3 of the 4 eig rows, objective in 1; largest relative
        # change 5.8e-16), while every lsqr row and every `iterations` cell
        # kept their bytes
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--model", "complete", "--n", "60", "--p", "0.4,0.2",
                    "--method", "eig,lsqr", "--trials", "2", "--deterministic",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5cda114d0bac82394ba1d3b217dd4fe62f14ef114d6542193dd310e50d857867")

    def test_default_tol_and_budget_resolve_as_before(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--model", "complete", "--n", "25", "--p", "0.8,0.3",
                "--trials", "2", "--seed", "4", "--method", "eig,lsqr",
                "--deterministic"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--tol", "1e-8", "--max-iters", "2000", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sync_matrix_built_once_per_instance(self, tmp_path, monkeypatch):
        built = []
        build = eig.build_sync_matrix

        def counted(graph, *args, **kwargs):
            built.append(graph)
            return build(graph, *args, **kwargs)

        monkeypatch.setattr(eig, "build_sync_matrix", counted)
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--model", "complete", "--n", "12", "--p", "0.9,0.6",
                    "--trials", "2", "--method", "eig,lsqr,sdp", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 12  # 4 instances x 3 methods
        assert len({id(graph) for graph in built}) == len(built) == 4

    def test_seed_derivation_pure_function(self):
        assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)
        assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)
        assert derive_seed(7, 1, 0) != derive_seed(8, 1, 0)

    def test_schema_version_header(self, tmp_path):
        out = tmp_path / "sw.csv"
        run(["sweep", "--model", "complete", "--n", "15", "--p", "1.0",
             "--trials", "1", "--out", str(out)])
        first = out.read_text().splitlines()[0]
        assert first == "# schema_version=1"

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        # perfbench's ctypes probe reads each loaded OpenBLAS's thread count;
        # the workers report 1 while this process, its threads and its
        # environment stay as they were
        monkeypatch.syspath_prepend(str(_PERFBENCH))
        probe = _load_bench()
        before, env = probe.blas_threads(), dict(os.environ)
        counts = cli._pool_map(_worker_blas_threads, [0, 1], workers=2)
        assert counts and all(c is not None and set(c) == {1} for c in counts)
        assert probe.blas_threads() == before and dict(os.environ) == env

    def test_worker_pool_matches_sequential(self, tmp_path):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w2.csv"
        args = ["sweep", "--model", "complete", "--n", "25", "--p", "0.8,0.4",
                "--trials", "2", "--seed", "3", "--deterministic"]
        assert run(args + ["--workers", "1", "--out", str(a)]) == 0
        assert run(args + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSpectrum:
    def test_eigenvalue_rows(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "complete", "--n", "12", "--p", "1",
                    "--seed", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 12
        vals = [float(r["eigenvalue"]) for r in rows]
        assert vals[0] == pytest.approx(11.0, abs=1e-8)  # all-good: n-1

    def test_histogram_counts_sum(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert run(["spectrum", "--model", "complete", "--n", "30", "--p", "0.5",
                    "--seed", "3", "--hist", "6", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 6
        assert sum(int(r["count"]) for r in rows) == 30

    def test_instance_input(self, tmp_path):
        inst = tmp_path / "inst.txt"
        run(["generate", "--model", "complete", "--n", "10", "--p", "1",
             "--seed", "0", "--out", str(inst)])
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--in", str(inst), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 10

    @pytest.mark.parametrize("shift", ["nan", "inf"])
    def test_non_finite_shift_exits_2(self, tmp_path, capsys, shift):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--model", "complete", "--n", "12", "--p", "1",
                    "--shift", shift, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: diagonal_shift must be finite\n"
        assert not out.exists()


class TestTheory:
    def test_prints_all_predictions(self, capsys):
        assert run(["theory", "--n", "400", "--L", "4", "--p", "0.1"]) == 0
        text = capsys.readouterr().out
        for name in ("wigner_edge", "lambda1_law", "threshold_ratio",
                     "fano_error_bound"):
            assert name in text

    def test_csv_output_columns(self, tmp_path):
        out = tmp_path / "theory.csv"
        assert run(["theory", "--n", "100", "--L", "2", "--p", "0.2",
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        assert set(rows[0]) == {"name", "value", "aux"}

    def test_bad_L_exits_2(self, capsys):
        assert run(["theory", "--n", "100", "--L", "1", "--p", "0.2"]) == 2
        assert "L must be" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--n", "100", "--p", "nan"], "error: p must lie in [0, 1], got nan\n"),
        (["--n", "100", "--p", "inf"], "error: p must lie in [0, 1], got inf\n"),
        (["--n", "-3", "--p", "0.2"], "error: n must be >= 1\n"),
    ], ids=["p-nan", "p-inf", "n-negative"])
    def test_bad_n_or_p_exits_2(self, capsys, args, message):
        assert run(["theory", "--L", "4", *args]) == 2
        assert capsys.readouterr().err == message


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
