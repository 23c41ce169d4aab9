"""Tests of the benchmark itself, at tiny sizes; run from the checkout root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("complete-sweep", "generate-solve", "small-world-methods",
             "small-world-spectrum", "small-world-dense-spectrum")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), "--seconds", "0.5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result, lines


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc, result, lines = bench("--workload", workload, "--seed", "3", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert {"setup_s", "trials_per_s", "peak_rss_mb", "rho1_mean",
            "unconverged_frac", "failed_frac"} <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc, result, lines = bench("--workload", workload, "--seed", "4", "--size", "tiny",
                                "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert any("tracing overhead" in line for line in lines)
    assert any("largest self-time share" in line for line in lines)


def digests(lines):
    return json.loads(next(line for line in lines if line.startswith("digests "))[8:])


def test_same_seed_gives_identical_digests():
    runs = [bench("--workload", "generate-solve", "--seed", seed, "--size", "tiny")
            for seed in ("7", "7", "8")]
    first, again, other = (digests(lines) for _proc, _result, lines in runs)
    assert first["replay_matches"] and again["replay_matches"]
    assert first["round0"] == again["round0"]
    assert first["round0"]["instance"] != other["round0"]["instance"]


def test_corrupted_round_trip_is_a_failed_trial():
    proc, result, lines = bench("--workload", "generate-solve", "--seed", "5",
                                "--size", "tiny", "--inject", "corrupt-roundtrip")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] == 1
    assert any("read_instance differs" in line for line in lines)
    assert any(line.split()[:1] == ["failed_frac"] and float(line.split()[1]) > 0
               for line in (raw.strip() for raw in lines))


def test_out_of_range_angle_is_a_failed_trial():
    proc, result, lines = bench("--workload", "small-world-methods", "--seed", "5",
                                "--size", "tiny", "--inject", "angle-out-of-range")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] == 1
    assert any("outside [0, 2pi)" in line for line in lines)


def test_fails_without_the_package():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, result, _lines = bench("--workload", "complete-sweep", "--seed", "1",
                                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and result is None
