"""Smoke runs of the reproduction scripts at their smallest settings.

Each script runs in a subprocess with `src` on its import path, writes into
a temporary directory, and must exit 0 and print its header.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args, headers", [
    ("reproduce_complete_tables.py", ["--n", "100", "--trials", "1"],
     ["complete model, n=100, 1 trials per p", "pred_rho2"]),
    ("reproduce_small_world_tables.py", ["--trials", "1"],
     ["small-world grid: n=100", "small-world grid: n=400",
      "method comparison: n=200", "lsqr     eig     sdp  rank"]),
], ids=["complete", "small-world"])
def test_table_script_runs(tmp_path, name, args, headers):
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for header in headers:
        assert header in proc.stdout, header


def test_spectra_script_writes_csvs(tmp_path):
    proc = run_script("reproduce_spectra.py", ["--n-complete", "100", "--n-small-world",
                                               "100", "--bins", "5", "--outdir", "out"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "complete_n100_p0.1.csv: lambda1=" in proc.stdout
    assert "small_world_n100_p1.0.csv: top9 clusters" in proc.stdout
    assert len(list((tmp_path / "out").iterdir())) == 7  # 3 histograms, 4 top-25 lists
    histogram = (tmp_path / "out" / "complete_n100_p0.1.csv").read_text().splitlines()
    assert histogram[0] == "bin_center,count" and len(histogram) == 6
