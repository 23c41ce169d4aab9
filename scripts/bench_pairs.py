#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

    python scripts/bench_pairs.py --workload small-world-dense-spectrum \\
        --seeds 701-710 --label small_world_rewire

Exports the base revision (default HEAD) with `git archive` into a temporary
directory, then runs `perfbench/run.py --trace 0` for the `run_seconds` of
BENCHMARK.json once in that tree and once in the working tree for every seed,
alternating which side goes first.  Each tree imports its own `./src`, so
no code is shared between the two sides.
`--traced-seed N` adds one traced run per side and keeps its printed report,
per-layer self-time table included.

Writes `BENCH_<label>.json`: for each pair the gated end-to-end metrics of
BENCHMARK.json, each run's correctness and the digests it printed (its first
round's instances and outputs, so a record shows whether both sides computed
the same thing), whether the two sides printed the same digests and, if not,
which of the first round's digests differ; the number of pairs with the
same digests; per metric the median and quartiles of each side,
the number of pairs the working tree won and its `verdict` (see `verdict`,
which also prints); and the environment (CPU count,
Python, numpy and scipy versions, both revisions, and the paths where the
working tree differs from its HEAD).
After the change is committed, pass `--base HEAD~1`.  Exits 1 when any run
reported a failed check, and 2, with one line on stderr and nothing run,
when `--seeds`, `--tmpdir` or `--base` is bad.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workloads() -> tuple[str, ...]:
    """The workload names perfbench/run.py accepts."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`; its last stdout line is a JSON record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: no result from {' '.join(cmd)} in {tree}:\n"
                         f"{proc.stderr}")
    record = json.loads(lines[-1])
    digests = [json.loads(line[len("digests "):]) for line in lines
               if line.startswith("digests ")]
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: m["value"] for name, m in record["metrics"].items()},
              "digests": digests[0] if digests else None}
    if trace:
        result["report"] = lines[:-1]  # includes the per-layer self-time table
    return result


def same_digests(base: dict, change: dict) -> bool:
    """Whether both runs of a pair printed digests, and the same ones."""
    return base["digests"] is not None and base["digests"] == change["digests"]


def differing_digests(base: dict, change: dict) -> list[str] | None:
    """The sorted keys under ``round0`` whose digests differ between the two
    runs of a pair (a key that one side lacks differs); None when either run
    printed no digests."""
    if base["digests"] is None or change["digests"] is None:
        return None
    a, b = base["digests"]["round0"], change["digests"]["round0"]
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, gated):
    out = {}
    for name, better in gated.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        won = sum((c > b) if better == "higher" else (c < b)
                  for b, c in zip(base, change))
        out[name] = {"better": better, "base": quartiles(base),
                     "change": quartiles(change), "pairs_won": won,
                     "pairs": len(pairs)}
        if out[name]["base"]["median"]:
            out[name]["median_ratio"] = (out[name]["change"]["median"]
                                         / out[name]["base"]["median"])
    return out


def verdict(summary: dict, bound: float) -> str:
    """One metric's verdict from its `summarize` entry and its BENCHMARK.json
    bound (the share of the base median by which it may worsen):

    - "gain": the change won at least nine tenths of the pairs, and its median
      is better than the base's by more than the base's interquartile range;
    - "worse": its median is worse than the base's by more than the bound;
    - "unresolved": the base's interquartile range is wider than the bound,
      so the runs spread too widely to tell;
    - "held": otherwise.
    """
    base, change = summary["base"], summary["change"]
    better = change["median"] - base["median"]
    if summary["better"] == "lower":
        better = -better
    spread = base["q3"] - base["q1"]
    allowed = bound * abs(base["median"])
    if 10 * summary["pairs_won"] >= 9 * summary["pairs"] and better > spread:
        return "gain"
    if -better > allowed:
        return "worse"
    if spread > allowed:
        return "unresolved"
    return "held"


def parse_seeds(text: str) -> list[int]:
    """The seeds of the inclusive range FIRST-LAST; ValueError if it is not one
    of at least two seeds."""
    first, _, last = text.partition("-")
    try:
        first, last = int(first), int(last or first)
    except ValueError:
        raise ValueError(f"seed range {text} is not FIRST-LAST") from None
    if last < first:
        raise ValueError(f"seed range {text} runs backwards")
    seeds = list(range(first, last + 1))
    if len(seeds) < 2:
        raise ValueError("need at least two seeds for quartiles")
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads())
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 701-710")
    ap.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--traced-seed", type=int, default=None,
                    help="also run one traced run per side at this seed")
    ap.add_argument("--tmpdir", default=None,
                    help="where to export the base revision (default: system temp)")
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    if args.tmpdir is not None and not Path(args.tmpdir).is_dir():
        print(f"bench_pairs: --tmpdir {args.tmpdir} is not a directory", file=sys.stderr)
        return 2

    try:
        base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"bench_pairs: --base {args.base} is not a revision", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_", dir=args.tmpdir))
    try:
        export_revision(base_rev, tmp)
        trees = {"base": tmp, "change": ROOT}
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], args.workload, seed, seconds, 0)
            pair["same_digests"] = same_digests(pair["base"], pair["change"])
            pair["differing_digests"] = differing_digests(pair["base"], pair["change"])
            pairs.append(pair)
            print(f"seed {seed}: " + "  ".join(
                f"{side} {pair[side]['metrics']}" for side in ("base", "change")),
                flush=True)
        traced = None
        if args.traced_seed is not None:
            traced = {side: run_bench(tree, args.workload, args.traced_seed,
                                      seconds, 1)
                      for side, tree in trees.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(pairs, gated)
    for name, s in summary.items():
        s["verdict"] = verdict(s, bounds[name])
    record = {
        "workload": args.workload,
        "seconds": seconds,
        "summary": summary,
        "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                           for p in pairs for s in ("base", "change")),
        "same_digests_pairs": sum(p["same_digests"] for p in pairs),
        "pairs": pairs,
        "traced": traced,
        "env": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "base_revision": base_rev,
            "change_revision": git("rev-parse", "HEAD"),
            # paths where the working tree differs from change_revision
            "change_uncommitted": git("status", "--porcelain").splitlines(),
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in record["summary"].items():
        print(f"{name}: base {s['base']['median']:.4g} "
              f"({s['base']['q1']:.4g}-{s['base']['q3']:.4g}) -> change "
              f"{s['change']['median']:.4g} ({s['change']['q1']:.4g}-"
              f"{s['change']['q3']:.4g}), {s['pairs_won']}/{s['pairs']} pairs won, "
              f"{s['verdict']}")
    print(f"same digests on {record['same_digests_pairs']}/{len(pairs)} pairs")
    print(f"wrote {out}")
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
