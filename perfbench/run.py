"""angsync benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload complete-sweep --seed 1 --seconds 25 --trace 0

Runs the workload in fresh single-process interpreters (perfbench/bench.py),
one after another, with every BLAS library held at one thread. Prints a
report, then as the last line one JSON object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. Exits non-zero when a correctness
check fails or the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("complete-sweep", "generate-solve", "small-world-methods",
             "small-world-spectrum", "small-world-dense-spectrum")
# Untraced runs split --seconds over this many fresh worker processes, one
# after another: a process's speed varies by some 10% on a shared machine,
# and the split averages that. Each worker's start-up is a set-up sample.
WORKERS = 4
ROUND_STRIDE = 100_000  # worker w runs rounds w * ROUND_STRIDE, +1, ...
DEADLINE_S = 175.0
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# glibc's initial mmap threshold, fixed: with the default dynamic threshold,
# peak RSS of a multi-round run jumps between two levels depending on how
# earlier rounds' freed arrays were reused.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

# (name, unit) in print order. BENCHMARK.json gates the ones that are never 0
# and whose spread across seeds stays within a bound. Gated times are CPU
# time of the process (the program is single-threaded, BLAS included) in
# reference seconds: for set-up, and for the rounds of the workloads that
# bench.PROBED names, rescaled by a fixed probe timed next to them, so that
# the shared host's changing speed cancels out (see probe.py). The CPU and
# wall-clock figures are printed beside them. rho1_mean is printed only,
# because it varies too much between instances (see NOTES.md).
END_TO_END = [("setup_s", "s"), ("setup_cpu_s", "s"), ("setup_wall_s", "s"),
              ("trials_per_ref_s", "1/s"), ("trials_per_cpu_s", "1/s"),
              ("trials_per_s", "1/s"), ("peak_rss_mb", "MB"), ("rho1_mean", "1"),
              ("converged_frac", "1"), ("unconverged_frac", "1"), ("failed_frac", "1")]
GATED = ("setup_s", "trials_per_ref_s", "peak_rss_mb", "converged_frac")

# Workload-mean accuracy floors from the acceptance criteria that pass at the
# seed commit: (method, p, comparison, value). Checked at full size only.
FLOORS = {
    "complete-sweep": ("eig", 0.1, ">", 0.8),          # criterion 4
    "small-world-methods": ("sdp", 0.7, ">=", 0.93),   # criterion 5
}


def worker(args, extra, deadline):
    """Run bench.py to completion; returns (spawn time, its JSON record)."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    env = dict(os.environ, **MALLOC_ENV, **{key: str(BLAS_THREADS) for key in BLAS_ENV})
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {' '.join(cmd[1:])} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd[1:])} exited {proc.returncode}")
    return start, json.loads(out.strip().splitlines()[-1])


def summarize(rounds):
    """End-to-end figures of a list of round records. The rates are trials
    over the summed time of all rounds: round cost is heavy-tailed and
    bimodal (SDP ascents that run to their budget, eig runs that need several
    times the usual steps), so the median round jumps between runs where the
    total does not."""
    trials = sum(r["trials"] for r in rounds)
    solves = [s for r in rounds for s in r["solves"]]
    failed = sum(r["failed"] for r in rounds)
    round_s = sorted(r["seconds"] for r in rounds)
    cpu_s = sum(r["cpu_seconds"] for r in rounds)
    ref_s = sum(r["ref_seconds"] for r in rounds)
    unconverged = sum(1 for s in solves if not s["converged"])
    n_solves = max(len(solves), 1)
    return {
        "trials": trials, "failed": failed, "rounds": len(rounds), "solves": solves,
        "trials_per_s": trials / sum(round_s) if sum(round_s) > 0 else 0.0,
        "trials_per_cpu_s": trials / cpu_s if cpu_s > 0 else 0.0,
        "trials_per_ref_s": trials / ref_s if ref_s > 0 else 0.0,
        "probe_ms": 1e3 * statistics.median(r["probe_s"] for r in rounds),  # 0: unprobed
        "round_s_median": statistics.median(round_s),
        # The highest percentile with at least ten rounds beyond it.
        "round_s_tail": ((round(100.0 * (len(round_s) - 10) / len(round_s)), round_s[-11])
                         if len(round_s) > 10 else None),
        "rho1_mean": sum(s["rho1"] for s in solves) / n_solves,
        "converged_frac": 1.0 - unconverged / n_solves,
        "unconverged_frac": unconverged / n_solves,
        "failed_frac": failed / trials if trials else 1.0,
        "row_unconverged": sum(r["row_unconverged"] for r in rounds),
    }


def floor_failures(workload, solves):
    if workload not in FLOORS:
        return []
    method, p, op, value = FLOORS[workload]
    vals = [s["rho1"] for s in solves if s["method"] == method and s["p"] == p]
    if not vals:
        return [f"floor: no {method} solves at p={p}"]
    mean = sum(vals) / len(vals)
    ok = mean > value if op == ">" else mean >= value
    return [] if ok else [f"floor: mean {method} rho1 at p={p} is {mean:.4f}, "
                          f"needs {op} {value} (over {len(vals)} solves)"]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_mean")):
        return "1"
    return "count"


def run_untraced(args, deadline):
    """WORKERS workers share --seconds; returns (records, wall set-up samples)."""
    records, setup, loop_s = [], [], 0.0
    for w in range(WORKERS):
        extra = ["--seconds", str((args.seconds - loop_s) / (WORKERS - w)),
                 "--first-round", str(w * ROUND_STRIDE)]
        if w == 0:
            extra.append("--replay")
            if args.inject:
                extra += ["--inject", args.inject]
        start, rec = worker(args, extra, deadline)
        records.append(rec)
        setup.append(rec["ready"] - start)
        loop_s += rec["loop_s"]
    return records, setup


def print_trace(rec):
    print(f"  tracing overhead: {rec['per_layer']['tracing_overhead_pct']:.2f}% "
          f"of untraced trial time in reference seconds, same rounds")
    share = rec["top_share"]
    print(f"  largest self-time share: predicted {share['predicted']} "
          f"{share['predicted_share_pct']:.1f}% vs next {share['largest_other']} "
          f"{share['largest_other_share_pct']:.1f}% -> "
          f"{'matches' if share['matches'] else 'DOES NOT match'}")
    print(f"  {'span':<30}{'calls':>8}{'self ms/call':>14}{'self ms':>12}{'share %':>9}")
    for span, row in rec["layer_table"].items():
        if row["calls"]:
            print(f"  {span:<30}{row['calls']:>8}{row['self_ms_median']:>14.3f}"
                  f"{row['self_ms_total']:>12.1f}{row['share_pct']:>9.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small instances for the benchmark's own tests")
    parser.add_argument("--inject", choices=("corrupt-roundtrip", "angle-out-of-range"),
                        help="corrupt one result, to test that the checks catch it")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (Path.cwd() / "src" / "angsync" / "__init__.py").is_file():
        print("perfbench: src/angsync not found; run from the root of an angsync checkout",
              file=sys.stderr)
        return 2

    if args.trace:
        # One worker: untraced rounds for half of --seconds, then the same
        # rounds traced. Set-up is not a per-layer metric.
        extra = ["--seconds", str(args.seconds), "--trace", "1", "--replay"]
        if args.inject:
            extra += ["--inject", args.inject]
        start, rec = worker(args, extra, deadline)
        records, setup = [rec], [rec["ready"] - start]
    else:
        records, setup = run_untraced(args, deadline)
    rounds = [r for rec in records for r in rec["rounds"]]
    e2e = summarize(rounds)
    e2e["setup_s"] = statistics.median(rec["ready_ref"] for rec in records)
    e2e["setup_cpu_s"] = statistics.median(rec["ready_cpu"] for rec in records)
    e2e["setup_wall_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = max(rec["peak_rss_mb"] for rec in records)
    traced = [r for rec in records for r in rec.get("traced_rounds", [])]
    attempted = e2e["trials"] + sum(r["trials"] for r in traced)
    failed = e2e["failed"] + sum(r["failed"] for r in traced)
    failures = [f for r in rounds + traced for f in r["failures"]]
    digests = records[0]["digests"]
    if not digests["replay_matches"]:
        failures.append(f"same seed gave different digests on replay: {digests}")
    if args.size == "full":
        failures += floor_failures(args.workload, e2e["solves"])
    threads = {t for rec in records for t in rec["env"]["blas_threads"] or []}
    if threads - {BLAS_THREADS}:
        failures.append(f"BLAS ran {sorted(threads)} threads, not {BLAS_THREADS}")

    samples = {"setup_s": len(records), "setup_cpu_s": len(records),
               "setup_wall_s": len(setup), "trials_per_ref_s": e2e["rounds"],
               "trials_per_cpu_s": e2e["rounds"], "trials_per_s": e2e["rounds"],
               "peak_rss_mb": len(records), "rho1_mean": len(e2e["solves"]),
               "converged_frac": len(e2e["solves"]), "unconverged_frac": len(e2e["solves"]),
               "failed_frac": e2e["trials"]}
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(records)} workers, {e2e['rounds']} rounds, {attempted} trials, "
          f"{failed} failed")
    print("env " + json.dumps(records[0]["env"]))
    print("digests " + json.dumps(digests))
    for name, unit in END_TO_END:
        print(f"  {name:<17} {e2e[name]:>14.6g} {unit:<4} (n={samples[name]})")
    tail = e2e["round_s_tail"]
    print(f"  round time: median {e2e['round_s_median']:.4g} s"
          + (f", p{tail[0]} {tail[1]:.4g} s" if tail else "")
          + f" (n={e2e['rounds']})")
    print(f"  probe: median {e2e['probe_ms']:.4g} ms of CPU around rounds (0: rounds not "
          f"rescaled), reference {1e3 * records[0]['probe_ref_s']:g} ms")
    print(f"  sweep eig rows at the iteration budget: {e2e['row_unconverged']}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    if args.trace:
        print_trace(records[0])
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in records[0]["per_layer"].items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if name in GATED}
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
