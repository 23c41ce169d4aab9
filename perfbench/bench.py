"""Benchmark worker: runs one workload of the angsync benchmark in this process
and prints one JSON record as the last line of stdout.

Started by perfbench/run.py from the root of a checkout, several times a run;
imports the package from ./src only. The record holds the time the worker was
ready to time (after imports and warm-up: on the monotonic clock, and as the
process's CPU time since it started, interpreter start-up included), each
round's timings and checked results, and, with --trace 1, the per-layer
metrics of the same rounds rerun with tracing on.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import probe

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Largest self-time share each workload is predicted to show in a traced run.
PREDICTED_TOP = {
    "complete-sweep": ("eig.top_eigpair",),
    "generate-solve": ("core.read_instance", "core.write_instance"),
    "small-world-methods": ("baselines.estimate_sdp",),
    "small-world-spectrum": ("spectra.top_k_spectrum",),
    "small-world-dense-spectrum": ("spectra.top_k_spectrum",),
}
# Workloads whose rounds are rescaled by the probe (probe.py). Their timed
# work is small arrays and interpreter loops, which slow down with the shared
# host much as the probe does. The others spend their time in large dense
# LAPACK calls and file I/O, whose speed did not follow the probe's; their
# reference seconds are their CPU seconds (see NOTES.md).
PROBED = ("complete-sweep", "small-world-methods")
# Spans that run on every workload get a median self time per call (`_ms`);
# every span gets its share of trial time (`_pct`) and calls per trial.
EVERYWHERE = ("core.offset_graph", "core.evaluate", "eig.estimate_eig",
              "eig.build_sync_matrix", "eig.top_eigpair", "eig.round_to_angles")


def import_package():
    if not (SRC / "angsync" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'angsync'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import angsync
    if Path(angsync.__file__).resolve().parent != (SRC / "angsync").resolve():
        sys.exit(f"perfbench: imported angsync from {angsync.__file__}, not {SRC}")


def blas_threads():
    """Thread count the loaded OpenBLAS libraries report, or None."""
    counts = []
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts or None


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def solver_metrics(solves):
    def of(method):
        return [s for s in solves if s["method"] == method]

    eig, lsqr, sdp = of("eig"), of("lsqr"), of("sdp")
    return {
        "eig.iterations": _mean([s["iterations"] for s in eig]),
        "eig.converged_frac": _mean([float(s["converged"]) for s in eig]),
        "eig.rho1_mean": _mean([s["rho1"] for s in eig]),
        "baselines.lsqr_iterations": _mean([s["iterations"] for s in lsqr]),
        "baselines.lsqr_rho1_mean": _mean([s["rho1"] for s in lsqr]),
        "baselines.sdp_steps": _mean([s["iterations"] for s in sdp]),
        "baselines.sdp_restart_kept_frac": _mean([float(s["restart_kept"]) for s in sdp]),
        "baselines.sdp_theta_rank": _mean([s["theta_rank"] for s in sdp]),
        "baselines.sdp_rho1_mean": _mean([s["rho1"] for s in sdp]),
    }


def per_layer(table, traced, untraced):
    """Per-layer metrics of a traced run; `traced` repeats the `untraced` rounds."""
    from tracer import SPAN_NAMES

    metrics = {}
    for span in SPAN_NAMES:
        row = table[span]
        if span in EVERYWHERE:
            metrics[f"{span}_ms"] = row["self_ms_median"] or 0.0
        metrics[f"{span}_pct"] = row["share_pct"]
        metrics[f"{span}_calls"] = row["calls_per_trial"]
    metrics.update(solver_metrics([s for r in traced for s in r["solves"]]))
    metrics["core.instance_mb"] = _mean([r["instance_mb"] for r in traced if r["instance_mb"]])
    traced_s = sum(r["ref_seconds"] for r in traced)
    metrics["tracing_overhead_pct"] = 100.0 * (
        traced_s / sum(r["ref_seconds"] for r in untraced) - 1.0)
    return metrics


def top_share(name, table):
    predicted = PREDICTED_TOP[name]
    shares = {span: row["share_pct"] for span, row in table.items() if span not in predicted}
    predicted_share = sum(table[span]["share_pct"] for span in predicted)
    other, other_share = max(shares.items(), key=lambda kv: kv[1])
    return {"predicted": "+".join(predicted), "predicted_share_pct": predicted_share,
            "largest_other": other, "largest_other_share_pct": other_share,
            "matches": predicted_share > other_share}


def first_batch(name):
    return probe.batch() if name in PROBED else None


def probed(run, before):
    """Run one round, then a probe batch; the round's CPU time is converted
    to reference seconds with the probes on both sides of it. Returns the
    round and the batch after it. With `before` None, the workload is not
    rescaled and no probe runs."""
    rnd = run()
    if before is None:
        rnd.ref_seconds = rnd.cpu_seconds
        return rnd, None
    after = probe.batch(rnd.cpu_seconds)
    rnd.probe_s = statistics.median(before + after)
    rnd.ref_seconds = probe.to_ref(rnd.cpu_seconds, before + after)
    return rnd, after


def run_loop(name, ctx, first, budget_s, run_round):
    """Rounds first, first+1, ... until the next one, at the mean round time
    so far, would end past the budget. At least one round."""
    rounds = []
    start = time.monotonic()
    before = first_batch(name)
    while True:
        rnd, before = probed(lambda: run_round(name, ctx, first + len(rounds)), before)
        rounds.append(rnd)
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > budget_s:
            return rounds, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-round", type=int, default=0)
    parser.add_argument("--replay", action="store_true",
                        help="replay the first round and compare its digests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", choices=("corrupt-roundtrip", "angle-out-of-range"))
    args = parser.parse_args(argv)

    import_package()
    from tracer import Recorder, layer_table, patched
    from workloads import SIZES, WORKLOADS, Context, replay, run_round

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Warm-up: one tiny round, so lazy imports and first-call costs land in set-up.
        warm = Context(Recorder(traced=False), SIZES["tiny"][args.workload], 0, work)
        with patched(warm.recorder):
            run_round(args.workload, warm, 0)
        ready = time.monotonic()
        ready_cpu = time.process_time()
        ready_ref = probe.to_ref(ready_cpu, probe.batch())

        size = SIZES[args.size][args.workload]
        ctx = Context(Recorder(traced=False), size, args.seed, work, args.inject)
        budget = args.seconds / 2 if args.trace else args.seconds
        with patched(ctx.recorder):
            rounds, loop_s = run_loop(args.workload, ctx, args.first_round, budget, run_round)
            digests = None
            if args.replay:
                first = rounds[0].digests
                again = replay(args.workload, ctx, args.first_round)
                digests = {"round0": first, "replay_matches": again == first}
        env = environment(args.seed)
        record = {
            "ready": ready,
            "ready_cpu": ready_cpu,
            "ready_ref": ready_ref,
            "probe_ref_s": probe.PROBE_REF_S,
            "env": env,
            "loop_s": loop_s,
            "rounds": [r.record() for r in rounds],
            "digests": digests,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if args.trace:
            trec = Recorder(traced=True)
            tctx = Context(trec, size, args.seed, work)
            traced, before = [], first_batch(args.workload)
            with patched(trec):
                for k in range(len(rounds)):
                    rnd, before = probed(
                        lambda: run_round(args.workload, tctx, args.first_round + k), before)
                    traced.append(rnd.record())
            table = layer_table(trec.spans, sum(r["seconds"] for r in traced),
                                sum(r["trials"] for r in traced))
            record["traced_rounds"] = traced
            record["layer_table"] = table
            record["per_layer"] = per_layer(table, traced, record["rounds"])
            record["top_share"] = top_share(args.workload, table)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with spans_path.open("w") as fh:
                for span in trec.spans:
                    fh.write(json.dumps(span) + "\n")
        print(json.dumps(record))
        return 0
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()


if __name__ == "__main__":
    sys.exit(main())
