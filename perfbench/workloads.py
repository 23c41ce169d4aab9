"""The four benchmark workloads and the checks run on their outputs.

A round is one loop step of a workload: it generates its instances from the
run seed and the round index, calls the package (the timed part), then checks
the results outside the timed part. `complete-sweep` and
`small-world-methods` run one instance per p value in each round; the other
two run one instance. A trial is one instance.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import angsync
import angsync.cli

TWO_PI = 2.0 * math.pi
UNIT_NORM_TOL = 1e-8
# Relative tolerance between top_k_spectrum's largest value (dense eigvalsh)
# and the converged eig Rayleigh quotient (residual <= 1e-10 * |lambda|).
TOP_EIGVAL_RTOL = 1e-8
SWEEP_MAX_ITERS = 2000  # the sweep CLI default, stated so rows can be read

SIZES = {
    "full": {
        "complete-sweep": {"n": 400, "p": (0.1, 0.05)},
        "generate-solve": {"n": 1000, "p": 0.1},
        "small-world-methods": {"n": 200, "epsilon": 0.3, "p": (0.7, 0.4)},
        "small-world-spectrum": {"n": 2000, "epsilon": 0.05, "p": 0.3,
                                 "k": 9, "triangles": 2000},
        "small-world-dense-spectrum": {"n": 2000, "epsilon": 0.05, "p": 0.3,
                                       "k": 9, "triangles": 2000},
    },
    "tiny": {
        "complete-sweep": {"n": 60, "p": (0.4, 0.2)},
        "generate-solve": {"n": 60, "p": 0.3},
        "small-world-methods": {"n": 50, "epsilon": 0.3, "p": (0.7, 0.4)},
        "small-world-spectrum": {"n": 150, "epsilon": 0.2, "p": 0.5,
                                 "k": 9, "triangles": 200},
        "small-world-dense-spectrum": {"n": 150, "epsilon": 0.2, "p": 0.5,
                                       "k": 9, "triangles": 200},
    },
}

@dataclass
class Solve:
    method: str
    p: float
    rho1: float
    converged: bool
    iterations: int
    theta_rank: int | None = None
    restart_kept: bool | None = None
    failures: list = field(default_factory=list)


@dataclass
class Trial:
    p: float
    solves: list = field(default_factory=list)
    failures: list = field(default_factory=list)


@dataclass
class Round:
    seconds: float = 0.0
    cpu_seconds: float = 0.0  # process CPU time of the timed part
    probe_s: float = 0.0  # median probe CPU time around the round
    ref_seconds: float = 0.0  # cpu_seconds in reference seconds (probe.py)
    trials: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # fail every trial of the round
    digests: dict = field(default_factory=dict)
    row_unconverged: int = 0  # sweep rows with iterations == --max-iters
    instance_mb: float | None = None

    def add(self, times):
        """Add a (wall, CPU) pair of seconds to the round's timed part."""
        self.seconds += times[0]
        self.cpu_seconds += times[1]

    def record(self) -> dict:
        """The round as JSON: a failure of the round fails all its trials."""
        failures = self.failures + [f for t in self.trials for f in t.failures]
        failed = len(self.trials) if self.failures else sum(1 for t in self.trials if t.failures)
        return {"seconds": self.seconds, "cpu_seconds": self.cpu_seconds,
                "probe_s": self.probe_s, "ref_seconds": self.ref_seconds,
                "trials": len(self.trials), "failed": failed,
                "failures": failures, "row_unconverged": self.row_unconverged,
                "instance_mb": self.instance_mb,
                "solves": [{key: value for key, value in dataclasses.asdict(s).items()
                            if key != "failures"}
                           for t in self.trials for s in t.solves]}


@dataclass
class Context:
    """What a round needs: the recorder that captures results, the sizes,
    the run seed, a scratch directory and an optional injected fault."""

    recorder: object
    size: dict
    seed: int
    work: Path
    inject: str | None = None


def round_seed(seed: int, k: int, sub: int = 0) -> int:
    ss = np.random.SeedSequence([seed, k, sub])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def instance_digest(graph, good) -> str:
    """SHA-256 of an instance's (n, i, j, delta, good mask)."""
    h = hashlib.sha256(str(graph.n).encode())
    for arr, dtype in ((graph.i, np.int64), (graph.j, np.int64),
                       (graph.delta, np.float64), (good, np.uint8)):
        h.update(np.ascontiguousarray(np.asarray(arr).astype(dtype)).tobytes())
    return h.hexdigest()


def _clocks():
    return time.perf_counter(), time.process_time()


def _since(t0):
    """(wall, CPU) seconds since `t0`, a pair from `_clocks`."""
    t1 = _clocks()
    return t1[0] - t0[0], t1[1] - t0[1]


def _timed(fn, *args):
    t0 = _clocks()
    out = fn(*args)
    return out, _since(t0)


def _cli(argv):
    """angsync.cli.main with stdout captured; returns (exit code, stdout,
    (wall, CPU) seconds)."""
    buf = io.StringIO()
    t0 = _clocks()
    with contextlib.redirect_stdout(buf):
        rc = angsync.cli.main([str(a) for a in argv])
    return rc, buf.getvalue(), _since(t0)


def estimate_failures(est, n: int) -> list:
    """Checks every estimate must pass, whatever the method."""
    out = []
    theta = np.asarray(est.theta_hat, dtype=np.float64)
    if theta.shape != (n,) or not np.all(np.isfinite(theta)):
        out.append(f"{est.method_tag}: theta_hat not {n} finite values")
    elif theta.min() < 0.0 or theta.max() >= TWO_PI:
        out.append(f"{est.method_tag}: theta_hat outside [0, 2pi): "
                   f"[{theta.min():.17g}, {theta.max():.17g}]")
    v = np.asarray(est.eigvec)
    norm = float(np.linalg.norm(v)) if np.all(np.isfinite(v)) else math.nan
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        out.append(f"{est.method_tag}: eigvec norm {norm!r} is not 1")
    return out


def _score(ctx: Context, p_of_eval, n: int):
    """Turn the captured evaluate calls into Solves, checking each estimate.

    `p_of_eval(k)` gives the p of the k-th evaluated estimate. Returns
    (solves, reports, round-level failures).
    """
    rec = ctx.recorder
    estimates = (rec.take("eig.estimate_eig") + rec.take("baselines.estimate_lsqr")
                 + [r[0] for r in rec.take("baselines.estimate_sdp")])
    evals = rec.take_calls("core.evaluate")
    failures = []
    if len(evals) != len(estimates):
        failures.append(f"{len(estimates)} estimates but {len(evals)} evaluations")
    solves, reports = [], []
    for k, (args, report) in enumerate(evals):
        est = args[2]
        if ctx.inject == "angle-out-of-range":
            theta = np.array(est.theta_hat)
            theta[0] = TWO_PI + 0.5
            est = dataclasses.replace(est, theta_hat=theta)
            ctx.inject = None
        diag = est.diagnostics
        traces = diag.get("objective_traces")
        solve = Solve(
            method=est.method_tag, p=p_of_eval(k), rho1=float(report.rho1),
            converged=bool(diag.get("converged")), iterations=int(est.iterations),
            theta_rank=diag.get("theta_rank"),
            restart_kept=(traces[1][-1] > traces[0][-1]) if traces else None,
            failures=estimate_failures(est, n))
        if not 0.0 <= solve.rho1 <= 1.0 + 1e-12:
            solve.failures.append(f"{solve.method}: rho1 {solve.rho1!r} outside [0, 1]")
        solves.append(solve)
        reports.append(report)
    return solves, reports, failures


def _trials(ps, solves) -> list:
    trials = [Trial(p=p) for p in ps]
    for s in solves:
        trial = trials[ps.index(s.p)]
        trial.solves.append(s)
        trial.failures += s.failures
    return trials


def _p_values(size) -> list:
    return list(size["p"]) if isinstance(size["p"], tuple) else [size["p"]]


# ---------------------------------------------------------------------------
# complete-sweep: `angsync sweep` in-process, one (p=0.1, p=0.05) grid a round.

def _sweep_argv(ctx, k, out):
    size = ctx.size
    return ["sweep", "--model", "complete", "--n", size["n"],
            "--p", ",".join(str(p) for p in size["p"]), "--method", "eig,lsqr",
            "--workers", 1, "--deterministic", "--trials", 1,
            "--seed", round_seed(ctx.seed, k), "--out", out]


def complete_sweep(ctx: Context, k: int) -> Round:
    out = ctx.work / f"sweep-{k % 2}.csv"
    rc, _stdout, times = _cli(_sweep_argv(ctx, k, out))
    ps = _p_values(ctx.size)
    rnd = Round(trials=[Trial(p=p) for p in ps])
    rnd.add(times)
    if rc != 0:
        rnd.failures.append(f"sweep exited {rc}")
        return rnd
    text = out.read_bytes()
    rnd.digests["sweep_csv"] = hashlib.sha256(text).hexdigest()
    rows = list(csv.DictReader(io.StringIO(text.decode().split("\n", 1)[1])))
    gens = ctx.recorder.take("generators.gen_complete")
    rnd.digests["instances"] = [instance_digest(g, t.good_mask) for g, t in gens]
    solves, reports, rnd.failures = _score(ctx, lambda i: float(rows[i]["p"]),
                                           ctx.size["n"])
    if len(rows) != 2 * len(ps) or len(reports) != len(rows):
        rnd.failures.append(f"sweep wrote {len(rows)} rows for {len(reports)} solves")
    else:
        for row, solve in zip(rows, solves):
            if float(row["rho1"]) != solve.rho1:
                solve.failures.append(f"sweep row rho1 {row['rho1']} != evaluate {solve.rho1!r}")
    rnd.row_unconverged = sum(1 for row in rows if row["method"] == "eig"
                              and int(row["iterations"]) == SWEEP_MAX_ITERS)
    rnd.trials = _trials(ps, solves)
    return rnd


def complete_sweep_replay(ctx: Context, k: int) -> dict:
    return complete_sweep(ctx, k).digests


# ---------------------------------------------------------------------------
# generate-solve: `angsync generate` to a file, then `angsync solve` on it.

def _generate(ctx, k, path):
    size = ctx.size
    rc, _stdout, times = _cli(["generate", "--model", "complete", "--n", size["n"],
                                 "--p", size["p"], "--seed", round_seed(ctx.seed, k),
                                 "--out", path])
    gens = ctx.recorder.take("generators.gen_complete")
    digests = {"instance": None, "file": None}
    if rc == 0 and len(gens) == 1:
        g, t = gens[0]
        digests = {"instance": instance_digest(g, t.good_mask),
                   "file": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
    return rc, times, digests


def _corrupt_first_edge(path: Path):
    lines = path.read_text().split("\n")
    for idx, line in enumerate(lines[1:], start=1):
        if line and not line.startswith("#"):
            a, b, d, *rest = line.split()
            lines[idx] = " ".join([a, b, repr((float(d) + 0.5) % 6.0), *rest])
            break
    path.write_text("\n".join(lines))


def generate_solve(ctx: Context, k: int) -> Round:
    path = ctx.work / "instance.txt"
    rc, gen_times, digests = _generate(ctx, k, path)
    rnd = Round(digests=digests, trials=[Trial(p=ctx.size["p"])])
    rnd.add(gen_times)
    if rc != 0:
        rnd.failures.append(f"generate exited {rc}")
        return rnd
    rnd.instance_mb = path.stat().st_size / 1e6
    if ctx.inject == "corrupt-roundtrip":
        _corrupt_first_edge(path)
        ctx.inject = None
    rc, stdout, solve_times = _cli(["solve", path, "--method", "eig"])
    rnd.add(solve_times)
    if rc != 0:
        rnd.failures.append(f"solve exited {rc}")
        return rnd
    trial = rnd.trials[0]
    reads = ctx.recorder.take("core.read_instance")
    if len(reads) != 1 or reads[0][1] is None \
            or instance_digest(*reads[0]) != digests["instance"]:
        trial.failures.append("read_instance differs from the generated instance")
    solves, reports, rnd.failures = _score(ctx, lambda i: ctx.size["p"], ctx.size["n"])
    printed = re.search(r"rho1=([0-9.]+)", stdout)
    if len(reports) != 1 or printed is None:
        rnd.failures.append("solve printed no rho1 or evaluated more than once")
    elif abs(float(printed.group(1)) - reports[0].rho1) > 5e-5:
        trial.failures.append(f"solve printed rho1={printed.group(1)}, "
                              f"evaluate gave {reports[0].rho1!r}")
    trial.solves = solves
    trial.failures += [f for s in solves for f in s.failures]
    return rnd


def generate_solve_replay(ctx: Context, k: int) -> dict:
    return _generate(ctx, k, ctx.work / "replay.txt")[2]


# ---------------------------------------------------------------------------
# small-world-methods: eig, lsqr and sdp with default options at n=200.

def _small_world(ctx, k, pi, p):
    size = ctx.size
    params = angsync.SmallWorldParams(n=size["n"], epsilon=size["epsilon"], p=p,
                                      seed=round_seed(ctx.seed, k, pi))
    return angsync.gen_small_world(params)


def _truth_digest(graph, truth):
    return instance_digest(graph, truth.good_mask)


def _methods_instance(ctx, k, pi, p):
    graph, truth = _small_world(ctx, k, pi, p)
    estimates = [angsync.estimate_eig(graph), angsync.estimate_lsqr(graph),
                 angsync.estimate_sdp(graph)[0]]
    for est in estimates:
        angsync.evaluate(graph, truth, est)
    return _truth_digest(graph, truth)


def small_world_methods(ctx: Context, k: int) -> Round:
    rnd = Round(digests={"instances": []})
    for pi, p in enumerate(ctx.size["p"]):
        digest, times = _timed(_methods_instance, ctx, k, pi, p)
        rnd.add(times)
        rnd.digests["instances"].append(digest)
        ctx.recorder.take("generators.gen_small_world")
        solves, _reports, failures = _score(ctx, lambda i: p, ctx.size["n"])
        rnd.failures += failures
        rnd.trials += _trials([p], solves)
    return rnd


def small_world_methods_replay(ctx: Context, k: int) -> dict:
    return {"instances": [_truth_digest(*_small_world(ctx, k, pi, p))
                          for pi, p in enumerate(ctx.size["p"])]}


# ---------------------------------------------------------------------------
# small-world-spectrum: eig, top-k spectrum and triangle score at n=2000.

def _spectrum_instance(ctx, k):
    size = ctx.size
    graph, truth = _small_world(ctx, k, 0, size["p"])
    est = angsync.estimate_eig(graph)
    top = angsync.top_k_spectrum(angsync.build_sync_matrix(graph), size["k"])
    score = angsync.triangle_consistency_score(graph, size["triangles"])
    angsync.evaluate(graph, truth, est)
    return graph, truth, est, top, score


def small_world_spectrum(ctx: Context, k: int) -> Round:
    (graph, truth, est, top, score), times = _timed(_spectrum_instance, ctx, k)
    ctx.recorder.take("generators.gen_small_world")
    rnd = Round(digests={"instances": [_truth_digest(graph, truth)]})
    rnd.add(times)
    solves, _reports, rnd.failures = _score(ctx, lambda i: ctx.size["p"], graph.n)
    failures = [f for s in solves for f in s.failures] + _spectrum_failures(ctx, top, score)
    if not failures and est.diagnostics.get("converged"):
        rel = abs(top[0] - est.top_eigval) / abs(top[0])
        if not rel <= TOP_EIGVAL_RTOL:
            failures.append(f"top_k_spectrum {top[0]!r} vs eig {est.top_eigval!r}: "
                            f"relative gap {rel:.3g} > {TOP_EIGVAL_RTOL}")
    rnd.trials.append(Trial(p=ctx.size["p"], solves=solves, failures=failures))
    return rnd


def _spectrum_failures(ctx, top, score) -> list:
    failures = []
    top = np.asarray(top)
    if top.shape != (ctx.size["k"],) or np.any(np.diff(top) > 0):
        failures.append("top_k_spectrum did not return k descending values")
    if not 0.0 <= score <= 2.0:
        failures.append(f"triangle score {score!r} outside [0, 2]")
    return failures


def small_world_spectrum_replay(ctx: Context, k: int) -> dict:
    return {"instances": [_truth_digest(*_small_world(ctx, k, 0, ctx.size["p"]))]}


# ---------------------------------------------------------------------------
# small-world-dense-spectrum: small-world-spectrum without estimate_eig. On
# these graphs power iteration takes from about 2,500 to over 25,000
# iterations depending on the instance, so a run of a few instances reads a
# different rate on every seed; the dense spectrum's cost depends on n only.

def _dense_spectrum_instance(ctx, k):
    size = ctx.size
    graph, truth = _small_world(ctx, k, 0, size["p"])
    H = angsync.build_sync_matrix(graph)
    top = angsync.top_k_spectrum(H, size["k"])
    score = angsync.triangle_consistency_score(graph, size["triangles"])
    return graph, truth, H, top, score


def small_world_dense_spectrum(ctx: Context, k: int) -> Round:
    (graph, truth, H, top, score), times = _timed(_dense_spectrum_instance, ctx, k)
    ctx.recorder.take("generators.gen_small_world")
    rnd = Round(digests={"instances": [_truth_digest(graph, truth)]})
    rnd.add(times)
    failures = _spectrum_failures(ctx, top, score)
    if not failures:
        # lambda_1 is at least the Rayleigh quotient of the planted vector
        # and at most the largest row sum of |H| (Gershgorin).
        z = np.exp(1j * np.asarray(truth.theta))
        rayleigh = float(np.real(np.vdot(z, H.entries @ z))) / graph.n + H.diagonal_shift
        gershgorin = float(np.diff(H.entries.indptr).max()) + H.diagonal_shift
        slack = 1e-9 * max(1.0, abs(top[0]))
        if not rayleigh - slack <= top[0] <= gershgorin + slack:
            failures.append(f"top eigenvalue {top[0]!r} outside [{rayleigh!r}, {gershgorin!r}]")
    rnd.trials.append(Trial(p=ctx.size["p"], failures=failures))
    return rnd


WORKLOADS = {
    "complete-sweep": (complete_sweep, complete_sweep_replay),
    "generate-solve": (generate_solve, generate_solve_replay),
    "small-world-methods": (small_world_methods, small_world_methods_replay),
    "small-world-spectrum": (small_world_spectrum, small_world_spectrum_replay),
    "small-world-dense-spectrum": (small_world_dense_spectrum, small_world_spectrum_replay),
}


def run_round(name: str, ctx: Context, k: int) -> Round:
    """One round; an exception from the package fails every trial of it."""
    ctx.recorder.results.clear()
    ctx.recorder.trial = k
    try:
        rnd = WORKLOADS[name][0](ctx, k)
    except Exception:  # the benchmark keeps running and counts the failure
        rnd = Round(failures=[traceback.format_exc(limit=3)],
                    trials=[Trial(p=p) for p in _p_values(ctx.size)])
    ctx.recorder.results.clear()
    return rnd


def replay(name: str, ctx: Context, k: int) -> dict:
    ctx.recorder.results.clear()
    digests = WORKLOADS[name][1](ctx, k)
    ctx.recorder.results.clear()
    return digests
