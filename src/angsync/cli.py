"""Command-line experiment orchestration.

Subcommands: generate | solve | sweep | spectrum | theory.  Flat files only:
text instances with a JSON sidecar for simulator metadata, CSV for sweep and
spectrum output (schema_version comment on the first line).

Exit codes: 0 success, 2 usage or I/O error, 3 solver non-convergence when
`--strict` is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, eig, generators, spectra, theory
from .core import (
    AngsyncError,
    GroundTruth,
    ZeroMatrixError,
    check_budget,
    check_seed,
    evaluate,
    read_instance,
    write_instance,
)

SCHEMA_VERSION = 1

ROW_COLUMNS = ["model", "n", "m", "p", "seed", "method", "rho1", "rho2",
               "lambda1", "objective", "iterations", "wall_ms", "np2",
               "pred_rho2", "pred_lambda1_mu", "pred_p_threshold"]
AGG_COLUMNS = ["model", "n", "p", "method", "trials", "rho1_mean", "rho1_std",
               "rho2_mean", "rho2_std", "lambda1_mean", "lambda1_std"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, columns, rows) -> None:
    """A CSV file: the schema_version comment, `columns`, then `rows` by `_fmt`."""
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _sidecar_path(instance_path) -> Path:
    return Path(str(instance_path) + ".meta.json")


def derive_seed(master_seed: int, p_index: int, trial_index: int) -> int:
    """Sweep seeds as a pure function of (master_seed, p_index, trial_index)."""
    check_seed(master_seed)
    ss = np.random.SeedSequence(master_seed, spawn_key=(p_index, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# The clock model's fields that `generate` takes as flags (--edge-probability
# and so on), with their defaults; commands without these flags use the
# defaults.  An outlier fraction of None means 1 - p.
CLOCK_DEFAULTS = {"edge_probability": 1.0, "sigma_good": 0.0, "outlier_fraction": None,
                  "outlier_scale": 0.0, "omega": 1.0}


def _model_params(args, p: float, seed: int):
    """`args.model`'s generator params at `p` and `seed`; a bad n, p, epsilon
    or seed raises here, before anything is generated."""
    if args.model == "complete":
        return generators.CompleteModelParams(n=args.n, p=p, seed=seed)
    if args.model == "small-world":
        return generators.SmallWorldParams(n=args.n, epsilon=args.epsilon, p=p, seed=seed)
    clock = {name: getattr(args, name, default) for name, default in CLOCK_DEFAULTS.items()}
    if clock["outlier_fraction"] is None:
        clock["outlier_fraction"] = 1.0 - p
    return generators.ClockModelParams(n=args.n, **clock, seed=seed)


def _generate(params):
    """(graph, truth) of the instance `params` describes, and a clock's times."""
    if isinstance(params, generators.CompleteModelParams):
        return generators.gen_complete(params)
    if isinstance(params, generators.SmallWorldParams):
        return generators.gen_small_world(params)
    return generators.gen_clock(params)


def _read_instance(path: Path):
    if not path.exists():
        raise AngsyncError(f"no such instance file: {path}")
    return read_instance(path)


def cmd_generate(args) -> int:
    params = _model_params(args, args.p, args.seed)
    graph, truth, *times = _generate(params)
    out = Path(args.out)
    write_instance(out, graph, good_mask=truth.good_mask)
    meta = generators.instance_metadata(args.model, params, graph, truth)
    if times:
        meta["times"] = times[0].tolist()
    _sidecar_path(out).write_text(json.dumps(meta) + "\n")
    print(f"wrote {out} (n={graph.n}, m={graph.m}, m_good={meta['m_good']}, "
          f"connected={meta['connected']})")
    return 0


def _load_truth(instance_path, file_mask):
    """Planted angles from the sidecar, with the instance file's good mask."""
    meta_path = _sidecar_path(instance_path)
    if not meta_path.exists():
        return None
    theta = json.loads(meta_path.read_text()).get("theta")
    if theta is None:
        return None
    return GroundTruth(theta=np.asarray(theta, dtype=float),
                       good_mask=np.asarray([] if file_mask is None else file_mask, dtype=bool))


def _options(method: str, given: dict, defaults: dict | None = None):
    """`method`'s options from the flags `given` ({flag: value, None if not
    given}), else from `defaults`, else from the options type's defaults.  A
    flag that the options type's `FLAGS` does not name is an error, not dropped."""
    options = baselines.METHODS[method]
    given = {flag: value for flag, value in given.items() if value is not None}
    unsupported = [flag for flag in given if flag not in options.FLAGS]
    if unsupported:
        raise AngsyncError(f"{' and '.join(unsupported)} not supported by --method {method}")
    values = {**(defaults or {}), **given}
    return options(**{field: values[flag] for flag, field in options.FLAGS.items()
                      if flag in values})


def _objective(H, theta) -> float:
    """The quadratic objective sum_ij conj(z_i) H_ij z_j at z = e^{i theta},
    as Re<z, Hz> on the unshifted H the estimate was solved on: one product
    with H in place of a cosine per edge.  Its last bits can differ from the
    per-edge sum's, which adds the same terms in another order."""
    z = np.exp(1j * theta)
    return float(np.vdot(z, H.matvec(z)).real)


def cmd_solve(args) -> int:
    opts = _options(args.method, {"--tol": args.tol, "--max-iters": args.max_iters,
                                  "--shift": args.shift, "--seed": args.seed})
    path = Path(args.instance)
    graph, mask = _read_instance(path)
    truth = _load_truth(path, mask)

    H = eig.build_sync_matrix(graph)
    est = baselines.solve(graph, args.method, opts, H=H)
    converged = est.diagnostics["converged"]
    objective = _objective(H, est.theta_hat)
    del H  # held through `evaluate`, it would set the process's peak

    print(f"method={est.method_tag} n={graph.n} m={graph.m}")
    print(f"lambda1={est.top_eigval:.6f} objective={objective:.6f} "
          f"iterations={est.iterations} wall_ms={est.diagnostics['wall_ms']:.1f} "
          f"converged={converged}")
    if truth is not None:
        report = evaluate(graph, truth, est)
        print(f"rho1={report.rho1:.4f} rho2={report.rho2:.4f} "
              f"sce={report.sce} sce_f={report.sce_f:.3f}")
    if args.strict and not converged:
        print("solver did not converge (--strict)", file=sys.stderr)
        return 3
    return 0


def _sweep_task(task):
    """One (p, trial) cell of a sweep; returns its output row dicts, one per method.

    The instance's sync matrix is built once and shared by every method, so
    a row's wall_ms leaves out the build, and its objective is taken on that
    matrix.  A method that finds the matrix zero (an instance without edges)
    gets a row with the instance and predictor columns, its solver columns
    left empty, and the reason under "skipped"; the other methods and
    instances go on."""
    model, params, solvers, deterministic = task
    n, p, seed = params.n, params.p, params.seed
    graph, truth = _generate(params)
    if model == "complete":
        predicted = {"np2": n * p * p, "pred_rho2": theory.correlation_prediction(n, p),
                     "pred_lambda1_mu": theory.lambda1_law(n, p).value,
                     "pred_p_threshold": theory.p_threshold_complete(n)}
    else:
        # sqrt(n / 2m) is undefined on a graph without edges: an empty cell
        predicted = {"np2": 2.0 * graph.m * p * p / n, "pred_rho2": None, "pred_lambda1_mu": None,
                     "pred_p_threshold": (float(np.sqrt(n / (2.0 * graph.m)))
                                          if graph.m else None)}
    H = eig.build_sync_matrix(graph)
    rows = []
    for method, opts in solvers:
        row = {"model": model, "n": n, "m": graph.m, "p": p, "seed": seed, "method": method,
               **predicted}
        try:
            est = baselines.solve(graph, method, opts, H=H)
        except ZeroMatrixError as exc:
            rows.append({**row, "skipped": str(exc)})
            continue
        report = evaluate(graph, truth, est)
        rows.append({
            **row, "rho1": report.rho1, "rho2": report.rho2, "lambda1": est.top_eigval,
            "objective": _objective(H, est.theta_hat),
            "iterations": est.iterations,
            "wall_ms": 0.0 if deterministic else est.diagnostics["wall_ms"],
        })
    return rows


# The variables that set the BLAS thread count (OpenBLAS, OpenMP, MKL).  A
# sweep's pool workers start with each at 1: numpy and scipy each load their
# own BLAS with a pool of threads, so N workers at the default count run
# several threads a CPU and wait on each other.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_map(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks], in order, run by `workers` spawned processes
    whose BLAS runs on one thread.  The thread variables are set only while
    the pool runs, as its workers read them when they load BLAS, and then
    restored: this process's environment and threads stay as they were."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_sweep(args) -> int:
    try:
        p_grid = [float(tok) for tok in args.p.split(",") if tok.strip()]
    except ValueError as exc:
        raise AngsyncError(f"bad --p grid: {args.p!r}") from exc
    if not p_grid:
        raise AngsyncError("empty p grid")
    methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
    if not methods:
        raise AngsyncError("no methods given")
    for k, method in enumerate(methods):
        if method not in baselines.METHODS or method in methods[:k]:
            what = "repeated" if method in baselines.METHODS else "unknown"
            raise AngsyncError(f"{what} method {method!r} "
                               f"(choose from {', '.join(baselines.METHODS)})")
    if args.trials < 1:
        raise AngsyncError("need trials >= 1")
    if args.workers < 1:
        raise AngsyncError("need workers >= 1")
    flags = {"--tol": args.tol, "--max-iters": args.max_iters}
    for method in methods:
        _options(method, flags)  # raises on a flag it does not take
    budget = {"--tol": 1e-8 if args.tol is None else args.tol,
              "--max-iters": 2000 if args.max_iters is None else args.max_iters}
    check_budget(budget["--tol"], budget["--max-iters"])

    # every instance's params and options, checked before anything is generated
    tasks = []
    for p_index, p in enumerate(p_grid):
        for trial in range(args.trials):
            seed = derive_seed(args.seed, p_index, trial)
            params = _model_params(args, p, seed)
            solvers = [(method, _options(method, flags, {**budget, "--seed": seed}))
                       for method in methods]
            tasks.append((args.model, params, solvers, args.deterministic))

    if args.workers > 1:
        results = _pool_map(_sweep_task, tasks, args.workers)
    else:
        results = [_sweep_task(t) for t in tasks]
    # results are already in deterministic (p_index, trial_index) order
    rows = [row for batch in results for row in batch]
    for row in rows:
        if "skipped" in row:
            print(f"skipped {row['method']} at p={row['p']}, seed={row['seed']}: "
                  f"{row['skipped']}", file=sys.stderr)

    out = Path(args.out)
    _write_csv(out, ROW_COLUMNS, [[row.get(c) for c in ROW_COLUMNS] for row in rows])
    agg = []
    for p in p_grid:
        for method in methods:
            # only the rows with values: a skipped row counts for no trial
            sel = [r for r in rows if r["p"] == p and r["method"] == method
                   and "skipped" not in r]
            stats = [None] * 6
            if sel:
                stats = [f(np.array([r[c] for r in sel])) for c in ("rho1", "rho2", "lambda1")
                         for f in (np.mean, np.std)]
            agg.append([args.model, args.n, p, method, len(sel), *stats])
    agg_path = out.with_name(out.stem + ".agg" + (out.suffix or ".csv"))
    _write_csv(agg_path, AGG_COLUMNS, agg)
    print(f"wrote {out} ({len(rows)} rows) and {agg_path}")
    return 0


def cmd_spectrum(args) -> int:
    if args.instance:
        graph, _mask = _read_instance(Path(args.instance))
    else:
        graph = _generate(_model_params(args, args.p, args.seed))[0]
    H = eig.build_sync_matrix(graph, args.shift)
    values = spectra.full_spectrum(H, dense_limit=args.dense_limit)

    lines = [f"# schema_version={SCHEMA_VERSION}"]
    if args.hist:
        lines.append("bin_center,count")
        for center, count in spectra.histogram(values, args.hist):
            lines.append(f"{_fmt(center)},{count}")
    else:
        lines.append("eigenvalue")
        lines.extend(_fmt(float(v)) for v in values)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({values.size} eigenvalues)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_theory(args) -> int:
    m = args.m if args.m is not None else args.n * (args.n - 1) // 2
    rows = theory.predictions_table(args.n, m, args.L, args.p)
    if args.out:
        _write_csv(args.out, ["name", "value", "aux"], [[r.name, r.value, r.aux] for r in rows])
        print(f"wrote {args.out}")
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            aux = f" aux={_fmt(r.aux)}" if r.aux is not None else ""
            flag = f" [{r.flag}]" if r.flag else ""
            print(f"{r.name:<{width}}  {r.value:.6g}{aux}{flag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="angsync",
                                     description="Angular synchronization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(sp):
        sp.add_argument("--model", choices=["complete", "small-world", "clock"],
                        default="complete")
        sp.add_argument("--n", type=int, default=100)
        sp.add_argument("--p", type=float, default=1.0, help="good-edge probability")
        sp.add_argument("--epsilon", type=float, default=0.3,
                        help="sphere cap parameter (small-world)")
        sp.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", help="write a synthetic instance + sidecar")
    add_model_flags(gen)
    for name, default in CLOCK_DEFAULTS.items():
        shown = "1 - p" if default is None else default
        gen.add_argument("--" + name.replace("_", "-"), type=float, default=default,
                         help=f"clock model (default {shown})")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="run one solver on an instance file")
    slv.add_argument("instance")
    slv.add_argument("--method", choices=baselines.METHODS, default="eig")
    slv.add_argument("--tol", type=float, default=None,
                     help="convergence tolerance (eig, lsqr; default 1e-10)")
    slv.add_argument("--max-iters", type=int, default=None,
                     help="iteration budget (eig, lsqr; default per method)")
    slv.add_argument("--shift", type=float, default=None,
                     help="diagonal shift for the sync matrix (eig only; default 0)")
    slv.add_argument("--seed", type=int, default=None,
                     help="solver seed (eig, sdp; default 0)")
    slv.add_argument("--strict", action="store_true")
    slv.set_defaults(func=cmd_solve)

    swp = sub.add_parser("sweep", help="grid of (p, trial) runs, CSV output")
    swp.add_argument("--model", choices=["complete", "small-world"],
                     default="complete")
    swp.add_argument("--n", type=int, default=100)
    swp.add_argument("--p", required=True, help="comma-separated p grid")
    swp.add_argument("--epsilon", type=float, default=0.3)
    swp.add_argument("--seed", type=int, default=0, help="master seed")
    swp.add_argument("--trials", type=int, default=20)
    swp.add_argument("--method", default="eig", help="comma-separated methods")
    swp.add_argument("--tol", type=float, default=None,
                     help="convergence tolerance (eig, lsqr; default 1e-8)")
    swp.add_argument("--max-iters", type=int, default=None,
                     help="iteration budget (eig, lsqr; default 2000)")
    swp.add_argument("--workers", type=int, default=1)
    swp.add_argument("--deterministic", action="store_true",
                     help="zero wall_ms so reruns are byte-identical")
    swp.add_argument("--out", required=True)
    swp.set_defaults(func=cmd_sweep)

    spc = sub.add_parser("spectrum", help="full eigenvalue list (or histogram) CSV")
    spc.add_argument("--in", dest="instance", default=None,
                     help="instance file (otherwise generate from model flags)")
    add_model_flags(spc)
    spc.add_argument("--shift", type=float, default=0.0)
    spc.add_argument("--hist", type=int, default=0, help="histogram bin count")
    spc.add_argument("--dense-limit", type=int, default=spectra.DENSE_LIMIT)
    spc.add_argument("--out", default=None)
    spc.set_defaults(func=cmd_spectrum)

    thr = sub.add_parser("theory", help="closed-form predictions table")
    thr.add_argument("--n", type=int, required=True)
    thr.add_argument("--m", type=int, default=None,
                     help="edge count (default: all pairs)")
    thr.add_argument("--L", type=int, required=True)
    thr.add_argument("--p", type=float, required=True)
    thr.add_argument("--out", default=None)
    thr.set_defaults(func=cmd_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (AngsyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
