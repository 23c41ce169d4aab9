"""Wrap angsync's layer functions to capture their results and, optionally,
record timed spans around each call.

Every function is replaced in each `angsync` module that binds it (for
example `angsync.eig.build_sync_matrix` and `angsync.baselines.build_sync_matrix`),
so calls made from inside the CLI or another layer are seen as well.
`OffsetGraph.__post_init__` is wrapped on the class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

# (span name, module, attribute) for every traced layer boundary.
TARGETS = [
    ("generators.gen_complete", "angsync.generators", "gen_complete"),
    ("generators.gen_small_world", "angsync.generators", "gen_small_world"),
    ("generators.instance_metadata", "angsync.generators", "instance_metadata"),
    ("core.offset_graph", "angsync.core", "OffsetGraph.__post_init__"),
    ("core.write_instance", "angsync.core", "write_instance"),
    ("core.read_instance", "angsync.core", "read_instance"),
    ("core.evaluate", "angsync.core", "evaluate"),
    ("eig.estimate_eig", "angsync.eig", "estimate_eig"),
    ("eig.build_sync_matrix", "angsync.eig", "build_sync_matrix"),
    ("eig.top_eigpair", "angsync.eig", "top_eigpair"),
    ("eig.round_to_angles", "angsync.eig", "round_to_angles"),
    ("eig.triangle_score", "angsync.eig", "triangle_consistency_score"),
    ("baselines.estimate_lsqr", "angsync.baselines", "estimate_lsqr"),
    ("baselines.estimate_sdp", "angsync.baselines", "estimate_sdp"),
    ("baselines.sdp_objective", "angsync.baselines", "sdp_objective"),
    ("spectra.top_k_spectrum", "angsync.spectra", "top_k_spectrum"),
    ("cli.sweep", "angsync.cli", "cmd_sweep"),
    ("cli.generate", "angsync.cli", "cmd_generate"),
    ("cli.solve", "angsync.cli", "cmd_solve"),
]
SPAN_NAMES = [name for name, _, _ in TARGETS]

# Calls whose results the benchmark checks, in traced and untraced runs alike.
CAPTURED = {
    "generators.gen_complete", "generators.gen_small_world",
    "core.read_instance", "core.evaluate",
    "eig.estimate_eig", "baselines.estimate_lsqr", "baselines.estimate_sdp",
}


class Recorder:
    """Captured results and, when `traced`, spans kept in memory.

    A span is (name, start, end, parent span index or -1, trial id).
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.results = []  # (span name, args, result)
        self.spans = []
        self.trial = -1
        self._stack = []

    def wrap(self, name, fn):
        capture = name in CAPTURED
        if not self.traced:
            @functools.wraps(fn)
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.results.append((name, args, result))
                return result
            return captured

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.trial)
            if capture:
                self.results.append((name, args, result))
            return result
        return spanned

    def take_calls(self, name):
        """Pop and return the captured (args, result) pairs of `name`, oldest first."""
        hits = [(a, r) for n, a, r in self.results if n == name]
        self.results = [rec for rec in self.results if rec[0] != name]
        return hits

    def take(self, name):
        """Like `take_calls`, but returns the results only."""
        return [r for _a, r in self.take_calls(name)]


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Install the recorder's wrappers for the duration of the block."""
    names = SPAN_NAMES if recorder.traced else [n for n in SPAN_NAMES if n in CAPTURED]
    undo = []
    try:
        for name, module_name, attr in TARGETS:
            if name not in names:
                continue
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            wrapper = recorder.wrap(name, original)
            owners = [owner]
            if isinstance(owner, type(sys)):
                owners = [mod for key, mod in list(sys.modules.items())
                          if mod is not None and (key == "angsync" or key.startswith("angsync."))]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield recorder
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _trial in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], (s[2] - s[1]) - child[k], s[4]) for k, s in enumerate(spans)]


def layer_table(spans, trial_seconds: float, trials: int):
    """Self time (median per call, total), call count and share of trial time
    for every span name."""
    by_name = {name: [] for name in SPAN_NAMES}
    for name, self_s, _trial in self_times(spans):
        by_name[name].append(self_s)
    table = {}
    for name, values in by_name.items():
        total = sum(values)
        table[name] = {
            "calls": len(values),
            "calls_per_trial": len(values) / trials,
            "self_ms_median": 1e3 * statistics.median(values) if values else None,
            "self_ms_total": 1e3 * total,
            "share_pct": 100.0 * total / trial_seconds,
        }
    return table
