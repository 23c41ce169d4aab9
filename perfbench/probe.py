"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same code runs up to twice as slow from one minute to
the next, in CPU time as well as wall time, because other tenants share the
physical cores and caches. The probe is timed right after set-up and, on the
workloads whose rounds slow down with it, between rounds; a cost divided by
the probe time next to it is a cost in probe units, which host speed changes
largely cancel out of. The probe never calls angsync, so a change to the
package moves the round cost and not the probe.

Its mix is small-array and interpreter-bound work, the kind the slow-down
hits: sparse complex matrix-vector products with normalisation (as in the
power iteration), a small dense symmetric eigensolve, float text formatting
and parsing, and a sort.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# CPU seconds of one probe on an uncontended vCPU of a 2 GHz Intel Xeon VM
# with one BLAS thread. Timings in probe units are reported in seconds at
# this speed ("reference seconds").
PROBE_REF_S = 0.015
# A batch runs at least PROBES probes and at least PROBE_SHARE of the CPU
# time of the round before it: a short batch after a long round samples the
# host's speed at too few moments to stand for the whole round.
PROBES = 3
PROBE_SHARE = 0.05

_rng = np.random.default_rng(20090518)
_N = 600
_rows = _rng.integers(0, _N, 40_000)
_cols = _rng.integers(0, _N, 40_000)
_H = sp.csr_matrix((np.exp(1j * _rng.uniform(0, 2 * np.pi, 40_000)), (_rows, _cols)),
                   shape=(_N, _N))
_H = (_H + _H.conj().T).tocsr()
_x0 = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)
_G = _rng.standard_normal((200, 200))
_G = _G + _G.T
_vals = _rng.uniform(0, 2 * np.pi, 3_000).tolist()
_keys = _rng.integers(0, 1 << 40, 60_000)


def probe() -> float:
    """CPU seconds of one fixed reference computation (about 30 ms)."""
    t0 = time.process_time()
    x = _x0
    for _ in range(40):
        x = _H @ x
        x /= np.linalg.norm(x)
    np.linalg.eigh(_G)
    text = "\n".join(f"{v!r}" for v in _vals)
    np.array(text.split(), dtype=np.float64)
    np.sort(_keys)
    return time.process_time() - t0


def batch(round_cpu_s: float = 0.0) -> list:
    """CPU times of a batch of probes run after a round of `round_cpu_s`."""
    times = []
    while len(times) < PROBES or sum(times) < PROBE_SHARE * round_cpu_s:
        times.append(probe())
    return times


def to_ref(cpu_s: float, probe_s: list) -> float:
    """CPU seconds spent while the probes read `probe_s`, in reference seconds."""
    return cpu_s * PROBE_REF_S / statistics.median(probe_s)
