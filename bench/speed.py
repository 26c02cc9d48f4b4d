"""Machine-speed probe, to express measured times at one reference speed.

The machines this benchmark runs on are shared: the speed of a fixed piece of
code wanders by a factor of up to 1.6 between spells lasting from a second to
minutes (see README.md, "Noise").  Raw times therefore move with the machine
as much as with the program.  The benchmark runs a fixed probe kernel, built
from numpy and scipy alone and never from ``lsfa``, at short intervals
through each timed operation.  Its duration over its reference duration
(``PART_REF_S``) is the machine's slowness at that moment, and a time divided
by the slowness around it is a time at the reference speed.  A change to
``lsfa`` cannot change the probe, so it moves the normalized times in the
same proportion as the raw ones.

The probe is built from parts, one per kind of work the solver does:
strided gathers into large arrays (as in ``sym_kron``), dense Cholesky
factorizations (as in the reduced Newton system) and a Python loop of
small-matrix numpy calls (as in ``Iterate`` construction).  Contention on a
shared machine slows these kinds by different factors, so each workload
names the parts that match its own work (``probe_parts`` in workloads.py).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import statistics
import sys
import time

import numpy as np
import scipy.linalg

import lsfa.baseline
import lsfa.newton

# Gathers build (p(p+1)/2)^2 arrays, 0.7 and 2.2 MB; the factorized matrices
# are 1 and 2.9 MB; the small-matrix loop works on 40 x 40 matrices, as
# Iterate does at p = 40.
_GATHER_SIZES = (24, 32)
_CHOLESKY_SIZES = (360, 600)
_SMALL_SIZE, _SMALL_CALLS = 40, 120
# Each part's duration at the reference speed, about its median time on the
# machine of the README's baseline.  Any constants would do; they only set
# the scale of the normalized times.
PART_REF_S = {"gather": 0.018, "cholesky": 0.010, "small": 0.016}
# Inside an operation the probe runs at most this often.
PROBE_PERIOD_S = 0.25


def _spd(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class _Kernel:
    """The probe: the named parts of PART_REF_S, run once each."""

    def __init__(self, parts: tuple[str, ...]):
        unknown = set(parts) - set(PART_REF_S)
        if unknown or not parts:
            raise ValueError(f"probe parts must be among {sorted(PART_REF_S)}, got {parts}")
        self.parts = parts
        self.ref_s = sum(PART_REF_S[part] for part in parts)
        rng = np.random.default_rng(0)
        self.gathers = []
        for p in _GATHER_SIZES:
            rows, cols = np.triu_indices(p)
            self.gathers.append((rng.standard_normal((p, p)), rows, cols))
        self.dense = [_spd(rng, n) for n in _CHOLESKY_SIZES]
        self.small = _spd(rng, _SMALL_SIZE)

    def gather(self) -> None:
        for A, i, j in self.gathers:
            G = A[np.ix_(j, i)] * A[np.ix_(i, j)] + A[np.ix_(j, j)] * A[np.ix_(i, i)]
            G *= 0.5

    def cholesky(self) -> None:
        for M in self.dense:
            scipy.linalg.cho_factor(M, lower=True)

    def small_loop(self) -> None:
        M = self.small
        for _ in range(_SMALL_CALLS):
            np.sum(np.log(np.diag(np.linalg.cholesky(M))))
            np.linalg.inv(M) @ M

    def __call__(self) -> None:
        for part in self.parts:
            {"gather": self.gather, "cholesky": self.cholesky, "small": self.small_loop}[part]()


class SpeedLog:
    """The probes of one run, in time order: start and end stamps (perf_counter_ns).

    Gap k is the time between probe k-1 and probe k; gap 0 lies before the
    first probe and gap n after the last.  The slowness in gap k is the mean
    over the probes around it, k-1 and k, and one more on each side.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._kernel = _Kernel(parts)

    def probe(self) -> None:
        t0 = time.perf_counter_ns()
        self._kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())

    def _gap_slowness(self, k: int) -> float:
        lo, hi = max(k - 2, 0), min(k + 2, len(self.starts))
        probe_ns = sum(self.ends[lo:hi]) - sum(self.starts[lo:hi])
        return probe_ns / (hi - lo) / 1e9 / self._kernel.ref_s

    def normalized_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds from `start_ns` to `end_ns` outside the probes, each gap divided by its slowness."""
        n = len(self.starts)
        total = 0.0
        for k in range(bisect.bisect_right(self.ends, start_ns), bisect.bisect_left(self.starts, end_ns) + 1):
            lo = max(self.ends[k - 1] if k > 0 else start_ns, start_ns)
            hi = min(self.starts[k] if k < n else end_ns, end_ns)
            if hi > lo:
                total += (hi - lo) / self._gap_slowness(k)
        return total / 1e9

    def raw_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds from `start_ns` to `end_ns` outside the probes."""
        lo = bisect.bisect_left(self.starts, start_ns)
        hi = bisect.bisect_right(self.ends, end_ns)
        probe_ns = max(sum(self.ends[lo:hi]) - sum(self.starts[lo:hi]), 0)
        return (end_ns - start_ns - probe_ns) / 1e9

    def median_slowness(self) -> float:
        return statistics.median((b - a) / 1e9 / self._kernel.ref_s for a, b in zip(self.starts, self.ends))


# Solver entry points called once per inner step: a Newton direction, or a
# block-coordinate-descent iteration's gradient.
_STEP_HOOKS = (("lsfa.newton", "newton_direction"), ("lsfa.baseline", "grad_h_tau"))


@contextlib.contextmanager
def probing(log: SpeedLog, period_s: float = PROBE_PERIOD_S):
    """Probe at the start of an inner step once `period_s` has passed since the last probe."""
    period_ns = int(period_s * 1e9)
    undo = []

    def throttled(inner):
        @functools.wraps(inner)
        def probed(*args, **kwargs):
            if time.perf_counter_ns() - log.ends[-1] >= period_ns:
                log.probe()
            return inner(*args, **kwargs)
        return probed

    try:
        for module_name, attr in _STEP_HOOKS:
            module = sys.modules[module_name]
            inner = getattr(module, attr)
            setattr(module, attr, throttled(inner))
            undo.append((module, attr, inner))
        yield
    finally:
        for module, attr, inner in reversed(undo):
            setattr(module, attr, inner)
