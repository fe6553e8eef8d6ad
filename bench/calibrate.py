"""Host-speed calibration: timings expressed at a fixed reference CPU speed.

On a shared host the CPU can switch between speed states (1.5-2x apart
on a 2-vCPU KVM guest) for anything from half a second to minutes, longer
than a run, and no statistic inside one run removes a state that outlasts
it. The program's code slows by nearly the same factor as a fixed reference
chunk run at the same moment, so the benchmark runs that chunk every
``PERIOD_S`` of wall time from a ``SIGALRM`` handler and rescales the
program's time by how slow the chunk was right then:

* A sample that falls due while the workload's op runs waits until the op
  returns (``hold()``/``release()``), so no op is timed with a chunk inside.
* ``SpeedProbe.clock()`` is ``perf_counter()`` minus the time spent in the
  reference chunk, so the chunk never counts towards the program.
* ``SpeedProbe.to_reference(t)`` maps ``clock()`` readings to seconds at the
  reference speed: each stretch between two samples counts
  ``REF_NOMINAL_S / (chunk time around that sample)`` times its length.

The chunk lives here, outside the library, so no change to phibal can make
it faster or slower. Raw wall times are printed beside the calibrated ones.
The chunk uses numpy, so numpy is imported when a probe is made.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# One reference chunk: a float loop in the interpreter (about 65 % of its
# time), small numpy ufunc calls (15 %, dispatch overhead as in the autodiff
# graph) and small single-threaded matmuls (20 %). The shares were fitted,
# from a signal handler between ops as here, to the slowdown of
# ``Trainer.step`` (train and eval steps) and ``MoeStack.forward`` across the
# host's speed states: over 1 s windows the log-spread of op time over chunk
# time was 0.04-0.05, against 0.17 for op time alone. Its arrays take 40 KB,
# so it evicts little of the program's cache, and nothing in it allocates a
# container, so it never runs the garbage collector on the program's behalf.
LOOP_ITERS = 2100
UFUNC_PAIRS = 20
MATMULS = 8
# Seconds one chunk takes at the reference speed: about the fast state of a
# 2-vCPU Intel Xeon KVM guest (Python 3.11, numpy 2.4, one OpenBLAS thread).
REF_NOMINAL_S = 1.0e-4
PERIOD_S = 0.02
# Samples each side of a sample whose median gives the speed around it.
SMOOTH = 4


class ReferenceChunk:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a, self.b, self.c = np.ones(8), np.full(8, 0.5), np.empty(8)
        self.m1, self.m2 = rng.random((32, 32)), rng.random((32, 64))
        self.m3 = np.empty((32, 64))

    def __call__(self) -> float:
        s = 0.5
        for _ in range(LOOP_ITERS):
            s = s * 0.999 + 1.0
        multiply, add = np.multiply, np.add
        a, b, c = self.a, self.b, self.c
        for _ in range(UFUNC_PAIRS):
            multiply(a, b, out=c)
            add(c, a, out=c)
        for _ in range(MATMULS):
            np.dot(self.m1, self.m2, out=self.m3)
        return s


class SpeedProbe:
    def __init__(self) -> None:
        self.ref_total = 0.0
        self.at: list[float] = []  # clock() when each sample finished
        self.took: list[float] = []  # seconds each reference chunk took
        self.chunk = ReferenceChunk()
        self.busy = False
        self.pending = False

    def clock(self) -> float:
        """Program seconds: wall time minus time spent in the reference loop."""
        while True:
            spent = self.ref_total
            now = perf_counter()
            if spent == self.ref_total:  # no sample ran in between
                return now - spent

    def hold(self) -> None:
        """Defer samples until ``release()``: the workload's op is running,
        and a chunk inside it would evict the caches it uses."""
        self.busy = True

    def release(self) -> None:
        self.busy = False
        if self.pending:
            self.pending = False
            self.sample()

    def sample(self, *_args) -> None:
        if self.busy:
            self.pending = True
            return
        t0 = perf_counter()
        self.chunk()
        t1 = perf_counter()
        self.ref_total += t1 - t0
        self.at.append(t1 - self.ref_total)
        self.took.append(t1 - t0)

    @contextmanager
    def running(self):
        """Sample every ``PERIOD_S`` while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        # Restart interrupted system calls, so C code in numpy, scipy or the
        # library never sees EINTR because of the probe.
        signal.siginterrupt(signal.SIGALRM, False)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factors(self):
        """Reference-speed seconds per program second around each sample."""
        took = np.pad(np.asarray(self.took), SMOOTH, mode="edge")
        window = np.lib.stride_tricks.sliding_window_view(took, 2 * SMOOTH + 1)
        return REF_NOMINAL_S / np.median(window, axis=1)

    def to_reference(self, times):
        """Map ``clock()`` readings to a clock that runs at the reference
        speed; differences of its values are calibrated durations."""
        t = np.asarray(times, dtype=float)
        at = np.asarray(self.at)
        f = self.factors()
        # The stretch (at[i-1], at[i]] runs at the speed measured at sample i.
        cum = np.concatenate(([0.0], np.cumsum(np.diff(at) * f[1:])))
        out = np.interp(t, at, cum)
        out = np.where(t < at[0], (t - at[0]) * f[0], out)
        return np.where(t > at[-1], cum[-1] + (t - at[-1]) * f[-1], out)

    def summary(self) -> dict:
        took = np.asarray(self.took)
        if not len(took):
            return {"samples": 0}
        f = self.factors()
        return {
            "samples": len(took),
            "speed_p10": float(np.percentile(f, 10)),
            "speed_p50": float(np.median(f)),
            "speed_p90": float(np.percentile(f, 90)),
            "reference_share": self.ref_total / (self.ref_total + self.at[-1] - self.at[0]),
        }
