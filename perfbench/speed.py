"""Host-speed probe: the benchmark's correction for a shared, drifting host.

On a shared 2-core host the effective speed of the same code drifts by
±20% over seconds, and by up to 2x between minutes.  Medians inside one
run cannot remove drift that spans the whole run, so the timed phase is
interleaved with this fixed probe: small NumPy operations on a 64-element
array, whose cost is the interpreter and NumPy's per-call dispatch, the
cost that dominates the simulator's small launches and the compiler.  A
time ``t`` measured over ``[t0, t1]`` is reported as ``t * REF_S / p``,
where ``p`` is the mean probe duration within ``WINDOW_S`` of that
interval: the time the operation would have taken at the speed the host
had when ``REF_S`` was measured.  Measured on that host, pinned to one
CPU, over 60-90 s of interleaved probes and work, the spread (IQR/median)
of 5 s window medians was, raw and then corrected by this probe:
heat-loop launches 0.125 -> 0.016, corpus compiles 0.54 -> 0.023, Table 2
grid runs 0.22 -> 0.033.  The probe is the benchmark's own code, so no
change to the program can move it.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

import numpy as np

#: the probe's median duration on the reference host (2-core Xeon VM)
REF_S = 1.44e-3
#: probes this close to an interval (either side) set its correction:
#: single probes scatter by ±10%, so a few are averaged, but the host's
#: speed moves within a second, so only near ones
WINDOW_S = 0.3
#: closed-loop workloads probe between units at most this often
EVERY_S = 0.1

_DATA = np.random.default_rng(0).random(64)


def probe() -> float:
    """Seconds one fixed unit of NumPy dispatch work takes right now."""
    t0 = time.perf_counter()
    x = _DATA
    for _ in range(200):
        x = np.where(x > 0.5, x * 0.5, x + 0.25)
        x.sum()
    return time.perf_counter() - t0


class SpeedLog:
    """Timestamped probe readings and the correction they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, k: int = 1) -> None:
        for _ in range(k):
            took = probe()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY_S

    def factor(self, t0: float, t1: float) -> float:
        """Correction for a time measured over ``[t0, t1]``."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        near = took[(at >= t0 - WINDOW_S) & (at <= t1 + WINDOW_S)]
        if near.size < 2:
            near = took[np.argsort(np.abs(at - (t0 + t1) / 2))[:2]]
        return REF_S / float(near.mean())

    def __len__(self) -> int:
        return len(self.at)


class ProbeProcess:
    """Probes taken by a helper process every ``EVERY_S`` while open.

    For ``serve_mixed``, whose device threads share the interpreter lock
    with the event loop: a probe in that process either waits for the
    lock and measures the service's own load, or is taken only while the
    devices are idle and then runs at once, missing the other tenants of
    the host.  The helper probes each CPU in turn.
    ``perf_counter`` is the system-wide monotonic clock, so its readings
    line up with the workload's.  They go into ``log`` on exit.
    """

    def __init__(self, log: SpeedLog):
        self.log = log
        self.proc = None

    def __enter__(self) -> "ProbeProcess":
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--probe-loop"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._add(self.proc.stdout.readline())  # the helper is probing
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate(timeout=60)  # EOF stops it
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        for line in out.splitlines():
            self._add(line)

    def _add(self, line: str) -> None:
        at, took = line.split()
        self.log.at.append(float(at))
        self.log.took.append(float(took))


def _probe_loop() -> None:
    """Helper-process body: probe every ``EVERY_S`` until stdin closes,
    visiting the CPUs it may use in turn (an unpinned workload's threads
    run on all of them, and the cores of a shared host drift apart)."""
    cpus = sorted(os.sched_getaffinity(0))
    k = 0
    while True:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        k += 1
        took = probe()
        print(f"{time.perf_counter()!r} {took!r}", flush=True)
        if select.select([sys.stdin], [], [], EVERY_S)[0]:
            return


if __name__ == "__main__" and sys.argv[1:] == ["--probe-loop"]:
    _probe_loop()
