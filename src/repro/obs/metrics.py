"""Lightweight metrics registry: counters, gauges, histograms.

The profiler, the bench harnesses, and the testsuite runner all feed one
:class:`MetricsRegistry`, so machine-readable run profiles can report
"how many kernels launched / cases passed / bytes moved" without each
subsystem inventing its own ad-hoc tally.  The instruments are the three
conventional ones:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a last-write-wins sample;
* :class:`Histogram` — a streaming summary (count / sum / min / max) of
  observed values, without bucket storage (a full per-observation record
  is the trace recorder's job, not the metrics layer's).

Names are dotted strings (``"profiler.kernel_launches"``); registries
create instruments on first use and re-return the same instance after, so
repeated launches accumulate into one series.

Instruments are thread-safe: each read-modify-write (``inc``,
``observe``) holds a per-instrument lock, and instrument creation holds a
registry lock, so concurrent emitters (the telemetry bus's contract —
see :mod:`repro.obs.timeline`) never lose updates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _lock_field():
    return field(default_factory=threading.Lock, repr=False, compare=False)


@dataclass
class Counter:
    """Monotonic total; ``inc`` by any non-negative amount."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = _lock_field()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """Last-observed value (e.g. occupancy of the most recent launch)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Streaming summary of observations (no per-value storage)."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    _lock: threading.Lock = _lock_field()

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class MetricsRegistry:
    """Create-on-first-use instrument store shared by one profiling run."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    _lock: threading.Lock = _lock_field()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self.counters:
                self.counters[name] = Counter(name)
            return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self.gauges:
                self.gauges[name] = Gauge(name)
            return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self.histograms:
                self.histograms[name] = Histogram(name)
            return self.histograms[name]

    def reset(self) -> None:
        """Drop every instrument — the between-runs isolation primitive.

        Callers that reuse one registry (or profiler) across logically
        separate ``Program.run`` calls reset it so the next run's
        snapshot carries no cross-run leakage."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    def to_dict(self) -> dict:
        """JSON-ready snapshot (stable key order for golden tests)."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {"count": h.count, "total": h.total,
                    "mean": h.mean, "min": h.min, "max": h.max}
                for n, h in sorted(self.histograms.items())
            },
        }

    def format(self) -> str:
        """Aligned text rendering for the profile report."""
        lines: list[str] = []
        for n, c in sorted(self.counters.items()):
            lines.append(f"  {n:<44s} {c.value:>14g}")
        for n, g in sorted(self.gauges.items()):
            lines.append(f"  {n:<44s} {g.value:>14g}")
        for n, h in sorted(self.histograms.items()):
            lines.append(f"  {n:<44s} n={h.count} mean={h.mean:g} "
                         f"min={h.min:g} max={h.max:g}")
        return "\n".join(lines)
