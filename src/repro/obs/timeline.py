"""``repro.obs.timeline`` — the unified structured telemetry bus.

Every observable subsystem emits typed events into one opt-in bus:

* ``repro.passes``  — one ``span`` per compilation pass, one ``decision``
  per autotuned reduction variable;
* ``repro.gpu``     — launch-compile-cache ``counter`` hits/misses, one
  executor-mode ``decision`` per launch, kernel/transfer ``span``s with
  modeled durations;
* ``repro.faults``  — one ``fault`` event per injection, plus ``decision``
  events for retry and degrade transitions in the hardened run path;
* ``repro.bench``   — cost-model-vs-wall-clock ``counter`` samples from
  the perf-history recorder (:mod:`repro.bench.history`).

The bus is a process-wide, strictly opt-in singleton: nothing is
installed by default, every emit site is guarded by ``current() is
None``, and with no timeline installed the run path allocates nothing —
the same zero-overhead contract the attribution layer pins (enforced by
the bench smoke ``telemetry_guard``).

**Listeners** (:func:`listen`) see every emitted event *before*
per-category sampling and the ring bound, so a consumer such as
:class:`repro.obs.Profiler` is never truncated by a sampled bus.  A
listener with no bus installed gets a relay bus that forwards events and
retains none.  Listener events may carry ``refs`` — in-memory objects
(the kernel span's ``KernelStats``, ``TimeBreakdown``, kernel IR) that
the ring copy, :meth:`Event.to_dict` and the JSONL export leave out.

Events carry a monotonic timestamp (microseconds since the timeline's
epoch, from :func:`time.perf_counter`) and a process-unique sequence
number, live in a bounded ring buffer (oldest events drop first, with a
drop counter), and support deterministic per-category sampling
(``sample={"gpu": 10}`` keeps every 10th ``gpu`` event).  Export is
JSONL — a header record (drop/sampling accounting, so downstream tools
can tell a truncated trace from a quiet one) followed by one event
object per line — consumed by ``python -m repro obs events`` / ``obs
trace`` and by any external dashboard.

**Request tracing** (:mod:`repro.obs.trace`) is a second opt-in layer on
top of the bus: when a :class:`Tracer` is installed *and* a contextvar
trace context is active, :meth:`Timeline.emit` stamps every event's
attrs with ``trace_id``/``span_id``/``parent_id`` so flat events
reassemble into per-request span trees.  With no tracer installed the
stamping path is a single module-global read and **no new fields are
emitted** — the telemetry_guard zero-overhead pin is preserved.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Event", "Timeline", "Tracer", "current", "install",
           "uninstall", "enabled", "emit", "EVENT_KINDS", "tracer",
           "install_tracer", "uninstall_tracer", "trace_active",
           "listen", "unlisten", "read_jsonl"]

#: the typed event vocabulary; anything else is rejected at emit time
EVENT_KINDS = ("span", "counter", "decision", "fault")


def _json_default(obj):
    """Coerce non-JSON attr values (numpy scalars, tuples of them).

    ``float`` before ``int``: ``int(np.float32(2.5))`` would silently
    truncate, while ``float`` of an integer scalar is exact (attr values
    are small counters and durations, well inside 2**53).
    """
    item = getattr(obj, "item", None)
    if item is not None:
        try:
            return item()
        except (TypeError, ValueError):
            pass
    for cast in (float, int):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


class Tracer:
    """Allocates process-unique trace and span ids for request tracing.

    Counter-based (no randomness, no wall clock) so two identical runs
    allocate identical ids — trace exports are deterministic and
    diffable.  ``itertools.count`` is atomic under the GIL, so device
    worker threads may allocate concurrently.
    """

    def __init__(self):
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def new_span_id(self) -> int:
        return next(self._span_ids)

    def new_trace_id(self) -> str:
        return f"t{next(self._trace_ids):04d}"


#: the installed tracer (None = request tracing off, the default) and the
#: per-context (task / attached thread) trace position: (trace_id,
#: parent_span_id) or None.  Contextvars give each asyncio task its own
#: copy, so concurrent requests cannot cross-stamp; executor threads do
#: NOT inherit them — cross-thread handoff goes through
#: :func:`repro.obs.trace.attach`.
_TRACER: Tracer | None = None
_TRACE_CTX: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_ctx", default=None)


def tracer() -> Tracer | None:
    """The installed tracer, or ``None`` (request tracing off)."""
    return _TRACER


def install_tracer(t: Tracer | None = None) -> Tracer:
    """Install (and return) the process tracer; replaces any previous."""
    global _TRACER
    _TRACER = t if t is not None else Tracer()
    return _TRACER


def uninstall_tracer() -> Tracer | None:
    """Remove the tracer; returns the removed one (if any)."""
    global _TRACER
    t, _TRACER = _TRACER, None
    return t


def trace_active() -> bool:
    """True when both a bus and a tracer are installed — the guard
    structural emit sites use before opening request-trace spans."""
    return _TRACER is not None and _CURRENT is not None


@dataclass(frozen=True)
class Event:
    """One telemetry event on the bus.

    ``ts_us`` is monotonic (relative to the owning timeline's epoch) and
    ``seq`` totally orders events even when timestamps collide; ``dur_us``
    is meaningful for ``span`` events (0 for instantaneous kinds).
    ``refs`` holds in-memory references for listeners only (``seq`` is
    -1 on a listener's copy); it is never retained or exported.
    """

    seq: int
    ts_us: float
    category: str   # "passes" | "gpu" | "faults" | "bench" | ...
    kind: str       # one of EVENT_KINDS
    name: str
    dur_us: float = 0.0
    attrs: dict = field(default_factory=dict)
    refs: dict | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {"seq": self.seq, "ts_us": round(self.ts_us, 3),
                "category": self.category, "kind": self.kind,
                "name": self.name, "dur_us": round(self.dur_us, 4),
                "attrs": dict(self.attrs)}

    def to_jsonl(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          default=_json_default)


class Timeline:
    """Bounded ring buffer of :class:`Event` with per-category sampling.

    ``capacity`` bounds memory: when full, the oldest event is dropped
    and ``dropped`` incremented — telemetry must never OOM the program
    it observes.  ``sample`` maps category → keep-every-nth (``{"gpu":
    8}`` keeps the 1st, 9th, ... ``gpu`` event; sampled-out events count
    in ``sampled_out``).  Emission is thread-safe: one lock covers the
    append and every reader's snapshot (and ``prune_trace``'s rebuild),
    so readers never iterate a deque that a device thread is mutating and
    no concurrently appended event is lost.
    """

    #: False on the relay a listener installs when no bus is: events
    #: reach the listeners and are not retained
    _retain = True

    def __init__(self, capacity: int = 8192,
                 sample: dict[str, int] | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._epoch = time.perf_counter()
        self._sample = {c: int(n) for c, n in (sample or {}).items()}
        self._sample_counts: dict[str, int] = {}
        self.emitted = 0      # events offered to the bus
        self.sampled_out = 0  # dropped by per-category sampling
        self.dropped = 0      # dropped by the ring bound
        self.pruned = 0       # dropped by trace tail-sampling (prune_trace)
        #: trace ids pruned by tail sampling; late events of these traces
        #: (an abandoned hedge loser finishing after the verdict) are
        #: suppressed at emit so a pruned trace cannot leave orphans
        self._suppressed_traces: set = set()

    # -- emission --------------------------------------------------------

    def emit(self, category: str, kind: str, name: str,
             dur_us: float = 0.0, refs: dict | None = None,
             **attrs) -> Event | None:
        """Append one event; returns it, or ``None`` when sampled out.

        ``refs`` (in-memory objects for listeners) is not retained."""
        return self._emit(time.perf_counter(), category, kind, name,
                          dur_us, attrs, refs)

    def _emit(self, now: float, category: str, kind: str, name: str,
              dur_us: float, attrs: dict, refs: dict | None = None):
        """:meth:`emit` at a given :func:`time.perf_counter` reading (a
        span closed at ``now`` then starts exactly ``dur_us`` before its
        ``ts_us``)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r} "
                             f"(expected one of {EVENT_KINDS})")
        tr = _TRACER
        if tr is not None:
            # request-trace stamping: explicit ids (from trace.span's
            # emit-at-close) win over the ambient context
            ctx = _TRACE_CTX.get()
            if ctx is not None:
                attrs.setdefault("trace_id", ctx[0])
                if kind == "span" and "span_id" not in attrs:
                    attrs["span_id"] = tr.new_span_id()
                if ctx[1] is not None:
                    attrs.setdefault("parent_id", ctx[1])
        ts_us = (now - self._epoch) * 1e6
        dur_us = float(dur_us)
        if _LISTENERS:
            seen = Event(seq=-1, ts_us=ts_us, category=category, kind=kind,
                         name=name, dur_us=dur_us, attrs=attrs, refs=refs)
            for fn in _LISTENERS:
                fn(seen)
            if not self._retain:
                return seen
        with self._lock:
            self.emitted += 1
            if (self._suppressed_traces
                    and attrs.get("trace_id") in self._suppressed_traces):
                self.pruned += 1
                return None
            n = self._sample.get(category)
            if n is not None:
                c = self._sample_counts.get(category, 0)
                self._sample_counts[category] = c + 1
                if n <= 0 or c % n:
                    self.sampled_out += 1
                    return None
            if len(self._events) == self.capacity:
                self.dropped += 1
            ev = Event(seq=next(self._seq), ts_us=ts_us, category=category,
                       kind=kind, name=name, dur_us=dur_us, attrs=attrs)
            self._events.append(ev)
        return ev

    def span(self, category: str, name: str, dur_us: float, **attrs):
        return self.emit(category, "span", name, dur_us, **attrs)

    def counter(self, category: str, name: str, **attrs):
        return self.emit(category, "counter", name, **attrs)

    def decision(self, category: str, name: str, **attrs):
        return self.emit(category, "decision", name, **attrs)

    def fault(self, category: str, name: str, **attrs):
        return self.emit(category, "fault", name, **attrs)

    @contextmanager
    def timed_span(self, category: str, name: str, **attrs):
        """Wall-clock span around a ``with`` body (host-side work)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._emit(t1, category, "span", name, (t1 - t0) * 1e6, attrs)

    # -- reading / draining ----------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def _snapshot(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def events(self, category: str | None = None,
               kind: str | None = None) -> list[Event]:
        """Snapshot of retained events, optionally filtered."""
        return [ev for ev in self._snapshot()
                if (category is None or ev.category == category)
                and (kind is None or ev.kind == kind)]

    def categories(self) -> dict[str, int]:
        """Retained event count per category (sorted for stable output)."""
        counts: dict[str, int] = {}
        for ev in self._snapshot():
            counts[ev.category] = counts.get(ev.category, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        """Drop retained events (counters and the epoch are kept)."""
        with self._lock:
            self._events.clear()

    def drain(self) -> list[Event]:
        """Return retained events and clear the buffer — the per-run
        isolation primitive (no cross-run leakage when one bus spans
        several ``Program.run`` calls)."""
        with self._lock:
            out = list(self._events)
            self._events.clear()
        return out

    def prune_trace(self, trace_id) -> int:
        """Drop every retained event of one trace and suppress its late
        arrivals — how tail sampling bounds memory through the ring
        buffer.  Returns the number of events removed (also counted in
        ``pruned``)."""
        with self._lock:
            self._suppressed_traces.add(trace_id)
            keep = [ev for ev in self._events
                    if ev.attrs.get("trace_id") != trace_id]
            removed = len(self._events) - len(keep)
            if removed:
                self._events.clear()
                self._events.extend(keep)
                self.pruned += removed
        return removed

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """The retained events, one JSON object per line (no header)."""
        return "\n".join(ev.to_jsonl() for ev in self._snapshot())

    def header(self) -> dict:
        """The export header record: drop/sampling accounting plus the
        sampling config, so a reader can tell a truncated export (ring
        drops, category sampling, trace pruning) from a quiet one."""
        return {"header": "repro.obs.timeline", "schema": 1,
                "capacity": self.capacity,
                "retained": len(self._events), "emitted": self.emitted,
                "dropped": self.dropped, "sampled_out": self.sampled_out,
                "pruned": self.pruned,
                "sample": dict(sorted(self._sample.items())),
                "tracing": _TRACER is not None}

    def export_jsonl(self, path: str) -> str:
        """Write the JSONL document — one header record, then one event
        per line — and return the path."""
        with open(path, "w") as f:
            f.write(json.dumps(self.header(), sort_keys=True) + "\n")
            body = self.to_jsonl()
            if body:
                f.write(body + "\n")
        return path

    def stats(self) -> dict:
        return {"retained": len(self._events), "emitted": self.emitted,
                "sampled_out": self.sampled_out, "dropped": self.dropped,
                "pruned": self.pruned, "capacity": self.capacity}


# -- the process-wide bus (opt-in singleton) ------------------------------

_CURRENT: Timeline | None = None
#: listener callables, each called with every emitted :class:`Event`
_LISTENERS: tuple = ()
#: the relay :func:`listen` installed when no bus was (None otherwise)
_RELAY: Timeline | None = None
_LISTEN_LOCK = threading.Lock()


def current() -> Timeline | None:
    """The installed bus, or ``None`` (the zero-overhead default)."""
    return _CURRENT


def install(timeline: Timeline | None = None, *, capacity: int = 8192,
            sample: dict[str, int] | None = None) -> Timeline:
    """Install (and return) the process bus; replaces any previous one."""
    global _CURRENT
    _CURRENT = timeline if timeline is not None else Timeline(
        capacity=capacity, sample=sample)
    return _CURRENT


def uninstall() -> Timeline | None:
    """Remove the bus; returns the removed timeline (if any)."""
    global _CURRENT
    tl, _CURRENT = _CURRENT, None
    return tl


@contextmanager
def enabled(timeline: Timeline | None = None, *, capacity: int = 8192,
            sample: dict[str, int] | None = None):
    """Scoped installation: the bus is live inside the ``with`` body and
    the previous state (usually: no bus) is restored after."""
    global _CURRENT
    prev = _CURRENT
    tl = install(timeline, capacity=capacity, sample=sample)
    try:
        yield tl
    finally:
        _CURRENT = prev


def listen(fn) -> None:
    """Call ``fn(event)`` for every event emitted on any bus, before
    sampling and the ring bound.  With no bus installed, installs a relay
    that retains nothing, so every emit site reports while ``fn``
    listens."""
    global _LISTENERS, _CURRENT, _RELAY
    with _LISTEN_LOCK:
        _LISTENERS = _LISTENERS + (fn,)
        if _CURRENT is None:
            _RELAY = _CURRENT = Timeline(capacity=1)
            _RELAY._retain = False


def unlisten(fn) -> None:
    """Stop calling ``fn``; the last listener to leave removes the relay
    (restoring ``current() is None``)."""
    global _LISTENERS, _CURRENT, _RELAY
    with _LISTEN_LOCK:
        _LISTENERS = tuple(f for f in _LISTENERS if f != fn)
        if not _LISTENERS:
            if _CURRENT is _RELAY:
                _CURRENT = None
            _RELAY = None


def read_jsonl(path: str) -> tuple[dict | None, list[dict]]:
    """Parse an exported timeline file: ``(header, events)``.

    Tolerates header-less exports from older writers (``header`` is then
    ``None``); events are plain dicts in file order.
    """
    header = None
    events: list[dict] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if "category" in doc:
                events.append(doc)
            elif doc.get("header") == "repro.obs.timeline":
                header = doc
    return header, events


def emit(category: str, kind: str, name: str, dur_us: float = 0.0,
         **attrs) -> Event | None:
    """Emit onto the installed bus, or do nothing when none is installed.

    Hot sites prefer the inline guard ``tl = current(); if tl is not
    None: tl.emit(...)`` so the disabled path is a single attribute read.
    """
    tl = _CURRENT
    if tl is None:
        return None
    return tl.emit(category, kind, name, dur_us, **attrs)
