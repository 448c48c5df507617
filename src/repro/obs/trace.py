"""Request-scoped causal tracing and the Chrome-trace exporter.

The simulator has no real clock: kernel and transfer durations are
*modeled* microseconds, while compile phases are host work measured in
wall time.  Chrome exports therefore use one ``tid`` per *track*
(``device`` for modeled time, ``host`` for wall time); :func:`chrome_span`,
:func:`chrome_counter` and :func:`chrome_document` build the Chrome
trace-event JSON (load the file in ``chrome://tracing`` or
https://ui.perfetto.dev): complete events (``"ph": "X"``) with
microsecond timestamps, counter samples (``"ph": "C"``), plus
``thread_name`` metadata events so the tracks are labeled.

**Request tracing.**  The second half of this module is the
request-scoped causal layer over the :mod:`repro.obs.timeline` bus:

* :func:`tracing` / :func:`install_tracing` turn the layer on (it is
  strictly opt-in — uninstalled, no event gains a trace field and the
  run path executes one extra module-global read at most);
* :func:`span` opens a structural span — a fresh root when no context
  is active (``trace_id`` defaults to an allocated ``tNNNN``), a child
  otherwise — and every event emitted inside it (scheduler decisions,
  pass spans, compile-cache counters, kernel/transfer spans, fault
  records) is stamped with ``trace_id``/``span_id``/``parent_id`` by
  :meth:`~repro.obs.timeline.Timeline.emit`;
* :func:`attach` re-establishes a context on a worker thread (executor
  threads do not inherit contextvars);
* :func:`assemble` rebuilds per-trace span trees from exported events,
  :func:`critical_path` walks the dominant chain with self-vs-child
  time, :func:`render_tree` prints the annotated text report behind
  ``python -m repro obs trace``, and :func:`tree_to_chrome` exports one
  request as a flamegraph-shaped Chrome trace;
* :class:`TailSampler` bounds memory: error/deadline-missed traces are
  always kept, the k slowest are kept, every nth of the rest is kept
  deterministically, and everything else is pruned from the ring.

Kernel and transfer spans carry *modeled* microseconds while structural
spans carry wall time; the analyzer never mixes the clocks — self time
is computed against same-clock children only, and modeled spans are
rendered with a ``~`` marker.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import timeline as _timeline

__all__ = ["chrome_span", "chrome_counter", "chrome_document",
           "SpanHandle", "SpanNode", "TraceTree", "TailSampler",
           "install_tracing", "uninstall_tracing", "tracing",
           "tracing_enabled", "span", "attach", "current_ids",
           "assemble", "critical_path", "render_tree", "tree_to_chrome",
           "verify_request_traces"]

#: track name → Chrome-trace tid
TRACKS = {"device": 0, "host": 1}


def chrome_span(name: str, cat: str, start_us: float, dur_us: float,
                track: str = "device", args: dict | None = None) -> dict:
    """One complete event (``"ph": "X"``) on a track (microseconds)."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": round(start_us, 4),
        "dur": round(dur_us, 4),
        "pid": 0,
        "tid": TRACKS.get(track, len(TRACKS)),
        "args": {} if args is None else args,
    }


def chrome_counter(name: str, ts_us: float, values: dict,
                   track: str = "device") -> dict:
    """One counter sample (``"ph": "C"``): a named track of numeric
    series stacked by the viewer at a point in time."""
    return {
        "name": name,
        "ph": "C",
        "ts": round(ts_us, 4),
        "pid": 0,
        "tid": TRACKS.get(track, len(TRACKS)),
        "args": dict(values),
    }


def chrome_document(events: list[dict]) -> dict:
    """The Chrome trace-event document (``traceEvents`` object form):
    track-name metadata, then ``events``."""
    meta: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": f"{track} (modeled)" if track == "device"
                  else f"{track} (wall)"}}
        for track, tid in TRACKS.items()
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


# ======================================================================
# Request-scoped causal tracing
# ======================================================================

#: span names carrying *modeled* microseconds rather than wall time; the
#: analyzer detects the clock domain by name so the existing gpu emit
#: sites need no changes
_MODELED_PREFIXES = ("kernel:", "transfer:")


def install_tracing(tracer=None):
    """Install the request-tracing layer (allocates a fresh
    deterministic :class:`~repro.obs.timeline.Tracer` unless given one).
    Stamping only happens while a timeline bus is *also* installed."""
    return _timeline.install_tracer(tracer)


def uninstall_tracing():
    """Remove the tracer; subsequent events carry no trace fields."""
    return _timeline.uninstall_tracer()


def tracing_enabled() -> bool:
    """True when both a bus and a tracer are installed — the guard every
    structural emit site checks before opening a request-trace span."""
    return _timeline.trace_active()


@contextmanager
def tracing(tracer=None):
    """Scoped tracer installation (restores the previous tracer after)."""
    prev = _timeline.tracer()
    t = _timeline.install_tracer(tracer)
    try:
        yield t
    finally:
        if prev is None:
            _timeline.uninstall_tracer()
        else:
            _timeline.install_tracer(prev)


@dataclass
class SpanHandle:
    """The mutable view of an open span yielded by :func:`span`: set
    ``handle.attrs[...]`` inside the body to annotate the span event
    emitted at close.  Inert (all ids ``None``) when tracing is off."""

    trace_id: object
    span_id: int | None
    parent_id: int | None
    attrs: dict


@contextmanager
def span(category: str, name: str, *, trace_id=None, **attrs):
    """Open a structural wall-clock span in the current trace context.

    With no active context this starts a *root*: ``trace_id`` names the
    trace (a serve request passes its request id) or one is allocated.
    With an active context the span becomes a child and ``trace_id`` is
    ignored.  Everything emitted inside the body — by any subsystem —
    is stamped as a descendant via the contextvar; the span's own event
    is emitted at close (``ts_us`` marks the END; start is ``ts_us -
    dur_us``) carrying its explicit ids, so assembly never depends on
    emission order.  Exceptions annotate ``error=<type>`` and re-raise.
    With tracing uninstalled the body runs with an inert handle and
    nothing is emitted.
    """
    tl = _timeline.current()
    tr = _timeline.tracer()
    if tl is None or tr is None:
        yield SpanHandle(None, None, None, {})
        return
    ctx = _timeline._TRACE_CTX.get()
    if ctx is not None:
        tid, parent = ctx
    else:
        tid = trace_id if trace_id is not None else tr.new_trace_id()
        parent = None
    sid = tr.new_span_id()
    handle = SpanHandle(tid, sid, parent, dict(attrs))
    token = _timeline._TRACE_CTX.set((tid, sid))
    t0 = time.perf_counter()
    try:
        yield handle
    except BaseException as exc:
        handle.attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        t1 = time.perf_counter()
        _timeline._TRACE_CTX.reset(token)
        cur = _timeline.current()
        if cur is not None:
            ids = {"trace_id": tid, "span_id": sid}
            if parent is not None:
                ids["parent_id"] = parent
            ids.update(handle.attrs)
            cur._emit(t1, category, "span", name, (t1 - t0) * 1e6, ids)


@contextmanager
def attach(trace_id, span_id=None):
    """Re-establish a trace context on a worker thread.

    Executor threads do not inherit contextvars, so cross-thread
    handoffs capture :func:`current_ids` on the submitting side and
    ``attach(*ids)`` around the thread body."""
    token = _timeline._TRACE_CTX.set((trace_id, span_id))
    try:
        yield
    finally:
        _timeline._TRACE_CTX.reset(token)


def current_ids():
    """The active ``(trace_id, parent_span_id)`` context, or ``None``."""
    return _timeline._TRACE_CTX.get()


class TailSampler:
    """Deterministic tail sampling over completed request traces.

    Keep rules (a trace kept by *any* rule survives): every trace whose
    status is in ``keep_statuses`` (errors and missed deadlines must
    stay debuggable), the ``keep_slowest`` highest-latency traces seen
    so far (min-heap; a trace evicted by a slower arrival is pruned
    unless another rule holds it), and deterministically every
    ``sample_every``-th completion (the 1st, 1+n-th, ...).  Everything
    else is pruned from the ring via
    :meth:`~repro.obs.timeline.Timeline.prune_trace`, which is how
    tracing bounds memory under sustained load.
    """

    def __init__(self, keep_slowest: int = 8, sample_every: int = 16,
                 keep_statuses=("error", "expired")):
        self.keep_slowest = int(keep_slowest)
        self.sample_every = int(sample_every)
        self.keep_statuses = tuple(keep_statuses)
        self._heap: list = []       # (latency_us, arrival, trace_id)
        self._nth_kept: set = set()
        self._status_kept: set = set()
        self._offered = 0

    def offer(self, trace_id, latency_us: float, status: str = "ok"):
        """Judge one completed trace: ``(keep, evicted)`` where
        ``evicted`` lists trace ids to prune (possibly including this
        one, possibly a previously-kept trace displaced from the
        slowest-k heap)."""
        self._offered += 1
        evicted: list = []
        keep = False
        if status in self.keep_statuses:
            self._status_kept.add(trace_id)
            keep = True
        if self.sample_every > 0 and (self._offered - 1) % self.sample_every == 0:
            self._nth_kept.add(trace_id)
            keep = True
        if self.keep_slowest > 0:
            entry = (float(latency_us), self._offered, trace_id)
            if len(self._heap) < self.keep_slowest:
                heapq.heappush(self._heap, entry)
                keep = True
            elif entry > self._heap[0]:
                _, _, out = heapq.heapreplace(self._heap, entry)
                keep = True
                if out not in self._nth_kept and out not in self._status_kept:
                    evicted.append(out)
        if not keep:
            evicted.append(trace_id)
        return keep, evicted

    def kept_ids(self) -> set:
        ids = {tid for _, _, tid in self._heap}
        return ids | self._nth_kept | self._status_kept

    def stats(self) -> dict:
        kept = len(self.kept_ids())
        return {"offered": self._offered, "kept": kept,
                "pruned": max(0, self._offered - kept),
                "keep_slowest": self.keep_slowest,
                "sample_every": self.sample_every,
                "keep_statuses": list(self.keep_statuses)}


# -- assembly and analysis ---------------------------------------------


@dataclass
class SpanNode:
    """One span in a reassembled request tree.  ``ts_us`` is the emit
    time, i.e. the span's END; ``start_us`` derives from it."""

    trace_id: object
    span_id: int
    parent_id: int | None
    category: str
    name: str
    ts_us: float
    dur_us: float
    attrs: dict
    children: list = field(default_factory=list)
    #: non-span events (decisions, counters, faults) stamped with this
    #: span as parent — the causal annotations on the tree
    events: list = field(default_factory=list)

    @property
    def start_us(self) -> float:
        return self.ts_us - self.dur_us

    @property
    def is_modeled(self) -> bool:
        return self.name.startswith(_MODELED_PREFIXES)


@dataclass
class TraceTree:
    """All spans of one trace, linked parent→children."""

    trace_id: object
    roots: list = field(default_factory=list)
    #: spans whose parent_id references a span not present (pruned by
    #: the ring, or a genuinely broken chain) — a request trace with
    #: orphans fails :func:`verify_request_traces`
    orphans: list = field(default_factory=list)
    #: non-span events with no (known) parent span
    events: list = field(default_factory=list)

    @property
    def root(self):
        """The heaviest root (a well-formed request trace has one)."""
        return max(self.roots, key=lambda n: n.dur_us) if self.roots else None


def _as_dict(ev) -> dict:
    return ev if isinstance(ev, dict) else ev.to_dict()


def assemble(events) -> dict:
    """Rebuild per-trace span trees from stamped events.

    Accepts :class:`~repro.obs.timeline.Event` objects or exported
    dicts, in any order (spans emit at close, so parents follow their
    children).  Events without a ``trace_id`` are ignored.  Returns
    ``{trace_id: TraceTree}`` in first-appearance order; children are
    sorted by start time for stable rendering.
    """
    order: list = []
    spans: dict = {}    # tid -> {span_id: SpanNode}
    others: dict = {}   # tid -> [(parent_id, event-dict)]
    for raw in events:
        ev = _as_dict(raw)
        attrs = ev.get("attrs") or {}
        tid = attrs.get("trace_id")
        if tid is None:
            continue
        if tid not in spans:
            spans[tid] = {}
            others[tid] = []
            order.append(tid)
        sid = attrs.get("span_id")
        if ev.get("kind") == "span" and sid is not None:
            spans[tid][sid] = SpanNode(
                trace_id=tid, span_id=sid,
                parent_id=attrs.get("parent_id"),
                category=ev.get("category", ""),
                name=ev.get("name", ""),
                ts_us=float(ev.get("ts_us", 0.0)),
                dur_us=float(ev.get("dur_us", 0.0)),
                attrs={k: v for k, v in attrs.items()
                       if k not in ("trace_id", "span_id", "parent_id")})
        else:
            others[tid].append((attrs.get("parent_id"), ev))
    trees: dict = {}
    for tid in order:
        tree = TraceTree(trace_id=tid)
        by_id = spans[tid]
        for node in by_id.values():
            if node.parent_id is None:
                tree.roots.append(node)
            elif node.parent_id in by_id:
                by_id[node.parent_id].children.append(node)
            else:
                tree.orphans.append(node)
        for node in by_id.values():
            node.children.sort(key=lambda n: (n.start_us, n.span_id))
        tree.roots.sort(key=lambda n: (n.start_us, n.span_id))
        for parent_id, ev in others[tid]:
            if parent_id is not None and parent_id in by_id:
                by_id[parent_id].events.append(ev)
            else:
                tree.events.append(ev)
        trees[tid] = tree
    return trees


def _union_us(intervals) -> float:
    """Total length of the union of ``(lo, hi)`` intervals — overlapping
    children (hedged dispatches racing on two devices) must not be
    double-subtracted from their parent's self time."""
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _self_us(node: SpanNode) -> float:
    """Self time: the span's duration not covered by same-clock children.

    Wall children are subtracted as an interval union clipped to the
    parent (robust to hedge overlap and clock skew at the edges).  A
    span with only modeled children (``run:*`` over kernel/transfer
    spans) lives in two clock domains; self time is then the wall
    duration minus the modeled total, clamped at zero — an
    approximation, flagged by the ``~`` markers in the rendering.
    """
    wall = [c for c in node.children if not c.is_modeled]
    if wall:
        clipped = []
        for c in wall:
            lo = max(c.start_us, node.start_us)
            hi = min(c.ts_us, node.ts_us)
            if hi > lo:
                clipped.append((lo, hi))
        return max(0.0, node.dur_us - _union_us(clipped))
    modeled = sum(c.dur_us for c in node.children)
    return max(0.0, node.dur_us - min(node.dur_us, modeled))


def critical_path(tree: TraceTree) -> list:
    """The dominant chain of a trace, heaviest root downward.

    At each step descend into the largest *wall-clock* child; once only
    modeled children remain, take the largest modeled leaf — yielding
    the queue → pass/compile → kernel chain the tentpole asks for.
    Each step reports total and self time and its clock domain.
    """
    node = tree.root
    path = []
    while node is not None:
        path.append({"category": node.category, "name": node.name,
                     "dur_us": round(node.dur_us, 3),
                     "self_us": round(_self_us(node), 3),
                     "modeled": node.is_modeled})
        kids = node.children
        wall = [c for c in kids if not c.is_modeled]
        pick = wall or kids
        node = max(pick, key=lambda n: (n.dur_us, -n.span_id)) if pick else None
    return path


def render_tree(tree: TraceTree) -> str:
    """The annotated text report behind ``python -m repro obs trace``:
    the span tree with durations and self times (``~`` marks modeled
    microseconds), abandoned/error annotations, decision events, then
    the critical path."""
    lines = [f"trace {tree.trace_id}"]

    def fmt_us(us: float, modeled: bool) -> str:
        return f"{'~' if modeled else ''}{us:.1f}us"

    def walk(node: SpanNode, depth: int) -> None:
        extra = ""
        if node.attrs.get("abandoned"):
            extra += "  [abandoned]"
        if "error" in node.attrs:
            extra += f"  [error={node.attrs['error']}]"
        lines.append(f"{'  ' * depth}{node.category}/{node.name}  "
                     f"{fmt_us(node.dur_us, node.is_modeled)}  "
                     f"(self {fmt_us(_self_us(node), node.is_modeled)})"
                     f"{extra}")
        for ev in node.events:
            if ev.get("kind") == "decision":
                lines.append(f"{'  ' * (depth + 1)}* {ev.get('name')}")
        for c in node.children:
            walk(c, depth + 1)

    for root in tree.roots:
        walk(root, 1)
    for o in tree.orphans:
        lines.append(f"  [orphan] {o.category}/{o.name}  "
                     f"{fmt_us(o.dur_us, o.is_modeled)} "
                     f"(parent_id={o.parent_id})")
    path = critical_path(tree)
    if path:
        lines.append("critical path:")
        for step in path:
            lines.append(f"  -> {step['category']}/{step['name']}  "
                         f"{fmt_us(step['dur_us'], step['modeled'])}  "
                         f"(self {fmt_us(step['self_us'], step['modeled'])})")
    return "\n".join(lines)


def tree_to_chrome(tree: TraceTree) -> dict:
    """One request as a flamegraph-shaped Chrome trace.

    Wall spans keep their recorded offsets (normalized to the trace
    start) on the host track; modeled kernel/transfer spans are laid
    out back-to-back on the device track, since their modeled
    microseconds don't live on the wall timeline."""
    events: list[dict] = []
    t0 = min((r.start_us for r in tree.roots), default=0.0)
    device_us = 0.0

    def walk(node: SpanNode) -> None:
        nonlocal device_us
        if node.is_modeled:
            events.append(chrome_span(node.name, node.category, device_us,
                                      node.dur_us, "device",
                                      dict(node.attrs)))
            device_us += node.dur_us
        else:
            events.append(chrome_span(node.name, node.category,
                                      node.start_us - t0, node.dur_us,
                                      "host", dict(node.attrs)))
        for c in node.children:
            walk(c)

    for r in tree.roots:
        walk(r)
    for o in tree.orphans:
        walk(o)
    return chrome_document(events)


def _recorded_latency_us(tree: TraceTree, root: SpanNode):
    """The scheduler-recorded latency from the request's ``complete``
    decision (stamped as a child of the root span)."""
    for pool in (root.events, tree.events):
        for ev in pool:
            if ev.get("kind") == "decision" and ev.get("name") == "complete":
                lat = (ev.get("attrs") or {}).get("latency_us")
                if lat is not None:
                    return float(lat)
    return None


def verify_request_traces(trees: dict, tolerance: float = 0.01) -> dict:
    """The chaos-soak trace gate over assembled traces.

    Considers traces rooted in a ``request:*`` span (compile-only or
    reference traces are not requests).  Every such trace must form
    exactly one rooted tree with no orphan spans, and the slowest
    request's root span duration must match the scheduler's recorded
    ``latency_us`` within ``tolerance`` (default 1%) — the wall-time
    decomposition the acceptance criteria pin.
    """
    problems: list = []
    requests = []
    for tid, tree in trees.items():
        req_roots = [r for r in tree.roots if r.name.startswith("request:")]
        if not req_roots:
            continue
        requests.append((tid, tree, req_roots))
        if len(tree.roots) != 1:
            problems.append(f"trace {tid}: {len(tree.roots)} roots "
                            f"({sorted(r.name for r in tree.roots)})")
        if tree.orphans:
            problems.append(f"trace {tid}: {len(tree.orphans)} orphan "
                            f"span(s) ({sorted(o.name for o in tree.orphans)})")
    slowest = None
    if requests:
        tid, tree, req_roots = max(requests,
                                   key=lambda it: it[2][0].dur_us)
        root = req_roots[0]
        slowest = {"trace_id": tid, "dur_us": round(root.dur_us, 3),
                   "critical_path": [f"{s['category']}/{s['name']}"
                                     for s in critical_path(tree)]}
        recorded = _recorded_latency_us(tree, root)
        if recorded is not None:
            err = abs(root.dur_us - recorded) / max(recorded, 1e-9)
            slowest["latency_us"] = recorded
            slowest["latency_err"] = round(err, 6)
            if err > tolerance:
                problems.append(
                    f"trace {tid}: root span {root.dur_us:.1f}us vs "
                    f"recorded latency {recorded:.1f}us "
                    f"(err {err:.2%} > {tolerance:.0%})")
    return {"ok": not problems, "requests": len(requests),
            "problems": problems, "slowest": slowest}
