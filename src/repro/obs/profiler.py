"""The profiler: a scoped listener on the timeline bus.

``with Profiler() as prof:`` listens on :mod:`repro.obs.timeline` (see
:func:`repro.obs.timeline.listen`) and builds kernel records, metrics and
a Chrome-trace document from the kernel, transfer, pass, region and fault
events the pipeline emits (the event table is in
``docs/observability.md``).  A listener sees every event before bus
sampling and the ring bound, so a profile taken under a sampled
``--timeline`` bus is complete.  With no profiler (and no bus) every emit
site is skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs import timeline as _timeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import KernelRecord
from repro.obs.trace import chrome_counter, chrome_document, chrome_span

__all__ = ["Profiler"]

#: attrs the request tracer stamps; not part of a profile span's args
_TRACE_KEYS = ("trace_id", "span_id", "parent_id")


def _is_region(ev) -> bool:
    return ev.category == "acc" and "region" in ev.attrs


def _view(ev):
    """``(name, cat, dur_us, track, args, counter samples)`` of one
    recorded event."""
    a = ev.attrs
    if _is_region(ev):
        args = {k: v for k, v in a.items()
                if k != "region" and k not in _TRACE_KEYS}
        return ev.name, a["region"], 0.0, "device", args, ()
    if ev.category == "passes":
        name = ev.name[len("pass:"):] if ev.name.startswith("pass:") \
            else ev.name
        return name, "compile", ev.dur_us, "host", {}, ()
    if ev.category == "faults":
        return (f"fault:{ev.name}", "fault", 0.0, "device",
                {"kind": a["fault_kind"]}, ())
    if ev.name.startswith("transfer:"):
        return (ev.name[len("transfer:"):], "transfer", ev.dur_us, "device",
                {"bytes": a["bytes"], "direction": a["direction"]}, ())
    name = ev.name[len("kernel:"):]
    st = ev.refs["stats"]
    args = {"grid": a["grid"], "block": list(ev.refs["block"]),
            "gtx": st.global_transactions, "barriers": st.barriers}
    samples = ()
    if st.attribution is not None:
        rows = sorted(st.attribution.rows.items())
        samples = (
            (f"{name}.stmt_gtx",
             {f"s{sid}": r.global_transactions for sid, r in rows}),
            (f"{name}.stmt_slots",
             {f"s{sid}": r.warp_slots for sid, r in rows}))
    return name, "kernel", ev.dur_us, "device", args, samples


def _start_us(ev) -> float:
    """Wall start of an event: regions are emitted at their close."""
    return ev.ts_us - ev.dur_us if _is_region(ev) else ev.ts_us


def _chrome_events(events) -> list[dict]:
    """Lay the recorded events out as Chrome trace events.

    Each track runs on its own virtual clock and places spans back to
    back: the ``device`` clock advances by modeled microseconds, the
    ``host`` clock by wall microseconds.  A region is placed at its wall
    start, before its first child, and sized to cover the children
    emitted before its close.  Counter samples follow the spans, each
    taken on the device clock after its kernel.
    """
    clocks = {"device": 0.0, "host": 0.0}
    spans: list[dict] = []
    samples: list[dict] = []
    open_regions: list = []   # (region end ts, span, device clock at start)

    def close_until(ts: float) -> None:
        while open_regions and open_regions[-1][0] < ts:
            _, span, start = open_regions.pop()
            span["dur"] = round(clocks["device"] - start, 4)

    for ev in sorted(events, key=_start_us):
        close_until(_start_us(ev))
        name, cat, dur, track, args, counters = _view(ev)
        spans.append(chrome_span(name, cat, clocks[track], dur, track, args))
        if _is_region(ev):
            open_regions.append((ev.ts_us, spans[-1], clocks["device"]))
            continue
        clocks[track] += dur
        samples += [chrome_counter(cname, clocks[track], values)
                    for cname, values in counters]
    close_until(float("inf"))
    return spans + samples


def _fault_counters(name: str, a: dict) -> list[str]:
    """The ``faults.*`` counters one hardened-run-path decision adds to."""
    if name == "strategy-failure":
        return {"WatchdogTimeoutError": ["watchdog_timeouts"],
                "SilentCorruptionError": ["silent_corruption_detected"]
                }.get(a["error"], []) + ["strategy_failures"]
    if name in ("served", "degrade"):
        return [f"served_by.{a['served_by']}"] + (
            ["degraded"] if a.get("level", 0) > 0 else [])
    if name == "retry":
        return ["transient_detected"] + ([] if a["giving_up"]
                                         else ["retries"])
    if name == "validation-failure":
        return ["validation_failures"]
    if name == "vote":
        return [f"vote_{a['outcome']}"] + (
            ["silent_corruption_detected"]
            if a["outcome"] == "corrected" else [])
    return []


@dataclass
class Profiler:
    """Collects kernel records, trace spans, and metrics while entered.

    One profiler may be entered many times and span many ``Program.run``
    calls (iterative apps, bench sweeps); records and metrics accumulate.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    kernels: list[KernelRecord] = field(default_factory=list)
    #: the span, fault and region events the Chrome view is laid out
    #: from, in arrival order
    events: list = field(default_factory=list)

    def __enter__(self) -> "Profiler":
        _timeline.listen(self._on_event)
        return self

    def __exit__(self, *exc) -> None:
        _timeline.unlisten(self._on_event)

    # -- the listener --------------------------------------------------------

    def _on_event(self, ev) -> None:
        cat, name, m = ev.category, ev.name, self.metrics
        if ev.kind == "decision":
            if cat == "faults":
                for suffix in _fault_counters(name, ev.attrs):
                    m.counter(f"faults.{suffix}").inc()
            return
        if cat == "gpu" and ev.kind == "span":
            if name.startswith("kernel:") and ev.refs is not None:
                self._kernel(ev)
            elif name.startswith("transfer:"):
                direction = ev.attrs["direction"]
                m.counter(f"profiler.{direction}_bytes").inc(
                    ev.attrs["bytes"])
                m.counter("profiler.transfers").inc()
            else:
                return
        elif cat == "faults" and ev.kind == "fault":
            m.counter("faults.injected").inc()
            m.counter(f"faults.injected.{ev.attrs['fault_kind']}").inc()
        elif not (_is_region(ev) or (cat == "passes" and ev.kind == "span"
                                     and (name.startswith("pass:")
                                          or name == "compile-kernels"))):
            return
        self.events.append(ev)

    def _kernel(self, ev) -> None:
        refs = ev.refs
        stats, timing = refs["stats"], refs["timing"]
        rec = KernelRecord(
            name=ev.name[len("kernel:"):], stats=stats, timing=timing,
            grid_dim=ev.attrs["grid"], block_dim=tuple(refs["block"]),
            device=refs["device"], compiler=refs.get("compiler"),
            strategy=dict(refs.get("strategy") or {}),
            launch_index=len(self.kernels), executor=stats.executor,
            kernel=refs.get("kernel"),
        )
        self.kernels.append(rec)
        m = self.metrics
        if stats.attribution is not None:
            m.counter("profiler.attributed_launches").inc()
        m.counter("profiler.kernel_launches").inc()
        m.counter("profiler.warp_inst_slots").inc(stats.warp_inst_slots)
        m.counter("profiler.global_transactions").inc(
            stats.global_transactions)
        m.counter("profiler.dram_bytes").inc(stats.dram_bytes)
        m.counter("profiler.barriers").inc(stats.barriers)
        m.histogram("profiler.kernel_us").observe(timing.total_us)
        m.gauge("profiler.last_occupancy").set(rec.occupancy)
        # fold the opt-in structured trace into per-kind counters
        for tev in stats.trace:
            m.counter(f"profiler.trace_events.{tev.kind}").inc()

    # -- export ------------------------------------------------------------

    @property
    def modeled_us(self) -> float:
        """Device-track time accumulated so far."""
        return sum(ev.dur_us for ev in self.events if ev.category == "gpu")

    def kernels_named(self, name: str) -> list[KernelRecord]:
        return [k for k in self.kernels if k.name == name]

    def to_dict(self, truncated_by: BaseException | None = None) -> dict:
        """Chrome-trace-loadable document with the profile embedded.

        The ``traceEvents`` / ``displayTimeUnit`` keys make the file load
        in ``chrome://tracing``; the extra top-level keys (``kernels``,
        ``metrics``) are ignored by trace viewers and carry the full
        machine-readable profile for tooling.

        ``truncated_by`` marks a document flushed on the error path: the
        run died mid-flight, so the trace covers only what executed.  The
        partial profile still loads in ``chrome://tracing`` and shows how
        far execution got before the failure.
        """
        doc = chrome_document(_chrome_events(self.events))
        doc["kernels"] = [k.to_dict() for k in self.kernels]
        doc["metrics"] = self.metrics.to_dict()
        if truncated_by is not None:
            doc["truncated"] = True
            doc["truncated_by"] = {
                "error": type(truncated_by).__name__,
                "message": str(truncated_by),
            }
        return doc

    def to_json(self, indent: int | None = None,
                truncated_by: BaseException | None = None) -> str:
        return json.dumps(self.to_dict(truncated_by=truncated_by),
                          indent=indent)

    def format_report(self) -> str:
        """The plain-text per-kernel report (see :mod:`repro.obs.report`)."""
        from repro.obs.report import format_profile
        return format_profile(self)
