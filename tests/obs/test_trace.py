"""The profiler's Chrome layout (a pure function of the bus events it
heard) and the Chrome-trace export schema."""

import json

import numpy as np

from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.device import K20C
from repro.gpu.events import AttributionTable, KernelStats
from repro.obs import Profiler, timeline
from repro.obs.trace import chrome_span


def _kernel(name, us, attribution=None, **attrs):
    """Emit a kernel span the way the launch path does (modeled ``us``)."""
    st = KernelStats(attribution=attribution)
    timeline.emit("gpu", "span", f"kernel:{name}", us,
                  refs={"stats": st, "timing": TimeBreakdown(launch_us=us),
                        "block": (32, 1), "device": K20C},
                  grid=attrs.pop("grid", 1), **attrs)


def _xs(prof):
    return [e for e in prof.to_dict()["traceEvents"] if e["ph"] == "X"]


class TestRecorder:
    def test_spans_lay_out_back_to_back(self):
        with Profiler() as prof:
            _kernel("k1", 10.0)
            _kernel("k2", 5.0)
        a, b = _xs(prof)
        assert a["ts"] == 0.0 and a["dur"] == 10.0
        assert b["ts"] == 10.0
        assert prof.modeled_us == 15.0

    def test_tracks_have_independent_clocks(self):
        with Profiler() as prof:
            timeline.emit("passes", "span", "pass:compile", 100.0)
            _kernel("kernel", 7.0)
        host, k = _xs(prof)
        assert host["name"] == "compile" and host["dur"] == 100.0
        assert k["ts"] == 0.0
        assert prof.modeled_us == 7.0

    def test_region_encloses_children(self):
        with Profiler() as prof:
            with timeline.current().timed_span("acc", "run", region="run"):
                timeline.emit("gpu", "span", "transfer:h2d", 3.0, bytes=4,
                              direction="h2d")
                _kernel("main", 9.0)
        parent, h2d, main = _xs(prof)
        assert parent["name"] == "run" and parent["cat"] == "run"
        assert parent["ts"] == 0.0
        assert parent["dur"] == 12.0
        # the parent span is laid out before its children
        assert (h2d["name"], main["name"]) == ("h2d", "main")


class TestChromeExport:
    def _validate(self, doc: dict) -> list[dict]:
        """Minimal Chrome trace-event schema check; returns the X events."""
        assert isinstance(doc["traceEvents"], list)
        xs = []
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "M", "C")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "C":
                assert isinstance(ev["name"], str) and ev["name"]
                assert ev["ts"] >= 0
                assert isinstance(ev["args"], dict)
            if ev["ph"] == "X":
                assert isinstance(ev["name"], str) and ev["name"]
                assert ev["ts"] >= 0 and ev["dur"] >= 0
                assert isinstance(ev["args"], dict)
                xs.append(ev)
        return xs

    def test_document_shape(self):
        with Profiler() as prof:
            _kernel("k", 2.5, grid=4)
        doc = json.loads(prof.to_json())
        xs = self._validate(doc)
        assert len(xs) == 1
        assert xs[0]["name"] == "k"
        assert xs[0]["args"]["grid"] == 4
        # track-name metadata present for both tracks
        names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(names) == 2

    def test_device_and_host_get_distinct_tids(self):
        with Profiler() as prof:
            _kernel("d", 1.0)
            timeline.emit("passes", "span", "pass:h", 1.0)
        xs = self._validate(prof.to_dict())
        assert xs[0]["tid"] != xs[1]["tid"]

    def test_span_round_trips_through_json(self):
        s = chrome_span("n", "c", 1.25, 2.5, "device", {"k": 1})
        assert json.loads(json.dumps(s))["dur"] == 2.5

    def test_counter_samples_export_as_C_events(self):
        table = AttributionTable()
        table.row(0).global_transactions = 12
        table.row(3).global_transactions = 7
        with Profiler() as prof:
            _kernel("k", 4.0, attribution=table)
        doc = json.loads(prof.to_json())
        self._validate(doc)
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [c["name"] for c in cs] == ["k.stmt_gtx", "k.stmt_slots"]
        # sampled at the track clock, after the span
        assert cs[0]["ts"] == 4.0
        assert cs[0]["args"] == {"s0": 12, "s3": 7}


class TestProfiledRunNesting:
    """Span nesting of a real profiled run: the ``run`` region must
    enclose its transfer and kernel children on the device track, and
    compile phases must land on the host track."""

    SRC = """float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

    def _profiled_doc(self):
        from repro import acc, obs
        with obs.Profiler() as prof:
            prog = acc.compile(self.SRC, num_gangs=4, num_workers=2,
                               vector_length=32)
            prog.run(a=(np.arange(256) % 7).astype(np.float32))
        return prof, json.loads(prof.to_json())

    def test_run_region_encloses_transfer_and_kernel_spans(self):
        prof, doc = self._profiled_doc()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_cat = {}
        for ev in xs:
            by_cat.setdefault(ev["cat"], []).append(ev)
        assert by_cat["run"], "no run region recorded"
        run = by_cat["run"][0]
        for cat in ("transfer", "kernel"):
            assert by_cat[cat], f"no {cat} spans recorded"
            for child in by_cat[cat]:
                assert child["tid"] == run["tid"]
                assert run["ts"] <= child["ts"]
                assert (child["ts"] + child["dur"]
                        <= run["ts"] + run["dur"] + 1e-6), child["name"]

    def test_compile_phases_nest_on_host_track(self):
        prof, doc = self._profiled_doc()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        hosts = [e for e in xs if e["cat"] == "compile"]
        devices = [e for e in xs if e["cat"] in ("kernel", "transfer")]
        assert hosts and devices
        assert {e["tid"] for e in hosts}.isdisjoint(
            {e["tid"] for e in devices})
        # host spans also lay out back-to-back (non-overlapping)
        hosts.sort(key=lambda e: e["ts"])
        for a, b in zip(hosts, hosts[1:]):
            assert a["ts"] + a["dur"] <= b["ts"] + 1e-6
