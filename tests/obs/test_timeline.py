"""The telemetry bus: ring bound, sampling, isolation, emit-site wiring."""

import json

import numpy as np
import pytest

from repro import acc
from repro.obs import timeline
from repro.obs.timeline import Timeline

SRC = '''float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
'''


@pytest.fixture(autouse=True)
def _no_leaked_bus():
    """Every test starts and ends with no process-wide bus installed."""
    timeline.uninstall()
    yield
    timeline.uninstall()


def run_once(**kw):
    prog = acc.compile(SRC, num_gangs=8, num_workers=2, vector_length=32)
    a = (np.arange(1 << 10) % 7).astype(np.float32)
    return prog.run(a=a, **kw)


class TestBus:
    def test_disabled_by_default(self):
        assert timeline.current() is None
        # the module-level helper is a no-op without a bus
        assert timeline.emit("gpu", "span", "x") is None

    def test_emit_and_query(self):
        tl = Timeline()
        tl.span("gpu", "kernel:k", 12.5, grid=4)
        tl.counter("gpu", "cache", event="hit")
        tl.decision("passes", "autotune:x", choice="two-step")
        assert tl.categories() == {"gpu": 2, "passes": 1}
        assert [e.kind for e in tl.events("gpu")] == ["span", "counter"]
        ev = tl.events("gpu", kind="span")[0]
        assert ev.name == "kernel:k" and ev.attrs["grid"] == 4
        assert ev.dur_us == 12.5

    def test_seq_and_ts_monotonic(self):
        tl = Timeline()
        for i in range(5):
            tl.counter("gpu", f"c{i}")
        evs = tl.events()
        assert [e.seq for e in evs] == sorted(e.seq for e in evs)
        assert all(a.ts_us <= b.ts_us for a, b in zip(evs, evs[1:]))

    def test_ring_buffer_bounds_memory(self):
        tl = Timeline(capacity=10)
        for i in range(25):
            tl.counter("gpu", f"c{i}")
        assert len(tl.events()) == 10
        assert tl.dropped == 15
        assert tl.emitted == 25
        # oldest dropped, newest kept
        assert tl.events()[-1].name == "c24"

    def test_per_category_sampling(self):
        tl = Timeline(sample={"gpu": 3})
        for i in range(9):
            tl.counter("gpu", f"g{i}")
            tl.counter("passes", f"p{i}")
        assert len(tl.events("gpu")) == 3  # every 3rd kept
        assert len(tl.events("passes")) == 9  # unsampled category: all
        assert tl.sampled_out == 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Timeline().emit("gpu", "bogus", "x")

    def test_timed_span_measures_wall(self):
        tl = Timeline()
        with tl.timed_span("gpu", "work", tag=1):
            pass
        ev = tl.events("gpu")[0]
        assert ev.kind == "span" and ev.dur_us >= 0.0
        assert ev.attrs["tag"] == 1

    def test_jsonl_roundtrip(self, tmp_path):
        tl = Timeline()
        tl.span("gpu", "kernel:k", 1.0, val=np.float32(2.5),
                n=np.int64(7))
        p = tmp_path / "tl.jsonl"
        tl.export_jsonl(str(p))
        docs = [json.loads(line) for line in p.read_text().splitlines()]
        # line 0 is the header record, then one line per event
        assert len(docs) == 2
        assert docs[0]["header"] == "repro.obs.timeline"
        # numpy scalars must coerce to plain JSON numbers
        assert docs[1]["attrs"]["val"] == 2.5
        assert docs[1]["attrs"]["n"] == 7

    def test_jsonl_header_roundtrip(self, tmp_path):
        tl = Timeline(capacity=4, sample={"gpu": 2})
        for i in range(10):
            tl.counter("gpu", f"c{i}")
        p = tmp_path / "tl.jsonl"
        tl.export_jsonl(str(p))
        header, events = timeline.read_jsonl(str(p))
        # the header carries enough to tell truncated from complete
        assert header["capacity"] == 4
        assert header["emitted"] == 10
        assert header["sampled_out"] == 5
        assert header["dropped"] == 1
        assert header["retained"] == len(events) == 4
        assert header["sample"] == {"gpu": 2}
        assert header["tracing"] is False
        assert all("category" in ev for ev in events)

    def test_read_jsonl_tolerates_headerless_export(self, tmp_path):
        p = tmp_path / "old.jsonl"
        p.write_text(json.dumps({"seq": 1, "ts_us": 0.0,
                                 "category": "gpu", "kind": "counter",
                                 "name": "c", "dur_us": 0.0,
                                 "attrs": {}}) + "\n")
        header, events = timeline.read_jsonl(str(p))
        assert header is None
        assert len(events) == 1 and events[0]["name"] == "c"

    def test_enabled_restores_previous_bus(self):
        outer = timeline.install()
        with timeline.enabled() as inner:
            assert timeline.current() is inner
            assert inner is not outer
        assert timeline.current() is outer

    def test_drain_isolates_runs(self):
        tl = Timeline()
        tl.counter("gpu", "first")
        first = tl.drain()
        tl.counter("gpu", "second")
        assert [e.name for e in first] == ["first"]
        assert [e.name for e in tl.events()] == ["second"]


class TestEmitSites:
    """The subsystems actually feed the bus — and only when installed."""

    def test_run_emits_nothing_without_bus(self):
        res = run_once()
        assert timeline.current() is None
        assert res.scalars["total"] is not None

    def test_compile_and_run_emit(self):
        with timeline.enabled() as tl:
            run_once()
        cats = tl.categories()
        assert cats.get("passes", 0) > 0 and cats.get("gpu", 0) > 0
        names = {e.name for e in tl.events("gpu")}
        assert any(n.startswith("kernel:") for n in names)
        assert any(n.startswith("transfer:h2d") for n in names)
        decisions = tl.events("gpu", kind="decision")
        assert any(e.name == "executor-mode" for e in decisions)
        spans = {e.name for e in tl.events("passes", kind="span")}
        assert any(n.startswith("pass:") for n in spans)

    def test_pure_observer(self):
        plain = run_once()
        with timeline.enabled():
            observed = run_once()
        assert (np.asarray(plain.scalars["total"]).tobytes()
                == np.asarray(observed.scalars["total"]).tobytes())
        assert plain.ledger.entries == observed.ledger.entries

    def test_no_cross_run_leakage_via_drain(self):
        with timeline.enabled() as tl:
            run_once()
            first = tl.drain()
            run_once()
            second = tl.drain()
        firsts = {e.seq for e in first}
        assert firsts and not firsts & {e.seq for e in second}

    def test_fault_events(self):
        from repro.faults import FaultPlan
        with timeline.enabled() as tl:
            inj = FaultPlan(p_gload_flip=1.0, seed=3,
                            max_faults=2).injector()
            run_once(faults=inj, max_attempts=3, runs=3, degrade=True)
        faults = tl.events("faults", kind="fault")
        assert len(faults) == len(inj.records) > 0
        assert all(e.attrs["fault_kind"] == "bitflip" for e in faults)

    def test_executor_fallback_decision(self):
        # the reference walker is an explicit request; the decision event
        # records requested vs effective mode
        with timeline.enabled() as tl:
            run_once(executor_mode="reference")
        dec = [e for e in tl.events("gpu", kind="decision")
               if e.name == "executor-mode"]
        assert dec and dec[0].attrs["mode"] == "reference"

    def test_executor_mode_says_which_checks_ran(self):
        # ``checks`` is "proven" only on a memo hit at the chunk size its
        # counted launch completed at; every other launch runs them
        prog = acc.compile(SRC, num_gangs=8, num_workers=2,
                           vector_length=32)
        a = (np.arange(1 << 10) % 7).astype(np.float32)
        launches = (dict(executor_mode="batched"),
                    dict(executor_mode="trace"),
                    dict(executor_mode="batched", block_batch=3),
                    dict(executor_mode="reference"))
        seen = []
        with timeline.enabled() as tl:
            for kw in launches:
                prog.run(a=a, **kw)
                seen.append({(e.attrs["counters"], e.attrs["checks"])
                             for e in tl.drain()
                             if e.name == "executor-mode"})
        assert seen == [{("counted", "run")}, {("memo", "proven")},
                        {("memo", "run")}, {("counted", "run")}]


class TestConcurrency:
    def test_readers_prune_and_drain_race_concurrent_emitters(self):
        """Three threads emit while the main thread prunes other traces,
        reads, exports and drains: no reader raises, and no event of an
        unpruned trace is lost, duplicated or reordered."""
        import sys
        import threading

        n_old, n_keep, n_threads = 5000, 15000, 3
        tl = Timeline(capacity=1 << 20)
        for i in range(n_old):
            tl.emit("gpu", "counter", "pre", trace_id="old", i=i)

        def emitter(k):
            for i in range(n_keep):
                tl.emit("gpu", "span", "kernel:k", 1.0, trace_id=f"keep{k}",
                        i=i)

        threads = [threading.Thread(target=emitter, args=(k,))
                   for k in range(n_threads)]
        collected = []
        # switch threads often so every reader overlaps an append
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            j = 0
            while any(t.is_alive() for t in threads):
                tl.prune_trace(f"gone{j}")
                if j % 10 == 0:
                    tl.to_jsonl()
                else:
                    tl.categories()
                if j % 20 == 19:
                    collected.extend(tl.drain())
                j += 1
        finally:
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        collected.extend(tl.drain())

        def indices(trace_id):
            return [ev.attrs["i"] for ev in collected
                    if ev.attrs["trace_id"] == trace_id]

        assert indices("old") == list(range(n_old))
        for k in range(n_threads):
            assert indices(f"keep{k}") == list(range(n_keep))
