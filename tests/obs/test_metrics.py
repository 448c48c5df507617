"""Metrics-registry behavior: instruments, reuse, snapshots."""

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("launches")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_monotonic(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = MetricsRegistry().gauge("occupancy")
        g.set(0.5)
        g.set(0.25)
        assert g.value == 0.25


class TestHistogram:
    def test_streaming_summary(self):
        h = MetricsRegistry().histogram("kernel_us")
        for v in (10.0, 30.0, 20.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 60.0
        assert h.mean == 20.0
        assert h.min == 10.0
        assert h.max == 30.0

    def test_empty_mean(self):
        assert MetricsRegistry().histogram("empty").mean == 0.0


class TestRegistry:
    def test_create_on_first_use_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_to_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        d = reg.to_dict()
        assert d["counters"] == {"n": 2.0}
        assert d["gauges"] == {"g": 1.5}
        assert d["histograms"]["h"]["count"] == 1
        assert d["histograms"]["h"]["mean"] == 4.0

    def test_format_lists_everything(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(7)
        reg.histogram("lat").observe(2.0)
        text = reg.format()
        assert "hits" in text and "7" in text
        assert "lat" in text and "n=1" in text


class TestInstrumentAliases:
    """The ``serve.latency.*`` namespacing migration: the old flat
    ``serve.latency_us`` name must keep resolving — reads and writes —
    to the canonical namespaced instrument, not fork a second one."""

    def test_legacy_name_resolves_to_namespaced_histogram(self):
        reg = MetricsRegistry()
        legacy = reg.histogram("serve.latency_us")
        canonical = reg.histogram("serve.latency.all_us")
        assert legacy is canonical
        legacy.observe(10.0)
        canonical.observe(30.0)
        assert canonical.count == 2
        # the snapshot carries only the canonical name
        d = reg.to_dict()
        assert "serve.latency.all_us" in d["histograms"]
        assert "serve.latency_us" not in d["histograms"]

    def test_alias_applies_to_every_instrument_kind(self):
        reg = MetricsRegistry()
        assert reg.counter("serve.latency_us") \
            is reg.counter("serve.latency.all_us")
        assert reg.gauge("serve.latency_us") \
            is reg.gauge("serve.latency.all_us")


class TestConcurrency:
    """The registry is shared by every emitter of a run: counts must be
    exact under concurrent increments, not approximately right."""

    def test_concurrent_counter_increments_are_exact(self):
        import threading
        reg = MetricsRegistry()
        c = reg.counter("launches")
        n_threads, n_incs = 8, 2000

        def work():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * n_incs

    def test_concurrent_create_on_first_use_yields_one_instrument(self):
        import threading
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            seen.append(reg.counter("shared"))
            reg.counter("shared").inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)
        assert reg.counter("shared").value == 8

    def test_concurrent_histogram_totals_are_exact(self):
        import threading
        reg = MetricsRegistry()
        h = reg.histogram("kernel_us")

        def work():
            for _ in range(1000):
                h.observe(2.0)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 6000
        assert h.total == 12000.0


class TestReset:
    def test_reset_drops_all_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(2.0)
        reg.reset()
        assert reg.to_dict() == {"counters": {}, "gauges": {},
                                 "histograms": {}}
        # create-on-first-use starts fresh after a reset
        assert reg.counter("a").value == 0

    def test_reset_isolates_program_runs(self):
        """One profiler across two runs, reset between: the second run's
        metrics carry no residue of the first (per-run isolation), and
        the timeline sees the runs as disjoint event sets via drain()."""
        import numpy as np

        from repro import acc
        from repro.obs import Profiler
        from repro.obs import timeline

        src = '''float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
'''
        prog = acc.compile(src, num_gangs=4, num_workers=1,
                           vector_length=32)
        a = np.ones(256, dtype=np.float32)
        profiler = Profiler()
        timeline.uninstall()
        with timeline.enabled() as tl, profiler:
            prog.run(a=a)
            first_launches = profiler.metrics.counter(
                "profiler.kernel_launches").value
            first_events = tl.drain()
            profiler.metrics.reset()
            prog.run(a=a)
            second_events = tl.drain()
        assert first_launches > 0
        assert (profiler.metrics.counter("profiler.kernel_launches").value
                == first_launches)
        assert not {e.seq for e in first_events} & \
            {e.seq for e in second_events}
