"""Profiler end-to-end: record correctness on a known vecsum reduction,
Chrome-trace output, and metrics accumulation across repeated launches."""

import json

import numpy as np
import pytest

from repro import acc
from repro.obs import Profiler, format_profile

VECSUM = """
float a[n];
long total = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

N = 1024
GEOM = dict(num_gangs=2, num_workers=2, vector_length=32)


@pytest.fixture
def profiled_run():
    # the record pins below describe the paper-shape two-kernel plan;
    # the optimized pipeline fuses the finish kernel and retunes, which
    # tests/passes cover separately
    with Profiler() as prof:
        prog = acc.compile(VECSUM, **GEOM, pipeline="minimal")
        res = prog.run(a=np.arange(N, dtype=np.float32))
    return prof, prog, res


class TestKernelRecords:
    def test_one_record_per_launch(self, profiled_run):
        prof, prog, res = profiled_run
        assert [r.name for r in prof.kernels] == \
            ["acc_region_main", "acc_reduction_finish_total"]
        # the record holds the same stats object the run result reports
        for rec in prof.kernels:
            assert rec.stats is res.kernel_stats[rec.name]

    def test_main_kernel_exact_counts(self, profiled_run):
        """1024 float32 reads = 32 fully-coalesced 128B segments; 2 blocks
        x 64 threads write one 8-byte long partial each = 1024 B = 8 more
        segments.  The direct-RMP main kernel has no block reduction, so
        no barriers."""
        prof, _, _ = profiled_run
        main = prof.kernels_named("acc_region_main")[0]
        assert main.stats.global_transactions == 40
        assert main.stats.global_bytes == 1024 * 4 + 2 * 64 * 8
        assert main.stats.dram_bytes == 40 * 128
        assert main.stats.barriers == 0
        assert main.coalescing_efficiency == 1.0
        assert main.bank_conflict_degree == 1.0

    def test_finish_kernel_exact_counts(self, profiled_run):
        prof, _, _ = profiled_run
        fin = prof.kernels_named("acc_reduction_finish_total")[0]
        assert fin.grid_dim == 1
        assert fin.block_dim == (256, 1)
        assert fin.stats.barriers == 3  # 256-wide log-step, warp tail elided
        assert fin.stats.shared_accesses > 0

    def test_launch_config_and_strategy(self, profiled_run):
        prof, _, _ = profiled_run
        main = prof.kernels_named("acc_region_main")[0]
        assert main.grid_dim == 2
        assert main.block_dim == (32, 2)
        assert main.compiler == "openuh"
        assert main.strategy["scheduling"] == "window"
        assert main.strategy["gang_partial_style"] == "buffer"

    def test_occupancy(self, profiled_run):
        """64 threads = 2 warps/block; the 2-block grid leaves 2 resident
        blocks per SM -> 4 of 64 warp slots."""
        prof, _, _ = profiled_run
        main = prof.kernels_named("acc_region_main")[0]
        assert main.occupancy == pytest.approx(4 / 64)

    def test_timing_matches_ledger(self, profiled_run):
        prof, _, res = profiled_run
        kernel_us = {f"kernel:{r.name}": r.modeled_us for r in prof.kernels}
        assert kernel_us == pytest.approx(
            {k: v for k, v in res.ledger.by_label().items()
             if k.startswith("kernel:")})


class TestTraceOutput:
    def test_chrome_document(self, profiled_run):
        prof, _, _ = profiled_run
        doc = json.loads(prof.to_json())
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e["ph"] == "X"}
        # compile phases + transfers + kernels + finalize + run envelope
        assert {"compile", "transfer", "kernel", "reduction",
                "run"} <= cats
        assert len(doc["kernels"]) == 2
        for k in doc["kernels"]:
            assert set(k["derived"]) == {
                "occupancy", "coalescing_efficiency",
                "bank_conflict_degree", "divergence_rate", "l2_hit_rate"}

    def test_finalize_span_encloses_finish_kernel(self, profiled_run):
        prof, _, _ = profiled_run
        spans = {e["name"]: e for e in prof.to_dict()["traceEvents"]
                 if e["ph"] == "X"}
        fin = spans["finalize:total"]
        kern = spans["acc_reduction_finish_total"]
        assert fin["ts"] <= kern["ts"]
        assert fin["ts"] + fin["dur"] >= kern["ts"] + kern["dur"]

    def test_structured_trace_consumed_when_enabled(self):
        with Profiler() as prof:
            prog = acc.compile(VECSUM, **GEOM)
            prog.run(a=np.ones(N, dtype=np.float32), trace=True)
        main = prof.kernels_named("acc_region_main")[0]
        assert len(main.stats.trace) > 0
        assert prof.metrics.counter("profiler.trace_events.gload").value > 0

    def test_no_structured_trace_by_default(self, profiled_run):
        prof, _, _ = profiled_run
        assert all(len(r.stats.trace) == 0 for r in prof.kernels)


class TestAccumulation:
    def test_metrics_accumulate_across_repeated_launches(self):
        prof = Profiler()
        with prof:
            prog = acc.compile(VECSUM, **GEOM, pipeline="minimal")
        a = np.ones(N, dtype=np.float32)
        for _ in range(3):
            with prof:  # one profiler, entered once per run
                prog.run(a=a)
        m = prof.metrics
        assert m.counter("profiler.kernel_launches").value == 6
        assert m.counter("profiler.transfers").value == 6  # h2d:a + d2h result per run
        assert m.counter("profiler.h2d_bytes").value == 3 * N * 4
        assert m.histogram("profiler.kernel_us").count == 6
        assert len(prof.kernels) == 6
        # launch indices are session-global and strictly increasing
        assert [r.launch_index for r in prof.kernels] == list(range(6))

    def test_profiler_is_pure_observer(self):
        """Same program, with and without a profiler: identical results."""
        a = np.arange(N, dtype=np.float32)
        bare = acc.compile(VECSUM, **GEOM).run(a=a)
        with Profiler():
            seen = acc.compile(VECSUM, **GEOM).run(a=a)
        assert bare.scalars["total"] == seen.scalars["total"]
        assert bare.ledger.total_us == pytest.approx(seen.ledger.total_us)


class TestReport:
    def test_text_report_sections(self, profiled_run):
        prof, _, res = profiled_run
        text = format_profile(prof, ledger=res.ledger)
        assert "acc_region_main" in text
        assert "acc_reduction_finish_total" in text
        assert "occ" in text and "coal" in text
        assert "TOTAL" in text  # ledger section
        assert "profiler.kernel_launches" in text

    def test_empty_profiler_report(self):
        assert "no kernel launches" in format_profile(Profiler())


class TestListener:
    """The profiler listens on the bus: it sees every event before the
    bus samples or bounds it, and never changes what the bus exports."""

    def _scenario(self, *, outer: bool, profile: bool):
        from contextlib import nullcontext

        from repro.obs import timeline

        prof = Profiler() if profile else None
        bus = (timeline.enabled(sample={"gpu": 10}, capacity=16)
               if outer else nullcontext())
        with bus as tl, (prof if prof is not None else nullcontext()):
            prog = acc.compile(VECSUM, **GEOM, pipeline="minimal")
            a = np.arange(N, dtype=np.float32)
            for _ in range(3):
                prog.run(a=a, attribution=True)
        return prof, tl

    @staticmethod
    def _export(tl):
        """The bus export without wall-clock fields."""
        return tl.header(), [
            {k: v for k, v in ev.to_dict().items()
             if k not in ("seq", "ts_us", "dur_us")}
            for ev in tl.events()]

    def test_profile_under_sampled_bus_matches_unbused_profile(self):
        from repro.obs import timeline

        alone, _ = self._scenario(outer=False, profile=True)
        assert timeline.current() is None  # the relay left with it
        under, tl = self._scenario(outer=True, profile=True)
        assert tl.sampled_out > 0 and tl.dropped > 0
        assert len(under.kernels) == len(alone.kernels) == 6
        assert ([k.to_dict() for k in under.kernels]
                == [k.to_dict() for k in alone.kernels])
        assert under.metrics.to_dict() == alone.metrics.to_dict()
        # the profiler's presence does not change the outer bus export
        _, bare = self._scenario(outer=True, profile=False)
        assert self._export(tl) == self._export(bare)
