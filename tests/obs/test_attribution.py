"""Statement-level attribution: executor parity, accounting invariants,
time apportionment, roofline verdicts, and the zero-overhead contract.

The load-bearing pins:

* both executors fill bit-identical per-statement tables over the full
  reduction testsuite grid (the same grid the kernel-level differential
  suite sweeps), with and without an armed fault injector;
* per-column row sums reproduce the kernel-level counters exactly —
  attribution is a decomposition, not a second estimate;
* apportioned statement times sum to the launch's modeled total within
  one ulp;
* roofline verdicts match the paper's claims (strided gang loads are
  memory-bound, shared-memory trees sync/shared-bound, contended
  atomics atomic-bound);
* with the knob off (the default) nothing is allocated and results are
  bitwise unchanged when it is on — a pure observer.
"""

import math

import numpy as np
import pytest

from repro import acc, obs
from repro.dtypes import DType
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import GlobalMemory, K20C, launch
from repro.gpu.costmodel import LAUNCH_SID, CostModel
from repro.gpu.events import KernelStats
from repro.gpu.kernelir import (
    Assign, AtomicUpdate, Bin, GLoad, Kernel, Reg, Special, const_int,
    stamp_sids,
)
from repro.obs.roofline import classify
from repro.testsuite.cases import POSITIONS, generate_cases, make_case

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)

#: attribution column → the kernel-level counter its row sum must equal
COLSUMS = {
    "warp_slots": "warp_inst_slots",
    "global_transactions": "global_transactions",
    "l2_transactions": "l2_transactions",
    "global_bytes": "global_bytes",
    "dram_bytes": "dram_bytes",
    "shared_accesses": "shared_accesses",
    "bank_conflict_extra": "bank_conflict_extra",
    "barrier_arrivals": "barriers",
    "divergence_splits": "divergent_branches",
}

CASES = generate_cases(positions=POSITIONS, ops=("+", "*", "max", "min"),
                       ctypes=("int", "float"), size=160)


def run_attr(case, mode, faults=None, **compile_overrides):
    prog = acc.compile(case.source, **GEOM, **compile_overrides)
    inputs = case.make_inputs(np.random.default_rng(42))
    res = prog.run(executor_mode=mode, faults=faults, attribution=True,
                   **inputs)
    return prog, res


def assert_colsums(stats: KernelStats) -> None:
    rows = stats.attribution.rows.values()
    for col, counter in COLSUMS.items():
        assert (sum(getattr(r, col) for r in rows)
                == getattr(stats, counter)), col


class TestGridDifferential:
    """Full-grid pin: per-statement tables are bit-identical between the
    reference and batched executors, and each table is an exact
    decomposition of its kernel-level counters."""

    @pytest.mark.parametrize(
        "case", CASES, ids=[c.label.replace(" ", "_") for c in CASES])
    def test_tables_identical_and_sum_to_kernel_counters(self, case):
        tables = {}
        for mode in ("batched", "reference"):
            _, res = run_attr(case, mode)
            tables[mode] = {}
            for name, st in res.kernel_stats.items():
                assert st.attribution is not None, (mode, name)
                assert st.attribution.rows, (mode, name)
                assert_colsums(st)
                tables[mode][name] = st.attribution.as_dict()
        assert tables["batched"] == tables["reference"]


class TestFaultedAttribution:
    PLAN = FaultPlan(seed=1234, p_gload_flip=0.05, p_sload_flip=0.05,
                     max_faults=None)

    @pytest.mark.parametrize("position", ["gang", "worker vector"])
    def test_armed_runs_attribute_faults_identically(self, position):
        case = make_case(position, "+", "float", size=160)
        tables, fault_totals = {}, {}
        for mode in ("batched", "reference"):
            inj = FaultInjector(self.PLAN)
            _, res = run_attr(case, mode, faults=inj)
            tables[mode] = {n: st.attribution.as_dict()
                            for n, st in res.kernel_stats.items()}
            fault_totals[mode] = sum(
                r.fault_events for st in res.kernel_stats.values()
                for r in st.attribution.rows.values())
            assert fault_totals[mode] == len(inj.records)
        assert fault_totals["batched"] > 0, "plan injected nothing"
        assert tables["batched"] == tables["reference"]


class TestTimeApportionment:
    @pytest.mark.parametrize("position",
                             ["gang", "worker vector",
                              "gang worker vector"])
    def test_stmt_times_sum_to_kernel_total(self, position):
        case = make_case(position, "+", "float", size=640)
        prog, res = run_attr(case, "batched")
        cm = CostModel(prog.device)
        for name, st in res.kernel_stats.items():
            times = cm.stmt_times(st)
            total = cm.kernel_time(st).total_us
            assert abs(sum(times.values()) - total) <= math.ulp(total), name
            assert LAUNCH_SID in times
            assert times[LAUNCH_SID] > 0.0
            assert all(us >= 0.0 for us in times.values()), name

    def test_stmt_times_requires_attribution(self):
        with pytest.raises(ValueError):
            CostModel(K20C).stmt_times(KernelStats())


class TestRooflineVerdicts:
    """The paper's bottleneck claims, reproduced as verdicts."""

    def _roofline(self, res, prog, kernel_name):
        st = res.kernel_stats[kernel_name]
        ir = prog._compiled[kernel_name].kernel
        return classify(st, CostModel(prog.device).kernel_time(st),
                        prog.device, kernel=ir)

    def test_gang_strided_loads_are_memory_bound(self):
        # blocking scheduling gives each thread a contiguous chunk, so a
        # warp's lanes touch strides of segments per access (§3.1.3)
        case = make_case("gang", "+", "float", size=4096)
        prog, res = run_attr(case, "batched", scheduling="blocking")
        roof = self._roofline(res, prog, "acc_region_main")
        assert roof.verdict == "memory-bound"
        assert roof.dominant_text is not None
        assert "global" in roof.dominant_text

    def test_shared_tree_finish_kernel_is_sync_or_shared_bound(self):
        case = make_case("gang worker vector", "+", "float", size=640)
        # needs the separate finish kernel: compile without fusion
        prog, res = run_attr(case, "batched", pipeline="minimal")
        (finish,) = [n for n in res.kernel_stats if "finish" in n]
        roof = self._roofline(res, prog, finish)
        assert roof.verdict in ("sync-bound", "shared-bound")
        tree = (roof.category_us.get("sync", 0.0)
                + roof.category_us.get("shared", 0.0))
        assert tree >= max(roof.category_us.get("memory", 0.0),
                           roof.category_us.get("compute", 0.0))

    def test_contended_atomics_are_atomic_bound(self):
        # every lane of every warp hammers out[0]: atomics do not
        # coalesce, so each access serializes into per-lane transactions
        k = stamp_sids(Kernel("atomic_storm", (
            Assign("v", const_int(1)),
            AtomicUpdate("out", const_int(0), "+", Reg("v")),
            AtomicUpdate("out", const_int(0), "+", Reg("v")),
        ), buffers=("out",)))
        g = GlobalMemory(K20C)
        g.alloc("out", 1, DType.INT)
        rep = launch(k, g, grid_dim=4, block_dim=(32, 2),
                     attribution=True)
        roof = classify(rep.stats, rep.timing, K20C, kernel=k)
        assert roof.verdict == "atomic-bound"
        assert roof.category_us["atomic"] == max(roof.category_us.values())
        assert roof.dominant_sid is not None
        assert rep.stats.attribution.rows[roof.dominant_sid].atomic_rounds \
            > 0
        assert int(g["out"].data[0]) == 2 * 4 * 64  # and it still computes

    def test_coalesced_streaming_loads_are_memory_bound(self):
        idx = Bin("+", Bin("*", Special("bx"), Special("ntid")),
                  Special("tid"))
        k = stamp_sids(Kernel("stream", (
            GLoad("x", "a", idx),
            Assign("y", Bin("+", Reg("x"), Reg("x"))),
        ), buffers=("a",)))
        g = GlobalMemory(K20C)
        g.alloc("a", 4096, DType.FLOAT)
        rep = launch(k, g, grid_dim=32, block_dim=(128, 1),
                     attribution=True)
        roof = classify(rep.stats, rep.timing, K20C, kernel=k)
        assert roof.verdict == "memory-bound"

    def test_compute_only_kernel_is_latency_bound(self):
        k = stamp_sids(Kernel("spin", tuple(
            Assign("x", const_int(i)) for i in range(8)
        )))
        g = GlobalMemory(K20C)
        rep = launch(k, g, grid_dim=2, block_dim=(32, 1),
                     attribution=True)
        roof = classify(rep.stats, rep.timing, K20C, kernel=k)
        assert roof.verdict == "latency-bound"

    def test_classify_without_attribution_still_gives_a_verdict(self):
        case = make_case("gang", "+", "float", size=4096)
        prog = acc.compile(case.source, **GEOM)
        res = prog.run(**case.make_inputs(np.random.default_rng(42)))
        st = res.kernel_stats["acc_region_main"]
        roof = classify(st, CostModel(prog.device).kernel_time(st),
                        prog.device)
        assert roof.verdict == "memory-bound"
        assert roof.dominant_sid is None


class TestZeroOverhead:
    """Attribution is opt-in and a pure observer."""

    def test_default_runs_allocate_no_tables(self):
        case = make_case("gang worker vector", "+", "float", size=160)
        prog = acc.compile(case.source, **GEOM)
        res = prog.run(**case.make_inputs(np.random.default_rng(42)))
        assert all(st.attribution is None
                   for st in res.kernel_stats.values())
        g = GlobalMemory(K20C)
        g.alloc("out", 64, DType.INT)
        k = Kernel("ids", (Assign("x", Special("tid")),))
        assert launch(k, g, grid_dim=1,
                      block_dim=(32, 1)).stats.attribution is None

    def test_attribution_is_a_pure_observer(self):
        case = make_case("gang worker vector", "+", "float", size=160)
        inputs = case.make_inputs(np.random.default_rng(42))
        prog = acc.compile(case.source, **GEOM)
        plain = prog.run(**inputs)
        attributed = prog.run(attribution=True, **inputs)
        for var in plain.scalars:
            assert (np.asarray(plain.scalars[var]).tobytes()
                    == np.asarray(attributed.scalars[var]).tobytes())
        assert plain.ledger.entries == attributed.ledger.entries
        for name, st in plain.kernel_stats.items():
            st2 = attributed.kernel_stats[name]
            assert st.global_transactions == st2.global_transactions
            assert st.warp_inst_slots == st2.warp_inst_slots


class TestRenderings:
    def _attributed_profile(self):
        case = make_case("gang worker vector", "+", "float", size=640)
        with obs.Profiler() as prof:
            prog = acc.compile(case.source, **GEOM)
            res = prog.run(attribution=True,
                           **case.make_inputs(np.random.default_rng(42)))
        return prof, prog, res

    def test_annotated_listing_lines_up_with_the_dump(self):
        from repro.gpu.kernelir import dump_with_sids
        prof, prog, _ = self._attributed_profile()
        rec = prof.kernels[0]
        text = obs.annotate_record(rec)
        lines, sid_lines = dump_with_sids(rec.kernel)
        body = text.splitlines()[3:]  # 2 header comments + column header
        assert len(body) == len(lines)
        # every executed statement line carries a percent gutter
        for sid, lineno in sid_lines.items():
            if sid in rec.stats.attribution.rows:
                assert "%" in body[lineno].split("|")[0]
        assert rec.name in text
        assert any(v in text for v in
                   ("memory-bound", "latency-bound", "sync-bound",
                    "shared-bound", "atomic-bound"))

    def test_attribution_rows_are_sorted_and_complete(self):
        prof, prog, _ = self._attributed_profile()
        rec = prof.kernels[0]
        rows = obs.record_rows(rec)
        times = [r["time_us"] for r in rows]
        assert times == sorted(times, reverse=True)
        assert abs(sum(r["time_share"] for r in rows) - 1.0) < 1e-9
        (launch_row,) = [r for r in rows if r["sid"] == LAUNCH_SID]
        assert launch_row["category"] == "launch"
        for r in rows:
            if r["sid"] != LAUNCH_SID:
                assert "counters" in r and "category" in r

    def test_format_profile_includes_annotated_section(self):
        prof, _, res = self._attributed_profile()
        report = obs.format_profile(prof, ledger=res.ledger)
        assert "Per-statement attribution" in report
        assert "%time" in report

    def test_counter_tracks_in_chrome_document(self):
        import json
        prof, _, res = self._attributed_profile()
        doc = json.loads(prof.to_json())
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in cs}
        assert any(n.endswith(".stmt_gtx") for n in names)
        assert any(n.endswith(".stmt_slots") for n in names)
        # the gtx counter series reproduce the attribution table
        main = res.kernel_stats["acc_region_main"]
        (gtx_ev,) = [e for e in cs
                     if e["name"] == "acc_region_main.stmt_gtx"]
        assert gtx_ev["args"] == {
            f"s{sid}": r.global_transactions
            for sid, r in main.attribution.rows.items()}

    def test_record_dict_carries_attribution_and_roofline(self):
        prof, _, _ = self._attributed_profile()
        doc = prof.kernels[0].to_dict()
        assert doc["attribution"]
        assert doc["roofline"]["verdict"]
        assert "dominant_sid" in doc["roofline"]
        # and a plain record omits both keys entirely
        case = make_case("gang", "+", "float", size=160)
        prog2 = acc.compile(case.source, **GEOM)
        with obs.Profiler() as prof2:
            prog2.run(**case.make_inputs(np.random.default_rng(42)))
        plain = prof2.kernels[0].to_dict()
        assert "attribution" not in plain and "roofline" not in plain
