"""Trace-compiled executor: eligibility, bit-identity, checked fallback.

The trace executor compiles a kernel into a generated Python function of
whole-array NumPy operations (see :mod:`repro.gpu.executor_trace`).  Its
contract mirrors the batched executor's: results, every
:class:`~repro.gpu.events.KernelStats` counter, and the per-statement
attribution table are bit-identical to the reference interpreter — and
whenever the generated code cannot honor a launch (static ineligibility,
runtime hazards, armed fault injectors, TraceEvent collection), the
launch silently degrades down the batched/reference chain rather than
diverge.  These tests pin both halves: identity where trace runs, and
the checked fallback (with its timeline decision record) where it
cannot.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro import acc
from repro.dtypes import DType
from repro.errors import WatchdogTimeoutError
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import GlobalMemory, K20C
from repro.gpu import kernelir as K
from repro.gpu.executor import CompiledKernel
from repro.gpu.executor_trace import (
    analyze_trace_safety, compile_trace_source, emit_trace_source,
)
from repro.gpu.kernelir import (
    AtomicUpdate, Bin, Const, GLoad, GStore, If, Kernel, Reg, ShflDown,
    Special, stamp_sids,
)
from repro.obs import timeline
from repro.testsuite.cases import generate_cases

MODES = ("reference", "batched", "trace")

_SUM_SRC = '''float a[n];
float total = 1.5;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
'''


def _stats_dict(st):
    d = {f.name: getattr(st, f.name) for f in dataclasses.fields(st)
         if f.name not in ("trace", "attribution")}
    d["attr"] = st.attribution.as_dict() if st.attribution else None
    return d


def _run_all_modes(prog, inputs):
    out = {}
    for mode in MODES:
        res = prog.run(executor_mode=mode, attribution=True, **inputs)
        bits = {n: np.asarray(v).tobytes() for n, v in res.scalars.items()}
        bits.update({n: np.asarray(v).tobytes()
                     for n, v in res.outputs.items()})
        ks = {k: _stats_dict(s) for k, s in sorted(res.kernel_stats.items())}
        out[mode] = (bits, ks)
    return out


class TestBitIdentity:
    """Results, counters, and attribution match the interpreters."""

    CASES = generate_cases(size=193)[::5]

    @pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
    def test_table2_sample_all_modes_identical(self, case):
        prog = acc.compile(case.source, num_gangs=4, num_workers=2,
                           vector_length=32)
        inputs = case.make_inputs(np.random.default_rng(11))
        out = _run_all_modes(prog, inputs)
        for mode in MODES[1:]:
            assert out[mode] == out["reference"], \
                f"{mode} diverged from reference on {case.label}"

    def test_non_warp_multiple_block_width(self):
        # blockDim.x = 48 is not a multiple of the warp size, so warps
        # span worker rows and the emitter's WOK guard must route every
        # warp-uniform access down the per-lane fallback path
        case = generate_cases(positions=("worker vector",), ops=("+",),
                              ctypes=("float",), size=193)[0]
        prog = acc.compile(case.source, num_gangs=3, num_workers=2,
                           vector_length=48)
        inputs = case.make_inputs(np.random.default_rng(5))
        out = _run_all_modes(prog, inputs)
        for mode in MODES[1:]:
            assert out[mode] == out["reference"], mode

    def test_partial_load_after_full_mask_shuffle(self):
        # a full-mask shuffle binds NumPy's column gather, which is not
        # C-contiguous; a later partial-mask load into the same register
        # must land in it, not in a reshaped copy
        k = stamp_sids(Kernel("shfl_then_load", (
            GLoad("x", "src", Special("tid")),
            ShflDown("x", "x", 1),
            If(Bin("<", Special("tid"), Const(16, DType.INT)),
               (GLoad("x", "src",
                      Bin("+", Special("tid"), Const(100, DType.INT))),)),
            GStore("out", Bin("+", Bin("*", Special("bx"), Special("ntid")),
                              Special("tid")), Reg("x")),
        ), buffers=("src", "out")))
        out = {}
        for mode in MODES:
            g = GlobalMemory(K20C)
            g.alloc("src", 256, DType.FLOAT,
                    init=np.arange(256, dtype=np.float32))
            g.alloc("out", 128, DType.FLOAT)
            CompiledKernel(k, K20C).run(g, 2, (64, 1), mode=mode)
            out[mode] = g["out"].data.tobytes()
        assert out["batched"] == out["reference"]
        assert out["trace"] == out["reference"]

    def test_trace_respects_block_batch_chunking(self):
        prog = acc.compile(_SUM_SRC, num_gangs=8, num_workers=2,
                           vector_length=32)
        a = ((np.arange(997) % 13) / 8.0).astype(np.float32)
        ref = prog.run(executor_mode="reference", a=a)
        for bb in (1, 3, 8):
            res = prog.run(executor_mode="trace", block_batch=bb, a=a)
            assert (res.scalars["total"].tobytes()
                    == ref.scalars["total"].tobytes()), bb


class TestEligibility:
    def test_reduction_kernels_are_eligible(self):
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        main = prog._compiled[prog.lowered.main_kernel.name]
        assert main.trace_safety.eligible

    def test_atomic_kernel_is_ineligible_and_demotes(self):
        k = stamp_sids(Kernel("atom", (
            AtomicUpdate("out", Const(0, DType.INT), "+",
                         Special("tid")),
        ), buffers=("out",)))
        ck = CompiledKernel(k, K20C)
        verdict = ck.trace_safety
        assert not verdict.eligible
        assert "atomic" in verdict.reason
        g = GlobalMemory(K20C)
        g.alloc("out", 4, DType.INT)
        # requesting trace must transparently run the demoted mode
        assert ck.effective_mode("trace", 2, g) != "trace"
        ck.run(g, 2, (32, 1), mode="trace")
        g2 = GlobalMemory(K20C)
        g2.alloc("out", 4, DType.INT)
        CompiledKernel(k, K20C).run(g2, 2, (32, 1), mode="reference")
        np.testing.assert_array_equal(g["out"].data, g2["out"].data)

    def test_codegen_is_deterministic(self):
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = ((np.arange(300) % 7) / 4.0).astype(np.float32)
        prog.run(executor_mode="trace", a=a)
        emitted = [ck for ck in prog._compiled.values()
                   if ck.trace_source is not None]
        assert emitted
        for ck in emitted:
            assert emit_trace_source(ck.kernel, prog.device) \
                == ck.trace_source
            fn, slot_sids = compile_trace_source(ck.trace_source)
            assert callable(fn)

    def test_first_trace_launch_emits_lazily(self):
        # the compile emits no trace source (no pipeline runs the
        # trace-codegen pass); the first trace launch emits it, and the
        # emitted source runs bit-identically to the reference executor
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        assert "trace-codegen" not in [r.name for r in prog.pass_records]
        assert all(ck.trace_source is None for ck in prog._compiled.values())
        ck = prog._compiled[prog.lowered.main_kernel.name]
        a = ((np.arange(300) % 7) / 4.0).astype(np.float32)
        ref = prog.run(executor_mode="reference", attribution=True, a=a)
        assert ck.trace_source is None
        res = prog.run(executor_mode="trace", attribution=True, a=a)
        assert ck.trace_source == emit_trace_source(ck.kernel, prog.device)
        assert (res.scalars["total"].tobytes()
                == ref.scalars["total"].tobytes())
        name = ck.kernel.name
        assert res.kernel_stats[name].executor == "trace"
        assert (_stats_dict(res.kernel_stats[name])
                == _stats_dict(ref.kernel_stats[name]))


class TestCheckedFallback:
    """Satellite: trace under hazards/faults degrades, never diverges."""

    def _rmw_kernel(self):
        # later blocks read locations earlier blocks wrote: statically
        # unprovable, runtime hazard on the first launch
        return stamp_sids(Kernel("inc", (
            GLoad("v", "buf", Special("tid")),
            GStore("buf", Special("tid"),
                   Bin("+", Reg("v"), Const(1, DType.INT))),
        ), buffers=("buf",)))

    def test_runtime_hazard_demotes_and_matches_reference(self):
        def run(mode):
            g = GlobalMemory(K20C)
            g.alloc("buf", 64, DType.INT, init=np.arange(64))
            ck = CompiledKernel(self._rmw_kernel(), K20C)
            ck.run(g, 2, (32, 2), mode=mode)
            return g["buf"].data.copy(), ck
        out_tr, ck = run("trace")
        out_ref, _ = run("reference")
        np.testing.assert_array_equal(out_tr, out_ref)
        # the hazard verdict sticks: later trace requests resolve lower
        g = GlobalMemory(K20C)
        g.alloc("buf", 64, DType.INT)
        assert ck.effective_mode("trace", 2, g) == "reference"

    def test_armed_faults_demote_with_identical_injection(self):
        # an armed injector demotes trace to the batched resolution; the
        # injected faults (seeded per plan) must land identically, so a
        # trace-requested run equals a batched-requested run bitwise
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = ((np.arange(500) % 7) / 4.0).astype(np.float32)
        plan = FaultPlan.single("gload-flip", seed=99)
        res_tr = prog.run(executor_mode="trace", faults=plan,
                          max_attempts=1, a=a)
        res_ba = prog.run(executor_mode="batched", faults=plan,
                          max_attempts=1, a=a)
        assert (res_tr.scalars["total"].tobytes()
                == res_ba.scalars["total"].tobytes())

    def test_demotion_decision_lands_on_timeline(self):
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = np.ones(100, np.float32)
        inj = FaultInjector(FaultPlan(seed=3))  # armed, nothing fires
        with timeline.enabled() as tl:
            prog.run(executor_mode="trace", faults=inj, a=a)
            decisions = [e for e in tl.events("gpu", "decision")
                         if e.name == "executor-mode"]
        assert decisions
        for e in decisions:
            assert e.attrs["requested"] == "trace"
            assert e.attrs["mode"] != "trace"
            assert e.attrs["fallback"] is True

    def test_trace_run_decision_is_not_a_fallback(self):
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = np.ones(100, np.float32)
        with timeline.enabled() as tl:
            prog.run(executor_mode="trace", a=a)
            decisions = [e for e in tl.events("gpu", "decision")
                         if e.name == "executor-mode"
                         and e.attrs["mode"] == "trace"]
        assert decisions  # at least the main kernel ran traced
        for e in decisions:
            assert e.attrs["fallback"] is False

    def test_trace_event_collection_demotes(self):
        # TraceEvent collection is a per-access interpreter concern the
        # generated code omits — requesting both must serve the events
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = np.ones(100, np.float32)
        res = prog.run(executor_mode="trace", trace=True, a=a)
        assert any(st.trace for st in res.kernel_stats.values())
        plain = prog.run(executor_mode="trace", a=a)
        assert (res.scalars["total"].tobytes()
                == plain.scalars["total"].tobytes())

    def test_watchdog_fires_under_trace(self):
        prog = acc.compile(_SUM_SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        a = np.ones(1 << 14, np.float32)
        with pytest.raises(WatchdogTimeoutError):
            prog.run(executor_mode="trace", watchdog_budget=2, a=a)


# --------------------------------------------------------------------------
# uniformity and eligibility verdicts, pinned by hash
# --------------------------------------------------------------------------

#: the Table 2 grid's geometry; the apps whose loop nests need one
#: worker (heat's error reduction spans gang and vector) run at 192×1×128
PIN_GEOM = dict(num_gangs=192, num_workers=8, vector_length=128)
_ONE_WORKER = dict(PIN_GEOM, num_workers=1)

#: (kernels, sha256 of the sorted ``(kernel, level, sids)`` verdicts)
UNIFORMITY_PIN = (50, "4b131fd8444cbafd6a841f168ec9cdb4"
                      "faf4702aba89d2cd585a0d2bba920654")

#: (kernels, sha256 of the per-kernel ``trace-codegen`` reports)
TRACE_REPORT_PIN = (50, "f0234f6283c02bb1efee9723f2ee1d12"
                        "969107ea79fbe9d7e95a7cdf6f14c365")

#: (kernels, sha256 of the sorted ``(kernel, sid, form)`` loop verdicts:
#: ``form`` the scan-loop signature, "" for a loop that is not one)
SCAN_FORM_PIN = (50, "d4095496553454dbf35d586bc6e2ac74"
                     "ac429a320e64393bed4c3ae673c36283")

#: AST nodes of the generated trace source of every trace-eligible
#: kernel of the 42 Table 2 cells at 192×8×128 (38 kernels).  Emitting
#: the control-flow rules inline took 379,606; the shared helpers take
#: the value below, which a change may lower but not exceed
TRACE_AST_NODES_MAX = 106_718


def _pin_corpus() -> list[tuple[str, str, dict]]:
    """``(label, source, geometry)``: the 42 Table 2 cells, both heat
    kernels, matmul, pi, softmax and an int ``segmented_reduce``."""
    from repro.apps.heat2d import ERROR_SRC, UPDATE_SRC
    from repro.apps.matmul import MATMUL_SRC
    from repro.apps.montecarlo_pi import PI_SRC
    from repro.apps.softmax import SOFTMAX_SRC

    segmented = ("int vals[n];\nint segs[n];\nint out[k];\n"
                 "#pragma acc parallel copyin(vals, segs) copy(out)\n"
                 "#pragma acc loop gang worker vector\n"
                 "for (i = 0; i < n; i++) {\n"
                 "  #pragma acc atomic update\n"
                 "  out[segs[i]] += vals[i];\n"
                 "}\n")
    out = [(c.label, c.source, PIN_GEOM) for c in generate_cases(size=4096)]
    out += [("heat-update", UPDATE_SRC, _ONE_WORKER),
            ("heat-error", ERROR_SRC, _ONE_WORKER),
            ("matmul", MATMUL_SRC, PIN_GEOM),
            ("pi", PI_SRC, _ONE_WORKER),
            ("softmax", SOFTMAX_SRC, _ONE_WORKER),
            ("segmented", segmented, _ONE_WORKER)]
    return out


def _uniform_verdicts(kernel) -> dict:
    """level -> the ids of the statements the uniformity analysis
    proves uniform at that level."""
    from repro.gpu.executor_batched import _uniform_stmts
    return {level: _uniform_stmts(kernel, level)
            for level in ("block", "warp")}


class TestVerdictPins:
    """The per-block and per-warp uniformity verdicts pick the fast
    paths of both executors, and the eligibility verdict picks the
    executor; a rewrite of either analysis must reproduce them."""

    @pytest.fixture(scope="class")
    def kernels(self):
        out = []
        for label, source, geom in _pin_corpus():
            # the pipeline is pinned too: REPRO_PASSES must not move it
            prog = acc.compile(source, pipeline="optimized", **geom)
            out += [(f"{label}:{k.name}", k) for k in prog.lowered.kernels]
        return out

    def test_uniformity_verdicts_pinned(self, kernels):
        rows = []
        for name, kernel in kernels:
            for level, ids in _uniform_verdicts(kernel).items():
                sids = sorted(s.sid for s, _ in K.walk_stmts(kernel.body)
                              if id(s) in ids)
                rows.append((name, level, tuple(sids)))
        assert any(sids for _, level, sids in rows if level == "warp")
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert (len(kernels), digest) == UNIFORMITY_PIN

    def test_trace_codegen_report_pinned(self, kernels):
        from repro.passes.tracegen import trace_codegen

        report = [trace_codegen(SimpleNamespace(
            lowered=SimpleNamespace(kernels=[k]))) for _, k in kernels]
        digest = hashlib.sha256("\n".join(report).encode()).hexdigest()
        assert (len(kernels), digest) == TRACE_REPORT_PIN


class TestScanLoopVerdicts:
    """Which loops both fast executors run along their iteration axis
    (:func:`~repro.gpu.executor_batched._scan_form`), pinned over the
    same kernels as the uniformity verdicts."""

    @pytest.fixture(scope="class")
    def loops(self):
        from repro.gpu.executor_batched import _scan_form

        out, kernels = [], 0
        for label, source, geom in _pin_corpus():
            prog = acc.compile(source, pipeline="optimized", **geom)
            for k in prog.lowered.kernels:
                kernels += 1
                for s, _ in K.walk_stmts(k.body):
                    if isinstance(s, (K.While, K.UniformWhile)):
                        form = _scan_form(s)
                        out.append((f"{label}:{k.name}", s.sid,
                                    "" if form is None else str(form)))
        return kernels, out

    def test_scan_forms_pinned(self, loops):
        kernels, rows = loops
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert (kernels, digest) == SCAN_FORM_PIN

    def test_finish_and_vector_loops_are_scan_loops(self, loops):
        _, rows = loops
        forms = {(name.split(":")[0], sid): form for name, sid, form in rows}
        # the fused finish kernel's strided accumulation over 196,608
        # partials, and the vector cells' 32-iteration i-loops
        finish = [forms[(f"{pos}gang worker vector [{op}] {ct}", sid)]
                  for pos, sid in (("", 25), ("same line ", 15))
                  for op in "+*" for ct in ("float", "double")]
        vector = [forms[(f"vector [{op}] {ct}", 17)]
                  for op in "+*" for ct in ("int", "float", "double")]
        assert finish == [f"< g a{op} i" for _ in range(2) for op in "+*"
                          for _ in range(2)]
        assert vector == [f"&< g a{op} i" for op in "+*" for _ in range(3)]
        # heat's Jacobi loops store, and its error reduction's gang loop
        # holds a loop; the error reduction's vector loop is a max fold
        heat = {(name, sid): form for name, sid, form in rows
                if name.startswith("heat")}
        assert heat == {
            ("heat-update:acc_region_main", 4): "",
            ("heat-update:acc_region_main", 7): "",
            ("heat-error:acc_region_main", 5): "",
            ("heat-error:acc_region_main", 8): "< g g afmax i"}


class TestGeneratedSourceSize:
    """Branches, loops and counters are shared helpers called from the
    generated code, not rules emitted inline: the source stays small."""

    def test_table2_ast_nodes_bounded(self):
        import ast

        total = kernels = 0
        for case in generate_cases(size=4096):
            prog = acc.compile(case.source, pipeline="optimized",
                               **PIN_GEOM)
            for k in prog.lowered.kernels:
                if analyze_trace_safety(k).eligible:
                    src = emit_trace_source(k, prog.device)
                    total += sum(1 for _ in ast.walk(ast.parse(src)))
                    kernels += 1
        assert kernels == 38
        assert total <= TRACE_AST_NODES_MAX, total
