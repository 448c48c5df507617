"""Differential suite: batched executor vs the reference executor.

Sweeps the paper's reduction-position grid (7 positions × four operators
× int/float) and asserts the two executor paths produce bitwise-equal
scalars/arrays and equal :class:`~repro.gpu.events.KernelStats`
counters, with and without an armed fault injector.  A golden pin of the
``worker vector`` case guards the counter values themselves (the
shared-memory hoist and the batched reuse accounting must not drift).
"""

import numpy as np
import pytest

from repro import acc
from repro.faults import FaultInjector, FaultPlan
from repro.testsuite.cases import POSITIONS, generate_cases, make_case

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)
STAT_FIELDS = (
    "blocks", "threads_per_block", "shared_bytes", "warp_inst_slots",
    "global_transactions", "l2_transactions", "global_bytes", "dram_bytes",
    "shared_accesses", "bank_conflict_extra", "barriers",
    "divergent_branches",
)


def counters(stats):
    return {f: getattr(stats, f) for f in STAT_FIELDS}


def run_case_mode(case, mode, faults=None):
    prog = acc.compile(case.source, **GEOM)
    inputs = case.make_inputs(np.random.default_rng(42))
    return prog.run(executor_mode=mode, faults=faults, **inputs)


def assert_identical(res_b, res_r):
    assert set(res_b.scalars) == set(res_r.scalars)
    for var in res_b.scalars:
        assert (np.asarray(res_b.scalars[var]).tobytes()
                == np.asarray(res_r.scalars[var]).tobytes()), var
    assert set(res_b.outputs) == set(res_r.outputs)
    for var in res_b.outputs:
        assert (res_b.outputs[var].tobytes()
                == res_r.outputs[var].tobytes()), var
    assert set(res_b.kernel_stats) == set(res_r.kernel_stats)
    for name in res_b.kernel_stats:
        assert (counters(res_b.kernel_stats[name])
                == counters(res_r.kernel_stats[name])), name


CASES = generate_cases(positions=POSITIONS, ops=("+", "*", "max", "min"),
                       ctypes=("int", "float"), size=160)


class TestGridDifferential:
    @pytest.mark.parametrize(
        "case", CASES, ids=[c.label.replace(" ", "_") for c in CASES])
    def test_modes_bit_identical(self, case):
        assert_identical(run_case_mode(case, "batched"),
                         run_case_mode(case, "reference"))


class TestFaultDifferential:
    # max_faults must be None here: a global injection cap is consumed in
    # execution order, which legitimately differs across executors; the
    # per-block RNG substreams make uncapped fault *sites* identical
    PLAN = FaultPlan(seed=1234, p_gload_flip=0.05, p_sload_flip=0.05,
                     max_faults=None)

    #: a triangular loop nest: gang ``j`` sums ``j * 40`` elements, so
    #: most blocks leave the inner loop early and the batched loop
    #: compacts its rows (``_compact_env`` slices ``block_ids``)
    TRIANGLE_SRC = """
float a[n];
float out[m];
#pragma acc parallel copyin(a) copyout(out)
{
  #pragma acc loop gang
  for (j = 0; j < m; j++) {
    float s = 0.0f;
    #pragma acc loop vector reduction(+:s)
    for (k = 0; k < j * 40; k++)
      s += a[k];
    out[j] = s;
  }
}
"""

    def _faulted(self, prog, inputs, mode, block_batch=None):
        inj = FaultInjector(self.PLAN)
        res = prog.run(executor_mode=mode, faults=inj,
                       block_batch=block_batch, attribution=True, **inputs)
        records = sorted((r.site, r.kind, tuple(sorted(r.detail.items())))
                         for r in inj.records)
        events = {name: {sid: row["fault_events"] for sid, row
                         in st.attribution.as_dict().items()}
                  for name, st in res.kernel_stats.items()}
        return res, records, events

    def _assert_faulted_identical(self, prog, inputs) -> set:
        """The executors an armed batched request ran on (kernels with
        runtime-checked buffers demote to the reference executor, whose
        fault RNG draws a checked attempt could not roll back)."""
        ref, ref_records, ref_events = self._faulted(prog, inputs,
                                                     "reference")
        assert ref_records, "plan injected nothing — dead test"
        assert sum(n for rows in ref_events.values()
                   for n in rows.values()) == len(ref_records)
        for bb in (1, 3, None):
            res, records, events = self._faulted(prog, inputs, "batched",
                                                 bb)
            assert records == ref_records, bb
            assert events == ref_events, bb
            assert_identical(res, ref)
        return {st.executor for st in res.kernel_stats.values()}

    @pytest.mark.parametrize("position",
                             ["gang", "vector", "worker vector",
                              "gang worker vector"])
    def test_faulted_runs_identical(self, position):
        case = make_case(position, "+", "float", size=160)
        prog = acc.compile(case.source, **GEOM)
        self._assert_faulted_identical(
            prog, case.make_inputs(np.random.default_rng(42)))

    def test_faulted_compacted_loop_identical(self, monkeypatch):
        from repro.gpu import executor_batched

        sliced = []
        real = executor_batched._compact_env

        def compact(env, idx):
            sliced.append(len(idx))
            return real(env, idx)

        monkeypatch.setattr(executor_batched, "_compact_env", compact)
        prog = acc.compile(self.TRIANGLE_SRC, num_gangs=16, num_workers=1,
                           vector_length=32)
        a = np.random.default_rng(7).random(700).astype(np.float32)
        ran = self._assert_faulted_identical(
            prog, dict(a=a, out=np.zeros(16, np.float32), m=16))
        assert ran == {"batched"}
        assert sliced, "no loop compacted its rows — dead test"


class TestGoldenWorkerVector:
    """Pins the exact counters of one mid-size case in both modes.

    Captured from the pre-batching sequential executor; guards both the
    shared-memory hoist in the reference path (a reset must behave as a
    fresh allocation) and the batched segment-reuse finalization.
    """

    GOLDEN_MAIN = {
        "blocks": 4, "threads_per_block": 128, "shared_bytes": 512,
        "warp_inst_slots": 834, "global_transactions": 41,
        "l2_transactions": 57, "global_bytes": 5128, "dram_bytes": 5248,
        "shared_accesses": 64, "bank_conflict_extra": 0, "barriers": 6,
        "divergent_branches": 12,
    }
    GOLDEN_OUT_HEX = "00f00b4500d01045"

    @pytest.mark.parametrize("mode", ["batched", "reference"])
    def test_counters_and_result_pinned(self, mode):
        case = make_case("worker vector", "+", "float", size=640)
        prog = acc.compile(case.source, num_gangs=4, num_workers=4,
                           vector_length=32)
        inputs = case.make_inputs(np.random.default_rng(42))
        res = prog.run(executor_mode=mode, **inputs)
        assert counters(res.kernel_stats["acc_region_main"]) \
            == self.GOLDEN_MAIN
        assert res.outputs["out"].tobytes().hex() == self.GOLDEN_OUT_HEX


class TestControlFlowChunkEdges:
    """Branches and loops at chunk edges: a batched first launch, a
    counted trace re-launch and the reference executor agree on results,
    KernelStats and attribution tables at every chunk size, and batched
    compacts a sparsely taken branch through the shared branch helper."""

    #: 23 gang iterations over 8 gangs: the gang loop (a UniformWhile,
    #: it holds a block-wide reduction) runs 3 or 2 times per block; the
    #: vector loop (a While) runs ``(j % 5) * 40 / 32`` times, so blocks
    #: leave it at different trip counts; ``j % 7 == 3`` is taken by at
    #: most one block per gang iteration and holds a ``tid == 0`` store
    SPARSE_SRC = """
float a[n];
float out[m];
float edge[m];
#pragma acc parallel copyin(a) copyout(out, edge)
{
  #pragma acc loop gang
  for (j = 0; j < m; j++) {
    float s = 0.0f;
    #pragma acc loop vector reduction(+:s)
    for (k = 0; k < (j % 5) * 40; k++)
      s += a[j + k];
    out[j] = s;
    if (j % 7 == 3) {
      edge[j] = s * 2.0f;
    }
  }
}
"""

    def _programs(self):
        rng = np.random.default_rng(11)
        sparse = acc.compile(self.SPARSE_SRC, num_gangs=8, num_workers=1,
                             vector_length=32, pipeline="optimized")
        yield sparse, dict(a=rng.random(400).astype(np.float32),
                           out=np.zeros(23, np.float32),
                           edge=np.zeros(23, np.float32), m=23)
        # the fused finish: a last-block epilogue, then tid == 0
        case = make_case("gang", "+", "float", size=160)
        gang = acc.compile(case.source, num_gangs=8, num_workers=2,
                           vector_length=32, pipeline="optimized")
        yield gang, case.make_inputs(np.random.default_rng(12))

    @staticmethod
    def _attribution(res):
        return {name: st.attribution.as_dict()
                for name, st in res.kernel_stats.items()}

    @pytest.mark.parametrize("block_batch", [1, 3, None])
    def test_three_executors_identical(self, block_batch, monkeypatch):
        import sys

        from repro.gpu import executor_batched
        from repro.gpu import kernelir as K

        callers = []
        real = executor_batched._compact_env

        def compact(env, idx):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(env, idx)

        monkeypatch.setattr(executor_batched, "_compact_env", compact)
        progs = list(self._programs())
        kinds = {type(s) for prog, _ in progs
                 for k in prog.lowered.kernels
                 for s, _ in K.walk_stmts(k.body)}
        assert {K.If, K.While, K.UniformWhile} <= kinds
        for prog, inputs in progs:
            run = dict(attribution=True, block_batch=block_batch)
            ref = prog.run(executor_mode="reference", **run, **inputs)
            del callers[:]
            first = prog.run(executor_mode="batched", **run, **inputs)
            batched_callers = list(callers)
            again = prog.run(executor_mode="trace", **run, **inputs)
            assert {(st.executor, st.counters) for st in
                    first.kernel_stats.values()} == {("batched", "counted")}
            assert {(st.executor, st.counters) for st in
                    again.kernel_stats.values()} == {("trace", "counted")}
            for res in (first, again):
                assert_identical(res, ref)
                assert self._attribution(res) == self._attribution(ref)
            if block_batch != 1:
                # one row per chunk cannot be compacted; wider chunks
                # leave the sparse branch to at most half their rows
                assert "_branch" in batched_callers
