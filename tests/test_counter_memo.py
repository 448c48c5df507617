"""The counter memo: warm launches reuse the counters of a counted launch.

For a kernel whose counters depend only on its launch shape (the
``counters_invariant`` verdict of the batch-safety analysis), a repeated
``trace`` or ``batched`` launch executes values only and returns a copy
of the first launch's :class:`~repro.gpu.events.KernelStats`.  These
tests pin the contract from the outside: a memo hit on fresh data gives
the counters a counted launch of a freshly compiled program gives; data-
dependent kernels never hit; faults, ``trace``, ``attribution`` and the
reference executor bypass the memo; any change of the launch shape
counts afresh; and one entry serves both fast modes.  A hit at the chunk
size of its counted launch runs no hazard check, bounds check or
rollback snapshot; a hit at another chunk size runs the hazard checks
and still rolls back.  They also pin the tiered default: an unpinned
first launch runs ``batched``, and every re-launch of a trace-eligible kernel runs the generated trace code —
counted on a memo miss, values only on a hit — unless the launch
collects trace events, arms faults or pins a mode.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import acc
from repro.apps.heat2d import ERROR_SRC, UPDATE_SRC
from repro.apps.matmul import MATMUL_SRC
from repro.dtypes import DType
from repro.faults import FaultPlan
from repro.gpu import GlobalMemory, K20C
from repro.gpu.executor import CompiledKernel
from repro.gpu.kernelir import (
    Bin, Const, GLoad, GStore, If, Kernel, Param, Reg, Special, stamp_sids,
)
from repro.obs import timeline
from repro.reduce import api as reduce_api
from repro.testsuite.cases import generate_cases

FAST_MODES = ("batched", "trace")
GEOM = dict(num_gangs=8, num_workers=4, vector_length=32)

_SUM_SRC = '''float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
'''

_BRANCH_SRC = '''float a[n];
int cnt = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:cnt)
for (i = 0; i < n; i++)
    if (a[i] > 0.5f) cnt += 1;
'''

_INDIRECT_SRC = '''float a[n];
int idx[n];
float total = 0.0;
#pragma acc parallel copyin(a, idx)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[idx[i]];
'''


def _stats(res) -> dict:
    """Every kernel's counters, comparable across programs."""
    return {name: dataclasses.asdict(st)
            for name, st in res.kernel_stats.items()}


def _counters(res) -> set:
    return {st.counters for st in res.kernel_stats.values()}


def _invariant(prog, name) -> bool:
    return prog._compiled[name].batch_safety.counters_invariant


def _sum_inputs(n, seed):
    return {"a": np.random.default_rng(seed).random(n).astype(np.float32)}


# --------------------------------------------------------------------------
# identity: memo hit == counted launch, over the whole Table 2 grid
# --------------------------------------------------------------------------

_CASES = generate_cases(size=512)


@pytest.mark.parametrize("mode", FAST_MODES)
@pytest.mark.parametrize("case", _CASES, ids=[c.label for c in _CASES])
def test_table2_memo_hit_equals_counted(case, mode):
    prog = acc.compile(case.source, **GEOM)
    prog.run(executor_mode=mode, **case.make_inputs(
        np.random.default_rng(1)))
    fresh = case.make_inputs(np.random.default_rng(2))
    hit = prog.run(executor_mode=mode, **fresh)
    counted = acc.compile(case.source, **GEOM).run(executor_mode=mode,
                                                   **fresh)
    assert _counters(counted) == {"counted"}
    for name, st in hit.kernel_stats.items():
        if _invariant(prog, name) and st.executor != "reference":
            assert st.counters == "memo", name
    assert _stats(hit) == _stats(counted)
    assert hit.modeled_ms == counted.modeled_ms
    for name in counted.scalars:
        assert (np.asarray(hit.scalars[name]).tobytes()
                == np.asarray(counted.scalars[name]).tobytes())


def test_every_table2_kernel_is_counter_invariant():
    # the grid's reductions index by thread geometry and loop counters
    # only, so the whole grid is memo-eligible
    for case in _CASES:
        prog = acc.compile(case.source, **GEOM)
        for name in prog._compiled:
            assert _invariant(prog, name), (case.label, name)


# --------------------------------------------------------------------------
# data-dependent kernels always count
# --------------------------------------------------------------------------

class TestDataDependentKernels:
    def _twice(self, prog, mode, inputs_a, inputs_b):
        first = prog.run(executor_mode=mode, **inputs_a)
        second = prog.run(executor_mode=mode, **inputs_b)
        return first, second

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_data_dependent_branch(self, mode):
        prog = acc.compile(_BRANCH_SRC, **GEOM)
        main = prog.lowered.main_kernel.name
        assert not _invariant(prog, main)
        rng = np.random.default_rng(3)
        a1 = rng.random(1000).astype(np.float32)
        a2 = rng.random(1000).astype(np.float32)
        _, second = self._twice(prog, mode, dict(a=a1), dict(a=a2))
        assert second.kernel_stats[main].counters == "counted"
        ref = acc.compile(_BRANCH_SRC, **GEOM).run(
            executor_mode="reference", a=a2)
        assert _stats(second) == _stats(ref)
        assert int(second.scalars["cnt"]) == int((a2 > 0.5).sum())

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_indirect_index(self, mode):
        prog = acc.compile(_INDIRECT_SRC, **GEOM)
        main = prog.lowered.main_kernel.name
        assert not _invariant(prog, main)
        rng = np.random.default_rng(4)
        a = rng.random(1024).astype(np.float32)
        ident = np.arange(1024, dtype=np.int32)
        scattered = rng.permutation(1024).astype(np.int32)
        first, second = self._twice(prog, mode, dict(a=a, idx=ident),
                                    dict(a=a, idx=scattered))
        assert second.kernel_stats[main].counters == "counted"
        # the gather pattern moves the transaction count: a memo would
        # have served the coalesced launch's counters here
        assert (first.kernel_stats[main].global_transactions
                != second.kernel_stats[main].global_transactions)
        ref = acc.compile(_INDIRECT_SRC, **GEOM).run(
            executor_mode="reference", a=a, idx=scattered)
        assert _stats(second) == _stats(ref)

    def test_segmented_atomics(self):
        vals = np.arange(256, dtype=np.int32)
        segs = (np.arange(256) % 5).astype(np.int32)
        with timeline.enabled() as tl:
            for _ in range(2):
                out = reduce_api.segmented_reduce(vals, segs, 5)
            events = [e for e in tl.events("gpu", "decision")
                      if e.name == "executor-mode"]
        prog = next(p for key, p in reduce_api._PROGRAMS.items()
                    if key[0].startswith("int vals[n];")
                    and "atomic update" in key[0])
        main = prog.lowered.main_kernel.name
        assert not _invariant(prog, main)
        launches = [e for e in events if e.attrs["kernel"] == main]
        assert len(launches) == 2
        assert {e.attrs["counters"] for e in launches} == {"counted"}
        want = np.zeros(5, np.int32)
        np.add.at(want, segs, vals)
        np.testing.assert_array_equal(out, want)


# --------------------------------------------------------------------------
# bypasses: faults, trace events, attribution, reference
# --------------------------------------------------------------------------

class TestBypass:
    @pytest.fixture
    def warm(self):
        """A program whose batched memo already holds this shape."""
        prog = acc.compile(_SUM_SRC, **GEOM)
        inputs = _sum_inputs(2048, 5)
        res = prog.run(executor_mode="batched", **inputs)
        assert _counters(res) == {"counted"}
        res = prog.run(executor_mode="batched", **inputs)
        assert _counters(res) == {"memo"}
        return prog, inputs, _stats(res)

    def test_faults(self, warm):
        prog, inputs, want = warm
        # an armed injector with nothing to inject: the launch counts
        # anyway, and the counters match the memoized ones
        res = prog.run(executor_mode="batched", faults=FaultPlan(seed=1),
                       max_attempts=1, **inputs)
        assert _counters(res) == {"counted"}
        assert _stats(res) == want

    def test_trace_events(self, warm):
        prog, inputs, want = warm
        res = prog.run(executor_mode="batched", trace=True, **inputs)
        assert _counters(res) == {"counted"}
        got = _stats(res)
        for st in got.values():
            assert st.pop("trace")
        for st in want.values():
            st.pop("trace")
        assert got == want

    def test_attribution(self, warm):
        prog, inputs, want = warm
        res = prog.run(executor_mode="batched", attribution=True, **inputs)
        assert _counters(res) == {"counted"}
        for st in res.kernel_stats.values():
            assert st.attribution is not None and st.attribution.rows
        got = {name: dict(st, attribution=None)
               for name, st in _stats(res).items()}
        assert got == want

    def test_reference_never_memoizes(self):
        prog = acc.compile(_SUM_SRC, **GEOM)
        inputs = _sum_inputs(2048, 6)
        for _ in range(3):
            res = prog.run(executor_mode="reference", **inputs)
            assert _counters(res) == {"counted"}
            assert {st.executor for st in res.kernel_stats.values()} \
                == {"reference"}
        for ck in prog._compiled.values():
            assert not ck._counter_memo

    def test_decision_event_says_why(self, warm):
        prog, inputs, _ = warm
        seen = []
        with timeline.enabled() as tl:
            for mode in ("batched", "reference"):
                prog.run(executor_mode=mode, **inputs)
                seen.append({(e.attrs["mode"], e.attrs["counters"])
                             for e in tl.drain()
                             if e.name == "executor-mode"})
        assert seen == [{("batched", "memo")}, {("reference", "counted")}]


# --------------------------------------------------------------------------
# a different launch shape counts afresh
# --------------------------------------------------------------------------

def _stride_kernel():
    """``out[tid] = a[tid * s]`` for ``tid < n`` — counters depend on the
    params ``s`` and ``n``, the geometry, and the buffer layout."""
    tid = Special("tid")
    return stamp_sids(Kernel("strided", (
        If(Bin("<", tid, Param("n")), (
            GLoad("v", "a", Bin("*", tid, Param("s"))),
            GStore("out", tid, Reg("v")),
        )),
    ), params=("n", "s", "scale"), buffers=("a", "out")))


class TestKeyChanges:
    def _memory(self, pad: int = 0):
        g = GlobalMemory(K20C)
        if pad:
            g.alloc("pad", pad, DType.FLOAT)
        g.alloc("a", 4096, DType.FLOAT, init=np.arange(4096))
        g.alloc("out", 256, DType.FLOAT)
        return g

    def _oracle(self, grid, block, params, pad=0):
        return CompiledKernel(_stride_kernel(), K20C).run(
            self._memory(pad), grid, block, params, mode="reference")

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_key_params_and_value_params(self, mode):
        ck = CompiledKernel(_stride_kernel(), K20C)
        assert ck.batch_safety.counters_invariant
        # ``scale`` reaches no condition and no index: not part of the key
        assert ck.batch_safety.key_params == ("n", "s")
        base = dict(n=256, s=1, scale=1.0)
        st = ck.run(self._memory(), 4, (64, 1), base, mode=mode)
        assert st.counters == "counted"
        st = ck.run(self._memory(), 4, (64, 1), dict(base, scale=2.0),
                    mode=mode)
        assert st.counters == "memo"
        assert st == self._oracle(4, (64, 1), base)
        for change in (dict(s=8), dict(n=200)):
            params = dict(base, **change)
            st = ck.run(self._memory(), 4, (64, 1), params, mode=mode)
            assert st.counters == "counted", change
            assert st == self._oracle(4, (64, 1), params)

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_geometry_and_layout(self, mode):
        ck = CompiledKernel(_stride_kernel(), K20C)
        params = dict(n=256, s=3, scale=1.0)
        ck.run(self._memory(), 4, (64, 1), params, mode=mode)
        for grid, block, pad in ((2, (64, 1), 0), (4, (32, 2), 0),
                                 (4, (64, 1), 40)):
            st = ck.run(self._memory(pad), grid, block, params, mode=mode)
            assert st.counters == "counted", (grid, block, pad)
            assert st == self._oracle(grid, block, params, pad)
        st = ck.run(self._memory(40), 4, (64, 1), params, mode=mode)
        assert st.counters == "memo"

    @pytest.mark.parametrize("mode", FAST_MODES)
    def test_problem_size(self, mode):
        prog = acc.compile(_SUM_SRC, **GEOM)
        prog.run(executor_mode=mode, **_sum_inputs(4096, 7))
        smaller = _sum_inputs(4000, 8)
        res = prog.run(executor_mode=mode, **smaller)
        assert _counters(res) == {"counted"}
        assert _stats(res) == _stats(acc.compile(_SUM_SRC, **GEOM).run(
            executor_mode=mode, **smaller))

    def test_memo_is_bounded(self):
        from repro.gpu.executor import _COUNTER_MEMO_MAX
        from repro.gpu.executor_batched import DEFAULT_BLOCK_BATCH

        ck = CompiledKernel(_stride_kernel(), K20C)
        for s in range(1, _COUNTER_MEMO_MAX + 4):
            ck.run(self._memory(), 4, (64, 1), dict(n=256, s=s, scale=0),
                   mode="batched", block_batch=s % 2 or None)
        assert len(ck._counter_memo) == _COUNTER_MEMO_MAX
        # each entry carries the chunk size its counted launch ran at, so
        # eviction drops both together
        assert [chunk for _, chunk in ck._counter_memo.values()] == [
            1 if s % 2 else DEFAULT_BLOCK_BATCH
            for s in range(4, _COUNTER_MEMO_MAX + 4)]


# --------------------------------------------------------------------------
# concurrency: the memo is per kernel and per launch, not per process
# --------------------------------------------------------------------------

def _in_threads(n, fn, timeout=120):
    """Run ``fn(i)`` on ``n`` threads released together, with a short
    switch interval so launches interleave; returns their errors."""
    barrier = threading.Barrier(n)
    errors = []

    def worker(i):
        try:
            barrier.wait()
            fn(i)
        except Exception as e:  # surfaced by the caller
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


@pytest.mark.parametrize("mode", FAST_MODES)
def test_two_threads_share_one_program(mode):
    prog = acc.compile(_SUM_SRC, **GEOM)
    inputs = _sum_inputs(4096, 9)
    want = _stats(acc.compile(_SUM_SRC, **GEOM).run(executor_mode=mode,
                                                    **inputs))
    results = []

    def launch(_):
        for _ in range(4):
            results.append(prog.run(executor_mode=mode, **inputs))

    assert not _in_threads(2, launch)
    assert len(results) == 8
    for res in results:
        assert _stats(res) == want
    assert any(_counters(res) == {"memo"} for res in results)


def test_threads_evicting_one_memo():
    # more threads than cores and more launch shapes than memo entries:
    # concurrent lookups, inserts and evictions must neither raise nor
    # hand a launch the counters of another shape
    from repro.gpu.executor import _COUNTER_MEMO_MAX

    ck = CompiledKernel(_stride_kernel(), K20C)
    strides = range(1, _COUNTER_MEMO_MAX + 5)
    keys = TestKeyChanges()
    want = {s: keys._oracle(2, (64, 1), dict(n=256, s=s, scale=0))
            for s in strides}
    wrong = []

    def launch(i):
        for rep in range(20):
            for s in strides:
                st = ck.run(keys._memory(), 2, (64, 1),
                            dict(n=256, s=s, scale=i),
                            mode=FAST_MODES[(i + rep) % 2])
                if st != want[s]:
                    wrong.append((i, s))

    assert not _in_threads(4, launch)
    assert not wrong
    assert len(ck._counter_memo) <= _COUNTER_MEMO_MAX


# --------------------------------------------------------------------------
# one memo entry per launch shape, whichever fast mode counted it
# --------------------------------------------------------------------------

@pytest.mark.parametrize("counted_mode, hit_mode",
                         [("batched", "trace"), ("trace", "batched")])
def test_memo_serves_the_other_fast_mode(counted_mode, hit_mode):
    prog = acc.compile(_SUM_SRC, **GEOM)
    first = prog.run(executor_mode=counted_mode, **_sum_inputs(2048, 10))
    assert _counters(first) == {"counted"}
    fresh = _sum_inputs(2048, 11)
    hit = prog.run(executor_mode=hit_mode, **fresh)
    assert {(st.executor, st.counters)
            for st in hit.kernel_stats.values()} == {(hit_mode, "memo")}
    counted = acc.compile(_SUM_SRC, **GEOM).run(executor_mode=hit_mode,
                                                 **fresh)
    assert _counters(counted) == {"counted"}
    assert _stats(hit) == _stats(counted)
    assert hit.modeled_ms == counted.modeled_ms
    assert (np.asarray(hit.scalars["total"]).tobytes()
            == np.asarray(counted.scalars["total"]).tobytes())
    for ck in prog._compiled.values():
        assert len(ck._counter_memo) == 1


# --------------------------------------------------------------------------
# the tiered default: first launches run batched, re-launches run trace
# --------------------------------------------------------------------------

#: a geometry at which, under the optimized pipeline, exactly the four
#: gang-worker-vector ``int`` cells take the atomic gang-partial style
#: (trace-ineligible); heat's error kernel combines its gang partials
#: with an atomic max at any geometry
TIER_GEOM = dict(num_gangs=96, num_workers=2, vector_length=32)
_ATOMIC = {f"{same}gang worker vector [{op}] int"
           for same in ("", "same line ") for op in "+*"} | {"heat-error"}


@pytest.fixture
def unpinned(monkeypatch):
    """No ``REPRO_EXECUTOR``: ``mode=None`` launches take the tiered
    default."""
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)


def _tiers(res) -> set:
    return {(st.executor, st.counters) for st in res.kernel_stats.values()}


def _kernel_tiers(res) -> dict:
    return {name: (st.executor, st.counters)
            for name, st in res.kernel_stats.items()}


def _assert_same_run(got, want, *, attribution=True):
    ours, theirs = _stats(got), _stats(want)
    if not attribution:
        for st in (*ours.values(), *theirs.values()):
            st["attribution"] = None
    assert ours == theirs
    assert got.modeled_ms == want.modeled_ms
    for kind in ("scalars", "outputs"):
        ours, theirs = getattr(got, kind), getattr(want, kind)
        assert ours.keys() == theirs.keys()
        for name, v in theirs.items():
            assert np.asarray(ours[name]).tobytes() \
                == np.asarray(v).tobytes(), (kind, name)


def _heat_inputs(seed, n):
    t = np.random.default_rng(seed).random((n, n), dtype=np.float32)
    return dict(temp1=t, temp2=t.copy())


def _matmul_inputs(seed, n):
    rng = np.random.default_rng(seed)
    return dict(A=rng.random(n * n, dtype=np.float32),
                B=rng.random(n * n, dtype=np.float32),
                C=np.zeros(n * n, np.float32), n=n)


def _sized(make, n):
    """An app's ``make(seed, n)`` as a ``make_inputs(rng)`` at size ``n``."""
    return lambda rng: make(int(rng.integers(1 << 30)), n)


_APP_GEOM = dict(num_gangs=14, num_workers=1, vector_length=32)
_APPS = {
    "heat-update": (UPDATE_SRC, _APP_GEOM, _heat_inputs),
    "heat-error": (ERROR_SRC, _APP_GEOM, _heat_inputs),
    "matmul": (MATMUL_SRC,
               dict(num_gangs=16, num_workers=4, vector_length=32),
               _matmul_inputs),
}
_TIER_RUNS = ([(c.label, c.source, TIER_GEOM, c.make_inputs) for c in _CASES]
              + [(name, src, geom, _sized(make, 16))
                 for name, (src, geom, make) in _APPS.items()])
#: the same runs with a second problem size, whose launches miss the
#: memo entry the first size left
_OTHER_CASES = {c.label: c for c in generate_cases(size=256)}
_RELAUNCH_RUNS = (
    [(c.label, c.source, TIER_GEOM, c.make_inputs,
      _OTHER_CASES[c.label].make_inputs) for c in _CASES]
    + [(name, src, geom, _sized(make, 16), _sized(make, 12))
       for name, (src, geom, make) in _APPS.items()])


@pytest.mark.usefixtures("unpinned")
@pytest.mark.parametrize("label, source, geom, make_inputs", _TIER_RUNS,
                         ids=[r[0] for r in _TIER_RUNS])
def test_tiered_default(label, source, geom, make_inputs):
    prog = acc.compile(source, **geom)
    first = prog.run(**make_inputs(np.random.default_rng(1)))
    assert _tiers(first) == {("batched", "counted")}
    fresh = make_inputs(np.random.default_rng(2))
    # a re-launch at the same shape: a memo hit, values only
    second = prog.run(**fresh)
    for name, st in second.kernel_stats.items():
        eligible = prog._compiled[name].trace_safety.eligible
        assert (st.executor, st.counters) \
            == ("trace" if eligible else "batched", "memo"), name
    if prog.pipeline == "optimized":  # the autotuner picks the atomics
        assert (label in _ATOMIC) == any(
            not ck.trace_safety.eligible for ck in prog._compiled.values())
    _assert_same_run(second, acc.compile(source, **geom).run(
        executor_mode="reference", **make_inputs(np.random.default_rng(2))))


@pytest.mark.usefixtures("unpinned")
@pytest.mark.parametrize("label, source, geom, make_first, make_other",
                         _RELAUNCH_RUNS, ids=[r[0] for r in _RELAUNCH_RUNS])
def test_relaunch_counts_on_trace(label, source, geom, make_first,
                                  make_other):
    prog = acc.compile(source, **geom)
    first = prog.run(**make_first(np.random.default_rng(1)))
    assert _tiers(first) == {("batched", "counted")}
    assert all(ck.trace_source is None for ck in prog._compiled.values())
    # test_tiered_default pins which labels hold an ineligible kernel
    eligible = {name: prog._compiled[name].trace_safety.eligible
                for name in first.kernel_stats}

    def tiers(counters):
        return {name: ("trace" if ok else "batched", counters)
                for name, ok in eligible.items()}

    # a new shape misses the memo: the re-launch counts, on trace
    second = prog.run(**make_other(np.random.default_rng(2)))
    assert _kernel_tiers(second) == tiers("counted")
    third = prog.run(**make_other(np.random.default_rng(3)))
    assert _kernel_tiers(third) == tiers("memo")
    attributed = prog.run(attribution=True,
                          **make_other(np.random.default_rng(2)))
    assert _kernel_tiers(attributed) == tiers("counted")
    want = acc.compile(source, **geom).run(
        executor_mode="reference", attribution=True,
        **make_other(np.random.default_rng(2)))
    _assert_same_run(attributed, want)
    _assert_same_run(second, want, attribution=False)


#: a trace-eligible cell for the demotion checks
_ELIGIBLE_CELL = "worker vector [+] float"


@pytest.mark.usefixtures("unpinned")
@pytest.mark.parametrize("shape", ("hit", "miss"))
@pytest.mark.parametrize("way", ("trace-events", "faults", "pinned", "env"))
def test_relaunch_demotions_stay_off_trace(way, shape, monkeypatch):
    # a re-launch tiers up only where an explicit trace request would run
    # trace: trace events, armed faults and pinned modes keep it off trace
    case = next(c for c in _CASES if c.label == _ELIGIBLE_CELL)
    prog = acc.compile(case.source, **TIER_GEOM)
    assert all(ck.trace_safety.eligible for ck in prog._compiled.values())
    prog.run(**case.make_inputs(np.random.default_rng(1)))
    make = (case.make_inputs if shape == "hit"
            else _OTHER_CASES[case.label].make_inputs)
    kwargs = {"trace-events": dict(trace=True),
              "faults": dict(faults=FaultPlan(seed=1), max_attempts=1),
              "pinned": dict(executor_mode="batched"),
              "env": {}}[way]
    if way == "env":
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    with timeline.enabled() as tl:
        res = prog.run(**kwargs, **make(np.random.default_rng(2)))
        modes = {e.attrs["mode"] for e in tl.events("gpu", "decision")
                 if e.name == "executor-mode"}
    executors = {st.executor for st in res.kernel_stats.values()}
    assert modes == executors and "trace" not in executors
    if way != "faults":  # armed faults send checked kernels to reference
        assert executors == {"batched"}
    if way == "trace-events":
        fresh = acc.compile(case.source, **TIER_GEOM).run(
            trace=True, **make(np.random.default_rng(2)))
        events = {name: len(st.trace)
                  for name, st in res.kernel_stats.items()}
        assert all(events.values())
        assert events == {name: len(st.trace)
                          for name, st in fresh.kernel_stats.items()}


@pytest.mark.usefixtures("unpinned")
def test_tiered_hit_counts_nothing(monkeypatch):
    from repro.gpu import executor_batched, executor_trace
    from repro.gpu.memory import AccessLog, GlobalMemory, SharedMemory

    case = next(c for c in _CASES
                if c.label == "gang worker vector [+] float")
    called = []
    forbid = [False]

    class Counted(Exception):
        pass

    def guard(name, fn):
        def wrapper(*args, **kwargs):
            if forbid[0]:
                raise Counted(name)
            called.append(name)
            return fn(*args, **kwargs)
        return wrapper

    prog = acc.compile(case.source, **GEOM)
    first = prog.run(**case.make_inputs(np.random.default_rng(1)))
    assert _tiers(first) == {("batched", "counted")}
    # the region warp vector: the generated code binds it when it is
    # compiled, which the first trace launch below does; the shared loop
    # helpers reach it as a module global
    warps = guard("_warps_per_block", executor_batched._warps_per_block)
    monkeypatch.setitem(executor_trace._BASE_GLOBALS, "_warps_per_block",
                        warps)
    monkeypatch.setattr(executor_batched, "_warps_per_block", warps)
    # the access log's entry points and its folds, and the scan loop's
    # access log pass and warp-slot charge
    for owner, name in ((AccessLog, "add_global"), (AccessLog, "add_shared"),
                        (AccessLog, "flush"),
                        (GlobalMemory, "_count_transactions_batched"),
                        (SharedMemory, "_count_banks"),
                        (executor_batched, "finalize_segment_reuse"),
                        (executor_batched, "_scan_log"),
                        (executor_batched, "_scan_charge")):
        monkeypatch.setattr(owner, name, guard(name, getattr(owner, name)))
    forbid[0] = True
    fresh = case.make_inputs(np.random.default_rng(2))
    hit = prog.run(**fresh)
    assert _tiers(hit) == {("trace", "memo")}
    forbid[0] = False
    counted = acc.compile(case.source, **GEOM).run(executor_mode="trace",
                                                   **fresh)
    assert _tiers(counted) == {("trace", "counted")}
    assert set(called) == {"_warps_per_block", "add_global", "add_shared",
                           "flush", "_count_transactions_batched",
                           "_count_banks", "finalize_segment_reuse",
                           "_scan_log", "_scan_charge"}
    _assert_same_run(hit, counted)


@pytest.mark.parametrize("mode", FAST_MODES)
def test_counted_launch_folds_once_per_slot_and_flush(mode, monkeypatch):
    """A counted launch logs its accesses and counts them in folds: the
    transaction fold runs at most once per (slot, flush), not once per
    access, and the log flushes at launch end and at each element
    budget it fills.  The ``worker [+] float`` cell at 192x8x128 makes
    1,537 global accesses."""
    from repro.gpu.memory import LOG_BUDGET, AccessLog, GlobalMemory

    case = next(c for c in generate_cases(size=4096)
                if c.label == "worker [+] float")
    n = dict(fold=0, flush=0, accesses=0, shared=0, elems=0)

    def counting(name, fn, idx_arg=None):
        def wrapper(*args, **kwargs):
            n[name] += 1
            if idx_arg is not None:
                n["elems"] += args[idx_arg].size
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GlobalMemory, "_count_transactions_batched",
                        counting("fold",
                                 GlobalMemory._count_transactions_batched))
    monkeypatch.setattr(AccessLog, "flush",
                        counting("flush", AccessLog.flush))
    monkeypatch.setattr(AccessLog, "add_global",
                        counting("accesses", AccessLog.add_global, idx_arg=3))
    monkeypatch.setattr(AccessLog, "add_shared",
                        counting("shared", AccessLog.add_shared, idx_arg=4))
    prog = acc.compile(case.source, num_gangs=192, num_workers=8,
                       vector_length=128)
    res = prog.run(executor_mode=mode,
                   **case.make_inputs(np.random.default_rng(1)))
    assert _tiers(res) == {(mode, "counted")}
    slots = sum(len(ck._trace_slot_sids if mode == "trace"
                    else ck._slot_sids) for ck in prog._compiled.values())
    launches = len(res.kernel_stats)
    assert n["accesses"] == 1537
    assert n["fold"] <= slots * n["flush"]
    assert n["flush"] <= launches + n["elems"] // LOG_BUDGET


def test_pinned_modes_stay_pinned(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    prog = acc.compile(_SUM_SRC, **GEOM)
    inputs = _sum_inputs(2048, 12)
    assert _tiers(prog.run(**inputs)) == {("batched", "counted")}
    assert _tiers(prog.run(executor_mode="batched", **inputs)) \
        == {("batched", "memo")}
    monkeypatch.setenv("REPRO_EXECUTOR", "batched")
    assert _tiers(prog.run(**inputs)) == {("batched", "memo")}
    monkeypatch.delenv("REPRO_EXECUTOR")
    with timeline.enabled() as tl:
        assert _tiers(prog.run(**inputs)) == {("trace", "memo")}
        events = [e.attrs for e in tl.events("gpu", "decision")
                  if e.name == "executor-mode"]
    assert events and {(e["requested"], e["mode"], e["fallback"],
                        e["counters"]) for e in events} \
        == {("batched", "trace", False, "memo")}


def _shift_kernel():
    """Block ``b`` stores ``buf[b]`` and then loads ``buf[b + 1]``: in the
    reference order block ``b`` reads the old value, so running blocks
    side by side is a cross-block hazard the static analysis cannot rule
    out (``buf`` is checked), while the counters stay data-independent."""
    bx = Special("bx")
    return stamp_sids(Kernel("shift", (
        If(Bin("==", Special("tid"), Const(0, DType.INT)), (
            GStore("buf", bx, Const(7.0, DType.FLOAT)),
            GLoad("v", "buf", Bin("+", bx, Const(1, DType.INT))),
            GStore("out", bx, Reg("v")),
        )),
    ), buffers=("buf", "out")))


def test_tiered_hit_hazard_reruns_counted_on_reference(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    def memory():
        g = GlobalMemory(K20C)
        g.alloc("buf", 9, DType.FLOAT, init=np.arange(9))
        g.alloc("out", 8, DType.FLOAT)
        return g

    ck = CompiledKernel(_shift_kernel(), K20C)
    assert ck.batch_safety.checked_bufs == ("buf",)
    assert ck.batch_safety.counters_invariant
    assert ck.trace_safety.eligible
    # one block per chunk: the hazard state resets before any other
    # block runs, so the counted launch completes on batched
    st = ck.run(memory(), 8, (32, 1), block_batch=1)
    assert (st.executor, st.counters) == ("batched", "counted")
    g = memory()
    with timeline.enabled() as tl:
        st = ck.run(g, 8, (32, 1))
        tried = [(e.attrs["mode"], e.attrs["counters"])
                 for e in tl.events("gpu", "decision")
                 if e.name == "executor-mode"]
    # the memo hit tiered up to trace, hit the hazard, rolled back and
    # reran counted on the reference path
    assert tried == [("trace", "memo")]
    assert (st.executor, st.counters) == ("reference", "counted")
    assert ck._dynamic_fallback
    want_g = memory()
    want = CompiledKernel(_shift_kernel(), K20C).run(
        want_g, 8, (32, 1), mode="reference")
    assert st == want
    for b in ("buf", "out"):
        assert g[b].data.tobytes() == want_g[b].data.tobytes()
    np.testing.assert_array_equal(g["out"].data, np.arange(1, 9))


# --------------------------------------------------------------------------
# trusted hits: a hit at its proven chunk size skips the checks its
# counted launch already passed
# --------------------------------------------------------------------------

class _CopySpy(np.ndarray):
    """Buffer data whose ``copy()`` the ``spies`` fixture counts (the
    rollback snapshot of a checked launch copies every written buffer)."""


@pytest.fixture
def spies(monkeypatch):
    """Counts of every hazard check, bounds check and buffer copy."""
    from repro.gpu import executor_batched

    calls = dict.fromkeys(("_check_read", "_check_write", "_check_bounds",
                           "_sbounds", "copy"), 0)

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_check_read", "_check_write", "_sbounds"):
        monkeypatch.setattr(executor_batched, name,
                            spy(name, getattr(executor_batched, name)))
    monkeypatch.setattr(GlobalMemory, "_check_bounds", staticmethod(
        spy("_check_bounds", GlobalMemory._check_bounds)))
    roots = []  # kept alive, so no root's id is reused

    def copy(self, *args, **kwargs):
        if any(self is r for r in roots):
            calls["copy"] += 1
        return np.ndarray.copy(self, *args, **kwargs)

    monkeypatch.setattr(_CopySpy, "copy", copy)
    alloc = GlobalMemory.alloc

    def spied_alloc(self, *args, **kwargs):
        buf = alloc(self, *args, **kwargs)
        buf.data = buf.data.view(_CopySpy)
        roots.append(buf.data)
        return buf

    monkeypatch.setattr(GlobalMemory, "alloc", spied_alloc)

    def take():
        got = dict(calls)
        for k in calls:
            calls[k] = 0
        return got
    return take


def _checks(tl) -> list:
    return [(e.attrs["counters"], e.attrs["checks"])
            for e in tl.events("gpu", "decision")
            if e.name == "executor-mode"]


def _shift_memory():
    g = GlobalMemory(K20C)
    g.alloc("buf", 9, DType.FLOAT, init=np.arange(9))
    g.alloc("out", 8, DType.FLOAT)
    return g


_CROSS = [(c, h) for c in FAST_MODES for h in FAST_MODES]


@pytest.mark.parametrize("counted_mode, hit_mode", _CROSS)
def test_trusted_hit_of_the_shift_kernel_checks_nothing(
        counted_mode, hit_mode, spies):
    # one block per chunk is the chunk size at which the shift kernel's
    # checked launch completes
    ck = CompiledKernel(_shift_kernel(), K20C)
    st = ck.run(_shift_memory(), 8, (32, 1), mode=counted_mode,
                block_batch=1)
    assert st.counters == "counted"
    counted = spies()
    assert counted["_check_read"] and counted["_check_write"]
    assert counted["_check_bounds"] and counted["copy"]
    g = _shift_memory()
    with timeline.enabled() as tl:
        st = ck.run(g, 8, (32, 1), mode=hit_mode, block_batch=1)
    assert (st.executor, st.counters) == (hit_mode, "memo")
    assert _checks(tl) == [("memo", "proven")]
    assert spies() == dict.fromkeys(counted, 0)
    want_g = _shift_memory()
    assert st == CompiledKernel(_shift_kernel(), K20C).run(
        want_g, 8, (32, 1), mode="reference")
    for b in ("buf", "out"):
        assert g[b].data.tobytes() == want_g[b].data.tobytes()


#: a Table 2 cell whose optimized main kernel has checked buffers and
#: shared memory (the pipeline is pinned: under the minimal one only the
#: single-block finish kernel has checked buffers)
_CHECKED_CELL = "gang worker vector [+] float"
_CHECKED_GEOM = dict(GEOM, pipeline="optimized")


@pytest.mark.parametrize("counted_mode, hit_mode", _CROSS)
def test_trusted_hit_of_a_checked_cell_checks_nothing(
        counted_mode, hit_mode, spies):
    case = next(c for c in _CASES if c.label == _CHECKED_CELL)
    prog = acc.compile(case.source, **_CHECKED_GEOM)
    assert all(ck.batch_safety.checked_bufs and ck.kernel.shared_bytes
               for ck in prog._compiled.values())
    first = prog.run(executor_mode=counted_mode,
                     **case.make_inputs(np.random.default_rng(1)))
    assert _counters(first) == {"counted"}
    counted = spies()
    assert all(counted.values()), counted
    fresh = case.make_inputs(np.random.default_rng(2))
    with timeline.enabled() as tl:
        hit = prog.run(executor_mode=hit_mode, **fresh)
    assert _tiers(hit) == {(hit_mode, "memo")}
    assert set(_checks(tl)) == {("memo", "proven")}
    assert spies() == dict.fromkeys(counted, 0)
    _assert_same_run(hit, acc.compile(case.source, **_CHECKED_GEOM).run(
        executor_mode="reference", **fresh))


@pytest.mark.parametrize("mode", FAST_MODES)
def test_hit_at_another_chunk_size_runs_the_checks(mode, spies):
    case = next(c for c in _CASES if c.label == _CHECKED_CELL)
    prog = acc.compile(case.source, **_CHECKED_GEOM)
    prog.run(executor_mode=mode, **case.make_inputs(np.random.default_rng(1)))
    spies()
    fresh = case.make_inputs(np.random.default_rng(2))
    with timeline.enabled() as tl:
        hit = prog.run(executor_mode=mode, block_batch=3, **fresh)
    assert _tiers(hit) == {(mode, "memo")}
    assert set(_checks(tl)) == {("memo", "run")}
    ran = spies()
    # the hazard checks and the snapshot; the bounds checks, which do not
    # depend on the chunk size, stay skipped on every values-only launch
    assert ran["_check_read"] and ran["_check_write"] and ran["copy"]
    assert not ran["_check_bounds"] and not ran["_sbounds"]
    _assert_same_run(hit, acc.compile(case.source, **_CHECKED_GEOM).run(
        executor_mode="reference", **fresh))


@pytest.mark.parametrize("counted_mode, hit_mode", _CROSS)
def test_hit_at_another_chunk_size_rolls_back_a_hazard(
        counted_mode, hit_mode, spies):
    ck = CompiledKernel(_shift_kernel(), K20C)
    ck.run(_shift_memory(), 8, (32, 1), mode=counted_mode, block_batch=1)
    spies()
    g = _shift_memory()
    with timeline.enabled() as tl:
        st = ck.run(g, 8, (32, 1), mode=hit_mode, block_batch=2)
    assert _checks(tl) == [("memo", "run")]
    ran = spies()
    assert ran["_check_read"] and ran["_check_write"] and ran["copy"]
    assert (st.executor, st.counters) == ("reference", "counted")
    want_g = _shift_memory()
    assert st == CompiledKernel(_shift_kernel(), K20C).run(
        want_g, 8, (32, 1), mode="reference")
    for b in ("buf", "out"):
        assert g[b].data.tobytes() == want_g[b].data.tobytes()


@pytest.mark.parametrize("mode", FAST_MODES)
def test_shrunk_buffer_misses_and_raises_out_of_bounds(mode):
    # the key holds every buffer's size: a launch whose accesses would
    # leave a smaller buffer counts, and its bounds check raises the
    # typed error instead of NumPy's IndexError
    from repro.errors import OutOfBoundsError

    keys = TestKeyChanges()
    ck = CompiledKernel(_stride_kernel(), K20C)
    params = dict(n=256, s=8, scale=1.0)
    for counters in ("counted", "memo"):
        st = ck.run(keys._memory(), 4, (64, 1), params, mode=mode)
        assert st.counters == counters
    g = GlobalMemory(K20C)
    g.alloc("a", 256, DType.FLOAT, init=np.arange(256))  # reads up to 504
    g.alloc("out", 256, DType.FLOAT)
    with timeline.enabled() as tl:
        with pytest.raises(OutOfBoundsError, match="buffer 'a' of size 256"):
            ck.run(g, 4, (64, 1), params, mode=mode)
    assert _checks(tl) == [("counted", "run")]
