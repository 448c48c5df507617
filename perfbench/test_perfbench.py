"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _inputs_digest(obj) -> str:
    """Digest of every array and scalar reachable from ``obj``."""
    h = hashlib.sha256()

    def walk(x):
        if isinstance(x, dict):
            for k in sorted(x, key=repr):
                h.update(repr(k).encode())
                walk(x[k])
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)
        elif isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (int, float, str, np.generic)):
            h.update(repr(x).encode())

    walk(obj)
    return h.hexdigest()


def _plan(wl) -> tuple:
    if isinstance(wl, workloads.Table2Grid):
        data = [wl.orders, wl.inputs]
    elif isinstance(wl, workloads.CompileCorpus):
        data = [it["inputs"] for it in wl.items]
    elif isinstance(wl, workloads.AppsIterative):
        data = wl.plan
    else:
        data = [list(wl.due)] + [(lr.request.arrays, lr.request.scalars)
                                 for lr in wl.requests]
    return wl.program_list(), _inputs_digest(data)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_programs_inputs_and_schedule(name):
    cls = workloads.WORKLOADS[name]
    first = _plan(cls(7, 3))
    assert first == _plan(cls(7, 3))
    assert first != _plan(cls(8, 3))


def test_corpus_draws_no_duplicate_program():
    wl = workloads.CompileCorpus(3, 15)
    assert len(wl.keys) == len(set(wl.keys)) == len(wl.items)
    kinds = {spec[0] for spec in wl.specs}
    assert kinds == {"case", "example", "softmax", "reduce"}


def test_serve_schedule_is_open_loop_and_mixed():
    wl = workloads.ServeMixed(5, 10)
    assert len(wl.requests) == round(wl.RATE * 10)
    assert np.all(np.diff(wl.due) >= 0) and wl.due[-1] <= 10
    geos = [(lr.request.num_gangs, lr.request.num_workers,
             lr.request.vector_length) for lr in wl.requests]
    cold = [g for g in geos if g != workloads._HOT_GEOMETRY]
    assert len(cold) == round(len(geos) * wl.COLD_FRAC)
    cold_keys = [(lr.request.source, g) for lr, g in zip(wl.requests, geos)
                 if g != workloads._HOT_GEOMETRY]
    assert len(set(cold_keys)) == len(cold_keys)


def test_self_time_subtracts_children_and_merges_overlaps():
    # phase 0..10 on the main thread; two device threads each run a span
    # (1..5 and 3..8) that overlap each other; the first has a child 2..4
    spans = [
        ["bench.phase", 0.0, 10.0, None, 1],
        ["acc.run", 1.0, 5.0, 0, 2],
        ["acc.run", 3.0, 8.0, 0, 3],
        ["gpu.launch", 2.0, 4.0, 1, 2],
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx([10.0 - 7.0, 2.0, 5.0, 2.0])
    agg = layers.summarize(spans)
    assert agg["acc.run"] == {"calls": 2, "incl_s": pytest.approx(9.0),
                              "self_s": pytest.approx(7.0)}


def test_union_length_clips_nested_and_disjoint():
    assert layers.union_length([(0, 1), (0.5, 2), (3, 4), (3.2, 3.5)]) \
        == pytest.approx(3.0)
    assert layers.union_length([]) == 0.0


def test_tracer_restores_every_entry_point():
    import repro.acc
    from repro.gpu.executor import CompiledKernel
    from repro.passes import PASS_REGISTRY

    before_compile = repro.acc.compile
    before_run = CompiledKernel.__dict__["run"]
    before_passes = dict(PASS_REGISTRY)
    store = layers.SpanStore()
    with layers.LayerTracer(store) as tracer:
        with store.phase("bench.phase"):
            prog = repro.acc.compile(
                "float a[n];\nfloat s = 0.0f;\n"
                "#pragma acc parallel copyin(a)\n"
                "#pragma acc loop gang vector reduction(+:s)\n"
                "for (i = 0; i < n; i++) s += a[i];\n",
                num_gangs=2, num_workers=1, vector_length=32)
            res = prog.run(a=np.ones(100, dtype=np.float32))
        assert repro.acc.compile is not before_compile
    assert float(res.scalars["s"]) == 100.0
    assert tracer.restored()
    assert repro.acc.compile is before_compile
    assert CompiledKernel.__dict__["run"] is before_run
    assert all(PASS_REGISTRY[k] is v for k, v in before_passes.items())
    m = layers.layer_metrics(store)
    assert m["acc.compiles"] == 1 and m["gpu.launches"] >= 1
    assert m["passes.parse.s"] > 0 and m["gpu.sim.warp_inst_slots"] > 0
    assert m["gpu.launches.batched"] + m["gpu.launches.reference"] \
        + m["gpu.launches.trace"] == m["gpu.launches"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run._per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    # serve_mixed runs only on request (perfbench/README.md)
    assert [w["name"] for w in spec["workloads"]] \
        == [name for name in workloads.WORKLOADS if name != "serve_mixed"]
    assert not set(run.SERVE_LAYER) & set(run._per_layer_units())


def test_speed_factor_uses_probes_near_the_interval():
    from speed import REF_S, WINDOW_S, SpeedLog

    log = SpeedLog()
    log.at = [0.0, 0.5, 1.0, 10.0, 10.5]
    log.took = [REF_S, REF_S, REF_S, 2 * REF_S, 2 * REF_S]
    assert log.factor(0.2, 0.4) == pytest.approx(1.0)
    assert log.factor(10.1, 10.2) == pytest.approx(0.5)
    # no probe within the window: the two nearest (1.0 and 10.0) decide
    assert WINDOW_S < 4.5
    assert log.factor(5.5, 5.5) == pytest.approx(REF_S / (1.5 * REF_S))


def test_probe_process_fills_the_log_and_exits():
    import time

    from speed import EVERY_S, ProbeProcess, SpeedLog

    log = SpeedLog()
    t0 = time.perf_counter()
    with ProbeProcess(log) as helper:
        time.sleep(3 * EVERY_S)
    t1 = time.perf_counter()
    assert helper.proc.returncode == 0
    assert len(log) >= 3 and log.at == sorted(log.at)
    # the helper's clock is the workload's: its readings fall in the window
    assert t0 <= log.at[0] and log.at[-1] <= t1
    assert 0.0 < log.factor(t0, t1)


def test_percentile_tracks_numpy_and_moves_smoothly_across_gaps():
    x = np.random.default_rng(0).standard_normal(4000)
    assert run.pct(x, 50) == pytest.approx(np.median(x), abs=0.02)
    assert run.pct(x, 90) == pytest.approx(np.percentile(x, 90), abs=0.05)
    # two programs, 1 ms and 2 ms: moving one sample across the gap moves
    # the plain median by 0.5 ms, this estimate by far less
    even = np.r_[np.full(63, 1.0), np.full(63, 2.0)]
    moved = np.r_[np.full(62, 1.0), np.full(64, 2.0)]
    assert abs(run.pct(moved, 50) - run.pct(even, 50)) < 0.1
    # a 50/50 mix of two run times: the median sits in the gap; one
    # percent of the samples crossing it barely moves the estimate
    mix = np.r_[np.full(5000, 1.3), np.full(5000, 1.6)]
    shifted = np.r_[np.full(5100, 1.3), np.full(4900, 1.6)]
    assert abs(run.pct(shifted, 50) - run.pct(mix, 50)) < 0.05
    assert run.pct([3.0], 50) == 3.0 and run.pct([], 90) == 0.0
