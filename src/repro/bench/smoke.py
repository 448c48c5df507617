"""CI bench smoke: executor fast-path speedup guard.

Runs a scaled-down Table 2 sweep (the paper's 192-gang launch geometry
on small per-position sizes, each case compiled once up front — the
executor is what this gate guards, so compilation sits outside the timed
region) and a 64-gang reduction, in all three executor modes, and
records, per workload, the modeled kernel ms (which must be byte-equal
across modes — the bit-identity contract) and the wall-clock seconds of
each mode.

A separate ``trace_executor`` section times individual Table 2 rows —
(position, op, ctype) configurations at bench-scale sizes — in all
three modes.  Its gate is baseline-free: every row must be modeled- and
result-identical across the modes, and at least ``TRACE_MIN_ROWS_10X``
rows must show a >=10x trace-over-reference wall speedup (a property of
the current build, not a ratio against history; gang-position rows
clear it with margin, and slower rows are recorded honestly).

The ``counter_memo`` section is an identity check, not a timing: on
each ``table2_quick`` cell, under ``batched``, ``trace`` and the default
mode, a repeated launch must hit the counter memo and return exactly the
counters, modeled ms and results of a counted launch; default-mode hits
of trace-eligible cells must run ``trace``.  A default-mode re-launch at
a new problem size must count, run ``trace`` on trace-eligible cells and
equal a counted launch of a freshly compiled program.

Usage::

    python -m repro.bench.smoke --out BENCH_table2.json    # write baseline
    python -m repro.bench.smoke --check BENCH_table2.json  # CI gate

``--check`` compares against a committed baseline.  Absolute wall-clock
is machine-dependent, so the regression metric is the *ratio*
``batched_wall / reference_wall`` of the same run — a dimensionless
measure of how much of the fast path's advantage survives.  The gate
fails when the current ratio exceeds the baseline ratio by more than
``--tolerance`` (default 25%), or when modeled ms diverge between modes
at all.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

__all__ = ["run_smoke", "check_against_baseline"]

TOLERANCE = 0.25

#: the trace-executor gate: this many Table 2 rows must clear a >=10x
#: trace-over-reference wall speedup
TRACE_MIN_ROWS_10X = 3
TRACE_SPEEDUP_FLOOR = 10.0

#: the rows the trace gate times: (position, op, ctype, size).  Gang
#: rows at 8192 clear the 10x floor with margin on CI-class machines;
#: the gang-worker row sits below it (per-lane gather cost floor) and is
#: recorded honestly without feeding the >=10x count.
TRACE_ROWS = (
    ("gang", "+", "float", 8192),
    ("gang", "*", "float", 8192),
    ("gang", "+", "double", 8192),
    ("gang", "*", "double", 8192),
    ("gang", "+", "int", 8192),
    ("gang worker", "+", "float", 32768),
)

_REDUCTION_SRC = '''float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
'''


def _time_best(fn, reps: int):
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _table2_workload(reps: int) -> dict:
    from repro import acc
    from repro.testsuite.cases import POSITIONS, generate_cases

    # the paper's launch geometry (Table 2 runs 192 gangs x 8 workers x
    # 128 vector) at scaled-down sizes: multi-gang execution, which is
    # exactly what the batched path accelerates
    cases = generate_cases(positions=POSITIONS, ops=("+",),
                           ctypes=("float",), size=4096)
    compiled = [(case,
                 acc.compile(case.source, num_gangs=192, num_workers=8,
                             vector_length=128),
                 case.make_inputs(np.random.default_rng(42)))
                for case in cases]

    out = {}
    for mode in ("batched", "reference", "trace"):
        def sweep(m=mode):
            return [prog.run(executor_mode=m, **inputs)
                    for _, prog, inputs in compiled]
        wall, results = _time_best(sweep, reps)
        out[mode] = {
            "wall_s": wall,
            "cells": [(case.label, round(res.kernel_ms, 9))
                      for (case, _, _), res in zip(compiled, results)],
        }
    return {
        "modeled_identical": all(
            out[m]["cells"] == out["reference"]["cells"]
            for m in ("batched", "trace")),
        "modeled_ms_total": sum(ms for _, ms in out["batched"]["cells"]),
        "batched_wall_s": out["batched"]["wall_s"],
        "reference_wall_s": out["reference"]["wall_s"],
        "trace_wall_s": out["trace"]["wall_s"],
        "speedup": out["reference"]["wall_s"] / out["batched"]["wall_s"],
        "trace_speedup":
            out["reference"]["wall_s"] / out["trace"]["wall_s"],
    }


def _gang64_workload(reps: int) -> dict:
    from repro import acc

    prog = acc.compile(_REDUCTION_SRC, num_gangs=64, num_workers=4,
                       vector_length=32)
    a = (np.arange(1 << 16) % 97).astype(np.float32)
    out = {}
    for mode in ("batched", "reference", "trace"):
        wall, res = _time_best(
            lambda m=mode: prog.run(executor_mode=m, a=a), reps)
        out[mode] = {
            "wall_s": wall,
            "total_hex": np.asarray(res.scalars["total"]).tobytes().hex(),
            "modeled_ms": res.kernel_ms,
        }
    return {
        "modeled_identical": all(
            out[m]["total_hex"] == out["reference"]["total_hex"]
            and out[m]["modeled_ms"] == out["reference"]["modeled_ms"]
            for m in ("batched", "trace")),
        "modeled_ms_total": out["batched"]["modeled_ms"],
        "batched_wall_s": out["batched"]["wall_s"],
        "reference_wall_s": out["reference"]["wall_s"],
        "trace_wall_s": out["trace"]["wall_s"],
        "speedup": out["reference"]["wall_s"] / out["batched"]["wall_s"],
        "trace_speedup":
            out["reference"]["wall_s"] / out["trace"]["wall_s"],
    }


def _trace_workload(reps: int) -> dict:
    """Per-row Table 2 timings for the trace-executor speedup gate.

    Each row is one (position, op, ctype) Table 2 configuration at a
    bench-scale size, compiled once under the paper's 192x8x128 launch
    geometry and run in all three executor modes.  Identity is checked
    on the modeled ms *and* the result bytes; the speedup gate counts
    rows whose trace-over-reference wall ratio clears
    ``TRACE_SPEEDUP_FLOOR``.
    """
    from repro import acc
    from repro.testsuite.cases import make_case

    rows = []
    for position, op, ctype, size in TRACE_ROWS:
        case = make_case(position, op, ctype, size=size)
        prog = acc.compile(case.source, num_gangs=192, num_workers=8,
                           vector_length=128)
        inputs = case.make_inputs(np.random.default_rng(42))
        runs = {}
        for mode in ("reference", "batched", "trace"):
            wall, res = _time_best(
                lambda m=mode: prog.run(executor_mode=m, **inputs), reps)
            runs[mode] = {
                "wall_s": wall,
                "modeled_ms": round(res.kernel_ms, 9),
                "bits": {n: np.asarray(v).tobytes().hex()
                         for n, v in res.scalars.items()},
            }
        ref = runs["reference"]
        rows.append({
            "config": f"{case.label} @{size}",
            "modeled_ms": ref["modeled_ms"],
            "modeled_identical": all(
                runs[m]["modeled_ms"] == ref["modeled_ms"]
                and runs[m]["bits"] == ref["bits"]
                for m in ("batched", "trace")),
            "reference_wall_s": ref["wall_s"],
            "batched_wall_s": runs["batched"]["wall_s"],
            "trace_wall_s": runs["trace"]["wall_s"],
            "batched_speedup": ref["wall_s"] / runs["batched"]["wall_s"],
            "trace_speedup": ref["wall_s"] / runs["trace"]["wall_s"],
        })
    return {
        "rows": rows,
        "all_identical": all(r["modeled_identical"] for r in rows),
        "rows_ge_10x": sum(1 for r in rows
                           if r["trace_speedup"] >= TRACE_SPEEDUP_FLOOR),
        "speedup_floor": TRACE_SPEEDUP_FLOOR,
        "min_rows_ge_10x": TRACE_MIN_ROWS_10X,
    }


def _same_run(got, want) -> bool:
    """Same KernelStats, modeled kernel ms and scalar result bytes."""
    return (got.kernel_stats == want.kernel_stats
            and got.kernel_ms == want.kernel_ms
            and all(np.asarray(got.scalars[n]).tobytes()
                    == np.asarray(v).tobytes()
                    for n, v in want.scalars.items()))


def _counter_memo_guard() -> dict:
    """Counter-memo identity on the ``table2_quick`` cells (not timed).

    Per cell and executor mode — ``batched``, ``trace`` and the default
    (``None``) — a program's repeated launch, on fresh seeded inputs so a
    memo hit that reused stale *values* would show too, must be served
    from the counter memo and return the same KernelStats, modeled ms
    and result bytes as a counted launch of a freshly compiled program.
    A default-mode hit of a trace-eligible cell must also run ``trace``
    (the tiered default) unless ``REPRO_EXECUTOR`` pins the mode.

    Per cell, a default-mode re-launch of the warm program at a second
    problem size (a memo miss) must count, run ``trace`` under the same
    condition, and equal a fresh program's counted launch (``relaunch``).
    """
    from repro import acc
    from repro.gpu.executor import _env_mode
    from repro.testsuite.cases import POSITIONS, generate_cases

    cases = generate_cases(positions=POSITIONS, ops=("+",),
                           ctypes=("float",), size=4096)
    # the same sources at a second problem size
    resized = generate_cases(positions=POSITIONS, ops=("+",),
                             ctypes=("float",), size=2048)
    geom = dict(num_gangs=192, num_workers=8, vector_length=128)
    rows = []
    relaunch = []
    for case, other in zip(cases, resized):
        warm = acc.compile(case.source, **geom)
        expect_trace = _env_mode() is None and all(
            ck.trace_safety.eligible for ck in warm._compiled.values())
        fresh = case.make_inputs(np.random.default_rng(43))
        for mode in ("batched", "trace", None):
            warm.run(executor_mode=mode,
                     **case.make_inputs(np.random.default_rng(42)))
            hit = warm.run(executor_mode=mode, **fresh)
            # the memo is shared across modes: only a fresh program
            # counts under every mode
            counted = acc.compile(case.source, **geom).run(
                executor_mode=mode, **fresh)
            row = {
                "config": f"{case.label} {mode or 'default'}",
                "memo_hit": all(st.counters == "memo"
                                for st in hit.kernel_stats.values()),
                "identical": _same_run(hit, counted),
            }
            if mode is None:
                row["executor"] = sorted({st.executor for st in
                                          hit.kernel_stats.values()})
                row["expect_trace"] = expect_trace
            rows.append(row)
        inputs = other.make_inputs(np.random.default_rng(44))
        again = warm.run(**inputs)
        counted = acc.compile(case.source, **geom).run(**inputs)
        relaunch.append({
            "config": f"{case.label} re-launch",
            "counted": all(st.counters == "counted"
                           for st in again.kernel_stats.values()),
            "executor": sorted({st.executor
                                for st in again.kernel_stats.values()}),
            "expect_trace": expect_trace,
            "identical": _same_run(again, counted),
        })
    return {
        "cells": rows,
        "relaunch": relaunch,
        "all_hit": all(r["memo_hit"] for r in rows),
        "all_identical": all(r["identical"] for r in rows),
    }


def _attribution_guard() -> dict:
    """The attribution zero-overhead pin (boolean, not timed).

    Three contracts the ``--check`` gate enforces on the *current* run
    (no baseline needed): with ``attribution`` off the run allocates no
    tables; on, every launch fills one; and turning it on is a pure
    observer — bitwise-identical results and an identical ledger.
    """
    from repro import acc

    prog = acc.compile(_REDUCTION_SRC, num_gangs=8, num_workers=2,
                       vector_length=32)
    a = (np.arange(1 << 12) % 97).astype(np.float32)
    plain = prog.run(a=a)
    attributed = prog.run(attribution=True, a=a)
    return {
        "off_allocates_nothing": all(
            st.attribution is None
            for st in plain.kernel_stats.values()),
        "on_fills_tables": all(
            st.attribution is not None and bool(st.attribution.rows)
            for st in attributed.kernel_stats.values()),
        "pure_observer": (
            np.asarray(plain.scalars["total"]).tobytes()
            == np.asarray(attributed.scalars["total"]).tobytes()
            and plain.ledger.entries == attributed.ledger.entries),
    }


def _passes_guard() -> dict:
    """Pass-pipeline gate: minimal vs optimized on Table 2 configurations.

    Gang-involved float ``+`` cases under the buffer handoff, so the
    optimized pipeline has a finish kernel to fuse; float keeps the
    cost-model autotuner out (inexact combine — it declines to retune),
    leaving finish-kernel fusion + barrier elimination + constant
    folding, which are bit-identity-preserving by construction.  The
    ``--check`` gate requires bitwise-identical scalars per config and a
    >=5% modeled-time win on at least two configs (no baseline needed —
    these are properties of the current build).
    """
    from repro import acc
    from repro.testsuite.cases import generate_cases, make_case

    paper_geom = dict(num_gangs=192, num_workers=8, vector_length=128)
    configs = [(case.label, case, paper_geom) for case in generate_cases(
        positions=("gang", "gang worker", "gang worker vector",
                   "same line gang worker vector"),
        ops=("+",), ctypes=("float",), size=4096)]
    # one warp-sized-block geometry: every __syncthreads is redundant
    # there, so this row isolates the barrier-elimination win
    configs.append((
        "same-line gwv float + (24x1x32, warp-sized blocks)",
        make_case("same line gang worker vector", "+", "float", size=4096),
        dict(num_gangs=24, num_workers=1, vector_length=32)))

    rows = []
    for label, case, geom in configs:
        inputs = case.make_inputs(np.random.default_rng(7))
        runs = {}
        for pipe in ("minimal", "optimized"):
            prog = acc.compile(case.source, pipeline=pipe, **geom)
            runs[pipe] = prog.run(**inputs)
        bits = {pipe: {name: np.asarray(val).tobytes().hex()
                       for name, val in r.scalars.items()}
                for pipe, r in runs.items()}
        ms_min = runs["minimal"].kernel_ms
        ms_opt = runs["optimized"].kernel_ms
        rows.append({
            "config": label,
            "bitwise_identical": bits["minimal"] == bits["optimized"],
            "minimal_ms": round(ms_min, 9),
            "optimized_ms": round(ms_opt, 9),
            "improvement": round((ms_min - ms_opt) / ms_min, 4),
        })
    return {
        "configs": rows,
        "all_identical": all(r["bitwise_identical"] for r in rows),
        "improved_5pct": sum(1 for r in rows if r["improvement"] >= 0.05),
    }


#: cascade-fusion gate workloads: (label, geometry, n)
CASCADE_CONFIGS = (
    ("softmax 4x2x32 n=256", dict(num_gangs=4, num_workers=2,
                                  vector_length=32), 256),
    ("softmax 16x1x64 n=4096", dict(num_gangs=16, num_workers=1,
                                    vector_length=64), 4096),
)

#: the cascade gate floor: fused must win >=10% of device kernel time
CASCADE_MIN_IMPROVEMENT = 0.10


def _cascade_guard() -> dict:
    """Cascade-fusion gate: softmax fused vs ``cascade_fusion="never"``.

    Softmax (max → subtract-exp → ``+`` → divide) is the flagship
    cascade: the optimized pipeline folds the sum's finish kernel into
    its consumer stage.  The ``--check`` gate requires, per config,
    bitwise-identical outputs between the fused and pinned-unfused
    builds, strictly fewer kernels when fused, and a
    >=``CASCADE_MIN_IMPROVEMENT`` win on modeled device (kernel) time —
    properties of the current build, no baseline needed.
    """
    from repro.apps.softmax import softmax_result

    rows = []
    for label, geom, n in CASCADE_CONFIGS:
        x = (np.arange(n) % 113).astype(np.float32) / 7.0 - 8.0
        fused = softmax_result(x, **geom)
        never = softmax_result(x, cascade_fusion="never", **geom)
        ms_f, ms_n = fused.kernel_ms, never.kernel_ms
        rows.append({
            "config": label,
            "bitwise_identical":
                fused.y.tobytes() == never.y.tobytes()
                and (np.float32(fused.denom).tobytes()
                     == np.float32(never.denom).tobytes()),
            "fused_kernels": fused.num_kernels,
            "unfused_kernels": never.num_kernels,
            "fused_ms": round(ms_f, 9),
            "unfused_ms": round(ms_n, 9),
            "improvement": round((ms_n - ms_f) / ms_n, 4),
        })
    return {
        "configs": rows,
        "all_identical": all(r["bitwise_identical"] for r in rows),
        "all_fewer_kernels": all(
            r["fused_kernels"] < r["unfused_kernels"] for r in rows),
        "min_improvement": CASCADE_MIN_IMPROVEMENT,
    }


def _telemetry_guard() -> dict:
    """The telemetry-bus zero-overhead pin (boolean, not timed).

    Three contracts the ``--check`` gate enforces on the *current* run
    (no baseline needed): with no bus installed a run executes zero
    telemetry code — ``timeline.current()`` is ``None`` and tracemalloc
    attributes **no allocation** to ``timeline.py``; installing a bus is
    a pure observer — bitwise-identical scalars and an identical ledger
    in both executor modes; and an installed bus actually captures the
    run (kernel + transfer spans, an executor-mode decision).
    """
    import tracemalloc

    from repro import acc
    from repro.obs import timeline

    prog = acc.compile(_REDUCTION_SRC, num_gangs=8, num_workers=2,
                       vector_length=32)
    a = (np.arange(1 << 12) % 97).astype(np.float32)

    def run_both(**kw):
        return {m: prog.run(executor_mode=m, a=a, **kw)
                for m in ("batched", "reference")}

    # 1. disabled: no bus, and no allocation attributable to the bus
    tl_file = timeline.__file__
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        plain = run_both()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    flt = tracemalloc.Filter(True, tl_file)
    tl_allocs = after.filter_traces([flt]).compare_to(
        before.filter_traces([flt]), "lineno")
    off_no_alloc = (timeline.current() is None
                    and not any(st.size_diff > 0 or st.count_diff > 0
                                for st in tl_allocs))

    # 2./3. enabled: a pure observer that does capture the run
    with timeline.enabled() as tl:
        observed = run_both()
        cats = tl.categories()
        kinds = {e.kind for e in tl.events("gpu")}
        names = {e.name for e in tl.events("gpu")}
    bits = {tag: {m: np.asarray(r.scalars["total"]).tobytes()
                  for m, r in runs.items()}
            for tag, runs in (("plain", plain), ("observed", observed))}
    return {
        "off_no_bus_no_alloc": off_no_alloc,
        "pure_observer": (
            bits["plain"] == bits["observed"]
            and all(plain[m].ledger.entries == observed[m].ledger.entries
                    for m in plain)),
        "on_captures": (cats.get("gpu", 0) > 0
                        and "decision" in kinds and "span" in kinds
                        and any(n.startswith("kernel:") for n in names)
                        and any(n.startswith("transfer:") for n in names)),
    }


def _trace_guard() -> dict:
    """The request-tracing zero-overhead pin (boolean, not timed).

    Three contracts, mirroring ``_telemetry_guard``: with tracing
    uninstalled a run allocates nothing in ``trace.py`` and — even with
    a bus installed — emits **no** ``trace_id``/``span_id``/``parent_id``
    fields; installing a tracer is a pure observer (bit-identical
    scalars + identical ledger in both executor modes); and with tracing
    on, every run's events assemble into single-rooted span trees with
    no orphans.
    """
    import tracemalloc

    from repro import acc
    from repro.obs import timeline
    from repro.obs import trace as rtrace

    prog = acc.compile(_REDUCTION_SRC, num_gangs=8, num_workers=2,
                       vector_length=32)
    a = (np.arange(1 << 12) % 97).astype(np.float32)

    def run_both(**kw):
        return {m: prog.run(executor_mode=m, a=a, **kw)
                for m in ("batched", "reference")}

    # 1. tracer off, no bus: no allocation attributable to trace.py
    tr_file = rtrace.__file__
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        plain = run_both()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    flt = tracemalloc.Filter(True, tr_file)
    tr_allocs = after.filter_traces([flt]).compare_to(
        before.filter_traces([flt]), "lineno")
    off_no_alloc = (timeline.tracer() is None
                    and not any(st.size_diff > 0 or st.count_diff > 0
                                for st in tr_allocs))

    # 2. bus on, tracer off: no event gains a trace field
    trace_keys = {"trace_id", "span_id", "parent_id"}
    with timeline.enabled() as tl:
        untraced = run_both()
        no_fields = not any(trace_keys & set(ev.attrs)
                            for ev in tl.events())

    # 3. bus + tracer on: pure observer, and single-rooted assembly
    with timeline.enabled() as tl:
        with rtrace.tracing():
            traced = run_both()
        trees = rtrace.assemble(tl.events())
    assembled = (len(trees) == len(traced)  # one trace per run
                 and all(len(t.roots) == 1 and not t.orphans
                         for t in trees.values()))
    bits = {tag: {m: np.asarray(r.scalars["total"]).tobytes()
                  for m, r in runs.items()}
            for tag, runs in (("plain", plain), ("untraced", untraced),
                              ("traced", traced))}
    ledgers = {tag: {m: r.ledger.entries for m, r in runs.items()}
               for tag, runs in (("plain", plain), ("untraced", untraced),
                                 ("traced", traced))}
    return {
        "off_no_alloc": off_no_alloc,
        "off_no_trace_fields": no_fields,
        "pure_observer": (
            bits["plain"] == bits["untraced"] == bits["traced"]
            and ledgers["plain"] == ledgers["untraced"]
            == ledgers["traced"]),
        "on_assembles_single_rooted": assembled,
    }


def run_smoke(reps: int = 2) -> dict:
    """Both workloads, both modes; returns the baseline document."""
    return {
        "bench": "executor-fast-path-smoke",
        "reps": reps,
        "workloads": {
            "table2_quick": _table2_workload(reps),
            "reduction_64gang": _gang64_workload(reps),
        },
        "trace_executor": _trace_workload(reps),
        "counter_memo": _counter_memo_guard(),
        "attribution_guard": _attribution_guard(),
        "pass_pipeline": _passes_guard(),
        "cascade_fusion": _cascade_guard(),
        "telemetry_guard": _telemetry_guard(),
        "trace_guard": _trace_guard(),
    }


def check_against_baseline(current: dict, baseline: dict,
                           tolerance: float = TOLERANCE) -> list[str]:
    """Failure messages (empty = pass)."""
    failures = []
    for check, ok in current.get("attribution_guard", {}).items():
        if not ok:
            failures.append(f"attribution_guard: {check} violated — "
                            "per-statement attribution must be opt-in "
                            "and a pure observer")
    for check, ok in current.get("telemetry_guard", {}).items():
        if not ok:
            failures.append(f"telemetry_guard: {check} violated — the "
                            "telemetry bus must cost nothing when off "
                            "and observe without perturbing when on")
    for check, ok in current.get("trace_guard", {}).items():
        if not ok:
            failures.append(f"trace_guard: {check} violated — request "
                            "tracing must cost nothing when uninstalled "
                            "and not perturb results when on")
    cm = current.get("counter_memo")
    if cm is not None:
        for row in cm["cells"]:
            if not row["memo_hit"]:
                failures.append(
                    f"counter_memo: {row['config']}: the repeated launch "
                    "counted again instead of hitting the counter memo")
            if not row["identical"]:
                failures.append(
                    f"counter_memo: {row['config']}: memo-hit stats, "
                    "modeled ms or results differ from a counted launch")
            if row.get("expect_trace") and row["executor"] != ["trace"]:
                failures.append(
                    f"counter_memo: {row['config']}: a default-mode memo "
                    f"hit ran {'/'.join(row['executor'])}, not trace")
        for row in cm.get("relaunch", ()):
            if not row["counted"]:
                failures.append(
                    f"counter_memo: {row['config']}: a re-launch at a new "
                    "problem size did not count")
            if not row["identical"]:
                failures.append(
                    f"counter_memo: {row['config']}: stats, modeled ms or "
                    "results differ from a fresh program's counted launch")
            if row["expect_trace"] and row["executor"] != ["trace"]:
                failures.append(
                    f"counter_memo: {row['config']}: a default-mode "
                    f"re-launch ran {'/'.join(row['executor'])}, not trace")
    pp = current.get("pass_pipeline")
    if pp is not None:
        for row in pp["configs"]:
            if not row["bitwise_identical"]:
                failures.append(
                    f"pass_pipeline: {row['config']}: optimized pipeline "
                    "changed results bitwise vs minimal — the kernel-IR "
                    "passes must be identity-preserving")
        if pp["improved_5pct"] < 2:
            failures.append(
                f"pass_pipeline: only {pp['improved_5pct']} config(s) "
                "improved modeled time by >=5% over the minimal pipeline "
                "(need 2) — fusion/barrier-elimination wins regressed")
    cf = current.get("cascade_fusion")
    if cf is not None:
        floor = cf.get("min_improvement", CASCADE_MIN_IMPROVEMENT)
        for row in cf["configs"]:
            if not row["bitwise_identical"]:
                failures.append(
                    f"cascade_fusion: {row['config']}: fused cascade "
                    "changed results bitwise vs the unfused pipeline — "
                    "the replay prologue must be exactness-preserving")
            if row["fused_kernels"] >= row["unfused_kernels"]:
                failures.append(
                    f"cascade_fusion: {row['config']}: fusion did not "
                    f"reduce the kernel count "
                    f"({row['unfused_kernels']} -> {row['fused_kernels']})")
            if row["improvement"] < floor:
                failures.append(
                    f"cascade_fusion: {row['config']}: modeled kernel "
                    f"time improved only {row['improvement']:.1%} "
                    f"(need >={floor:.0%}) — the fusion win regressed")
    te = current.get("trace_executor")
    if te is not None:
        for row in te["rows"]:
            if not row["modeled_identical"]:
                failures.append(
                    f"trace_executor: {row['config']}: trace results or "
                    "modeled ms diverged from the reference executor — "
                    "bit-identity contract broken")
        if te["rows_ge_10x"] < TRACE_MIN_ROWS_10X:
            failures.append(
                f"trace_executor: only {te['rows_ge_10x']} Table 2 "
                f"row(s) reached a >={TRACE_SPEEDUP_FLOOR:g}x "
                f"trace-over-reference wall speedup "
                f"(need {TRACE_MIN_ROWS_10X}) — the compiled fast path "
                "lost its advantage")
    for name, cur in current["workloads"].items():
        if not cur["modeled_identical"]:
            failures.append(
                f"{name}: executor modes disagree on modeled results — "
                "bit-identity contract broken")
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline file")
            continue
        cur_ratio = cur["batched_wall_s"] / cur["reference_wall_s"]
        base_ratio = base["batched_wall_s"] / base["reference_wall_s"]
        if cur_ratio > base_ratio * (1.0 + tolerance):
            failures.append(
                f"{name}: batched/reference wall ratio {cur_ratio:.3f} "
                f"regressed >{tolerance:.0%} vs baseline "
                f"{base_ratio:.3f}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    g = ap.add_mutually_exclusive_group(required=True)
    g.add_argument("--out", metavar="PATH",
                   help="run the smoke and write a new baseline JSON")
    g.add_argument("--check", metavar="PATH",
                   help="run the smoke and gate against this baseline")
    ap.add_argument("--reps", type=int, default=2,
                    help="timing repetitions per mode (best-of)")
    ap.add_argument("--tolerance", type=float, default=TOLERANCE,
                    help="allowed wall-ratio regression (default 0.25)")
    args = ap.parse_args(argv)

    doc = run_smoke(reps=args.reps)
    for name, w in doc["workloads"].items():
        print(f"  {name:<20} batched {w['batched_wall_s']*1e3:8.1f} ms  "
              f"reference {w['reference_wall_s']*1e3:8.1f} ms  "
              f"speedup {w['speedup']:.2f}x  "
              f"trace {w['trace_speedup']:.2f}x  "
              f"modeled-identical={w['modeled_identical']}",
              file=sys.stderr)
    te = doc["trace_executor"]
    for row in te["rows"]:
        print(f"  trace  {row['config']:<30} "
              f"reference {row['reference_wall_s']*1e3:8.1f} ms  "
              f"batched {row['batched_speedup']:5.2f}x  "
              f"trace {row['trace_speedup']:6.2f}x  "
              f"identical={row['modeled_identical']}", file=sys.stderr)
    print(f"  trace rows >=10x: {te['rows_ge_10x']}/{len(te['rows'])} "
          f"(gate: {te['min_rows_ge_10x']})", file=sys.stderr)
    cm = doc["counter_memo"]
    print(f"  counter memo: {sum(r['memo_hit'] for r in cm['cells'])}/"
          f"{len(cm['cells'])} hits, identical={cm['all_identical']}; "
          f"re-launches counted "
          f"{sum(r['counted'] for r in cm['relaunch'])}/"
          f"{len(cm['relaunch'])}, identical "
          f"{sum(r['identical'] for r in cm['relaunch'])}/"
          f"{len(cm['relaunch'])}", file=sys.stderr)
    pp = doc["pass_pipeline"]
    for row in pp["configs"]:
        print(f"  passes {row['config']:<42} "
              f"minimal {row['minimal_ms']:8.4f} ms  "
              f"optimized {row['optimized_ms']:8.4f} ms  "
              f"({row['improvement']:+.1%})  "
              f"bit-identical={row['bitwise_identical']}", file=sys.stderr)
    for row in doc["cascade_fusion"]["configs"]:
        print(f"  cascade {row['config']:<28} "
              f"unfused {row['unfused_ms']:8.4f} ms "
              f"({row['unfused_kernels']} kernels)  "
              f"fused {row['fused_ms']:8.4f} ms "
              f"({row['fused_kernels']} kernels)  "
              f"({row['improvement']:+.1%})  "
              f"bit-identical={row['bitwise_identical']}", file=sys.stderr)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[baseline written to {args.out}]", file=sys.stderr)
        return 0

    with open(args.check) as f:
        baseline = json.load(f)
    failures = check_against_baseline(doc, baseline,
                                      tolerance=args.tolerance)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("[bench smoke ok]", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
