"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table2_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
units untraced and then traced (wrappers installed from
``perfbench/layers.py``), checks that both give bit-identical outputs and
modeled times, and prints every per-layer metric.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero if any output was
wrong.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the benchmark measures the defaults users get
CLEARED_ENV = ("REPRO_EXECUTOR", "REPRO_PASSES")
#: fresh processes timed per run for setup_s (the median is reported)
SETUP_REPS = 4

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "compile_ms_p50": "ms",
    "compile_ms_p90": "ms",
    "modeled_ms": "ms",
    "slo_good_frac": "ratio",
    "peak_rss_mb": "MB",
}


#: per-layer metrics only ``serve_mixed`` has; BENCHMARK.json does not run
#: that workload (perfbench/README.md says why), so it does not list them
SERVE_LAYER = {
    "serve.queue_ms_p50": "ms", "serve.queue_ms_p90": "ms",
    "serve.compile_ms_p50": "ms", "serve.compile_ms_p90": "ms",
    "serve.run_ms_p50": "ms", "serve.run_ms_p90": "ms",
    "serve.cache.hit_frac": "ratio", "serve.cache.get.s": "s",
    "serve.cache.put.s": "s", "serve.device_busy_frac": "ratio",
    "serve.retries": "count", "serve.hedged": "count",
    "serve.shed": "count", "serve.expired": "count",
    "loadgen.late_ms_p90": "ms",
}


def _per_layer_units(serve: bool = False) -> dict[str, str]:
    from layers import PASS_NAMES

    units = {f"passes.{p}.s": "s" for p in PASS_NAMES}
    units.update({
        "acc.compiles": "count", "codegen.kernels": "count",
        "codegen.kernel_stmts": "count",
        "acc.compile.self_s": "s", "gpu.kernel_compile.s": "s",
        "gpu.trace_compile.s": "s",
        "acc.run.self_s": "s", "acc.bind.s": "s", "acc.transfer_in.s": "s",
        "acc.transfer_out.s": "s", "acc.read_result.s": "s",
        "gpu.launch.s": "s", "gpu.launches": "count",
        "gpu.launches.trace": "count", "gpu.launches.batched": "count",
        "gpu.launches.reference": "count", "gpu.fastpath_frac": "ratio",
        "gpu.exec_self.s": "s", "gpu.us_per_launch": "us",
        "gpu.memory.accounting.s": "s", "gpu.memory.bank.s": "s",
        "gpu.memory.accounting_calls": "count",
        "gpu.costmodel.s": "s", "gpu.costmodel.calls": "count",
        "gpu.sim.warp_inst_slots": "count",
        "gpu.sim.global_transactions": "count",
        "gpu.sim.shared_accesses": "count", "gpu.sim.barriers": "count",
        "gpu.host_ns_per_warp_inst": "ns",
        "bench.trace_overhead_frac": "ratio",
        "bench.trace_residual_frac": "ratio",
    })
    if serve:
        units.update(SERVE_LAYER)
    return units


#: largest share of the traced wall the layer spans may leave uncovered
MAX_RESIDUAL = 0.1


#: the percentile estimate averages over the ranks a sample of this
#: size would (see pct)
PCT_BAND_N = 100


def pct(values, q: float) -> float:
    """Smoothed estimate of the ``q``-th percentile.

    Harrell–Davis: a weighted mean of all order statistics, with
    Beta(q(m+1), (1-q)(m+1)) weights over their ranks.  With ``m`` the
    sample count this is the textbook estimator; ``m`` is capped at
    ``PCT_BAND_N`` so the weights always spread over a band of ranks
    (σ ≈ 5% of them at the median).  Where a mix of programs leaves a gap
    in the samples at the percentile — the heat loop's two kernels are
    a 50/50 mix, so its median sits in one — a single order statistic
    jumps across the gap from run to run; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 2:
        return float(x[0]) if n else 0.0
    p = q / 100.0
    m = min(n, PCT_BAND_N)
    a, b = p * (m + 1), (1.0 - p) * (m + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
                  - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    pdf = np.nan_to_num(np.exp(logpdf), posinf=0.0)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def host_fingerprint() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def pin_to_one_cpu() -> int | None:
    """Keep a closed-loop workload, its threads and its set-up processes
    on one CPU, so the speed probes measure the core the workload runs on
    (the two cores of a shared host drift apart).  ``serve_mixed`` is not
    pinned: its device pool has one device per core."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# setup_s: set-up timed in fresh processes
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child mode: set the workload up, report, tear down."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        wl.setup()
        print("READY " + json.dumps(wl.setup_compile_ms), flush=True)
    finally:
        wl.close()
    return 0


def time_setups(args, reps: int) -> tuple[list[float], list[float]]:
    """Process start → ready, measured from outside ``reps`` times."""
    walls, compile_ms = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(reps):
        log = speed.SpeedLog()
        log.probe(5)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("setup probe timed out")
        if proc.returncode != 0 or not line.startswith("READY "):
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        log.probe(5)
        walls.append((t1 - t0) * log.factor(t0, t1))
        compile_ms += json.loads(line[len("READY "):])
    return walls, compile_ms


# ---------------------------------------------------------------------------
# closed-loop workloads
# ---------------------------------------------------------------------------

def closed_e2e(wl, setups, setup_compile_ms) -> dict:
    from workloads import check_units, run_units

    units = wl.units()
    outcomes = run_units(units)
    check_units(units, outcomes)
    failed = [oc for oc in outcomes if oc.error]
    ok = len(outcomes) - len(failed)
    run_ms = [ms for oc in outcomes for ms in oc.run_ms]
    compile_ms = [ms for oc in outcomes for ms in oc.compile_ms]
    if not compile_ms:  # this workload compiles in set-up only
        compile_ms = setup_compile_ms
    latency = [oc.latency_ms * oc.factor for oc in outcomes]
    modeled = 0.0
    for oc in wl.modeled_units(outcomes):
        modeled += oc.modeled_ms
    good = sum(1 for oc, lat in zip(outcomes, latency)
               if not oc.error and lat <= wl.SLO_MS)
    raw_wall = sum(oc.latency_ms for oc in outcomes) / 1e3
    metrics = {
        "setup_s": float(np.median(setups)),
        "throughput_per_s": ok / (sum(latency) / 1e3),
        "latency_ms_p50": pct(latency, 50), "latency_ms_p90": pct(latency, 90),
        "run_ms_p50": pct(run_ms, 50), "run_ms_p90": pct(run_ms, 90),
        "compile_ms_p50": pct(compile_ms, 50),
        "compile_ms_p90": pct(compile_ms, 90),
        "modeled_ms": modeled,
        "slo_good_frac": good / len(outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"metrics": metrics, "attempted": len(outcomes),
            "failed": len(failed),
            "errors": [f"{oc.label}: {oc.error}" for oc in failed][:20],
            "samples": {"run_ms": len(run_ms), "compile_ms": len(compile_ms),
                        "latency_ms": len(latency), "setup_s": len(setups)},
            "raw": {"timed_wall_s": raw_wall,
                    "run_ms_p50": pct([(b - a) * 1e3 for oc in outcomes
                                       for a, b in oc.run_iv], 50),
                    # the tail slo_good_frac's limit is set from
                    "latency_ms_p99": float(np.percentile(latency, 99)),
                    "speed_factor_median": float(np.median(
                        [oc.factor for oc in outcomes]))}}


def closed_traced(wl) -> dict:
    from layers import LayerTracer, SpanStore, layer_metrics, self_times
    from workloads import check_units, run_units

    units = wl.units(trace=True)
    plain = run_units(units)
    units_t = wl.units(trace=True)
    store = SpanStore()
    with LayerTracer(store) as tracer:
        with store.phase("bench.phase"):
            traced = run_units(units_t, store)
    restored = tracer.restored()
    check_units(units, plain)
    check_units(units_t, traced)
    errors = [f"{oc.label}: {oc.error}" for oc in plain + traced if oc.error]
    mismatched = [a.label for a, b in zip(plain, traced)
                  if a.digests != b.digests]
    errors += [f"{lbl}: traced output or modeled time differs"
               for lbl in mismatched]
    if not restored:
        errors.append("an entry point was not restored after tracing")
    phase = store.spans[0]
    residual = self_times(store.spans)[0] / (phase[2] - phase[1])
    if residual > MAX_RESIDUAL:
        errors.append(f"layer spans leave {residual:.1%} of the traced "
                      "wall unaccounted")
    metrics = layer_metrics(store)
    metrics["bench.trace_overhead_frac"] = (
        sum(oc.latency_ms * oc.factor for oc in traced)
        / sum(oc.latency_ms * oc.factor for oc in plain) - 1.0)
    metrics["bench.trace_residual_frac"] = residual
    failed = sum(1 for oc in plain + traced if oc.error) + len(mismatched)
    return {"metrics": metrics, "attempted": len(plain) + len(traced),
            "failed": failed, "errors": errors[:20], "store": store,
            "raw": {"timed_wall_s": phase[2] - phase[1]}}


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

def _serve_verdict(wl, run: dict) -> tuple[list, list[str]]:
    """Per-request good flags (ok and exact) plus error messages."""
    from repro.serve.loadgen import verify_results

    results = run["results"]
    verdict = verify_results(wl.requests, results)
    escaped = {e["id"] for e in verdict["escaped"]}
    good = [r.ok and r.id not in escaped for r in results]
    errors = list(wl.setup_errors)
    errors += [f"{r.id}: {r.status} {r.error}" for r in results if not r.ok]
    errors += [f"{e['id']}: wrong {e['name']}" for e in verdict["escaped"]]
    return good, errors


def serve_e2e(wl, setups, setup_compile_ms) -> dict:
    run = wl.run_open_loop()
    results, factors = run["results"], run["factors"]
    good, errors = _serve_verdict(wl, run)
    ok = sum(good)
    run_ms = [r.run_us / 1e3 * f for r, f in zip(results, factors) if r.ok]
    # the set-up compiles of the hot set: a miss's request-path compile
    # also holds the cache's fsynced write, whose disk latency spread the
    # p90 by 0.23 of its median over ten seeds; it shows in latency_ms_*
    # and in the traced serve.compile_ms_*
    compile_ms = setup_compile_ms
    lat = [ms * f for ms, f in zip(run["latency_ms"], factors)]
    metrics = {
        "setup_s": float(np.median(setups)),
        "throughput_per_s": ok / run["wall_s"],
        "latency_ms_p50": pct(lat, 50), "latency_ms_p90": pct(lat, 90),
        "run_ms_p50": pct(run_ms, 50), "run_ms_p90": pct(run_ms, 90),
        "compile_ms_p50": pct(compile_ms, 50),
        "compile_ms_p90": pct(compile_ms, 90),
        "modeled_ms": wl.served_modeled_ms(),
        "slo_good_frac": sum(1 for g, x in zip(good, lat)
                             if g and x <= wl.SLO_MS) / len(results),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"metrics": metrics, "attempted": len(results),
            "failed": len(results) - ok + len(wl.setup_errors),
            "errors": errors[:20],
            "samples": {"latency_ms": len(lat), "run_ms": len(run_ms),
                        "compile_ms": len(compile_ms), "setup_s": len(setups)},
            "raw": {"timed_wall_s": run["wall_s"],
                    "latency_ms_p90": pct(run["latency_ms"], 90),
                    "latency_ms_p99": float(np.percentile(lat, 99)),
                    "speed_probes": run["probes"],
                    "speed_factor_median": float(np.median(factors)),
                    "loadgen_late_ms_p90": pct(run["late_ms"], 90)}}


def _busy_s(results) -> float:
    return sum(r.compile_us + r.run_us for r in results) / 1e6


def serve_traced(wl, args) -> dict:
    from layers import LayerTracer, SpanStore, layer_metrics
    from workloads import ServeMixed, digest

    plain = wl.run_open_loop()
    wl.close()
    wl2 = ServeMixed(args.seed, args.seconds)
    store = SpanStore()
    try:
        wl2.setup()
        with LayerTracer(store) as tracer:
            with store.phase("bench.phase"):
                traced = wl2.run_open_loop()
        restored = tracer.restored()
        good_a, errors = _serve_verdict(wl, plain)
        good_b, errors_b = _serve_verdict(wl2, traced)
    finally:
        wl2.close()
    errors += errors_b
    res_a, res_b = plain["results"], traced["results"]
    mismatched = [a.id for a, b in zip(res_a, res_b)
                  if a.status != b.status
                  or digest(a.scalars, a.outputs) != digest(b.scalars,
                                                            b.outputs)]
    errors += [f"{i}: traced output differs" for i in mismatched]
    if not restored:
        errors.append("an entry point was not restored after tracing")
    main = store.spans[0][4]
    covered = sum(t1 - t0 for _n, t0, t1, parent, thread in store.spans
                  if parent == 0 and thread != main)
    busy = _busy_s(res_b)
    residual = 1.0 - covered / busy if busy else 0.0
    if residual > 2 * MAX_RESIDUAL:
        errors.append(f"layer spans leave {residual:.1%} of device busy "
                      "time unaccounted")
    ok = [r for r in res_b if r.ok]
    m = layer_metrics(store)
    m.update({
        "serve.queue_ms_p50": pct([r.queue_us / 1e3 for r in ok], 50),
        "serve.queue_ms_p90": pct([r.queue_us / 1e3 for r in ok], 90),
        "serve.compile_ms_p50": pct([r.compile_us / 1e3 for r in ok], 50),
        "serve.compile_ms_p90": pct([r.compile_us / 1e3 for r in ok], 90),
        "serve.run_ms_p50": pct([r.run_us / 1e3 for r in ok], 50),
        "serve.run_ms_p90": pct([r.run_us / 1e3 for r in ok], 90),
        "serve.cache.hit_frac": (sum(r.cache in ("hit", "memo")
                                     for r in res_b) / len(res_b)),
        "serve.device_busy_frac": busy / (traced["wall_s"]
                                          * wl2.N_DEVICES),
        "serve.retries": sum(max(0, r.tries - 1) for r in res_b),
        "serve.hedged": sum(bool(r.hedged) for r in res_b),
        "serve.shed": sum(r.status == "shed" for r in res_b),
        "serve.expired": sum(r.status == "expired" for r in res_b),
        "loadgen.late_ms_p90": pct(traced["late_ms"], 90),
        "bench.trace_overhead_frac": busy / _busy_s(res_a) - 1.0,
        "bench.trace_residual_frac": residual,
    })
    failed = (len(res_a) - sum(good_a)) + (len(res_b) - sum(good_b)) \
        + len(mismatched)
    return {"metrics": m, "attempted": len(res_a) + len(res_b),
            "failed": failed, "errors": errors[:20], "store": store,
            "raw": {"timed_wall_s": traced["wall_s"]}}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    from workloads import OUT, WORKLOADS

    from repro.acc.profiles import get_profile
    from repro.gpu.executor import _default_mode
    from repro.passes import resolve_pipeline

    serve = args.workload == "serve_mixed"
    cpu = None if serve else pin_to_one_cpu()
    setups, setup_compile_ms = ([], []) if args.trace \
        else time_setups(args, SETUP_REPS)
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        wl.setup()
        setup_compile_ms += wl.setup_compile_ms
        if args.trace:
            out = serve_traced(wl, args) if serve else closed_traced(wl)
        else:
            out = (serve_e2e if serve else closed_e2e)(
                wl, setups, setup_compile_ms)
    finally:
        wl.close()

    units = _per_layer_units(serve) if args.trace else END_TO_END
    metrics = {name: {"value": float(out["metrics"].get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    correct = out["failed"] == 0 and not out["errors"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_frac": out["failed"] / out["attempted"],
        "errors": out["errors"], "samples": out.get("samples", {}),
        "uncorrected": out["raw"],
        "pipeline": resolve_pipeline(None, get_profile("openuh")).name,
        "executor_default": _default_mode(),
        "cleared_env": list(CLEARED_ENV), "pinned_cpu": cpu,
        "host": host_fingerprint(), "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "store" in out:
        out["store"].write_jsonl(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for err in out["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} attempted={out['attempted']} "
          f"failed={out['failed']} failed_frac={record['failed_frac']:.4f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
