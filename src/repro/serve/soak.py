"""The chaos soak harness: sustained mixed load + mid-load fault arming.

The soak drives a :class:`~repro.serve.scheduler.Scheduler` over a
multi-device pool with the loadgen corpus (integer reductions — exact
references), and **arms seeded fault plans on pool devices mid-load**:
spurious launch/transfer failures (transient, absorbed by in-run
retries), read-upset bitflips (outvoted by redundant execution), and
stuck warps (converted to typed watchdog errors, retried on another
device, and — repeated — tripping the victim device's circuit breaker).
Each plan carries a ``max_faults`` budget, so the chaotic device
eventually *heals* and the breaker's probation path re-admits it.

The wave alone cannot keep that promise: once it drains, no request is
left to probe the victim, so whether it is re-admitted would depend on
how fast the healthy devices finish the wave. After the wave the soak
therefore runs a **heal phase**: it keeps submitting corpus requests
(in order, ``n_devices`` at a time, each repeat under a fresh id such
as ``req-0007+1``) while any victim's injector is still armed or its
breaker is not ``closed``, for at most ``deadline_s``. A breaker that
never re-admits still fails the gate when that bound is reached. The
report's ``by_status`` and ``latency`` describe the wave only;
``verify`` and ``reference_escapes`` cover every request.

The **gate** (:func:`evaluate_gate`) is the PR's acceptance bar:

1. zero escaped silent corruptions — every ``ok`` answer bit-identical
   to an unfaulted single-device run of the same program and inputs;
2. every non-ok request carries a typed error (shed and expired included);
3. under chaos, the victim breaker trips **and** re-admits;
4. tail latency stays bounded (ok-p99 under the configured ceiling).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.faults import FaultPlan
from repro.obs import timeline as _timeline
from repro.serve.cache import CompileCache
from repro.serve.loadgen import (LoadRequest, _wave_stats, build_corpus,
                                 run_wave, verify_results)
from repro.serve.pool import DevicePool
from repro.serve.scheduler import Scheduler, ServeConfig

__all__ = ["SoakConfig", "run_soak", "evaluate_gate", "reference_results"]

#: the default chaos mix, budgeted so the device heals before the end
#: (the heal phase keeps the load up until it has).
#: Stuck warps dominate deliberately: launch/transfer failures are
#: transient (absorbed by in-run retries) and read upsets are outvoted
#: by redundant execution, so only the watchdog-detected hangs reach the
#: service layer reliably enough to exercise the breaker under a small
#: fault budget.
DEFAULT_CHAOS = dict(p_launch_fail=0.05, p_transfer_fail=0.05,
                     p_gload_flip=0.002, p_stuck_warp=0.85)


@dataclass
class SoakConfig:
    n_requests: int = 200
    n_devices: int = 4
    seed: int = 0
    size: int = 256
    deadline_s: float = 30.0
    stagger_s: float = 0.0
    #: device indices to arm; fraction of submissions after which arming
    #: happens (the "mid-load" requirement)
    chaos_devices: tuple = (1,)
    arm_at_fraction: float = 0.1
    chaos: dict = field(default_factory=lambda: dict(DEFAULT_CHAOS))
    max_faults: int = 6
    #: ok-p99 latency ceiling, as a multiple of the fault-free ok-p50
    tail_ceiling_x: float = 50.0
    #: hardening for served runs: voting corrects bitflips bit-exactly;
    #: degrade stays off so no strategy reassociation can shift results
    runs: int = 3
    max_attempts: int = 3
    queue_depth: int = 64
    hedge_after_s: float | None = 0.5
    #: SLO monitor knobs forwarded to :class:`ServeConfig`
    slo: dict = field(default_factory=dict)
    breaker: dict = field(default_factory=lambda: dict(
        window=6, failure_threshold=0.5, min_samples=3,
        quarantine_s=0.1, max_quarantine_s=0.4, probation_probes=2))


def reference_results(corpus) -> dict:
    """Unfaulted single-device scalars/outputs per request id (the
    bit-identity baseline the soak gate compares against)."""
    from repro import acc

    progs: dict[str, object] = {}
    refs = {}
    for lr in corpus:
        label = lr.case.label
        if label not in progs:
            progs[label] = acc.compile(
                lr.case.source,
                num_gangs=lr.request.num_gangs,
                num_workers=lr.request.num_workers,
                vector_length=lr.request.vector_length)
        res = progs[label].run(**lr.request.arrays, **lr.request.scalars)
        refs[lr.request.id] = {"scalars": dict(res.scalars),
                               "outputs": dict(res.outputs)}
    return refs


def _compare_to_reference(results, refs) -> list:
    """Escaped-corruption list: ok answers that differ from the baseline."""
    escapes = []
    for res in results:
        if res.status != "ok":
            continue
        ref = refs[res.id]
        for name, want in ref["scalars"].items():
            got = (res.scalars or {}).get(name)
            if got is None or np.asarray(got).tobytes() != \
                    np.asarray(want).tobytes():
                escapes.append({"id": res.id, "what": f"scalar:{name}",
                                "got": repr(got), "want": repr(want)})
        for name, want in ref["outputs"].items():
            got = (res.outputs or {}).get(name)
            if got is None or got.tobytes() != want.tobytes():
                escapes.append({"id": res.id, "what": f"array:{name}"})
    return escapes


def _repeat(lr: LoadRequest, k: int) -> LoadRequest:
    """Corpus entry ``lr`` resubmitted for the ``k``-th time: a fresh id,
    the same program, inputs and references."""
    return LoadRequest(
        dataclasses.replace(lr.request, id=f"{lr.request.id}+{k}"),
        lr.case, lr.expected)


async def _heal_phase(sched, pool, corpus,
                      cfg: SoakConfig) -> tuple[list, list]:
    """Keep the load up until every victim has healed and been decided.

    Cycles the corpus ``n_devices`` requests at a time while any chaos
    device still has fault budget or a breaker that is not ``closed``;
    gives up ``deadline_s`` after it starts. Returns the repeats and
    their results.
    """
    def unsettled() -> bool:
        return any((d.injector is not None and d.injector.armed)
                   or d.breaker.state != "closed"
                   for d in (pool.devices[i] for i in cfg.chaos_devices))

    t_end = time.perf_counter() + cfg.deadline_s
    repeats, results = [], []
    while unsettled() and time.perf_counter() < t_end:
        batch = [_repeat(corpus[j % len(corpus)], j // len(corpus) + 1)
                 for j in range(len(repeats), len(repeats) + cfg.n_devices)]
        repeats.extend(batch)
        results.extend(await run_wave(sched, batch))
    return repeats, results


def run_soak(cache_dir, config: SoakConfig | None = None) -> dict:
    """Run the chaos soak; returns the report with the gate verdict."""
    cfg = config or SoakConfig()
    corpus = build_corpus(cfg.n_requests, seed=cfg.seed, size=cfg.size,
                          deadline_s=cfg.deadline_s)
    refs = reference_results(corpus)
    if _timeline.trace_active():
        # the reference runs above emitted a few hundred non-request
        # traces; drain them so the exported timeline holds only the
        # soak's request trees (and the ring can't overflow into them)
        tl = _timeline.current()
        if tl is not None:
            tl.drain()
    cache = CompileCache(cache_dir)
    serve_cfg = ServeConfig(
        queue_depth=cfg.queue_depth, default_deadline_s=cfg.deadline_s,
        hedge_after_s=cfg.hedge_after_s, runs=cfg.runs,
        max_attempts=cfg.max_attempts, degrade=False,
        breaker=cfg.breaker, slo=dict(cfg.slo))
    arm_at = max(1, int(cfg.arm_at_fraction * cfg.n_requests))
    plans = {i: FaultPlan(seed=cfg.seed + 1000 + i,
                          max_faults=cfg.max_faults, **cfg.chaos)
             for i in cfg.chaos_devices}

    async def _run():
        pool = DevicePool(cfg.n_devices,
                          breaker_kwargs=dict(cfg.breaker))

        def on_submitted(i):
            if i == arm_at:
                for idx, plan in plans.items():
                    pool.devices[idx].arm_faults(plan)

        async with Scheduler(pool, serve_cfg, cache=cache) as sched:
            results = await run_wave(sched, corpus,
                                     stagger_s=cfg.stagger_s,
                                     on_submitted=on_submitted)
            heal = await _heal_phase(sched, pool, corpus, cfg)
            return results, heal, sched.report(), pool.snapshot()

    results, (repeats, heal_results), sched_report, devices = \
        asyncio.run(_run())
    for lr in repeats:
        refs[lr.request.id] = refs[lr.request.id.partition("+")[0]]
    every = results + heal_results
    verify = verify_results(corpus + repeats, every)
    escapes = _compare_to_reference(every, refs)
    wave = _wave_stats(results)
    report = {
        "config": {"n_requests": cfg.n_requests,
                   "n_devices": cfg.n_devices, "seed": cfg.seed,
                   "chaos_devices": list(cfg.chaos_devices),
                   "armed_after": arm_at, "chaos": dict(cfg.chaos),
                   "max_faults": cfg.max_faults},
        "by_status": wave["by_status"],
        "heal_phase": {"requests": len(repeats),
                       "ids": [lr.request.id for lr in repeats]},
        "latency": {"ok_p50_us": wave["latency_p50_us"],
                    "ok_p99_us": wave["latency_p99_us"]},
        "verify": verify,
        "reference_escapes": escapes,
        "devices": devices,
        "compile_cache": cache.stats(),
        "metrics": sched_report["metrics"],
        "slo": sched_report["slo"],
        "traces": sched_report["traces"],
    }
    report["gate"] = evaluate_gate(report, cfg)
    return report


def evaluate_gate(report: dict, cfg: SoakConfig) -> dict:
    """The soak acceptance gate; ``passed`` is the CI exit-status bit."""
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed),
                       "detail": detail})

    n_escaped = (report["verify"]["escaped_count"]
                 + len(report["reference_escapes"]))
    check("zero-escapes", n_escaped == 0,
          f"{n_escaped} escaped silent corruption(s)")
    untyped = report["verify"]["untyped_failures"]
    check("typed-errors", not untyped,
          f"{len(untyped)} non-ok result(s) without a typed error")
    faults = sum(d["faults_injected"] for d in report["devices"])
    check("chaos-fired", faults > 0,
          f"{faults} fault(s) injected on armed devices")
    victims = [report["devices"][i] for i in cfg.chaos_devices]
    trips = sum(d["breaker"]["trips"] for d in victims)
    readmits = sum(d["breaker"]["readmissions"] for d in victims)
    check("breaker-tripped", trips >= 1,
          f"victim breaker trips: {trips}")
    check("breaker-readmitted", readmits >= 1,
          f"victim breaker re-admissions: {readmits}")
    ok = report["by_status"].get("ok", 0)
    check("progress", ok > 0, f"{ok} request(s) served ok under chaos")
    p50 = report["latency"]["ok_p50_us"] or 1.0
    p99 = report["latency"]["ok_p99_us"]
    ceiling = cfg.tail_ceiling_x * p50
    check("bounded-tail", p99 <= ceiling,
          f"ok p99 {p99:.0f}us vs ceiling {ceiling:.0f}us "
          f"({cfg.tail_ceiling_x}x p50)")
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
