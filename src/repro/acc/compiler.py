"""The compiler facade: source → :class:`Program` → results.

``acc.compile`` runs the whole pipeline — parse, build IR, analyze
reductions (with the profile's span-inference policy), check the profile's
declared-unsupported shapes, and lower with the profile's strategy options;
each kernel builds its simulator code on its first launch.  ``Program.run``
executes the launch plan over a fresh data environment and returns outputs
plus modeled timing.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import (
    DegradedExecutionError, SilentCorruptionError, SimulationError,
    TransientFaultError,
)
from repro.gpu.costmodel import CostModel, TimingLedger
from repro.gpu.device import DeviceProperties, K20C
from repro.gpu.events import KernelStats
from repro.gpu.executor import CompiledKernel
from repro.gpu.kernelir import dump as dump_kernel
from repro.codegen.lowering import LoweredProgram, lower_region
from repro.acc.profiles import CompilerProfile, get_profile
from repro.obs import timeline as _timeline
from repro.obs import trace as _reqtrace

__all__ = ["compile", "Program", "RunResult", "FALLBACK_CHAIN"]


#: The declared graceful-degradation chain (see docs/robustness.md).
#: Each entry is ``(strategy name, LoweringOptions overrides)`` applied on
#: top of the program's compiled options; levels are tried in order after
#: the primary lowering fails, ending at the sequential host interpreter
#: (``None`` overrides), which has no kernels to break.  The overrides pin
#: every reduction-strategy knob to a progressively more conservative
#: setting and clear the modeled defect flags.
FALLBACK_CHAIN: tuple = (
    ("shared-tree", dict(
        scheduling="window", vector_layout="row", vector_strategy="logstep",
        worker_strategy="first_row", elide_warp_sync=False,
        reduction_memory="shared", block_rmp_style="direct",
        gang_rmp_style="direct", gang_partial_style="buffer",
        bug_sum_layout_mismatch=False)),
    ("atomic", dict(
        scheduling="window", vector_layout="row", vector_strategy="logstep",
        worker_strategy="first_row", elide_warp_sync=False,
        reduction_memory="global", block_rmp_style="direct",
        gang_rmp_style="direct", gang_partial_style="atomic",
        bug_sum_layout_mismatch=False)),
    ("host-sequential", None),
)


@dataclass
class RunResult:
    """Outcome of one ``Program.run``."""

    outputs: dict[str, np.ndarray]  # copyout/copy/present arrays
    scalars: dict[str, np.generic]  # gang-reduction results
    ledger: TimingLedger
    kernel_stats: dict[str, KernelStats]
    #: which lowering strategy ultimately served the answer ("primary"
    #: unless graceful degradation walked the fallback chain)
    strategy: str = "primary"
    #: how many execution attempts the transient-fault retry loop used
    attempts: int = 1
    #: carried DegradedExecutionError instances, one per degradation event
    #: (strategy failures walked past, redundant-vote corrections)
    degradations: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations) or self.strategy != "primary"

    @property
    def modeled_us(self) -> float:
        return self.ledger.total_us

    @property
    def modeled_ms(self) -> float:
        return self.ledger.total_ms

    @property
    def kernel_ms(self) -> float:
        """Device-kernel time only (excludes PCIe transfers) — the metric
        Table 2 compares, since transfers are identical across compilers."""
        return sum(t for label, t in self.ledger.entries
                   if label.startswith("kernel:")) / 1000.0

    @property
    def transfer_ms(self) -> float:
        return self.modeled_ms - self.kernel_ms


class Program:
    """A compiled OpenACC region, runnable on the simulated device.

    It holds kernel IR, not executor code: each kernel's
    :class:`~repro.gpu.executor.CompiledKernel` builds the code a launch
    needs on that launch, trace source included."""

    def __init__(self, lowered: LoweredProgram, profile: CompilerProfile,
                 device: DeviceProperties, *, pipeline: str = "",
                 autotune: dict | None = None, pass_records=None):
        self.lowered = lowered
        self.profile = profile
        self.device = device
        self.region = lowered.plan.region
        #: name of the pass pipeline that produced the kernels ("" for
        #: direct lower_region callers, e.g. the fallback chain)
        self.pipeline = pipeline
        #: per-variable autotune decisions/estimates (optimized pipeline)
        self.autotune = dict(autotune or {})
        #: PassRecord list from the pass manager (``capture_ir=True``
        #: compiles carry before/after listings for explain/--dump-ir)
        self.pass_records = list(pass_records or [])
        self._cost = CostModel(device)
        self._compiled = {k.name: CompiledKernel(k, device)
                          for k in lowered.kernels}
        # vendor-a data-clause defect state (§4, heat equation):
        # reduction scalars cached on "the device" across runs
        self._stale_cache: dict[str, np.generic] = {}
        # the lowering-strategy fingerprint every kernel span of this
        # program carries (and each kernel record keeps)
        o = lowered.options
        self._strategy = {
            "scheduling": o.scheduling,
            "vector_layout": o.vector_layout,
            "vector_strategy": o.vector_strategy,
            "worker_strategy": o.worker_strategy,
            "reduction_memory": o.reduction_memory,
            "block_rmp_style": o.block_rmp_style,
            "gang_rmp_style": o.gang_rmp_style,
            "gang_partial_style": o.gang_partial_style,
            "elide_warp_sync": o.elide_warp_sync,
        }
        if pipeline:
            self._strategy["pipeline"] = pipeline
        autotuned = {var: {fld: dec["choice"] for fld, dec in rec.items()
                          if isinstance(dec, dict) and "choice" in dec}
                     for var, rec in self.autotune.items()}
        autotuned = {var: c for var, c in autotuned.items() if c}
        if autotuned:
            self._strategy["autotune"] = autotuned

    # -- introspection -------------------------------------------------

    @property
    def geometry(self):
        return self.lowered.geometry

    @property
    def strategy(self) -> dict:
        """The lowering-strategy fingerprint attached to every kernel
        record (includes ``pipeline`` and per-variable
        ``autotune`` choices when the pass pipeline recorded them)."""
        return dict(self._strategy)

    def dump_kernels(self) -> str:
        """Pseudo-CUDA text of every generated kernel (for inspection)."""
        return "\n\n".join(dump_kernel(k) for k in self.lowered.kernels)

    # -- execution -------------------------------------------------------

    def run(self, *, trace: bool = False, data_region=None,
            faults=None, watchdog_budget: int | None = None,
            executor_mode: str | None = None, block_batch: int | None = None,
            attribution: bool = False,
            max_attempts: int = 3, backoff_us: float = 100.0,
            backoff_cap_us: float = 1600.0, runs: int = 1, validate=None,
            degrade: bool = False, **kwargs) -> RunResult:
        """Execute the region: transfers, main kernel, finish kernels.

        Pass every region array as a NumPy array (dtype must match the
        declaration) and every unbound scalar as a keyword argument.
        ``data_region`` may name an active
        :class:`~repro.acc.dataregion.DataRegion` — arrays it holds are
        *present* on the device and need not be passed (and are not
        transferred per run).

        ``trace=True`` enables per-access
        :class:`~repro.gpu.events.TraceEvent` collection on every kernel
        launch of this run (plumbed to
        :meth:`~repro.gpu.executor.CompiledKernel.run`).

        The run reports on the timeline bus when one is installed (or a
        :class:`repro.obs.Profiler` listens): one ``acc`` ``run:`` region
        per execution attempt, transfer and kernel spans (the kernel span
        carries the stats, time breakdown and kernel IR that become a
        :class:`~repro.obs.record.KernelRecord`), one ``finalize:``
        region per gang reduction, and the ``faults`` fault events and
        decisions of the hardened path.  With neither installed, no
        telemetry work happens at all.

        Robustness knobs (all opt-in; with every one at its default the
        call takes the exact pre-existing fast path — the pinned
        zero-overhead contract):

        * ``faults`` — a :class:`repro.faults.FaultPlan` or armed
          :class:`repro.faults.FaultInjector`; threads seeded fault
          injection through transfers and every kernel launch.
        * ``watchdog_budget`` — per-launch loop-step budget override
          (``None`` = executor default; ``0``/negative disables).
        * ``max_attempts`` / ``backoff_us`` / ``backoff_cap_us`` — retry
          policy for faults classified transient (launch/transfer): up to
          ``max_attempts`` tries with capped exponential *modeled* backoff
          charged to the ledger as ``retry:backoff`` entries.
        * ``runs`` — redundant-execution voting: execute the program
          ``runs`` times and serve the bitwise-majority result; detects
          silent data corruption, which raises no exception by itself.
          Requires an idempotent program (no stale-cache profiles).
        * ``validate`` — callable ``validate(result) -> bool``; a False
          verdict is treated as detected corruption.
        * ``degrade=True`` — graceful strategy degradation: when a
          lowering strategy raises a :class:`SimulationError`, exhausts
          its retries, or fails validation/voting, recompile down the
          declared :data:`FALLBACK_CHAIN` and serve the answer from the
          first strategy that survives, recording the degradation on the
          result and as a ``faults`` ``degrade`` decision.

        ``executor_mode`` (``"trace"``, ``"batched"`` or ``"reference"``)
        and ``block_batch`` select the simulator's executor path for
        every launch of this run (see
        :meth:`repro.gpu.executor.CompiledKernel.run`); the three paths
        are pinned bit-identical, so this is a performance knob only.
        Each launch's ``stats.executor`` records the mode it resolved to
        after any demotion.  Under the counter-memo contract, a repeated
        ``trace`` or ``batched`` launch of a kernel with data-independent
        counters — same geometry, same index- and condition-reaching
        params, same buffer layout, no faults, ``trace`` and
        ``attribution`` off — executes values only and reuses the first
        launch's counters (``stats.counters == "memo"``); ``reference``
        always counts.  ``None`` (unless ``REPRO_EXECUTOR`` pins a mode)
        is the tiered default: counted launches run ``batched``, memo
        hits of trace-eligible kernels run ``trace``.

        ``attribution=True`` fills a per-statement
        :class:`~repro.gpu.events.AttributionTable` on every launch's
        ``stats.attribution`` (all executors produce bit-identical
        tables) — the input to the annotated-listing and roofline views
        in :mod:`repro.obs.attribution` / :mod:`repro.obs.roofline`.
        Off by default: the run path allocates nothing for it when
        disabled.
        """
        # the per-launch knobs, keyed as CompiledKernel.run takes them
        launch = dict(trace=trace, watchdog_budget=watchdog_budget,
                      mode=executor_mode, block_batch=block_batch,
                      attribution=attribution)
        # request tracing: a run inside an active context (a serve
        # dispatch) becomes a child span; a top-level run roots its own
        # trace — either way every kernel/transfer/fault event emitted
        # below lands in this run's subtree
        with (_reqtrace.span("acc", f"run:{self.lowered.main_kernel.name}",
                             compiler=self.profile.name)
              if _timeline.trace_active() else nullcontext()):
            injector = _as_injector(faults)
            if (injector is None and runs <= 1 and validate is None
                    and not degrade):
                # the pinned fast path: bit-identical to the pre-faults
                # runtime
                return self._execute(data_region=data_region,
                                     kwargs=kwargs, **launch)
            return self._run_hardened(
                data_region=data_region, injector=injector, launch=launch,
                max_attempts=max_attempts, backoff_us=backoff_us,
                backoff_cap_us=backoff_cap_us, runs=runs, validate=validate,
                degrade=degrade, kwargs=kwargs)

    # -- the plain execution path (one attempt, one strategy) ------------

    def _execute(self, *, data_region, kwargs: dict, faults=None,
                 **launch) -> RunResult:
        from repro.acc.runtime import DataEnv

        env = DataEnv(region=self.region, device=self.device,
                      data_region=data_region, faults=faults)
        env.bind(kwargs)
        try:
            return self._execute_bound(env, faults=faults, **launch)
        except BaseException:
            # free this run's allocations so a retry (or the next run in
            # a shared data region) can allocate the same names again
            env.cleanup()
            raise

    def _launch(self, env, stats: dict, name: str, grid: int,
                block: tuple[int, int], params, **launch) -> KernelStats:
        """Run one kernel launch: execute, charge the ledger, and emit the
        kernel span (modeled duration, the executor mode the launch
        resolved to, and the in-memory references of a kernel record)."""
        ck = self._compiled[name]
        st = ck.run(env.gmem, grid, block, params=params, **launch)
        stats[name] = st
        tb = self._cost.kernel_time(st)
        env.ledger.add(f"kernel:{name}", tb.total_us)
        tl = _timeline.current()
        if tl is not None:
            tl.span("gpu", f"kernel:{name}", tb.total_us,
                    refs={"stats": st, "timing": tb, "block": block,
                          "device": self.device, "kernel": ck.kernel,
                          "compiler": self.profile.name,
                          "strategy": self._strategy},
                    grid=grid, executor=st.executor,
                    compiler=self.profile.name)
        return st

    def _finalize_reduction(self, g, env, scalars: dict, stats: dict,
                            fbs: int, lk: dict) -> None:
        """Finish one gang reduction: launch its finish kernel (if any),
        read the device result, and fold it into the host value.  The
        finished value is written back into the scalar environment so a
        later kernel stage's parameters deliver it."""
        with _region(f"finalize:{g.var}", region="reduction", var=g.var,
                     op=g.op.token):
            if g.finish_kernel is not None:
                self._launch(env, stats, g.finish_kernel.name, 1, (fbs, 1),
                             {}, **lk)
            device_total = env.read_result(g.result_buf)
            device_index = (env.read_result(g.index_result_buf)
                            if g.is_pair else None)
        if g.is_pair:
            # pair fold: the device pair beats the host-initial pair on
            # strict value comparison, ties toward the smaller index —
            # the same take rule the kernels use
            host_v, host_i = env.scalars[g.var], env.scalars[g.index_var]
            better = (device_total > host_v if g.kind == "argmax"
                      else device_total < host_v)
            if better or (device_total == host_v and device_index < host_i):
                final_v, final_i = device_total, device_index
            else:
                final_v, final_i = host_v, host_i
            scalars[g.var] = g.dtype.np.type(final_v)
            scalars[g.index_var] = g.index_dtype.np.type(final_i)
            env.scalars[g.var] = scalars[g.var]
            env.scalars[g.index_var] = scalars[g.index_var]
            if self.profile.stale_scalar_cache:
                self._stale_cache[g.var] = scalars[g.var]
                self._stale_cache[g.index_var] = scalars[g.index_var]
            return
        host_init = env.scalars[g.var]
        final = g.op.np_combine(host_init, device_total, g.dtype)
        scalars[g.var] = final
        env.scalars[g.var] = final
        if self.profile.stale_scalar_cache:
            self._stale_cache[g.var] = final

    def _execute_bound(self, env, **lk) -> RunResult:
        """One attempt over a bound data environment; ``lk`` holds the
        :meth:`CompiledKernel.run` keywords every launch receives."""
        # the vendor-a defect: device-resident reduction scalars ignore
        # host-side reinitialization between runs of the same program
        if self.profile.stale_scalar_cache:
            for g in self.lowered.gang_reductions:
                if g.var in self._stale_cache:
                    env.scalars[g.var] = self._stale_cache[g.var]
                if g.index_var is not None \
                        and g.index_var in self._stale_cache:
                    env.scalars[g.index_var] = self._stale_cache[g.index_var]

        with _region(f"run:{self.lowered.main_kernel.name}", region="run",
                     compiler=self.profile.name):
            env.enter()
            for sb in self.lowered.scratch:
                fill = None
                if sb.fill_identity_of is not None:
                    from repro.codegen.reduction.operators import get_operator
                    fill = get_operator(sb.fill_identity_of).identity(sb.dtype)
                env.alloc_scratch(sb.name, sb.dtype, sb.size, fill=fill)

            stats: dict[str, KernelStats] = {}
            geom = self.lowered.geometry
            fbs = self.lowered.options.finish_block_size
            for g in self.lowered.gang_reductions:
                if g.init_kernel is None:
                    continue
                self._launch(env, stats, g.init_kernel.name, g.init_grid,
                             (fbs, 1), {}, **lk)

            scalars: dict[str, np.generic] = {}
            block = (geom.vector_length, geom.num_workers)
            deferred = []
            for si in range(self.lowered.num_stages):
                kern = self.lowered.stage_kernel(si)
                self._launch(env, stats, kern.name, geom.num_gangs, block,
                             env.scalars, **lk)
                # finalize this stage's reductions before the next stage
                # launches: the host fold writes the finished value into
                # the scalar environment, so the next stage's parameters
                # deliver it.  Cascade-fused reductions defer to the end:
                # their consumer stage replays the finish combine itself
                # and stores the raw device total to the result buffer,
                # which the host only needs after all stages ran.
                for g in self.lowered.gang_reductions:
                    if g.stage != si:
                        continue
                    if g.cascade_fused:
                        deferred.append(g)
                        continue
                    self._finalize_reduction(g, env, scalars, stats, fbs, lk)
            for g in deferred:
                self._finalize_reduction(g, env, scalars, stats, fbs, lk)

            outputs = env.exit_outputs()
            env.cleanup()
        return RunResult(outputs=outputs, scalars=scalars,
                         ledger=env.ledger, kernel_stats=stats)

    # -- hardening: retry, voting, graceful strategy degradation ---------

    def _run_hardened(self, *, data_region, injector, launch: dict,
                      max_attempts, backoff_us, backoff_cap_us, runs,
                      validate, degrade, kwargs) -> RunResult:
        chain: list[tuple[str, dict | None]] = [("primary", {})]
        if degrade:
            for name, overrides in FALLBACK_CHAIN:
                chain.append((name, overrides))

        degradations: list[DegradedExecutionError] = []
        result = None
        last_exc: BaseException | None = None
        for level, (sname, overrides) in enumerate(chain):
            target = self
            if level > 0 and overrides is not None:
                target = self._fallback_program(sname, overrides)
                if target is None:  # identical to the primary lowering
                    continue
            try:
                if overrides is None:  # the host-sequential last resort
                    if data_region is not None:
                        raise (last_exc if last_exc is not None else
                               SimulationError(
                                   "host-sequential fallback cannot run "
                                   "inside a device data region"))
                    result = self._run_host(kwargs)
                else:
                    result = _vote(
                        target, runs=runs, data_region=data_region,
                        injector=injector, launch=launch,
                        max_attempts=max_attempts, backoff_us=backoff_us,
                        backoff_cap_us=backoff_cap_us, kwargs=kwargs)
                if validate is not None and not validate(result):
                    tl = _timeline.current()
                    if tl is not None:
                        tl.decision("faults", "validation-failure",
                                    strategy=sname)
                    raise SilentCorruptionError(
                        f"result validation failed under strategy "
                        f"{sname!r}")
            except (KeyboardInterrupt, SystemExit):
                # never treat an interrupt as a strategy failure: a ^C
                # mid-chain must stop the run, not walk the fallback chain
                raise
            except (SimulationError, TransientFaultError,
                    SilentCorruptionError) as exc:
                last_exc = exc
                tl = _timeline.current()
                if tl is not None:
                    tl.decision(
                        "faults", "strategy-failure", strategy=sname,
                        error=type(exc).__name__,
                        exhausted=(level == len(chain) - 1))
                if level == len(chain) - 1:
                    raise
                degradations.append(DegradedExecutionError(
                    f"strategy {sname!r} failed: "
                    f"{type(exc).__name__}: {exc}",
                    strategy=sname, cause=exc))
                continue
            # success at this level
            result.strategy = sname
            result.degradations = degradations + result.degradations
            tl = _timeline.current()
            if tl is not None:
                if level > 0 or degradations:
                    tl.decision("faults", "degrade", served_by=sname,
                                level=level,
                                walked=[d.strategy for d in degradations
                                        if getattr(d, "strategy", None)])
                else:
                    tl.decision("faults", "served", served_by=sname)
            return result
        raise last_exc if last_exc is not None else SimulationError(
            "empty strategy chain")  # pragma: no cover - chain never empty

    def _fallback_program(self, name: str, overrides: dict):
        """Compile (and cache) the fallback lowering for one chain level.

        Returns ``None`` when the overrides produce the exact options the
        primary already uses — degrading to an identical lowering would
        re-run the same broken code.
        """
        if not hasattr(self, "_fallbacks"):
            self._fallbacks: dict[str, Program | None] = {}
        if name not in self._fallbacks:
            opts = replace(self.lowered.options, **overrides)
            if opts == self.lowered.options:
                self._fallbacks[name] = None
            else:
                lowered = lower_region(self.lowered.plan,
                                       self.lowered.geometry, opts)
                self._fallbacks[name] = Program(lowered, self.profile,
                                                self.device)
        return self._fallbacks[name]

    def _run_host(self, kwargs: dict) -> RunResult:
        """The last-resort strategy: sequential host interpretation.

        No kernels, no device memory, no fault-injection sites — by
        construction it cannot hit anything the fault layer breaks.  The
        ledger carries a single zero-cost ``host:sequential`` entry (the
        analytic device cost model does not apply to host execution).
        """
        from repro.ir.interp import run_host

        host = run_host(self.region, **kwargs)
        outputs = {
            a.name: np.array(host.arrays[a.name], copy=True)
            for a in self.region.arrays
            if a.transfer in ("copy", "copyout", "present")
        }
        scalars = {}
        for g in self.lowered.gang_reductions:
            scalars[g.var] = host.scalars[g.var]
            if g.is_pair:
                scalars[g.index_var] = host.scalars[g.index_var]
        ledger = TimingLedger()
        ledger.add("host:sequential", 0.0)
        return RunResult(outputs=outputs, scalars=scalars, ledger=ledger,
                         kernel_stats={})


def _region(name: str, **attrs):
    """An ``acc`` span emitted at close around one execution attempt
    (``run:``) or one reduction finalize (``finalize:``); a
    :class:`repro.obs.Profiler` places it on the device track around the
    spans emitted inside.  Under request tracing it is a structural span
    they nest in."""
    tl = _timeline.current()
    if tl is None:
        return nullcontext()
    if _timeline.trace_active():
        return _reqtrace.span("acc", name, **attrs)
    return tl.timed_span("acc", name, **attrs)


def _as_injector(faults):
    """Accept a FaultPlan, an armed FaultInjector, or None."""
    if faults is None:
        return None
    if hasattr(faults, "on_launch"):  # already an injector
        return faults
    return faults.injector()  # a FaultPlan


def _execute_with_retry(prog: "Program", *, data_region, injector,
                        launch: dict, max_attempts, backoff_us,
                        backoff_cap_us, kwargs) -> RunResult:
    """Retry transient faults (launch/transfer) with capped backoff.

    The backoff is *modeled* time — no wall-clock sleep — charged to the
    successful attempt's ledger as ``retry:backoff`` entries, so retries
    are visible in the timing report.
    """
    backoffs: list[float] = []
    attempt = 1
    while True:
        try:
            res = prog._execute(data_region=data_region, kwargs=kwargs,
                                faults=injector, **launch)
        except (KeyboardInterrupt, SystemExit):
            # an interrupt is not a transient fault: re-raise immediately
            # without consuming an attempt or charging backoff
            raise
        except TransientFaultError as exc:
            tl = _timeline.current()
            if tl is not None:
                tl.decision("faults", "retry", attempt=attempt,
                            max_attempts=max_attempts,
                            error=type(exc).__name__,
                            giving_up=(attempt >= max_attempts))
            if attempt >= max_attempts:
                raise
            backoffs.append(min(backoff_us * (2 ** (attempt - 1)),
                                backoff_cap_us))
            attempt += 1
            continue
        for us in backoffs:
            res.ledger.add("retry:backoff", us)
        res.attempts = attempt
        return res


def _vote(prog: "Program", *, runs, **attempt) -> RunResult:
    """Redundant-execution majority voting over ``runs`` replicas.

    A silent bit-flip raises no exception; executing the program N times
    and comparing results bitwise turns it into either a corrected vote
    (majority agrees) or a :class:`SilentCorruptionError` (no majority).
    """
    def once():
        return _execute_with_retry(prog, **attempt)

    if runs <= 1:
        return once()
    results = [once() for _ in range(runs)]
    fps = [_fingerprint(r) for r in results]
    tally: dict[bytes, int] = {}
    for fp in fps:
        tally[fp] = tally.get(fp, 0) + 1
    majority_fp, count = max(tally.items(), key=lambda kv: kv[1])
    tl = _timeline.current()
    if count < runs // 2 + 1:
        if tl is not None:
            tl.decision("faults", "vote", outcome="inconclusive",
                        runs=runs, majority=count)
        raise SilentCorruptionError(
            f"redundant execution produced {len(tally)} distinct results "
            f"over {runs} runs (no majority)")
    winner = results[fps.index(majority_fp)]
    winner.attempts = max(r.attempts for r in results)
    if count < runs:
        winner.degradations = winner.degradations + [DegradedExecutionError(
            f"redundant-execution vote: {runs - count}/{runs} replicas "
            "diverged; majority result served")]
        if tl is not None:
            tl.decision("faults", "vote", outcome="corrected", runs=runs,
                        majority=count)
    return winner


def _fingerprint(res: RunResult) -> bytes:
    """Bitwise fingerprint of a result's observable outputs."""
    parts: list[bytes] = []
    for name in sorted(res.scalars):
        parts.append(name.encode())
        parts.append(np.asarray(res.scalars[name]).tobytes())
    for name in sorted(res.outputs):
        parts.append(name.encode())
        parts.append(res.outputs[name].tobytes())
    return b"\x00".join(parts)


def compile(source: str, *, compiler: str | CompilerProfile = "openuh",
            num_gangs: int | None = None, num_workers: int | None = None,
            vector_length: int | None = None,
            device: DeviceProperties = K20C,
            array_dtypes: dict[str, str] | None = None,
            pipeline=None, capture_ir: bool = False,
            **option_overrides) -> Program:
    """Compile an OpenACC source fragment for the simulated device.

    ``compiler`` selects a profile (``openuh``, ``vendor-a``, ``vendor-b``);
    extra keyword arguments override individual
    :class:`~repro.codegen.lowering.LoweringOptions` fields (used by the
    ablation benchmarks, e.g. ``scheduling="blocking"``) — the autotune
    pass never second-guesses an explicitly overridden field.

    ``pipeline`` selects the pass pipeline (a name like ``"minimal"`` /
    ``"optimized"``, a comma list of optional passes, or a
    :class:`~repro.passes.PipelineSpec`); when ``None`` it resolves from
    the ``REPRO_PASSES`` environment variable, then the profile (see
    :func:`repro.passes.resolve_pipeline`).  ``capture_ir=True`` keeps
    before/after IR listings on each pass record (``Program.pass_records``
    — the data behind ``repro explain`` and ``compile --dump-ir``).

    With a timeline bus installed (or a :class:`repro.obs.Profiler`
    listening), the compile emits one ``pass:*`` span per pass and a
    ``compile-kernels`` span for the kernel pre-compile.
    """
    from repro.passes import CompileState, PassManager, resolve_pipeline

    profile = get_profile(compiler)
    opts = profile.lowering
    if option_overrides:
        opts = replace(opts, **option_overrides)
    spec = resolve_pipeline(pipeline, profile)
    state = CompileState(
        source=source, profile=profile, device=device, options=opts,
        array_dtypes=array_dtypes, num_gangs=num_gangs,
        num_workers=num_workers, vector_length=vector_length,
        pinned_options=frozenset(option_overrides))
    # request tracing: the whole compile (pipeline + kernel pre-compile)
    # is one span — a child inside a serve dispatch, a fresh root for a
    # top-level acc.compile
    with (_reqtrace.span("passes", "compile", compiler=profile.name,
                         pipeline=spec.name)
          if _timeline.trace_active() else nullcontext()):
        PassManager(spec, capture_ir=capture_ir).run(state)
        tl = _timeline.current()
        with (tl.timed_span("passes", "compile-kernels") if tl is not None
              else nullcontext()):
            return Program(state.lowered, profile, device,
                           pipeline=state.pipeline, autotune=state.autotune,
                           pass_records=state.records)
