"""Kernel launch convenience: compile, execute, and time a kernel."""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

from repro.gpu.costmodel import CostModel, TimeBreakdown
from repro.gpu.device import DeviceProperties, K20C
from repro.gpu.events import KernelStats
from repro.gpu.executor import CompiledKernel
from repro.gpu.kernelir import Kernel, walk_stmts
from repro.gpu.memory import GlobalMemory
from repro.obs import timeline as _timeline

__all__ = ["LaunchReport", "launch", "compile_cache_info",
           "compile_cache_clear"]

#: keyed compile cache: kernel identity x device x compile configuration
#: -> CompiledKernel.  Kernel and DeviceProperties are frozen dataclasses,
#: so structural identity is the base key; ``options_key`` (the pipeline /
#: lowering configuration that produced the kernel) and the sid stamping
#: are mixed in because statement sids are ``compare=False`` — two
#: structurally equal kernels with different stamping (or from different
#: pass pipelines) must not share a compiled closure, or per-statement
#: attribution would be charged to the wrong sids.  Executor mode and
#: ``block_batch`` are deliberately *not* part of the key: they are
#: launch-time arguments dispatched inside ``CompiledKernel.run``, and
#: the per-mode artifacts (reference closures, batched closures, the
#: trace-compiled function) live in separate fields of the one cached
#: object — no closure bakes either in, so a mode switch on the same
#: kernel+device can never observe a stale artifact (pinned by
#: tests/gpu/test_launch_cache.py).  An LRU bound keeps
#: pathological sweeps from accumulating closures forever; the
#: ``REPRO_LAUNCH_CACHE_MAX`` environment variable overrides the default
#: bound (64) so the service layer can size the per-process memory it is
#: willing to spend on compiled closures.
_COMPILE_CACHE: "OrderedDict[tuple, CompiledKernel]" = OrderedDict()
_COMPILE_CACHE_DEFAULT_MAX = 64
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def _cache_max() -> int:
    """The LRU bound: ``REPRO_LAUNCH_CACHE_MAX`` env, else the default.

    Read per-call (not at import) so a service process can retune the
    bound without reloading the module; values < 1 clamp to 1 — a cache
    that can hold nothing would recompile every launch.
    """
    raw = os.environ.get("REPRO_LAUNCH_CACHE_MAX")
    if not raw:
        return _COMPILE_CACHE_DEFAULT_MAX
    try:
        return max(1, int(raw))
    except ValueError:
        return _COMPILE_CACHE_DEFAULT_MAX


# kept for importers of the historical constant (tests, tooling); the
# live bound is _cache_max()
_COMPILE_CACHE_MAX = _COMPILE_CACHE_DEFAULT_MAX


def _sid_fingerprint(kernel: Kernel) -> tuple[int, ...]:
    return tuple(s.sid for s, _ in walk_stmts(kernel.body))


#: kernel-note markers the kernelopt fusion passes stamp on rewritten
#: kernels; mixed into the compile-cache key so a fused and an unfused
#: build of the same region can never alias, even if a future rewrite
#: made their bodies structurally equal
_FUSION_MARKERS = ("fused finish kernel", "cascade-fused finish")


def _fusion_fingerprint(kernel: Kernel) -> tuple[str, ...]:
    """Which fusion rewrites produced this kernel, per its note."""
    return tuple(m for m in _FUSION_MARKERS if m in kernel.note)


def _compiled(kernel: Kernel, device: DeviceProperties,
              options_key=None) -> CompiledKernel:
    global _cache_hits, _cache_misses, _cache_evictions
    key = (kernel, device, options_key, _sid_fingerprint(kernel),
           _fusion_fingerprint(kernel))
    ck = _COMPILE_CACHE.get(key)
    tl = _timeline.current()
    if ck is not None:
        _cache_hits += 1
        _COMPILE_CACHE.move_to_end(key)
        if tl is not None:
            tl.counter("gpu", "compile_cache", event="hit",
                       kernel=kernel.name, hits=_cache_hits,
                       misses=_cache_misses, size=len(_COMPILE_CACHE))
        return ck
    _cache_misses += 1
    ck = CompiledKernel(kernel, device)
    _COMPILE_CACHE[key] = ck
    maxsize = _cache_max()
    while len(_COMPILE_CACHE) > maxsize:
        _COMPILE_CACHE.popitem(last=False)
        _cache_evictions += 1
        if tl is not None:
            tl.counter("gpu", "compile_cache", event="evict",
                       evictions=_cache_evictions,
                       size=len(_COMPILE_CACHE))
    if tl is not None:
        tl.counter("gpu", "compile_cache", event="miss",
                   kernel=kernel.name, hits=_cache_hits,
                   misses=_cache_misses, size=len(_COMPILE_CACHE))
    return ck


def compile_cache_info() -> dict:
    """Hit/miss/evict/size snapshot of the launch compile cache."""
    return {"hits": _cache_hits, "misses": _cache_misses,
            "evictions": _cache_evictions,
            "size": len(_COMPILE_CACHE), "maxsize": _cache_max()}


def compile_cache_clear() -> None:
    """Drop every cached compilation and zero the hit/miss/evict counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    _COMPILE_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0
    _cache_evictions = 0


@dataclass
class LaunchReport:
    """Result of one kernel launch: counters plus modeled time."""

    kernel: Kernel
    stats: KernelStats
    timing: TimeBreakdown

    @property
    def modeled_us(self) -> float:
        return self.timing.total_us

    @property
    def modeled_ms(self) -> float:
        return self.timing.total_us / 1000.0


def launch(kernel: Kernel, gmem: GlobalMemory, *, grid_dim: int,
           block_dim: tuple[int, int], params: dict | None = None,
           device: DeviceProperties = K20C, trace: bool = False,
           faults=None,
           watchdog_budget: int | None = None,
           mode: str | None = None,
           block_batch: int | None = None,
           attribution: bool = False,
           options_key=None) -> LaunchReport:
    """Compile ``kernel``, run it over the grid, and model its time.

    ``trace=True`` turns on per-access :class:`~repro.gpu.events.TraceEvent`
    collection for this launch (the same knob
    :meth:`~repro.gpu.executor.CompiledKernel.run` takes); it is off by
    default because it records one event per memory statement execution.
    With a timeline bus installed (or a :class:`repro.obs.Profiler`
    listening) the launch emits one ``kernel:`` span whose in-memory
    ``refs`` become a :class:`~repro.obs.record.KernelRecord`.  ``faults``
    (a :class:`repro.faults.FaultInjector`) and ``watchdog_budget`` are
    forwarded to :meth:`~repro.gpu.executor.CompiledKernel.run` — the
    former arms fault injection for this launch, the latter overrides the
    per-launch loop-step budget.  ``mode`` / ``block_batch`` select the
    executor path (batched by default) and its block chunk size.

    ``attribution=True`` additionally fills a per-statement
    :class:`~repro.gpu.events.AttributionTable` on ``stats.attribution``
    (see :mod:`repro.obs.attribution` for rendering).

    Compilation is served from a keyed cache (kernel identity × device ×
    ``options_key`` × sid stamping), so iterative callers that re-launch
    the same kernel pay the closure compilation once;
    :func:`compile_cache_info` exposes hit/miss counts.  Callers that
    compile the same source under different configurations (pipelines,
    lowering options) pass a hashable ``options_key`` so the variants
    never share a cache entry.
    """
    ck = _compiled(kernel, device, options_key)
    stats = ck.run(gmem, grid_dim, block_dim, params=params, trace=trace,
                   faults=faults, watchdog_budget=watchdog_budget,
                   mode=mode, block_batch=block_batch,
                   attribution=attribution)
    timing = CostModel(device).kernel_time(stats)
    tl = _timeline.current()
    if tl is not None:
        tl.span("gpu", f"kernel:{kernel.name}", timing.total_us,
                refs={"stats": stats, "timing": timing, "block": block_dim,
                      "device": device, "kernel": kernel},
                grid=grid_dim, block=list(block_dim),
                executor=stats.executor)
    return LaunchReport(kernel=kernel, stats=stats, timing=timing)
