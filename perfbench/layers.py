"""Per-layer tracing for the benchmark's traced run.

The wrappers live here, outside ``src/``: :class:`LayerTracer` replaces
each layer's entry point with a timing wrapper for the duration of a
``with`` block and puts the original object back on exit.  Spans are kept
in memory as ``[name, start, end, parent, thread]`` rows and written out
when the run ends.  A layer's self time is its span's duration minus the
part of that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import threading
import time

#: the optimized pipeline's passes, in order (the per-pass metrics)
PASS_NAMES = ("parse", "build-ir", "auto-parallelize", "resolve-geometry",
              "analyze", "autotune", "lower", "cascade-fusion",
              "fuse-finish", "fold-constants", "eliminate-barriers",
              "stamp-sids", "trace-codegen")

_SIM_FIELDS = ("warp_inst_slots", "global_transactions", "shared_accesses",
               "barriers")


class SpanStore:
    """Spans as ``[name, start, end, parent, thread]`` rows.

    The parent of a span is the innermost open span of the same thread;
    a thread with no open span parents its spans to the open *phase*
    span, so work on serve device threads hangs under the traced phase.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._phase: int | None = None

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._phase
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, inc: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + inc

    def phase(self, name: str):
        """Context manager: the root span every other span nests under."""
        store = self

        class _Phase:
            def __enter__(self):
                self.idx = store.open(name)
                store._phase = self.idx
                return self

            def __exit__(self, *exc):
                store._phase = None
                store.close(self.idx)

        return _Phase()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, thread in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "thread": thread})
                         + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span (children on other threads
    may overlap each other)."""
    children: dict[int, list] = {}
    for name, t0, t1, parent, _thread in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_name, t0, t1, _parent, _thread) in enumerate(spans):
        kids = [(max(s, t0), min(e, t1)) for s, e in children.get(i, ())
                if e > t0 and s < t1]
        out.append((t1 - t0) - union_length(kids))
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds, self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for row, self_s in zip(spans, selfs):
        agg = out.setdefault(row[0], {"calls": 0, "incl_s": 0.0,
                                      "self_s": 0.0})
        agg["calls"] += 1
        agg["incl_s"] += row[2] - row[1]
        agg["self_s"] += self_s
    return out


def _span_wrapper(store: SpanStore, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = store.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            store.close(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    return wrapper


class LayerTracer:
    """Installs span wrappers on every layer entry point; restores them.

    Use as ``with LayerTracer(store): ...``.  ``installed`` lists
    ``(owner, attribute, original)`` so tests can check that every entry
    point is the original object again afterwards.
    """

    def __init__(self, store: SpanStore):
        self.store = store
        self.installed: list[tuple] = []
        self._passes: dict = {}

    # -- targets ---------------------------------------------------------

    def _targets(self):
        import repro.acc
        from repro.acc import compiler as acc_compiler
        from repro.acc.runtime import DataEnv
        from repro.gpu import executor_batched, executor_trace
        from repro.gpu.costmodel import CostModel
        from repro.gpu.executor import CompiledKernel
        from repro.gpu.memory import GlobalMemory, SharedMemory
        from repro.serve.cache import CompileCache

        compile_after = self._after_compile
        return [
            (repro.acc, "compile", "acc.compile", compile_after),
            (acc_compiler, "compile", "acc.compile", compile_after),
            (acc_compiler.Program, "run", "acc.run", None),
            (DataEnv, "bind", "acc.bind", None),
            (DataEnv, "enter", "acc.transfer_in", None),
            (DataEnv, "exit_outputs", "acc.transfer_out", None),
            (DataEnv, "read_result", "acc.read_result", None),
            (CompiledKernel, "__init__", "gpu.kernel_compile", None),
            (executor_trace, "compile_trace_source", "gpu.trace_compile",
             None),
            (GlobalMemory, "_count_transactions", "gpu.memory.accounting",
             None),
            (GlobalMemory, "_count_transactions_batched",
             "gpu.memory.accounting", None),
            (executor_batched, "finalize_segment_reuse",
             "gpu.memory.accounting", None),
            (executor_trace, "finalize_segment_reuse",
             "gpu.memory.accounting", None),
            (SharedMemory, "_count_banks", "gpu.memory.bank", None),
            (CostModel, "kernel_time", "gpu.costmodel", None),
            (CostModel, "transfer_time", "gpu.costmodel", None),
            (CompileCache, "get", "serve.cache.get", None),
            (CompileCache, "put", "serve.cache.put", None),
        ]

    def _after_compile(self, _args, _kwargs, prog) -> None:
        from repro.gpu.kernelir import walk_stmts

        self.store.count("codegen.kernels", len(prog.lowered.kernels))
        self.store.count("codegen.kernel_stmts", sum(
            sum(1 for _ in walk_stmts(k.body)) for k in prog.lowered.kernels))

    def _launch_wrapper(self, fn):
        from repro.gpu.executor import _default_mode

        sig = inspect.signature(fn)
        store = self.store

        @functools.wraps(fn)
        def run(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            ck = a["self"]
            requested = a.get("mode") or _default_mode()
            mode = ck.effective_mode(requested, a["grid_dim"], a["gmem"],
                                     a.get("faults"),
                                     trace_events=a.get("trace", False))
            idx = store.open("gpu.launch")
            try:
                stats = fn(*args, **kwargs)
            finally:
                store.close(idx)
            store.count(f"gpu.launches.{mode}")
            store.count("gpu.launches.on_requested", mode == requested)
            for f in _SIM_FIELDS:
                store.count(f"gpu.sim.{f}", getattr(stats, f))
            return stats
        return run

    # -- install / restore -----------------------------------------------

    def __enter__(self) -> "LayerTracer":
        from repro.gpu.executor import CompiledKernel
        from repro.passes import PASS_REGISTRY

        try:
            for owner, attr, name, after in self._targets():
                self._install(owner, attr,
                              _span_wrapper(self.store, name,
                                            getattr(owner, attr), after))
            self._install(CompiledKernel, "run",
                          self._launch_wrapper(CompiledKernel.run))
            for pname in PASS_NAMES:
                p = PASS_REGISTRY[pname]
                self._passes[pname] = p
                PASS_REGISTRY[pname] = dataclasses.replace(
                    p, fn=_span_wrapper(self.store, f"passes.{pname}", p.fn))
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self.installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        from repro.passes import PASS_REGISTRY

        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        PASS_REGISTRY.update(self._passes)

    def __exit__(self, *exc) -> None:
        self._restore()

    def restored(self) -> bool:
        """Whether every wrapped entry point is the original object."""
        from repro.passes import PASS_REGISTRY

        return (all(owner.__dict__[attr] is original
                    for owner, attr, original in self.installed)
                and all(PASS_REGISTRY[n] is p
                        for n, p in self._passes.items()))


def layer_metrics(store: SpanStore) -> dict[str, float]:
    """The per-layer metrics computed from one traced phase's spans."""
    agg = summarize(store.spans)
    c = store.counts

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return agg.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    m: dict[str, float] = {}
    for p in PASS_NAMES:
        m[f"passes.{p}.s"] = self_s(f"passes.{p}")
    m["acc.compiles"] = calls("acc.compile")
    m["codegen.kernels"] = c.get("codegen.kernels", 0)
    m["codegen.kernel_stmts"] = c.get("codegen.kernel_stmts", 0)
    m["acc.compile.self_s"] = self_s("acc.compile")
    m["gpu.kernel_compile.s"] = self_s("gpu.kernel_compile")
    m["gpu.trace_compile.s"] = self_s("gpu.trace_compile")
    m["acc.run.self_s"] = self_s("acc.run")
    m["acc.bind.s"] = self_s("acc.bind")
    m["acc.transfer_in.s"] = self_s("acc.transfer_in")
    m["acc.transfer_out.s"] = self_s("acc.transfer_out")
    m["acc.read_result.s"] = self_s("acc.read_result")
    launches = calls("gpu.launch")
    m["gpu.launch.s"] = incl_s("gpu.launch")
    m["gpu.launches"] = launches
    for mode in ("trace", "batched", "reference"):
        m[f"gpu.launches.{mode}"] = c.get(f"gpu.launches.{mode}", 0)
    m["gpu.fastpath_frac"] = (c.get("gpu.launches.on_requested", 0)
                              / launches if launches else 0.0)
    m["gpu.exec_self.s"] = self_s("gpu.launch")
    m["gpu.us_per_launch"] = (incl_s("gpu.launch") * 1e6 / launches
                              if launches else 0.0)
    m["gpu.memory.accounting.s"] = incl_s("gpu.memory.accounting")
    m["gpu.memory.bank.s"] = incl_s("gpu.memory.bank")
    m["gpu.memory.accounting_calls"] = (calls("gpu.memory.accounting")
                                        + calls("gpu.memory.bank"))
    m["gpu.costmodel.s"] = incl_s("gpu.costmodel")
    m["gpu.costmodel.calls"] = calls("gpu.costmodel")
    for f in _SIM_FIELDS:
        m[f"gpu.sim.{f}"] = c.get(f"gpu.sim.{f}", 0)
    slots = c.get("gpu.sim.warp_inst_slots", 0)
    m["gpu.host_ns_per_warp_inst"] = (incl_s("gpu.launch") * 1e9 / slots
                                      if slots else 0.0)
    m["serve.cache.get.s"] = incl_s("serve.cache.get")
    m["serve.cache.put.s"] = incl_s("serve.cache.put")
    return m
