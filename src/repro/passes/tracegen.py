"""The ``trace-codegen`` pass: a trace-eligibility report, nothing more.

Trace source is not a compile product: a kernel's
:class:`~repro.gpu.executor.CompiledKernel` emits it on its first trace
launch.  This pass runs in no pipeline and writes no state; it stays
registered only so the repository benchmark can look it up by name, and
a later change to the benchmark deletes it.
"""

from __future__ import annotations

from repro.passes.manager import register_pass

__all__ = ["trace_codegen"]


@register_pass("trace-codegen", "finalize",
               "report which kernels the trace executor can run")
def trace_codegen(state) -> str:
    from repro.gpu.executor_trace import analyze_trace_safety

    verdicts = ((k.name, analyze_trace_safety(k))
                for k in state.lowered.kernels)
    return "; ".join(f"{name}: " + ("eligible" if v.eligible else v.reason)
                     for name, v in verdicts) or "nothing to do"
