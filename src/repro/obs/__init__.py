"""``repro.obs`` — profiler, structured tracing, and metrics.

The observability layer over the SIMT simulator (see
``docs/observability.md``).  Every layer reports on one stream, the
timeline bus (:mod:`repro.obs.timeline`); the profiler is a scoped
listener on it.  Typical use::

    from repro import acc, obs

    with obs.Profiler() as prof:
        prog = acc.compile(src)                # compile-phase spans
        res = prog.run(a=data)                 # kernels + transfers
    print(prof.format_report())                # nvprof-style tables
    open("profile.json", "w").write(prof.to_json())  # chrome://tracing

Everything is opt-in: with no profiler entered and no bus installed, the
run path does no extra work.
"""

from repro.obs import timeline
from repro.obs.attribution import (annotate_kernel, annotate_record,
                                   attribution_rows, record_rows)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.record import KernelRecord
from repro.obs.report import format_kernel_table, format_profile
from repro.obs.roofline import Roofline, classify
from repro.obs.slo import (LatencyHistogram, SLOConfig, SLOMonitor,
                           format_slo, quantile)
from repro.obs.timeline import Event, Timeline
from repro.obs.trace import (SpanNode, TailSampler, TraceTree, assemble,
                             critical_path, render_tree, tracing,
                             tree_to_chrome, verify_request_traces)

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "KernelRecord",
    "LatencyHistogram",
    "MetricsRegistry",
    "Profiler",
    "Roofline",
    "SLOConfig",
    "SLOMonitor",
    "SpanNode",
    "TailSampler",
    "Timeline",
    "TraceTree",
    "annotate_kernel",
    "annotate_record",
    "assemble",
    "attribution_rows",
    "classify",
    "critical_path",
    "format_kernel_table",
    "format_profile",
    "format_slo",
    "quantile",
    "record_rows",
    "render_tree",
    "timeline",
    "tracing",
    "tree_to_chrome",
    "verify_request_traces",
]
