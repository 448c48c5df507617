"""The cost-model autotune pass: pick reduction strategies per kernel.

Runs before the lowering and queries :func:`repro.gpu.costmodel.
estimate_reduction_strategies` to choose, per reduction variable,

* the vector/worker-level scheme — ``logstep`` (the paper's shared-memory
  interleaved tree, Fig. 7) vs ``shuffle`` (the Kepler ``__shfl_down``
  warp tree extension), and
* the gang handoff — ``buffer`` (partials + finish kernel, Fig. 5(c)) vs
  ``atomic`` (block reduce + one device atomic RMW per gang).

The pass only retunes reductions whose result is *bit-identical* under any
combination grouping: integer operators, and ``max``/``min`` on floats.
Float ``+``/``*`` change their rounding when the combination tree changes
shape, and the reproduction pins results bit-identical between the
``minimal`` and ``optimized`` pipelines — so those keep the profile's
defaults (the paper's own configuration).  Legality gates: ``shuffle``
needs power-of-two widths (the lowering's own fallback rule) and no
modeled layout-mismatch defect; ``atomic`` needs a gang-involved span and
an atomic-capable operator.

Decisions land in ``state.autotune`` (shown by ``repro explain`` and
recorded in every kernel record's strategy) and drive the lowering through
a :class:`repro.codegen.lowering.PlannedStrategy` selector.
"""

from __future__ import annotations

from repro.dtypes import is_integer
from repro.obs import timeline as _timeline
from repro.passes.manager import CompileState, register_pass

__all__ = []

#: float operators whose combine is exact regardless of grouping
_EXACT_FLOAT_OPS = {"max", "min"}


def _is_exact(info) -> bool:
    return is_integer(info.dtype) or info.op.token in _EXACT_FLOAT_OPS


@register_pass("autotune", "frontend",
               "cost-model selection of reduction strategies "
               "(shuffle vs log-step, buffer vs atomic)")
def run_autotune(state: CompileState):
    from repro.codegen.lowering import _ATOMIC_CAPABLE, PlannedStrategy
    from repro.codegen.reduction.treeutil import is_pow2
    from repro.gpu.costmodel import estimate_reduction_strategies

    geom = state.geometry
    opts = state.options
    choices: dict[tuple[str, str], str] = {}
    tuned = 0

    for info in state.plan.all_reductions:
        span = set(info.span)
        if not _is_exact(info):
            state.autotune[info.var] = {
                "skipped": "inexact combine (float rounding depends on "
                           "grouping); profile defaults kept"}
            continue

        vector_candidates: tuple[str, ...] = ()
        block_reduced = bool(span & {"vector", "worker"}) or info.same_line
        if ("vector_strategy" not in state.pinned_options
                and block_reduced
                and is_pow2(geom.vector_length)
                and is_pow2(geom.threads_per_block)
                and not opts.bug_sum_layout_mismatch):
            vector_candidates = ("logstep", "shuffle")

        gang_candidates: tuple[str, ...] = ()
        if ("gang_partial_style" not in state.pinned_options
                and "gang" in span and info.op.token in _ATOMIC_CAPABLE):
            gang_candidates = ("buffer", "atomic")

        if not vector_candidates and not gang_candidates:
            continue

        if span == {"gang"}:
            partials = geom.num_gangs
        elif span == {"gang", "worker"}:
            partials = geom.num_gangs * geom.num_workers
        else:
            partials = geom.num_gangs * geom.threads_per_block

        estimates = estimate_reduction_strategies(
            state.device, geom, dtype=info.dtype, partials=partials,
            vector_candidates=vector_candidates,
            gang_candidates=gang_candidates,
            finish_block_size=opts.finish_block_size,
            elide_warp_sync=opts.elide_warp_sync)

        record: dict[str, object] = {}
        for fld, est in estimates.items():
            best = min(sorted(est), key=lambda c: est[c])
            default = getattr(opts, fld)
            if best != default:
                choices[(fld, info.var)] = best
            record[fld] = {
                "choice": best,
                "default": default,
                "estimates_us": {c: round(us, 3)
                                 for c, us in sorted(est.items())},
            }
        state.autotune[info.var] = record
        tuned += 1

    if choices:
        state.selector = PlannedStrategy(choices)
    overrides = len(choices)
    tl = _timeline.current()
    if tl is not None:
        for var, rec in state.autotune.items():
            if "skipped" in rec:
                tl.decision("passes", f"autotune:{var}",
                            skipped=rec["skipped"])
                continue
            tl.decision("passes", f"autotune:{var}", **{
                fld: {"choice": dec["choice"], "default": dec["default"],
                      "estimates_us": dec["estimates_us"]}
                for fld, dec in rec.items()})
    return (f"tuned {tuned} reduction(s), "
            f"{overrides} override(s) of the profile defaults")
