"""The pass manager: compilation as a sequence of named, toggleable passes.

``acc.compile`` used to hard-wire its phases; the pass manager makes the
pipeline explicit data instead.  A :class:`PipelineSpec` names an ordered
list of registered passes; :class:`PassManager` runs them over a mutable
:class:`CompileState`, records per-pass wall time (and, on request,
before/after IR listings for ``--dump-ir`` / ``repro explain``), emits one
``pass:*`` timeline span per pass, and runs the kernel-IR verifier after
every pass that produces or rewrites kernels — so a broken rewrite is
pinned to the pass that made it, not to a downstream simulator crash.
A kernel object a pass hands back unchanged (the same object) was
already verified and is not checked again.

Pipeline resolution (strongest wins):

1. an explicit ``pipeline=`` argument to :func:`resolve_pipeline` /
   ``acc.compile``;
2. the ``REPRO_PASSES`` environment variable (a pipeline name, or a comma
   list of optional optimization passes to enable on top of the minimal
   pipeline — e.g. ``REPRO_PASSES=fuse-finish,eliminate-barriers``);
3. the compiler profile's ``pipeline`` field (``optimized`` for the
   OpenUH-like profile; the defect-modelling vendor profiles pin
   ``minimal`` because optimizing deliberately wrong code would be
   unfaithful to the baselines they reproduce).

The ``minimal`` pipeline is frontend + lowering + sid stamping only and is
pinned bit-identical in results to the pre-pass-manager compiler; the
``optimized`` pipeline adds the cost-model autotuner and the kernel-IR
optimization stage (see :mod:`repro.passes.kernelopt`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.gpu.kernelir import dump as dump_kernel, verify_kernel
from repro.obs import timeline as _timeline

__all__ = ["Pass", "PassRecord", "CompileState", "PipelineSpec",
           "PassManager", "PIPELINES", "PASS_REGISTRY", "OPTIONAL_PASSES",
           "register_pass", "resolve_pipeline"]


@dataclass(frozen=True)
class Pass:
    """One registered compilation pass.

    ``kind`` drives the manager's bookkeeping:

    * ``"frontend"`` — builds/refines the loop-nest IR (no kernels yet);
    * ``"lower"``    — produces ``state.lowered`` (kernels, unstamped);
    * ``"kernelopt"``— rewrites kernels in ``state.lowered``;
    * ``"finalize"`` — the sid-stamping pass (verifier expects dense sids
      afterwards).

    ``fn(state)`` mutates the state and returns a short human-readable
    note (or ``None``).
    """

    name: str
    kind: str
    fn: object
    description: str = ""


@dataclass
class PassRecord:
    """What one pass did: timing, note, optional before/after listings."""

    name: str
    kind: str
    wall_ms: float
    note: str = ""
    before: dict[str, str] | None = None  # listing name -> text
    after: dict[str, str] | None = None

    @property
    def changed(self) -> bool:
        return self.before is not None and self.before != self.after


@dataclass
class CompileState:
    """The mutable state threaded through the pipeline."""

    source: str
    profile: object  # CompilerProfile (kept loose to avoid an import cycle)
    device: object  # DeviceProperties
    options: object  # LoweringOptions
    array_dtypes: dict | None = None
    # launch-geometry overrides from the compile() call
    num_gangs: int | None = None
    num_workers: int | None = None
    vector_length: int | None = None
    #: LoweringOptions field names the caller overrode explicitly —
    #: the autotuner must not second-guess these
    pinned_options: frozenset = frozenset()
    # produced by the frontend passes
    cregion: object | None = None
    region: object | None = None
    geometry: object | None = None
    plan: object | None = None
    # produced by autotune (consumed by the lowering pass)
    selector: object | None = None
    autotune: dict = field(default_factory=dict)
    # produced by the lowering + kernel-opt passes
    lowered: object | None = None
    # bookkeeping
    pipeline: str = ""
    records: list[PassRecord] = field(default_factory=list)


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered list of registered pass names."""

    name: str
    passes: tuple[str, ...]

    def options_key(self) -> tuple:
        """Hashable fingerprint for compile/launch caches."""
        return (self.name, self.passes)


PASS_REGISTRY: dict[str, Pass] = {}


def register_pass(name: str, kind: str, description: str = ""):
    """Decorator registering ``fn`` as pipeline pass ``name``."""
    def deco(fn):
        PASS_REGISTRY[name] = Pass(name=name, kind=kind, fn=fn,
                                   description=description)
        return fn
    return deco


_FRONTEND = ("parse", "build-ir", "auto-parallelize", "resolve-geometry",
             "analyze")

#: optimization passes a ``REPRO_PASSES`` comma list may toggle, in the
#: canonical order the optimized pipeline runs them
OPTIONAL_PASSES = ("autotune", "cascade-fusion", "fuse-finish",
                   "fold-constants", "eliminate-barriers")

PIPELINES: dict[str, PipelineSpec] = {
    "minimal": PipelineSpec(
        "minimal", _FRONTEND + ("lower", "stamp-sids")),
    "optimized": PipelineSpec(
        "optimized",
        _FRONTEND + ("autotune", "lower", "cascade-fusion", "fuse-finish",
                     "fold-constants", "eliminate-barriers", "stamp-sids")),
}


def resolve_pipeline(pipeline=None, profile=None) -> PipelineSpec:
    """Resolve the pipeline to run: argument > ``REPRO_PASSES`` > profile.

    ``pipeline`` may be a :class:`PipelineSpec`, a pipeline name, or a
    comma list of :data:`OPTIONAL_PASSES` names to enable on top of the
    minimal pipeline (``""`` means minimal).
    """
    if isinstance(pipeline, PipelineSpec):
        return pipeline
    name = pipeline
    if name is None:
        name = os.environ.get("REPRO_PASSES")
    if name is None:
        name = getattr(profile, "pipeline", None) or "optimized"
    if name in PIPELINES:
        return PIPELINES[name]
    chosen = [p.strip() for p in name.split(",") if p.strip()]
    unknown = sorted(set(chosen) - set(OPTIONAL_PASSES))
    if unknown:
        raise ValueError(
            f"unknown pipeline/pass name(s) {unknown}; expected a pipeline "
            f"({', '.join(sorted(PIPELINES))}) or a comma list of "
            f"{', '.join(OPTIONAL_PASSES)}")
    passes = tuple(p for p in PIPELINES["optimized"].passes
                   if p not in OPTIONAL_PASSES or p in chosen)
    return PipelineSpec(f"custom:{'+'.join(chosen) or 'none'}", passes)


def _listing(state: CompileState) -> dict[str, str]:
    """The current IR, rendered: kernels once lowered, else the region."""
    if state.lowered is not None:
        return {k.name: dump_kernel(k) for k in state.lowered.kernels}
    if state.plan is not None:
        from repro.ir.pprint import format_plan
        return {"plan": format_plan(state.plan)}
    if state.region is not None:
        from repro.ir.pprint import format_region
        return {"region": format_region(state.region)}
    return {}


class PassManager:
    """Runs a :class:`PipelineSpec` over a :class:`CompileState`."""

    def __init__(self, spec: PipelineSpec, *, capture_ir: bool = False):
        self.spec = spec
        self.capture_ir = capture_ir
        missing = [n for n in spec.passes if n not in PASS_REGISTRY]
        if missing:  # pragma: no cover - registry is populated on import
            raise ValueError(f"unregistered pass(es): {missing}")

    def run(self, state: CompileState) -> CompileState:
        if _timeline.trace_active():
            # request tracing: group the per-pass spans under one
            # pipeline span in the current trace
            from repro.obs import trace as _reqtrace
            with _reqtrace.span("passes", f"pipeline:{self.spec.name}"):
                return self._run(state)
        return self._run(state)

    def _run(self, state: CompileState) -> CompileState:
        state.pipeline = self.spec.name
        # (id, expect_sids) -> kernel verified that way in this compile;
        # holding the object keeps a new kernel from reusing its id
        verified: dict[tuple[int, bool], object] = {}
        for name in self.spec.passes:
            p = PASS_REGISTRY[name]
            before = _listing(state) if self.capture_ir else None
            t0 = time.perf_counter()
            note = p.fn(state)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if p.kind in ("lower", "kernelopt", "finalize") \
                    and state.lowered is not None:
                expect = p.kind == "finalize"
                for kernel in state.lowered.kernels:
                    if verified.get((id(kernel), expect)) is not kernel:
                        verify_kernel(kernel, expect_sids=expect)
                        verified[id(kernel), expect] = kernel
            state.records.append(PassRecord(
                name=name, kind=p.kind, wall_ms=wall_ms, note=note or "",
                before=before,
                after=_listing(state) if self.capture_ir else None))
            tl = _timeline.current()
            if tl is not None:
                tl.span("passes", f"pass:{name}", wall_ms * 1000.0,
                        pass_kind=p.kind, pipeline=self.spec.name,
                        note=note or "")
        return state


# importing the pass modules populates PASS_REGISTRY
from repro.passes import frontend as _frontend  # noqa: E402,F401
from repro.passes import autotune as _autotune  # noqa: E402,F401
from repro.passes import cascade as _cascade  # noqa: E402,F401
from repro.passes import kernelopt as _kernelopt  # noqa: E402,F401
from repro.passes import tracegen as _tracegen  # noqa: E402,F401
