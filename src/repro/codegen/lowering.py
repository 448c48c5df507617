"""Region lowering: loop-nest IR → simulated CUDA kernels.

This is the compiler pass the paper describes.  The shape of the generated
code follows Fig. 3 / Fig. 5 exactly:

* distributed loops become window-sliding ``while`` loops over the thread
  geometry (``k = blockIdx.x + k_start; while (k < k_end) { ...; k +=
  gridDim.x; }``), or chunked loops under the blocking-scheduling baseline;
* loops whose bodies contain block-level reduction barriers become
  *lock-step* loops (``UniformWhile``) with an explicit ``active``
  predicate, so ``__syncthreads`` stays uniform even when the trip count is
  not a multiple of the thread count (§3.3's iteration-space generality);
* statements execute redundantly across the thread dimensions that are not
  distributed at their nesting depth; array stores are guarded to lane 0 of
  those dimensions (Fig. 5's ``if (threadIdx.x == 0) ...``);
* reductions finalize at their clause loop per §3.1/§3.2 — see
  :meth:`_Lowerer._finalize` for the strategy dispatch.

Strategy choices (layouts, scheduling, sync elision, RMP style, memory
space) live in :class:`LoweringOptions`; the compiler profiles of
:mod:`repro.acc.profiles` bundle them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.dtypes import DType
from repro.errors import LoweringError
from repro.gpu import kernelir as K
from repro.ir import nodes as N
from repro.ir.analysis import RegionPlan, ReductionInfo
from repro.codegen.mapping import LaunchGeometry, distribution
from repro.codegen.reduction.logstep import logstep_reduce
from repro.codegen.reduction.operators import ReductionOperator
from repro.codegen.reduction.treeutil import cross_warp_handoff, is_pow2, \
    shuffle_deltas

__all__ = ["LoweringOptions", "LoweredProgram", "GangReductionSpec",
           "ScratchBuffer", "StrategySelector", "PlannedStrategy",
           "lower_region"]


@dataclass(frozen=True)
class LoweringOptions:
    """Strategy knobs for the lowering (bundled by compiler profiles)."""

    scheduling: str = "window"  # "window" | "blocking"  (§3.1.3)
    vector_layout: str = "row"  # "row" Fig.6(c) | "transposed" Fig.6(b)
    # "logstep" = the paper's shared-memory interleaved log-step (Fig. 7);
    # "shuffle" = extension: Kepler __shfl_down warp trees (ablation A9) —
    # falls back to logstep for non-power-of-two widths
    vector_strategy: str = "logstep"
    worker_strategy: str = "first_row"  # "first_row" 8(c) | "duplicated" 8(b)
    elide_warp_sync: bool = True  # §3.1.2 last-warp sync elision
    reduction_memory: str = "shared"  # "shared" | "global"  (§3.3)
    # RMP style (§3.2.1): "direct" = one flat combine over all partials;
    # "level_by_level" = the rejected alternative that reduces one level at
    # a time.  Block spans (worker·vector) and gang-involved spans are
    # controlled separately because real compilers mix them.
    block_rmp_style: str = "direct"
    gang_rmp_style: str = "direct"
    finish_block_size: int = 256
    # codegen quality: when False, the blocking-scheduled loop re-derives
    # its distribution arithmetic (iteration count, chunk, bounds, the loop
    # variable) every iteration instead of strength-reducing it to an
    # increment — the per-iteration overhead of weak loop code
    strength_reduction: bool = True
    # gang handoff: "buffer" (the paper's partial buffer + finish kernel,
    # Fig. 5(c)) or "atomic" (extension: block reduce + device atomic RMW;
    # logical && / || fall back to the buffer scheme)
    gang_partial_style: str = "buffer"
    # defensive runtime style: launch an extra kernel that zero-initializes
    # the gang-reduction partial buffer before the main kernel (OpenUH
    # proves every entry is written and skips this; runtimes that cannot
    # pay one more launch per reduction, which hurts iterative apps)
    zero_init_partials: bool = False
    # modeled closed-source defect: '+' fast path stores its partials
    # transposed but log-steps assuming the row layout (wrong when bdy > 1)
    bug_sum_layout_mismatch: bool = False
    # cascade fusion across kernel stages (the cascade-fusion pass):
    # "auto" prices fused vs unfused per cascade with the cost model,
    # "always"/"never" pin the decision for every cascade
    cascade_fusion: str = "auto"


@dataclass(frozen=True)
class ScratchBuffer:
    """A compiler-allocated global buffer (reduction partials/results).

    ``fill_identity_of`` names a reduction operator whose identity must
    pre-fill the buffer at allocation (the atomic gang-reduction result
    slot accumulates in place).
    """

    name: str
    dtype: DType
    size: int
    fill_identity_of: str | None = None


@dataclass(frozen=True)
class GangReductionSpec:
    """Host-visible plan for one gang-involved reduction."""

    var: str
    op: ReductionOperator
    dtype: DType
    partial_buf: str
    result_buf: str
    finish_kernel: K.Kernel | None
    #: optional extra launch before the main kernel (the defensive
    #: zero-initialization style; None for OpenUH)
    init_kernel: K.Kernel | None = None
    init_grid: int = 1
    #: index of the kernel stage whose launch produces the partials
    #: (stage 0 is the main kernel; cascaded regions have more)
    stage: int = 0
    #: "scalar", or "argmax"/"argmin" for value-index pairs
    kind: str = "scalar"
    #: pair reductions: the index component's variable and buffers
    index_var: str | None = None
    index_dtype: DType | None = None
    index_partial_buf: str | None = None
    index_result_buf: str | None = None
    #: set by the cascade-fusion pass: the finish replay was folded into
    #: a consumer-stage prologue, so no finish kernel runs and the host
    #: reads the result buffer only after all stages complete
    cascade_fused: bool = False

    @property
    def is_pair(self) -> bool:
        return self.kind in ("argmax", "argmin")

    @property
    def exactness(self) -> str:
        """Exactness class the verifier gates fusion on."""
        return "exact" if self.op.is_exact(self.dtype) else "ordered"


@dataclass
class LoweredProgram:
    """Output of the lowering: kernels plus the host launch plan."""

    main_kernel: K.Kernel
    geometry: LaunchGeometry
    gang_reductions: list[GangReductionSpec]
    scratch: list[ScratchBuffer]
    params: tuple[str, ...]
    plan: RegionPlan
    options: LoweringOptions
    #: cascaded regions: kernels for stages 1..n-1 (stage 0 is
    #: ``main_kernel``); each stage is a separate launch and the host
    #: folds the finished gang-reduction results in between
    stage_kernels: tuple[K.Kernel, ...] = ()
    #: per-stage sorted tuples of scalar names each stage reads (mirrors
    #: ``plan.stage_reads`` in a pickle-stable form; the cascade-fusion
    #: pass locates consumer stages with it)
    stage_reads: tuple[tuple[str, ...], ...] = ()

    @property
    def num_stages(self) -> int:
        return 1 + len(self.stage_kernels)

    def stage_kernel(self, stage: int) -> K.Kernel:
        return self.main_kernel if stage == 0 \
            else self.stage_kernels[stage - 1]

    @property
    def kernels(self) -> list[K.Kernel]:
        out = []
        for g in self.gang_reductions:
            if g.init_kernel is not None:
                out.append(g.init_kernel)
        out.append(self.main_kernel)
        out.extend(self.stage_kernels)
        out.extend(g.finish_kernel for g in self.gang_reductions
                   if g.finish_kernel is not None)
        return out


_BIN_OPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
            "<", "<=", ">", ">=", "==", "!=", "&&", "||"}

#: operators the simulated device supports as atomic read-modify-writes
_ATOMIC_CAPABLE = {"+", "*", "max", "min", "&", "|", "^"}


def _conj(*exprs: K.Expr | None) -> K.Expr | None:
    out: K.Expr | None = None
    for e in exprs:
        if e is None:
            continue
        out = e if out is None else K.Bin("&&", out, e)
    return out


class StrategySelector:
    """Per-reduction strategy override hook.

    The lowering consults the selector at each strategy decision point:
    ``choose(field, var)`` may return a replacement value for one
    strategy field (``"vector_strategy"`` or ``"gang_partial_style"``)
    applied to the reduction of variable ``var``, or ``None`` to keep
    the :class:`LoweringOptions` default.  The cost-model autotune pass
    drives the lowering through this interface; the base class is the
    identity selector.
    """

    def choose(self, field: str, var: str) -> str | None:
        return None


class PlannedStrategy(StrategySelector):
    """Selector backed by a pre-computed ``{(field, var): value}`` plan."""

    def __init__(self, choices: dict[tuple[str, str], str]):
        self.choices = dict(choices)

    def choose(self, field: str, var: str) -> str | None:
        return self.choices.get((field, var))


class _Lowerer:
    def __init__(self, plan: RegionPlan, geom: LaunchGeometry,
                 opts: LoweringOptions, *,
                 selector: StrategySelector | None = None,
                 stamp: bool = True):
        self.plan = plan
        self.region = plan.region
        self.geom = geom
        self.opts = opts
        self.selector = selector
        self.stamp = stamp
        self.uid = itertools.count()
        self.active: K.Expr | None = None
        self.dist: set[str] = set()
        self.shared_sizes: dict[DType, int] = {}  # overlay-shared red buffers
        self.scratch: list[ScratchBuffer] = []
        self.gang_reductions: list[GangReductionSpec] = []
        self.buffers_used: set[str] = set()
        self.stage = 0

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def lower(self) -> LoweredProgram:
        stage_bodies = self.plan.stage_bodies()
        nstages = len(stage_bodies)
        params = tuple(s.name for s in self.region.scalars)
        kernels: list[K.Kernel] = []
        for si, stmts in enumerate(stage_bodies):
            self.stage = si
            self.active = None
            self.dist = set()
            self.shared_sizes = {}
            self.buffers_used = set()
            body: list[K.Stmt] = []
            # firstprivate materialization: every region scalar becomes a
            # register seeded from its launch parameter.  Each stage is a
            # separate launch, so every stage kernel repeats it; the host
            # folds finished gang-reduction results into the parameter
            # environment between stages, which is how a later stage sees
            # an earlier stage's reduction result.
            for s in self.region.scalars:
                body.append(K.Assign(s.name, K.Param(s.name)))
            body.extend(self._stmts(stmts))

            shared = tuple(
                K.SharedArraySpec(self._shared_name(dt), dt, size,
                                  overlay="red")
                for dt, size in sorted(self.shared_sizes.items(),
                                       key=lambda kv: kv[0].value)
            )
            note = (f"lowered with {self.opts.scheduling} scheduling, "
                    f"{self.opts.vector_layout} vector layout")
            if nstages > 1:
                note += f"; stage {si} of {nstages}"
            # sid stamping keeps ids stable through the compile cache and
            # the executors (sid/loc are compare-excluded, so stamped and
            # unstamped kernels stay structurally identical); with
            # ``stamp=False`` the pass pipeline owns stamping as a final
            # pass
            kernels.append(self._stamp(K.Kernel(
                name="acc_region_main" if si == 0
                     else f"acc_region_stage{si}",
                body=tuple(body),
                params=params,
                buffers=tuple(sorted(self.buffers_used)),
                shared=shared,
                note=note,
            )))
        return LoweredProgram(
            main_kernel=kernels[0],
            geometry=self.geom,
            gang_reductions=self.gang_reductions,
            scratch=self.scratch,
            params=params,
            plan=self.plan,
            options=self.opts,
            stage_kernels=tuple(kernels[1:]),
            stage_reads=tuple(tuple(sorted(r))
                              for r in self.plan.stage_reads)
                        or ((),) * nstages,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _stamp(self, kernel: K.Kernel) -> K.Kernel:
        return K.stamp_sids(kernel) if self.stamp else kernel

    def _select(self, field: str, var: str) -> str:
        """Resolve a strategy field, giving the selector first say."""
        if self.selector is not None:
            choice = self.selector.choose(field, var)
            if choice is not None:
                return choice
        return getattr(self.opts, field)

    def _shared_name(self, dtype: DType) -> str:
        return f"_sred_{dtype.value}"

    def _need_shared(self, dtype: DType, size: int) -> str:
        name = self._shared_name(dtype)
        self.shared_sizes[dtype] = max(self.shared_sizes.get(dtype, 0), size)
        return name

    def _tmp(self, stem: str) -> str:
        return f"_{stem}{next(self.uid)}"

    def _store_guard(self) -> K.Expr | None:
        """Lane guard for redundant execution across undistributed dims."""
        terms: list[K.Expr] = []
        if "vector" not in self.dist and self.geom.vector_length > 1:
            terms.append(K.Bin("==", K.Special("tx"), K.const_int(0)))
        if "worker" not in self.dist and self.geom.num_workers > 1:
            terms.append(K.Bin("==", K.Special("ty"), K.const_int(0)))
        return _conj(*terms) if terms else None

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self, e: N.IExpr, prelude: list[K.Stmt]) -> K.Expr:
        if isinstance(e, N.IConst):
            return K.Const(e.value, e.dtype)
        if isinstance(e, N.IVar):
            return K.Reg(e.name)
        if isinstance(e, N.IArrayRef):
            idx = self._expr(e.index, prelude)
            t = self._tmp("ld")
            self.buffers_used.add(e.array)
            prelude.append(K.GLoad(t, e.array, idx))
            return K.Reg(t)
        if isinstance(e, N.IBin):
            if e.op not in _BIN_OPS:
                raise LoweringError(f"unsupported binary op {e.op!r}")
            return K.Bin(e.op, self._expr(e.a, prelude),
                         self._expr(e.b, prelude))
        if isinstance(e, N.IUn):
            return K.Un(e.op, self._expr(e.a, prelude))
        if isinstance(e, N.ICall):
            return K.Call(e.fn, tuple(self._expr(a, prelude)
                                      for a in e.args))
        if isinstance(e, N.ICast):
            return K.Cast(e.dtype, self._expr(e.a, prelude))
        if isinstance(e, N.ICond):
            return K.Select(self._expr(e.cond, prelude),
                            self._expr(e.a, prelude),
                            self._expr(e.b, prelude))
        raise LoweringError(f"unknown IR expression {type(e).__name__}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _stmts(self, stmts: tuple[N.IStmt, ...]) -> list[K.Stmt]:
        out: list[K.Stmt] = []
        for s in stmts:
            out.extend(self._stmt(s))
        return out

    def _guarded(self, inner: list[K.Stmt],
                 extra: K.Expr | None = None) -> list[K.Stmt]:
        """Wrap statements in the activity/lane guard if one applies."""
        g = _conj(self.active, extra)
        if g is None or not inner:
            return inner
        return [K.If(g, tuple(inner))]

    def _stmt(self, s: N.IStmt) -> list[K.Stmt]:
        if isinstance(s, N.IDecl):
            prelude: list[K.Stmt] = []
            if s.init is not None:
                val = self._expr(s.init, prelude)
            else:
                val = K.Const(s.dtype.np.type(0), s.dtype)
            return self._guarded(prelude + [K.Assign(s.name, val)])

        if isinstance(s, N.IAssign):
            prelude = []
            if s.atomic and isinstance(s.target, N.IArrayRef):
                return self._atomic_assign(s, prelude)
            val = self._expr(s.value, prelude)
            if isinstance(s.target, N.IVar):
                return self._guarded(prelude + [K.Assign(s.target.name, val)])
            # array store: lane-guarded against redundant execution
            idx = self._expr(s.target.index, prelude)
            self.buffers_used.add(s.target.array)
            store = K.GStore(s.target.array, idx, val)
            return self._guarded(prelude + [store], self._store_guard())

        if isinstance(s, N.IIf):
            prelude = []
            cond = self._expr(s.cond, prelude)
            return self._lower_if(s, cond, prelude)

        if isinstance(s, N.ILoop):
            return self._loop(s)

        raise LoweringError(f"unknown IR statement {type(s).__name__}")

    def _atomic_assign(self, s: N.IAssign,
                       prelude: list[K.Stmt]) -> list[K.Stmt]:
        """``#pragma acc atomic update``: lower ``a[i] = a[i] ⊕ e`` to a
        device read-modify-write, so colliding lanes combine."""
        def strip(e):
            while isinstance(e, N.ICast):
                e = e.a
            return e

        value = strip(s.value)
        if not isinstance(value, N.IBin) or value.op not in _ATOMIC_CAPABLE:
            raise LoweringError(
                f"atomic update must be a compound ⊕= (line {s.line})")
        tgt = s.target
        if strip(value.a) == tgt:
            rhs = value.b
        elif strip(value.b) == tgt:
            rhs = value.a
        else:
            raise LoweringError(
                "atomic update must read and write the same element "
                f"(line {s.line})")
        rhs_k = self._expr(N.ICast(rhs, tgt.dtype)
                           if rhs.dtype != tgt.dtype else rhs, prelude)
        idx = self._expr(tgt.index, prelude)
        self.buffers_used.add(tgt.array)
        upd = K.AtomicUpdate(tgt.array, idx, value.op, rhs_k)
        return self._guarded(prelude + [upd], self._store_guard())

    def _lower_if(self, s: N.IIf, cond: K.Expr,
                  prelude: list[K.Stmt]) -> list[K.Stmt]:
        saved = self.active
        self.active = None
        then = self._stmts(s.then)
        orelse = self._stmts(s.orelse)
        self.active = saved
        inner = prelude + [K.If(cond, tuple(then), tuple(orelse))]
        return self._guarded(inner)

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------

    def _loop(self, loop: N.ILoop) -> list[K.Stmt]:
        if loop.info.collapse > 1:
            return self._collapsed_loop(loop)

        out: list[K.Stmt] = []
        infos = self.plan.reductions_by_loop.get(loop.loop_id, [])
        # reduction entry: capture the incoming value, seed the identity
        for info in infos:
            if not info.gang_involved:
                out.append(K.Assign(f"_init_{info.var}", K.Reg(info.var)))
            out.append(K.Assign(info.var, info.op.identity_const(info.dtype)))
            if info.is_pair:
                out.append(K.Assign(
                    info.index_var,
                    self._index_identity_const(info.index_dtype)))

        prelude: list[K.Stmt] = []
        start = self._expr(loop.start, prelude)
        end = self._expr(loop.end, prelude)
        step = self._expr(loop.step, prelude)
        if prelude:
            out.extend(self._guarded(prelude))

        levels = tuple(loop.info.levels)
        uniform = loop.loop_id in self.plan.barrier_loops
        saved_active, saved_dist = self.active, set(self.dist)

        if levels and self.opts.scheduling == "blocking":
            out.extend(self._blocking_loop(loop, levels, start, end, step,
                                           uniform))
        else:
            out.extend(self._window_loop(loop, levels, start, end, step,
                                         uniform))

        self.active, self.dist = saved_active, saved_dist

        # reduction finalize at the clause loop's close (§3.1/§3.2)
        distributed = set(levels) | saved_dist
        for info in infos:
            out.extend(self._finalize(info, distributed))
        return out

    def _window_loop(self, loop: N.ILoop, levels: tuple[str, ...],
                     start: K.Expr, end: K.Expr, step: K.Expr,
                     uniform: bool) -> list[K.Stmt]:
        """Fig. 3 window-sliding form (also used for seq loops: stride=step)."""
        var = loop.var
        out: list[K.Stmt] = []
        if levels:
            d = distribution(levels, self.geom)
            out.append(K.Comment(
                f"loop {var}: distributed over {'/'.join(levels)} "
                f"(window sliding, stride {d.total})"))
            out.append(K.Assign(var, K.Bin(
                "+", start, K.Bin("*", d.position, step))))
            stride: K.Expr = K.Bin("*", K.const_int(d.total), step)
            self.dist |= set(levels)
        else:
            out.append(K.Assign(var, start))
            stride = step
        cond = K.Bin("<", K.Reg(var), end)

        if uniform:
            act = self._tmp("act")
            outer_active = self.active
            loop_cond = _conj(outer_active, cond)
            self.active = K.Reg(act)
            body: list[K.Stmt] = [K.Assign(act, loop_cond)]
            body.extend(self._stmts(loop.body))
            body.append(K.Assign(var, K.Bin("+", K.Reg(var), stride)))
            out.append(K.UniformWhile(loop_cond, tuple(body)))
        else:
            loop_cond = _conj(self.active, cond)
            self.active = None
            body = self._stmts(loop.body)
            body.append(K.Assign(var, K.Bin("+", K.Reg(var), stride)))
            out.append(K.While(loop_cond, tuple(body)))
        return out

    def _blocking_loop(self, loop: N.ILoop, levels: tuple[str, ...],
                       start: K.Expr, end: K.Expr, step: K.Expr,
                       uniform: bool) -> list[K.Stmt]:
        """Chunked scheduling: thread p takes iterations
        [p*chunk, (p+1)*chunk)."""
        var = loop.var
        d = distribution(levels, self.geom)
        u = next(self.uid)
        nit, chunk, it, itend = (f"_nit{u}", f"_chunk{u}", f"_it{u}",
                                 f"_itend{u}")
        one = K.const_int(1)
        out: list[K.Stmt] = [
            K.Comment(f"loop {var}: distributed over {'/'.join(levels)} "
                      f"(blocking, {d.total} chunks)"),
            K.Assign(nit, K.Bin("/", K.Bin("-", K.Bin("+", end, step),
                                           K.Bin("+", start, one)), step)),
            K.Assign(chunk, K.Bin("/", K.Bin("-", K.Bin(
                "+", K.Reg(nit), K.const_int(d.total)), one),
                K.const_int(d.total))),
            K.Assign(it, K.Bin("*", d.position, K.Reg(chunk))),
            K.Assign(itend, K.Bin("+", K.Reg(it), K.Reg(chunk))),
            K.Assign(itend, K.Select(K.Bin("<", K.Reg(itend), K.Reg(nit)),
                                     K.Reg(itend), K.Reg(nit))),
        ]
        self.dist |= set(levels)
        cond = K.Bin("<", K.Reg(it), K.Reg(itend))
        set_var = K.Assign(var, K.Bin("+", start,
                                      K.Bin("*", K.Reg(it), step)))
        advance = K.Assign(it, K.Bin("+", K.Reg(it), one))

        # weak-codegen model: re-derive the distribution arithmetic every
        # iteration instead of keeping it in registers
        rederive: list[K.Stmt] = []
        if not self.opts.strength_reduction:
            rederive = [
                K.Assign(nit, K.Bin("/", K.Bin("-", K.Bin("+", end, step),
                                               K.Bin("+", start, one)),
                                    step)),
                K.Assign(chunk, K.Bin("/", K.Bin("-", K.Bin(
                    "+", K.Reg(nit), K.const_int(d.total)), one),
                    K.const_int(d.total))),
                K.Assign(itend, K.Bin("+", K.Bin("*", d.position,
                                                 K.Reg(chunk)),
                                      K.Reg(chunk))),
                K.Assign(itend, K.Select(
                    K.Bin("<", K.Reg(itend), K.Reg(nit)),
                    K.Reg(itend), K.Reg(nit))),
            ]

        if uniform:
            act = self._tmp("act")
            loop_cond = _conj(self.active, cond)
            self.active = K.Reg(act)
            body: list[K.Stmt] = [*rederive, K.Assign(act, loop_cond),
                                  set_var]
            body.extend(self._stmts(loop.body))
            body.append(advance)
            out.append(K.UniformWhile(loop_cond, tuple(body)))
        else:
            loop_cond = _conj(self.active, cond)
            self.active = None
            body = [*rederive, set_var]
            body.extend(self._stmts(loop.body))
            body.append(advance)
            out.append(K.While(loop_cond, tuple(body)))
        return out

    def _collapsed_loop(self, loop: N.ILoop) -> list[K.Stmt]:
        """collapse(n): linearize n perfectly-nested loops (§4 mentions
        collapse for nests deeper than three)."""
        chain: list[N.ILoop] = [loop]
        cur = loop
        for _ in range(loop.info.collapse - 1):
            if len(cur.body) != 1 or not isinstance(cur.body[0], N.ILoop):
                raise LoweringError(
                    f"collapse({loop.info.collapse}) requires perfectly "
                    f"nested loops (line {loop.line})")
            cur = cur.body[0]
            if cur.info.levels or cur.info.reductions:
                raise LoweringError(
                    "collapsed inner loops may not carry their own "
                    f"annotations (line {cur.line})")
            chain.append(cur)

        infos = self.plan.reductions_by_loop.get(loop.loop_id, [])
        out: list[K.Stmt] = []
        for info in infos:
            if not info.gang_involved:
                out.append(K.Assign(f"_init_{info.var}", K.Reg(info.var)))
            out.append(K.Assign(info.var, info.op.identity_const(info.dtype)))
            if info.is_pair:
                out.append(K.Assign(
                    info.index_var,
                    self._index_identity_const(info.index_dtype)))

        u = next(self.uid)
        one = K.const_int(1)
        prelude: list[K.Stmt] = []
        nits: list[str] = []
        starts: list[K.Expr] = []
        steps: list[K.Expr] = []
        total = f"_ctot{u}"
        for idx, lp in enumerate(chain):
            s = self._expr(lp.start, prelude)
            e = self._expr(lp.end, prelude)
            st = self._expr(lp.step, prelude)
            n = f"_cn{u}_{idx}"
            prelude.append(K.Assign(n, K.Bin(
                "/", K.Bin("-", K.Bin("+", e, st), K.Bin("+", s, one)), st)))
            nits.append(n)
            starts.append(s)
            steps.append(st)
        tot_expr: K.Expr = K.Reg(nits[0])
        for n in nits[1:]:
            tot_expr = K.Bin("*", tot_expr, K.Reg(n))
        prelude.append(K.Assign(total, tot_expr))
        out.extend(self._guarded(prelude))

        levels = tuple(loop.info.levels)
        uniform = loop.loop_id in self.plan.barrier_loops
        saved_active, saved_dist = self.active, set(self.dist)
        d = distribution(levels, self.geom) if levels else None
        t = f"_ct{u}"
        if d is not None:
            out.append(K.Assign(t, d.position))
            stride = K.const_int(d.total)
            self.dist |= set(levels)
        else:
            out.append(K.Assign(t, K.const_int(0)))
            stride = one
        cond = K.Bin("<", K.Reg(t), K.Reg(total))

        def recover() -> list[K.Stmt]:
            stmts: list[K.Stmt] = [K.Assign(f"_crem{u}", K.Reg(t))]
            rem = K.Reg(f"_crem{u}")
            for idx in range(len(chain) - 1, -1, -1):
                lp = chain[idx]
                stmts.append(K.Assign(lp.var, K.Bin(
                    "+", starts[idx],
                    K.Bin("*", K.Bin("%", rem, K.Reg(nits[idx])),
                          steps[idx]))))
                if idx > 0:
                    stmts.append(K.Assign(
                        f"_crem{u}", K.Bin("/", rem, K.Reg(nits[idx]))))
            return stmts

        innermost_body = chain[-1].body
        if uniform:
            act = self._tmp("act")
            loop_cond = _conj(self.active, cond)
            self.active = K.Reg(act)
            body: list[K.Stmt] = [K.Assign(act, loop_cond)]
            body.extend(recover())
            body.extend(self._stmts(innermost_body))
            body.append(K.Assign(t, K.Bin("+", K.Reg(t), stride)))
            out.append(K.UniformWhile(loop_cond, tuple(body)))
        else:
            loop_cond = _conj(self.active, cond)
            self.active = None
            body = recover()
            body.extend(self._stmts(innermost_body))
            body.append(K.Assign(t, K.Bin("+", K.Reg(t), stride)))
            out.append(K.While(loop_cond, tuple(body)))

        self.active, self.dist = saved_active, saved_dist
        distributed = set(loop.info.levels) | saved_dist
        for info in infos:
            out.extend(self._finalize(info, distributed))
        return out

    # ------------------------------------------------------------------
    # reduction finalization (the heart of the paper)
    # ------------------------------------------------------------------

    def _padded_value(self, info: ReductionInfo, span: set[str],
                      distributed: set[str]) -> K.Expr:
        """Per-thread partial, with identity substituted on lanes of span
        dimensions that were never actually distributed (they executed
        redundantly, e.g. the worker dimension of a same-line ``gang
        vector`` loop) so the cross-thread combine does not overcount."""
        terms: list[K.Expr] = []
        if "worker" in info.padded_levels and self.geom.num_workers > 1:
            terms.append(K.Bin("==", K.Special("ty"), K.const_int(0)))
        if "vector" in info.padded_levels and self.geom.vector_length > 1:
            terms.append(K.Bin("==", K.Special("tx"), K.const_int(0)))
        guard = _conj(*terms) if terms else None
        if guard is None:
            return K.Reg(info.var)
        return K.Select(guard, K.Reg(info.var),
                        info.op.identity_const(info.dtype))

    def _finalize(self, info: ReductionInfo,
                  distributed: set[str]) -> list[K.Stmt]:
        span = set(info.span)
        if not span:  # reduction on a seq loop: fold the initial value
            return [K.Assign(info.var, info.op.combine(
                K.Reg(f"_init_{info.var}"), K.Reg(info.var), info.dtype))]
        if "gang" in span:
            return self._finalize_gang(info, span, distributed)
        return self._finalize_block(info, span, distributed)

    # ---- block-level (shared-memory) reductions ----------------------

    def _finalize_block(self, info: ReductionInfo, span: set[str],
                        distributed: set[str]) -> list[K.Stmt]:
        value = self._padded_value(info, span, distributed)
        if self.opts.reduction_memory == "global" \
                and span == {"worker", "vector"}:
            return self._finalize_block_global(info, value)
        out: list[K.Stmt] = [K.Comment(
            f"reduce {info.var} across {'&'.join(sorted(span))}")]
        if span == {"vector"}:
            out += self._reduce_vector_level(info.var, info.op, info.dtype,
                                             value)
        elif span == {"worker"}:
            out += self._reduce_worker_level(info.var, info.op, info.dtype,
                                             value)
        elif span == {"worker", "vector"}:
            if self.opts.block_rmp_style == "level_by_level":
                out += self._reduce_vector_level(info.var, info.op,
                                                 info.dtype, value)
                out += self._reduce_worker_level(info.var, info.op,
                                                 info.dtype)
            else:
                out += self._reduce_flat_block(info.var, info.op, info.dtype,
                                               value)
        else:  # pragma: no cover - analysis prevents other combinations
            raise LoweringError(f"unexpected block reduction span {span}")
        # fold the captured entry value
        out.append(K.Assign(info.var, info.op.combine(
            K.Reg(f"_init_{info.var}"), K.Reg(info.var), info.dtype)))
        return out

    def _shuffle_warp_tree(self, var: str, op: ReductionOperator,
                           dtype: DType, width: int) -> list[K.Stmt]:
        """Intra-warp butterfly: after this, lane 0 of each width-aligned
        group holds the group's combined value (register traffic only)."""
        t = self._tmp("shfl")
        stmts: list[K.Stmt] = []
        for d in shuffle_deltas(width):
            stmts.append(K.ShflDown(t, var, d))
            stmts.append(K.Assign(var, op.combine(K.Reg(var), K.Reg(t),
                                                  dtype)))
        return stmts

    def _reduce_vector_level_shuffle(self, var: str, op: ReductionOperator,
                                     dtype: DType,
                                     value: K.Expr) -> list[K.Stmt]:
        """Extension (A9): per-row reduction via __shfl_down warp trees —
        shared memory only for the cross-warp handoff and the broadcast."""
        bdx, bdy = self.geom.vector_length, self.geom.num_workers
        tx, ty = K.Special("tx"), K.Special("ty")
        out: list[K.Stmt] = [K.Comment("warp-shuffle vector reduction (A9)")]
        if not isinstance(value, K.Reg) or value.name != var:
            out.append(K.Assign(var, value))
        out += self._shuffle_warp_tree(var, op, dtype, bdx)
        res = self._tmp("sres")
        nw = max(1, bdx // 32)
        arr = self._need_shared(dtype, bdy * nw if nw > 1 else bdy)
        out += cross_warp_handoff(
            arr, var, res, op, dtype, lane=tx, nw=nw, row=ty,
            warp_tree=lambda w: self._shuffle_warp_tree(var, op, dtype, w))
        out.append(K.Assign(var, K.Reg(res)))
        return out

    def _reduce_flat_block_shuffle(self, var: str, op: ReductionOperator,
                                   dtype: DType,
                                   value: K.Expr) -> list[K.Stmt]:
        """Extension (A9): whole-block reduction via two shuffle stages."""
        ntid = self.geom.threads_per_block
        tid = K.Special("tid")
        out: list[K.Stmt] = [K.Comment("warp-shuffle block reduction (A9)")]
        if not isinstance(value, K.Reg) or value.name != var:
            out.append(K.Assign(var, value))
        out += self._shuffle_warp_tree(var, op, dtype, ntid)
        res = self._tmp("sres")
        nw = max(1, ntid // 32)
        arr = self._need_shared(dtype, nw if nw > 1 else 1)
        out += cross_warp_handoff(
            arr, var, res, op, dtype, lane=tid, nw=nw, row=None,
            warp_tree=lambda w: self._shuffle_warp_tree(var, op, dtype, w))
        out.append(K.Assign(var, K.Reg(res)))
        return out

    def _reduce_vector_level(self, var: str, op: ReductionOperator,
                             dtype: DType,
                             value: K.Expr | None = None) -> list[K.Stmt]:
        """Per-worker-row reduction of per-thread partials (Fig. 6)."""
        value = value if value is not None else K.Reg(var)
        bdx, bdy = self.geom.vector_length, self.geom.num_workers
        if self._select("vector_strategy", var) == "shuffle" \
                and is_pow2(bdx) \
                and not self.opts.bug_sum_layout_mismatch:
            return self._reduce_vector_level_shuffle(var, op, dtype, value)
        arr = self._need_shared(dtype, bdx * bdy)
        tx, ty = K.Special("tx"), K.Special("ty")
        row_store = K.Bin("+", K.Bin("*", ty, K.const_int(bdx)), tx)
        transposed_store = K.Bin("+", K.Bin("*", tx, K.const_int(bdy)), ty)
        buggy = self.opts.bug_sum_layout_mismatch and op.token == "+"
        layout = self.opts.vector_layout
        if buggy:
            # defect model: transposed store, row-layout reduce
            store_idx = transposed_store
            ls = logstep_reduce(arr, bdx, op, dtype, lane=tx,
                                base=K.Bin("*", ty, K.const_int(bdx)),
                                stride=1,
                                elide_warp_sync=False, uid=self.uid)
            res_idx: K.Expr = K.Bin("*", ty, K.const_int(bdx))
        elif layout == "transposed":
            store_idx = transposed_store
            ls = logstep_reduce(arr, bdx, op, dtype, lane=tx, base=ty,
                                stride=bdy,
                                elide_warp_sync=self._elide(bdx), uid=self.uid)
            res_idx = ty
        else:
            store_idx = row_store
            ls = logstep_reduce(arr, bdx, op, dtype, lane=tx,
                                base=K.Bin("*", ty, K.const_int(bdx)),
                                stride=1,
                                elide_warp_sync=self._elide(bdx), uid=self.uid)
            res_idx = K.Bin("*", ty, K.const_int(bdx))
        res = self._tmp("vres")
        return [
            K.SStore(arr, store_idx, value),
            *ls.stmts,
            K.Sync(),
            K.SLoad(res, arr, res_idx),
            K.Assign(var, K.Reg(res)),
        ]

    def _reduce_worker_level(self, var: str, op: ReductionOperator,
                             dtype: DType,
                             value: K.Expr | None = None) -> list[K.Stmt]:
        """Reduce one value per worker (Fig. 8)."""
        value = value if value is not None else K.Reg(var)
        bdx, bdy = self.geom.vector_length, self.geom.num_workers
        tx, ty = K.Special("tx"), K.Special("ty")
        res = self._tmp("wres")
        buggy = self.opts.bug_sum_layout_mismatch and op.token == "+"
        if buggy:
            # defect model: partials at stride 1, reduce assuming stride bdy
            arr = self._need_shared(dtype, max(bdy * bdy, bdy))
            ls = logstep_reduce(arr, bdy, op, dtype, lane=tx,
                                guard=K.Bin("==", ty, K.const_int(0)),
                                stride=max(bdy, 1) if bdy > 1 else 1,
                                elide_warp_sync=False, uid=self.uid)
            return [
                K.If(K.Bin("==", tx, K.const_int(0)),
                     (K.SStore(arr, ty, value),)),
                *ls.stmts,
                K.Sync(),
                K.SLoad(res, arr, K.const_int(0)),
                K.Assign(var, K.Reg(res)),
            ]
        if self.opts.worker_strategy == "duplicated":
            return self._reduce_worker_duplicated(var, op, dtype, value)
        # OpenUH Fig. 8(c): partials in the first row, first-row threads
        # log-step (they are warp threads: no sync in the tail)
        arr = self._need_shared(dtype, bdy)
        if bdx >= max(1, bdy // 2) or bdy == 1:
            ls = logstep_reduce(arr, bdy, op, dtype, lane=tx,
                                guard=K.Bin("==", ty, K.const_int(0)),
                                elide_warp_sync=self.opts.elide_warp_sync,
                                uid=self.uid)
            steps: list[K.Stmt] = list(ls.stmts)
        else:
            # degenerate geometry (vector_length < num_workers/2): a single
            # lane folds sequentially — correct, if slow
            steps = [K.Sync()]
            acc = self._tmp("wacc")
            seq: list[K.Stmt] = [K.SLoad(acc, arr, K.const_int(0))]
            for widx in range(1, bdy):
                t = self._tmp("wld")
                seq.append(K.SLoad(t, arr, K.const_int(widx)))
                seq.append(K.Assign(acc, op.combine(K.Reg(acc), K.Reg(t),
                                                    dtype)))
            seq.append(K.SStore(arr, K.const_int(0), K.Reg(acc)))
            steps.append(K.If(K.Bin("==", K.Special("tid"), K.const_int(0)),
                              tuple(seq)))
        return [
            K.If(K.Bin("==", tx, K.const_int(0)),
                 (K.SStore(arr, ty, value),)),
            *steps,
            K.Sync(),
            K.SLoad(res, arr, K.const_int(0)),
            K.Assign(var, K.Reg(res)),
        ]

    def _reduce_worker_duplicated(self, var: str, op: ReductionOperator,
                                  dtype: DType,
                                  value: K.Expr | None = None) -> list[K.Stmt]:
        """Baseline Fig. 8(b): every row holds a copy of all worker values
        and reduces it — more shared memory and a sync every step."""
        value = value if value is not None else K.Reg(var)
        bdx, bdy = self.geom.vector_length, self.geom.num_workers
        tx, ty = K.Special("tx"), K.Special("ty")
        arr = self._need_shared(dtype, max(bdy * bdy, bdy))
        w = self._tmp("wdup")
        res = self._tmp("wres")
        ls = logstep_reduce(arr, bdy, op, dtype, lane=tx,
                            base=K.Bin("*", ty, K.const_int(bdy)), stride=1,
                            guard=K.Bin("<", ty, K.const_int(bdy)),
                            elide_warp_sync=False, uid=self.uid)
        return [
            # stage each worker's value at [ty], then fan out to every row
            K.If(K.Bin("==", tx, K.const_int(0)),
                 (K.SStore(arr, ty, value),)),
            K.Sync(),
            K.If(K.Bin("<", tx, K.const_int(bdy)),
                 (K.SLoad(w, arr, tx),)),
            K.Sync(),
            K.If(K.Bin("&&", K.Bin("<", tx, K.const_int(bdy)),
                       K.Bin("<", ty, K.const_int(bdy))),
                 (K.SStore(arr, K.Bin("+", K.Bin("*", ty, K.const_int(bdy)),
                                      tx), K.Reg(w)),)),
            *ls.stmts,
            K.Sync(),
            K.SLoad(res, arr, K.const_int(0)),
            K.Assign(var, K.Reg(res)),
        ]

    def _reduce_flat_block(self, var: str, op: ReductionOperator,
                           dtype: DType,
                           value: K.Expr | None = None) -> list[K.Stmt]:
        """Whole-block flat reduction over per-thread partials (§3.2.1:
        buffer of workers × vector threads in shared memory)."""
        value = value if value is not None else K.Reg(var)
        ntid = self.geom.threads_per_block
        if self._select("vector_strategy", var) == "shuffle" \
                and is_pow2(ntid):
            return self._reduce_flat_block_shuffle(var, op, dtype, value)
        arr = self._need_shared(dtype, ntid)
        tid = K.Special("tid")
        ls = logstep_reduce(arr, ntid, op, dtype, lane=tid,
                            elide_warp_sync=self.opts.elide_warp_sync,
                            uid=self.uid)
        res = self._tmp("fres")
        return [
            K.SStore(arr, tid, value),
            *ls.stmts,
            K.Sync(),
            K.SLoad(res, arr, K.const_int(0)),
            K.Assign(var, K.Reg(res)),
        ]

    def _finalize_block_global(self, info: ReductionInfo,
                               value: K.Expr) -> list[K.Stmt]:
        """§3.3: the same worker·vector reduction staged in *global* memory
        (for when shared memory is reserved for other computation)."""
        ntid = self.geom.threads_per_block
        gdx = self.geom.num_gangs
        buf = f"_redg_{info.var}"
        if all(s.name != buf for s in self.scratch):
            self.scratch.append(ScratchBuffer(buf, info.dtype, gdx * ntid))
            self.buffers_used.add(buf)
        base = K.Bin("*", K.Special("bx"), K.const_int(ntid))
        tid = K.Special("tid")
        ls = logstep_reduce(buf, ntid, info.op, info.dtype, lane=tid,
                            base=base, stride=1,
                            elide_warp_sync=self.opts.elide_warp_sync,
                            space="global", uid=self.uid)
        res = self._tmp("gres")
        return [
            K.Comment(f"reduce {info.var} across worker&vector in global "
                      "memory (§3.3)"),
            K.GStore(buf, K.Bin("+", base, tid), value),
            *ls.stmts,
            K.Sync(),
            K.GLoad(res, buf, base),
            K.Assign(info.var, K.Reg(res)),
            K.Assign(info.var, info.op.combine(
                K.Reg(f"_init_{info.var}"), K.Reg(info.var), info.dtype)),
        ]

    # ---- gang-involved reductions (two-kernel scheme, Fig. 5(c)) ------

    def _finalize_gang_atomic(self, info: ReductionInfo, span: set[str],
                              distributed: set[str]) -> list[K.Stmt]:
        """Extension (ablation A8): block-local reduce, then one atomic
        read-modify-write per block onto the result buffer — the modern
        single-kernel alternative to the paper's two-kernel scheme.  No
        finish kernel, no partial buffer, but serialized atomics."""
        value = self._padded_value(info, span, distributed)
        out: list[K.Stmt] = [K.Comment(
            f"gang-involved reduction of {info.var} "
            f"(span {'&'.join(sorted(span))}): block reduce + device atomic")]
        if span != {"gang"}:
            if info.same_line or span == {"gang", "worker", "vector"}:
                out += self._reduce_flat_block(info.var, info.op,
                                               info.dtype, value)
            else:
                if "vector" in span:
                    out += self._reduce_vector_level(info.var, info.op,
                                                     info.dtype, value)
                    value = K.Reg(info.var)
                if "worker" in span:
                    out += self._reduce_worker_level(info.var, info.op,
                                                     info.dtype, value)

        rbuf = f"_redr_{info.var}"
        self.scratch.append(ScratchBuffer(rbuf, info.dtype, 1,
                                          fill_identity_of=info.op.token))
        self.buffers_used.add(rbuf)
        out.append(K.If(K.Bin("==", K.Special("tid"), K.const_int(0)), (
            K.AtomicUpdate(rbuf, K.const_int(0), info.op.token,
                           K.Reg(info.var)),
        )))
        self.gang_reductions.append(GangReductionSpec(
            var=info.var, op=info.op, dtype=info.dtype, partial_buf=rbuf,
            result_buf=rbuf, finish_kernel=None, stage=self.stage))
        return out

    def _index_identity_const(self, dtype: DType) -> K.Const:
        """Identity for the index half of a pair: the largest index value,
        so any real index wins the smaller-index tie-break."""
        hi = np.iinfo(dtype.np).max
        return K.Const(dtype.np.type(hi), dtype)

    def _pair_take(self, kind: str, v2: K.Expr, i2: K.Expr,
                   v1: K.Expr, i1: K.Expr) -> K.Expr:
        """Does candidate pair (v2, i2) beat incumbent (v1, i1)?  Strict
        value comparison (NaN never wins) with ties broken toward the
        smaller index, so the combine is deterministic under any
        grouping."""
        cmp = ">" if kind == "argmax" else "<"
        return K.Bin("||", K.Bin(cmp, v2, v1),
                     K.Bin("&&", K.Bin("==", v2, v1), K.Bin("<", i2, i1)))

    def _finalize_gang_pair(self, info: ReductionInfo,
                            span: set[str]) -> list[K.Stmt]:
        """Value-index pair reduction (argmax/argmin): every participating
        lane writes its (value, index) partial pair to twin global
        buffers; a single-block finish kernel combines the pairs.  Pair
        combines are idempotent — duplicated partials from redundant
        lanes cannot overcount — so no identity padding is needed and
        the atomic / level-by-level styles (which have no pair form)
        are never consulted."""
        geom = self.geom
        tx, ty, bx = K.Special("tx"), K.Special("ty"), K.Special("bx")
        tid = K.Special("tid")
        out: list[K.Stmt] = [K.Comment(
            f"{info.kind} reduction of ({info.var}, {info.index_var}) "
            f"(span {'&'.join(sorted(span))}): pair partials to twin "
            "buffers, second kernel finishes")]

        if span == {"gang"}:
            size = geom.num_gangs
            index: K.Expr = bx
            guard: K.Expr | None = K.Bin("==", tid, K.const_int(0))
        elif "vector" not in span:
            size = geom.num_gangs * geom.num_workers
            index = K.Bin("+", K.Bin("*", bx, K.const_int(geom.num_workers)),
                          ty)
            guard = (K.Bin("==", tx, K.const_int(0))
                     if geom.vector_length > 1 else None)
        else:
            size = geom.num_gangs * geom.threads_per_block
            index = K.Bin("+", K.Bin(
                "*", bx, K.const_int(geom.threads_per_block)), tid)
            guard = None

        pv, pi = f"_redp_{info.var}", f"_redp_{info.index_var}"
        rv, ri = f"_redr_{info.var}", f"_redr_{info.index_var}"
        self.scratch.append(ScratchBuffer(pv, info.dtype, size))
        self.scratch.append(ScratchBuffer(pi, info.index_dtype, size))
        self.scratch.append(ScratchBuffer(rv, info.dtype, 1))
        self.scratch.append(ScratchBuffer(ri, info.index_dtype, 1))
        self.buffers_used.add(pv)
        self.buffers_used.add(pi)

        stores = (K.GStore(pv, index, K.Reg(info.var)),
                  K.GStore(pi, index, K.Reg(info.index_var)))
        if guard is not None:
            out.append(K.If(guard, stores))
        else:
            out.extend(stores)

        finish = self._build_pair_finish_kernel(info, pv, pi, rv, ri, size)
        self.gang_reductions.append(GangReductionSpec(
            var=info.var, op=info.op, dtype=info.dtype, partial_buf=pv,
            result_buf=rv, finish_kernel=finish, stage=self.stage,
            kind=info.kind, index_var=info.index_var,
            index_dtype=info.index_dtype, index_partial_buf=pi,
            index_result_buf=ri))
        return out

    def _build_pair_finish_kernel(self, info: ReductionInfo, pv: str,
                                  pi: str, rv: str, ri: str,
                                  n: int) -> K.Kernel:
        """Single-block finish kernel for a pair reduction: each lane
        folds a strided window of partial pairs, then an If-based
        shared-memory tree combines the per-lane pairs (a pair combine
        is conditional, not a single expression, so the log-step helper
        does not apply)."""
        bdx = self.opts.finish_block_size
        if not is_pow2(bdx):
            raise LoweringError(
                "pair reductions require a power-of-two finish_block_size, "
                f"got {bdx}")
        dtype, idt = info.dtype, info.index_dtype
        tx = K.Special("tx")
        av = f"_sfpv_{dtype.value}"
        ai = f"_sfpi_{idt.value}"

        def take(v2, i2, v1, i1):
            return self._pair_take(info.kind, v2, i2, v1, i1)

        body: list[K.Stmt] = [
            K.Assign("_fpv", info.op.identity_const(dtype)),
            K.Assign("_fpi", self._index_identity_const(idt)),
            K.Assign("_fk", tx),
            K.While(K.Bin("<", K.Reg("_fk"), K.const_int(n)), (
                K.GLoad("_flv", pv, K.Reg("_fk")),
                K.GLoad("_fli", pi, K.Reg("_fk")),
                K.If(take(K.Reg("_flv"), K.Reg("_fli"),
                          K.Reg("_fpv"), K.Reg("_fpi")), (
                    K.Assign("_fpv", K.Reg("_flv")),
                    K.Assign("_fpi", K.Reg("_fli")),
                )),
                K.Assign("_fk", K.Bin("+", K.Reg("_fk"),
                                      K.const_int(bdx))),
            )),
            K.SStore(av, tx, K.Reg("_fpv")),
            K.SStore(ai, tx, K.Reg("_fpi")),
        ]
        s = bdx // 2
        while s >= 1:
            body.append(K.Sync())
            body.append(K.If(K.Bin("<", tx, K.const_int(s)), (
                K.SLoad("_fov", av, K.Bin("+", tx, K.const_int(s))),
                K.SLoad("_foi", ai, K.Bin("+", tx, K.const_int(s))),
                K.SLoad("_fcv", av, tx),
                K.SLoad("_fci", ai, tx),
                K.If(take(K.Reg("_fov"), K.Reg("_foi"),
                          K.Reg("_fcv"), K.Reg("_fci")), (
                    K.SStore(av, tx, K.Reg("_fov")),
                    K.SStore(ai, tx, K.Reg("_foi")),
                )),
            )))
            s //= 2
        body.append(K.Sync())
        body.append(K.If(K.Bin("==", tx, K.const_int(0)), (
            K.SLoad("_frv", av, K.const_int(0)),
            K.SLoad("_fri", ai, K.const_int(0)),
            K.GStore(rv, K.const_int(0), K.Reg("_frv")),
            K.GStore(ri, K.const_int(0), K.Reg("_fri")),
        )))
        return self._stamp(K.Kernel(
            name=f"acc_reduction_finish_{info.var}",
            body=tuple(body),
            buffers=(pv, pi, rv, ri),
            shared=(K.SharedArraySpec(av, dtype, bdx),
                    K.SharedArraySpec(ai, idt, bdx)),
            note=f"pair finish kernel for {info.kind} of "
                 f"({info.var!r}, {info.index_var!r}) ({n} partials)",
        ))

    def _finalize_gang(self, info: ReductionInfo, span: set[str],
                       distributed: set[str]) -> list[K.Stmt]:
        if info.is_pair:
            return self._finalize_gang_pair(info, span)
        if self._select("gang_partial_style", info.var) == "atomic" \
                and info.op.token in _ATOMIC_CAPABLE:
            return self._finalize_gang_atomic(info, span, distributed)
        geom = self.geom
        tx, ty, bx = K.Special("tx"), K.Special("ty"), K.Special("bx")
        tid = K.Special("tid")
        value = self._padded_value(info, span, distributed)
        out: list[K.Stmt] = [K.Comment(
            f"gang-involved reduction of {info.var} "
            f"(span {'&'.join(sorted(span))}): partials to global buffer, "
            "second kernel finishes")]

        level_by_level = (self.opts.gang_rmp_style == "level_by_level"
                          and span != {"gang"})
        if level_by_level:
            # reduce the block-local levels first, then one partial per gang
            # (OpenUH instead writes one partial per *thread*, §3.2.1/3.2.2)
            if info.same_line:
                out += self._reduce_flat_block(info.var, info.op,
                                               info.dtype, value)
                value = K.Reg(info.var)
            else:
                if "vector" in span:
                    out += self._reduce_vector_level(info.var, info.op,
                                                     info.dtype, value)
                    value = K.Reg(info.var)
                if "worker" in span:
                    out += self._reduce_worker_level(info.var, info.op,
                                                     info.dtype, value)
                    value = K.Reg(info.var)
            span = {"gang"}

        if span == {"gang"}:
            size = geom.num_gangs
            index: K.Expr = bx
            guard: K.Expr | None = K.Bin("==", tid, K.const_int(0))
        elif span == {"gang", "worker"}:
            size = geom.num_gangs * geom.num_workers
            index = K.Bin("+", K.Bin("*", bx, K.const_int(geom.num_workers)),
                          ty)
            guard = (K.Bin("==", tx, K.const_int(0))
                     if geom.vector_length > 1 else None)
        else:  # gang & worker & vector
            size = geom.num_gangs * geom.threads_per_block
            index = K.Bin("+", K.Bin(
                "*", bx, K.const_int(geom.threads_per_block)), tid)
            guard = None

        pbuf = f"_redp_{info.var}"
        rbuf = f"_redr_{info.var}"
        self.scratch.append(ScratchBuffer(pbuf, info.dtype, size))
        self.scratch.append(ScratchBuffer(rbuf, info.dtype, 1))
        self.buffers_used.add(pbuf)

        store = K.GStore(pbuf, index, value)
        out.append(K.If(guard, (store,)) if guard is not None else store)

        finish = self._build_finish_kernel(info, pbuf, rbuf, size)
        init_kernel = None
        init_grid = 1
        if self.opts.zero_init_partials:
            bdx = self.opts.finish_block_size
            init_grid = max(1, -(-size // bdx))
            pos = K.Bin("+", K.Bin("*", K.Special("bx"), K.const_int(bdx)),
                        K.Special("tx"))
            init_kernel = self._stamp(K.Kernel(
                name=f"acc_reduction_init_{info.var}",
                body=(K.If(K.Bin("<", pos, K.const_int(size)), (
                    K.GStore(pbuf, pos, info.op.identity_const(info.dtype)),
                )),),
                buffers=(pbuf,),
                note=f"zero-initialize the {size} partials of {info.var!r}",
            ))
        self.gang_reductions.append(GangReductionSpec(
            var=info.var, op=info.op, dtype=info.dtype, partial_buf=pbuf,
            result_buf=rbuf, finish_kernel=finish,
            init_kernel=init_kernel, init_grid=init_grid,
            stage=self.stage))
        return out

    def _build_finish_kernel(self, info: ReductionInfo, pbuf: str,
                             rbuf: str, n: int) -> K.Kernel:
        """Single-block kernel reducing the partial buffer (the 'same
        reduction kernel as the one in vector addition' of §3.1.3)."""
        bdx = self.opts.finish_block_size
        op, dtype = info.op, info.dtype
        tx = K.Special("tx")
        arr = f"_sfin_{dtype.value}"
        ls = logstep_reduce(arr, bdx, op, dtype, lane=tx,
                            elide_warp_sync=self.opts.elide_warp_sync,
                            uid=self.uid)
        t = "_fld"
        body: tuple[K.Stmt, ...] = (
            K.Assign("_facc", op.identity_const(dtype)),
            K.Assign("_fi", tx),
            K.While(K.Bin("<", K.Reg("_fi"), K.const_int(n)), (
                K.GLoad(t, pbuf, K.Reg("_fi")),
                K.Assign("_facc", op.combine(K.Reg("_facc"), K.Reg(t),
                                             dtype)),
                K.Assign("_fi", K.Bin("+", K.Reg("_fi"), K.const_int(bdx))),
            )),
            K.SStore(arr, tx, K.Reg("_facc")),
            *ls.stmts,
            K.If(K.Bin("==", tx, K.const_int(0)), (
                K.SLoad("_fres", arr, K.const_int(0)),
                K.GStore(rbuf, K.const_int(0), K.Reg("_fres")),
            )),
        )
        return self._stamp(K.Kernel(
            name=f"acc_reduction_finish_{info.var}",
            body=body,
            buffers=(pbuf, rbuf),
            shared=(K.SharedArraySpec(arr, dtype, bdx),),
            note=f"finish kernel for gang reduction of {info.var!r} "
                 f"({n} partials)",
        ))

    def _elide(self, row_width: int) -> bool:
        """Warp-sync elision is only safe for warp-aligned rows (§3.3's
        non-multiple-of-32 performance note)."""
        return (self.opts.elide_warp_sync
                and (row_width % 32 == 0 or
                     self.geom.threads_per_block <= 32))


def lower_region(plan: RegionPlan, geom: LaunchGeometry,
                 opts: LoweringOptions | None = None, *,
                 selector: StrategySelector | None = None,
                 stamp: bool = True) -> LoweredProgram:
    """Lower an analyzed region to kernels under the given strategy options.

    ``selector`` lets a caller (the autotune pass) override strategy
    fields per reduction variable; ``stamp=False`` defers sid stamping
    to the pipeline's final ``stamp-sids`` pass so optimization passes
    can rewrite kernels without ever exposing stale ids.
    """
    return _Lowerer(plan, geom, opts or LoweringOptions(),
                    selector=selector, stamp=stamp).lower()
