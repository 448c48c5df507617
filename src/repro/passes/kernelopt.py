"""Kernel-IR optimization passes.

Four rewrites over :mod:`repro.gpu.kernelir`, each pinned bit-identical in
*results* to the unoptimized pipeline (the differential testsuite grid
compares every case under ``minimal`` vs ``optimized`` on both executors):

``fuse-finish``
    RedFuser-style finish-kernel fusion: fold the gang-reduction finish
    kernel back into the main kernel as a last-block epilogue.  The
    epilogue emulates the finish kernel's exact combine tree over
    *virtual lanes* — thread ``t`` plays finish-thread ``t``, ``t+ntid``,
    ``t+2·ntid``, … — so the floating-point combination order (and hence
    every result bit) is identical to the separate launch, for any block
    geometry.  Within each tree step the written lanes (``< s``) and the
    cross-lane reads (``[s, 2s)``) are disjoint, so re-partitioning lanes
    onto threads cannot reorder any combine.  Saves one kernel launch and
    the finish kernel's whole time per reduction.
``fold-constants``
    Integer identity/constant folding (``x+0``, ``x*1``, ``x*0``,
    const⊕const with C wraparound) plus two value-preserving cleanups:
    dead-temp elimination (pure ``Assign`` to a register never read) and
    dead-overwrite elimination (an ``Assign`` whose value is overwritten
    in the same block before any read).  Loads are never removed — their
    memory-counter side effects are modeled cost.
``eliminate-barriers``
    Redundant ``__syncthreads`` removal: every barrier in a single-warp
    block (``ntid ≤ 32``), barriers with no shared/global memory access
    since the previous barrier, and trailing barriers with no memory
    access after them.  In the simulator barriers only cost time and
    check divergence, and the lowering emits only block-uniform barriers,
    so removal never changes results; the rules mirror what is legal on
    warp-synchronous hardware.
``stamp-sids``
    The finalize pass: stamp dense pre-order statement ids on every
    kernel.  Running it last (instead of inside the lowering) is what
    lets the rewrites above splice statements freely while attribution
    and the launch cache still see dense, stable ids.
"""

from __future__ import annotations

import dataclasses
import operator

from repro.dtypes import DType
from repro.gpu import kernelir as K
from repro.obs import timeline as _timeline
from repro.codegen.reduction.treeutil import prev_pow2
from repro.passes.manager import CompileState, register_pass

__all__ = ["eliminate_barriers", "fold_kernel", "fuse_finish_kernels"]


def _map_kernels(lowered, fn):
    """Rebuild a LoweredProgram with ``fn`` applied to every kernel
    (``lowered`` itself when ``fn`` returns every kernel unchanged)."""
    specs = [dataclasses.replace(
        g,
        finish_kernel=fn(g.finish_kernel) if g.finish_kernel is not None
        else None,
        init_kernel=fn(g.init_kernel) if g.init_kernel is not None
        else None)
        for g in lowered.gang_reductions]
    new = dataclasses.replace(
        lowered,
        main_kernel=fn(lowered.main_kernel),
        stage_kernels=tuple(fn(k) for k in lowered.stage_kernels),
        gang_reductions=specs)
    if all(map(operator.is_, new.kernels, lowered.kernels)):
        return lowered
    return new


# --------------------------------------------------------------------------
# stamp-sids (the finalize pass)
# --------------------------------------------------------------------------

@register_pass("stamp-sids", "finalize",
               "stamp dense pre-order statement ids on every kernel")
def run_stamp_sids(state: CompileState):
    state.lowered = _map_kernels(state.lowered, K.stamp_sids)
    n = len(state.lowered.kernels)
    return f"stamped {n} kernel(s)"


# --------------------------------------------------------------------------
# eliminate-barriers
# --------------------------------------------------------------------------

def _touches_memory(s: K.Stmt) -> bool:
    if isinstance(s, (K.GLoad, K.GStore, K.SLoad, K.SStore, K.AtomicUpdate)):
        return True
    if isinstance(s, K.If):
        return any(_touches_memory(c) for c in s.then + s.orelse)
    if isinstance(s, (K.While, K.UniformWhile)):
        return any(_touches_memory(c) for c in s.body)
    return False


def eliminate_barriers(kernel: K.Kernel, ntid: int) -> tuple[K.Kernel, int]:
    """Remove redundant ``__syncthreads`` from one kernel.

    ``ntid`` is the block size the kernel launches with.  Returns the
    rewritten kernel and the number of barriers removed.
    """
    removed = 0

    if ntid <= 32:
        # the whole block is one warp: every barrier is redundant
        def drop(s):
            nonlocal removed
            if isinstance(s, K.Sync):
                removed += 1
                return None
            return s
        return dataclasses.replace(
            kernel, body=K.transform_block(kernel.body, drop)), removed

    def clean(stmts: tuple[K.Stmt, ...], top: bool) -> tuple[K.Stmt, ...]:
        nonlocal removed
        out: list[K.Stmt] = []
        # True = some memory access happened since the last barrier (or
        # since block entry, which we must treat conservatively)
        mem_since_sync = True
        for s in stmts:
            if isinstance(s, K.If):
                s = dataclasses.replace(s, then=clean(s.then, False),
                                        orelse=clean(s.orelse, False))
            elif isinstance(s, (K.While, K.UniformWhile)):
                s = dataclasses.replace(s, body=clean(s.body, False))
            if isinstance(s, K.Sync):
                if not mem_since_sync:
                    removed += 1
                    continue
                mem_since_sync = False
            elif _touches_memory(s):
                mem_since_sync = True
            out.append(s)
        if top:
            # trailing barriers order nothing: no memory access follows
            i = len(out) - 1
            while i >= 0:
                s = out[i]
                if isinstance(s, K.Sync):
                    del out[i]
                    removed += 1
                elif _touches_memory(s):
                    break
                i -= 1
        return tuple(out)

    return dataclasses.replace(kernel, body=clean(kernel.body, True)), removed


@register_pass("eliminate-barriers", "kernelopt",
               "remove redundant __syncthreads (single-warp blocks, "
               "back-to-back and trailing barriers)")
def run_eliminate_barriers(state: CompileState):
    lowered = state.lowered
    ntid_main = lowered.geometry.threads_per_block
    fbs = lowered.options.finish_block_size
    total = 0

    def rewrite(kernel):
        nonlocal total
        # region-stage kernels launch with the main geometry; only the
        # reduction init/finish helpers use the finish block size
        ntid = fbs if kernel.name.startswith("acc_reduction_") else ntid_main
        new, n = eliminate_barriers(kernel, ntid)
        total += n
        return new if n else kernel

    state.lowered = _map_kernels(lowered, rewrite)
    return f"removed {total} barrier(s)"


# --------------------------------------------------------------------------
# fold-constants (+ dead temps, dead overwrites)
# --------------------------------------------------------------------------

_INT_DTYPES = (DType.INT, DType.LONG)


def _is_int_const(e, value=None) -> bool:
    return (isinstance(e, K.Const) and e.dtype in _INT_DTYPES
            and (value is None or int(e.value) == value))


def _intlike(e: K.Expr) -> bool:
    """Conservatively: does ``e`` evaluate to an integer?

    Specials (thread/block indices and dims) are ints; everything the
    folds must not touch — registers of unknown type, float constants,
    calls — answers ``False``.  Mixed int/float arithmetic promotes in C,
    so ``x + 0`` with float ``x`` is a *float* addition and folding it
    would turn ``-0.0`` into ``+0.0``; these guards restrict the identity
    rewrites to provably-integer contexts (index arithmetic and integer
    reductions).
    """
    if isinstance(e, K.Const):
        return e.dtype in _INT_DTYPES
    if isinstance(e, K.Special):
        return True
    if isinstance(e, K.Cast):
        return e.dtype in _INT_DTYPES
    if isinstance(e, K.Bin):
        return _intlike(e.a) and _intlike(e.b)
    if isinstance(e, K.Un):
        return _intlike(e.a)
    return False


def _fold_expr(e: K.Expr) -> K.Expr:
    if not isinstance(e, K.Bin):
        return e
    a, b = e.a, e.b
    # integer identities (exact; float identities are not bit-safe:
    # -0.0 + 0.0 == +0.0 and NaN*0 != 0 — and mixed int/float promotes,
    # so the surviving operand must itself be integer-typed)
    if e.op == "+":
        if _is_int_const(b, 0) and _intlike(a):
            return a
        if _is_int_const(a, 0) and _intlike(b):
            return b
    if e.op == "*":
        if _is_int_const(b, 1) and _intlike(a):
            return a
        if _is_int_const(a, 1) and _intlike(b):
            return b
        if _is_int_const(b, 0) and _intlike(a):
            return b
        if _is_int_const(a, 0) and _intlike(b):
            return a
    if e.op in ("+", "-", "*") and _is_int_const(a) and _is_int_const(b) \
            and a.dtype is b.dtype:
        import numpy as np
        with np.errstate(over="ignore"):
            av = a.dtype.np.type(a.value)
            bv = b.dtype.np.type(b.value)
            v = {"+": av + bv, "-": av - bv, "*": av * bv}[e.op]
        return K.Const(v, a.dtype)
    return e


def _rebuild_exprs(s: K.Stmt, fn) -> K.Stmt:
    """``s`` with ``fn`` mapped over its expressions (``s`` itself when
    every expression comes back unchanged)."""
    names = K.EXPR_FIELDS.get(type(s), ())
    new = {f: K.map_expr(getattr(s, f), fn) for f in names}
    if all(new[f] is getattr(s, f) for f in names):
        return s
    return dataclasses.replace(s, **new)


def _drop_dead_overwrites(stmts: tuple[K.Stmt, ...],
                          counter) -> tuple[tuple, set[str]]:
    """Remove ``Assign(x, e)`` overwritten in the same block before any
    read of ``x`` (catches the firstprivate materialization of reduction
    scalars that the reduction entry immediately resets to the identity).

    Returns the new block and the registers the input block reads,
    nested blocks included.  One backward pass per block tracks whether
    each register's next event is a read (in any statement's subtree) or
    an unconditional overwrite; nested writes are guarded, so no event.
    """
    blocks, reads = [], []
    for s in stmts:
        r = K.stmt_reads(s)
        new = {}
        for f in K.BLOCK_FIELDS.get(type(s), ()):
            block, rb = _drop_dead_overwrites(getattr(s, f), counter)
            r |= rb
            if block is not getattr(s, f):
                new[f] = block
        if new:
            s = dataclasses.replace(s, **new)
        blocks.append(s)
        reads.append(r)

    overwrite: dict[str, bool] = {}
    out = []
    for s, r in zip(reversed(blocks), reversed(reads)):
        if isinstance(s, K.Assign) and overwrite.get(s.dst):
            counter[0] += 1
        else:
            out.append(s)
        w = K.stmt_writes(s)
        if w is not None:
            overwrite[w] = True
        overwrite.update(dict.fromkeys(r, False))
    out.reverse()
    block_reads = set().union(*reads)
    if len(out) == len(stmts) and all(map(operator.is_, out, stmts)):
        return stmts, block_reads
    return tuple(out), block_reads


def _drop_dead_temps(body: tuple[K.Stmt, ...], counter) -> tuple:
    """Remove every pure ``Assign`` whose register no surviving statement
    reads, with a use-count worklist: dropping a dead register's
    assignments releases their reads.  Loads are never removed — their
    memory-counter side effects are modeled cost.
    """
    uses: dict[str, int] = {}
    defs: dict[str, list[set[str]]] = {}
    for s, _ in K.walk_stmts(body):
        r = K.stmt_reads(s)
        for reg in r:
            uses[reg] = uses.get(reg, 0) + 1
        if isinstance(s, K.Assign):
            defs.setdefault(s.dst, []).append(r)

    work = [reg for reg in defs if not uses.get(reg)]
    dead: set[str] = set()
    while work:
        reg = work.pop()
        if reg in dead:
            continue
        dead.add(reg)
        for r in defs[reg]:
            for x in r:
                uses[x] -= 1
                if not uses[x] and x in defs:
                    work.append(x)
    if not dead:
        return body
    counter[0] += sum(len(defs[reg]) for reg in dead)
    return K.transform_block(
        body, lambda s: None if isinstance(s, K.Assign) and s.dst in dead
        else s)


def fold_kernel(kernel: K.Kernel) -> tuple[K.Kernel, int]:
    """Constant-fold + dead-temp + dead-overwrite one kernel.

    Returns the rewritten kernel (``kernel`` itself when nothing
    changed) and a count of changes applied.
    """
    changes = [0]

    def fold(e):
        f = _fold_expr(e)
        if f is not e:
            changes[0] += 1
        return f

    body = K.transform_block(kernel.body,
                             lambda s: _rebuild_exprs(s, fold))
    body, _ = _drop_dead_overwrites(body, changes)
    body = _drop_dead_temps(body, changes)
    if changes[0]:
        kernel = dataclasses.replace(kernel, body=body)
    return kernel, changes[0]


@register_pass("fold-constants", "kernelopt",
               "integer constant folding, dead temps, dead overwrites")
def run_fold_constants(state: CompileState):
    total = 0

    def rewrite(kernel):
        nonlocal total
        kernel, n = fold_kernel(kernel)
        total += n
        return kernel

    state.lowered = _map_kernels(state.lowered, rewrite)
    return f"{total} rewrite(s)"


# --------------------------------------------------------------------------
# fuse-finish (RedFuser-style finish-kernel fusion)
# --------------------------------------------------------------------------

def _fused_epilogue(gi: int, g, n: int, fbs: int, ntid: int,
                    arr: str, elide_warp_sync: bool) -> list[K.Stmt]:
    """The last-block epilogue emulating ``g``'s finish kernel.

    Thread ``t`` owns virtual lanes ``t, t+ntid, t+2·ntid, …  < fbs`` and
    replays, lane for lane, exactly what finish-thread ``lane`` would do:
    strided accumulation over the ``n`` partials, then the interleaved
    log-step tree over ``fbs`` staged values.  Identical lane→value
    mapping ⇒ identical combination order ⇒ bit-identical result.
    """
    op, dtype = g.op, g.dtype
    tid = K.Special("tid")
    nlanes = -(-fbs // ntid)  # virtual lanes per thread (ceil)

    def lane(k: int) -> K.Expr:
        return tid if k == 0 else K.Bin("+", tid, K.const_int(k * ntid))

    out: list[K.Stmt] = [
        K.Comment(f"fused finish kernel: reduce the {n} partials of "
                  f"{g.var!r} in the last block"),
    ]
    # per-lane strided accumulation + staging (finish kernel's While loop)
    for k in range(nlanes):
        acc, iv, ld = (f"_ff{gi}k{k}_acc", f"_ff{gi}k{k}_i",
                       f"_ff{gi}k{k}_ld")
        seq: tuple[K.Stmt, ...] = (
            K.Assign(acc, op.identity_const(dtype)),
            K.Assign(iv, lane(k)),
            K.While(K.Bin("<", K.Reg(iv), K.const_int(n)), (
                K.GLoad(ld, g.partial_buf, K.Reg(iv)),
                K.Assign(acc, op.combine(K.Reg(acc), K.Reg(ld), dtype)),
                K.Assign(iv, K.Bin("+", K.Reg(iv), K.const_int(fbs))),
            )),
            K.SStore(arr, lane(k), K.Reg(acc)),
        )
        if (k + 1) * ntid > fbs:  # this lane does not exist on all threads
            out.append(K.If(K.Bin("<", lane(k), K.const_int(fbs)), seq))
        else:
            out.extend(seq)

    t1, t2 = f"_ff{gi}_a", f"_ff{gi}_b"

    def combine_at(dst: K.Expr, src: K.Expr, active: K.Expr) -> K.Stmt:
        return K.If(active, (
            K.SLoad(t1, arr, dst),
            K.SLoad(t2, arr, src),
            K.SStore(arr, dst, op.combine(K.Reg(t1), K.Reg(t2), dtype)),
        ))

    out.append(K.Sync())  # order the staging stores before the tree

    p = prev_pow2(fbs)
    rem = fbs - p
    if rem:
        for k in range(nlanes):
            out.append(combine_at(lane(k),
                                  K.Bin("+", lane(k), K.const_int(p)),
                                  K.Bin("<", lane(k), K.const_int(rem))))
        if not elide_warp_sync or max(rem, p // 2) > 32:
            out.append(K.Sync())
    s = p // 2
    while s >= 1:
        for k in range(nlanes):
            if k * ntid >= s:
                break  # no thread owns an active lane at this k
            out.append(combine_at(lane(k),
                                  K.Bin("+", lane(k), K.const_int(s)),
                                  K.Bin("<", lane(k), K.const_int(s))))
        # a sync after step s orders the writes of lanes < s before the
        # next step's cross-lane reads; lanes < s live on threads < s, so
        # for s <= 32 those threads are one warp and the barrier is
        # elidable exactly as in the separate finish kernel (§3.1.2)
        if s > 1 and (not elide_warp_sync or s > 32):
            out.append(K.Sync())
        s //= 2

    out.append(K.If(K.Bin("==", tid, K.const_int(0)), (
        K.SLoad(f"_ff{gi}_res", arr, K.const_int(0)),
        K.GStore(g.result_buf, K.const_int(0), K.Reg(f"_ff{gi}_res")),
    )))
    return out


def fuse_finish_kernels(lowered, device) -> tuple[object, list[str]]:
    """Fuse every eligible finish kernel into the main kernel.

    Eligible: a buffer-style gang reduction (has a finish kernel) whose
    staged tree fits the device's shared-memory budget alongside the main
    kernel's existing arrays.  Returns the rewritten program and the list
    of fused reduction variables.
    """
    geom = lowered.geometry
    opts = lowered.options
    main = lowered.main_kernel
    sizes = {sb.name: sb.size for sb in lowered.scratch}

    body = list(main.body)
    shared = list(main.shared)
    buffers = set(main.buffers)
    specs = []
    fused: list[str] = []

    def skip(g, reason: str, **kw) -> None:
        tl = _timeline.current()
        if tl is not None:
            tl.decision("passes", f"fuse-finish:{g.var}", fused=False,
                        reason=reason, **kw)

    for gi, g in enumerate(lowered.gang_reductions):
        n = sizes.get(g.partial_buf)
        if g.finish_kernel is None or n is None:
            specs.append(g)
            continue
        if g.is_pair:
            # the epilogue replays a scalar combine tree; a pair's
            # conditional value-index combine has no logstep replay
            skip(g, "pair-reduction")
            specs.append(g)
            continue
        if g.stage != 0:
            # the partials only exist after the producing stage runs,
            # which is after the main kernel — nothing to fuse into here
            # (the cascade-fusion pass owns cross-stage folding)
            skip(g, "non-main-stage", stage=g.stage)
            specs.append(g)
            continue
        fbs = opts.finish_block_size
        arr = f"_sfin_{g.dtype.value}"
        new_shared = list(shared)
        if all(sa.name != arr for sa in new_shared):
            # overlays with the dead block-reduction buffers ("red"
            # group): the epilogue runs after their last use
            new_shared.append(K.SharedArraySpec(arr, g.dtype, fbs,
                                                overlay="red"))
        probe = dataclasses.replace(main, shared=tuple(new_shared))
        if probe.shared_bytes > device.shared_mem_per_block:
            skip(g, "shared-overflow", needed_bytes=probe.shared_bytes,
                 budget_bytes=device.shared_mem_per_block)
            specs.append(g)
            continue
        shared = new_shared
        body.append(K.If(
            K.Bin("==", K.Special("bx"), K.const_int(geom.num_gangs - 1)),
            tuple(_fused_epilogue(gi, g, n, fbs,
                                  geom.threads_per_block, arr,
                                  opts.elide_warp_sync))))
        buffers.add(g.result_buf)
        specs.append(dataclasses.replace(g, finish_kernel=None))
        fused.append(g.var)

    if not fused:
        return lowered, fused
    note = main.note
    note += ("; " if note else "") + \
        f"fused finish kernel(s): {', '.join(fused)}"
    new_main = dataclasses.replace(
        main, body=tuple(body), shared=tuple(shared),
        buffers=tuple(sorted(buffers)), note=note)
    return dataclasses.replace(lowered, main_kernel=new_main,
                               gang_reductions=specs), fused


@register_pass("fuse-finish", "kernelopt",
               "fold gang-reduction finish kernels into the main kernel "
               "as a last-block epilogue (RedFuser-style)")
def run_fuse_finish(state: CompileState):
    state.lowered, fused = fuse_finish_kernels(state.lowered, state.device)
    if not fused:
        return "no fusable finish kernels"
    return f"fused: {', '.join(fused)}"
