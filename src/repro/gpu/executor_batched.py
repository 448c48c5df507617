"""Batched-block executor: every block of a launch advances at once.

The reference executor (:mod:`repro.gpu.executor`) walks grid blocks one
at a time, so the Python statement-dispatch overhead scales with
``grid_dim`` even though blocks are independent by construction — the
premise of the gang level.  This module re-compiles the same kernel IR
into closures over arrays with a **leading block axis**: registers and
masks are ``(blocks, threads)``, shared memory is ``(blocks, size)``,
``blockIdx.x`` is a ``(blocks, 1)`` column that broadcasts, and one NumPy
operation advances all blocks of a chunk through a statement.

The contract is *bit identity* with the reference path: reduction
results, every :class:`~repro.gpu.events.KernelStats` counter, and the
fault-injection sites (via per-block RNG substreams,
:mod:`repro.faults.injector`) are identical for any ``block_batch``.
The non-obvious part is the statement-level segment-reuse model, whose
per-slot cache chains *across* blocks in the reference executor; see
:meth:`~repro.gpu.memory.GlobalMemory._count_transactions_batched` and
:func:`~repro.gpu.memory.finalize_segment_reuse` for how the batched
accounting restores the chain exactly.

Control-flow accounting parity (each derived from the reference rules):

* ``warp_inst_slots`` — every statement charges the *sum* of a per-block
  active-warp vector ``aw``; blocks with no active lanes carry 0, which
  matches the reference executor never reaching the statement for them.
* divergence — per-block warp masks of both branch sides, summed.
* loop ``steps`` (the watchdog currency) — each batched loop iteration
  adds the number of blocks still iterating, so the launch total equals
  the reference sum of per-block trip counts.
* barriers — a barrier under a partially-active block raises
  :class:`~repro.errors.BarrierDivergenceError` exactly as the reference
  path; fully-inactive blocks are skipped (they never reached it).
"""

from __future__ import annotations

import numpy as np

from repro.errors import BarrierDivergenceError, SimulationError
from repro.gpu import kernelir as K
from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats, TraceEvent
from repro.gpu.executor import (
    ATOMIC_OPS, _assign, _attr_global, _compile_expr, _truthy,
    _watchdog_trip, _stmt_slots,
)
from repro.gpu.memory import (
    BatchedSharedMemory, GlobalMemory, finalize_segment_reuse,
)

__all__ = ["BatchedBlockEnv", "run_batched", "DEFAULT_BLOCK_BATCH",
           "BatchSafety", "analyze_batch_safety"]

#: default chunk size: bounds the working set ((blocks, threads) arrays)
#: while amortizing statement dispatch over enough blocks to win
DEFAULT_BLOCK_BATCH = 256


# --------------------------------------------------------------------------
# block-independence analysis
# --------------------------------------------------------------------------
#
# Batching is bit-identical only when blocks do not communicate through
# global memory during the launch.  The reference executor runs blocks in
# index order, so a kernel whose later blocks *read* what earlier blocks
# wrote (the auto-parallelizer's serialized-fallback kernels do exactly
# this) observes that ordering; lock-step batching would break it.  The
# analysis below proves independence statically where it can; buffers it
# cannot prove anything about become *checked* — the batched run tracks a
# per-location owner block and aborts to the reference path the moment
# two blocks actually touch the same location (see ``_BatchHazard``).
# Correctness first, speed wherever independence holds at runtime.

class _BatchHazard(Exception):
    """Raised mid-launch when checked blocks touch a common location.

    Internal control flow only: :meth:`CompiledKernel.run` catches it,
    restores the pre-launch buffer contents, and reruns the launch on the
    reference path.
    """

    def __init__(self, buf: str):
        super().__init__(buf)
        self.buf = buf


class BatchSafety:
    """Verdict of the static block-independence analysis for one kernel.

    ``batchable`` is the static verdict (``False`` only for atomic
    read-modify-write mixes, which the runtime check cannot protect).
    ``checked_bufs`` are buffers whose block-disjointness could not be
    proved — the batched executor verifies it dynamically per access and
    falls back on the first violation.  ``looped_atomic_bufs`` (atomics
    that may fire on several loop iterations — order-sensitive for
    floats) defer to launch time, when buffer dtypes are known.
    ``written_bufs`` is everything the kernel may mutate — the snapshot
    set for rolling back an aborted checked launch.

    ``counters_invariant`` says the launch counters are a function of the
    launch shape alone: no branch or loop condition and no global, shared
    or atomic index depends on loaded data.  ``key_params`` names the
    params that reach a condition or an index — with the geometry and
    the buffer layout, their values determine every counter, which is
    what lets :meth:`~repro.gpu.executor.CompiledKernel.run` memoize
    the counters of such kernels.
    """

    __slots__ = ("batchable", "reason", "checked_bufs",
                 "looped_atomic_bufs", "written_bufs",
                 "counters_invariant", "key_params")

    def __init__(self, batchable, reason="", checked_bufs=(),
                 looped_atomic_bufs=(), written_bufs=(),
                 counters_invariant=False, key_params=()):
        self.batchable = batchable
        self.reason = reason
        self.checked_bufs = tuple(checked_bufs)
        self.looped_atomic_bufs = tuple(looped_atomic_bufs)
        self.written_bufs = tuple(written_bufs)
        self.counters_invariant = counters_invariant
        self.key_params = tuple(key_params)


def _walk_expr(e, regs, specials, params=None):
    """Collect register names and thread-geometry specials of ``e`` (and
    its param names, when a ``params`` set is given)."""
    if isinstance(e, K.Reg):
        regs.add(e.name)
    elif isinstance(e, K.Special):
        specials.add(e.kind)
    elif isinstance(e, K.Param):
        if params is not None:
            params.add(e.name)
    elif isinstance(e, K.Bin):
        _walk_expr(e.a, regs, specials, params)
        _walk_expr(e.b, regs, specials, params)
    elif isinstance(e, (K.Un, K.Cast)):
        _walk_expr(e.a, regs, specials, params)
    elif isinstance(e, K.Call):
        for a in e.args:
            _walk_expr(a, regs, specials, params)
    elif isinstance(e, K.Select):
        _walk_expr(e.cond, regs, specials, params)
        _walk_expr(e.a, regs, specials, params)
        _walk_expr(e.b, regs, specials, params)
    # Const carries nothing


def analyze_batch_safety(kernel) -> BatchSafety:
    """Prove (or refuse to prove) that the kernel's blocks are independent.

    Hazard shapes and their disposition:

    * a buffer atomically updated *and* plainly stored or loaded — the
      reference path outright (owner tracking cannot describe an atomic's
      many writers);
    * an atomic inside a loop — exact for the integer operator set, but
      float combines are rounding-order-sensitive across iterations
      (decided at launch time from the buffer dtype);
    * a plainly-stored buffer that is also loaded, stored through a
      data-dependent index, or stored at a non-``blockIdx``-derived
      index — *checked*: the batched run tracks a per-location owner
      block and aborts to the reference path on the first cross-block
      touch.  Kernels that stage through a scratch buffer at
      block-partitioned indices (the testsuite's ``temp`` arrays) pass
      the runtime check and keep the fast path.

    Registers are tracked with a monotone taint pass iterated to a fixed
    point so values flowing around loop back-edges are caught (the body
    is flattened once, in program order, so later rounds only redo the
    set algebra).  The same pass yields the counter-invariance verdict:
    the taint lattice plus per-register param sets, read back over the
    flattened conditions and indices once they converge — a tainted
    register there makes the counters data-dependent, and the params
    they read become ``key_params``.
    """
    loaded, stored, atomics = set(), set(), set()
    tainted, blockvar = set(), set()          # register taint lattices
    scatter, uniform_store, looped_atomics = set(), set(), set()
    pdeps: dict[str, set] = {}                # register -> params it reads
    # (kind, dst register or stored buffer, registers read, reads
    # blockIdx, params read): "assign" defines dst; every other kind is a
    # condition or an index ("load" then taints dst, "store" classifies
    # the stored buffer).  Tuples, not sets: the list lives through the
    # whole fixed point, so it stays small for the garbage collector
    ops: list[tuple] = []

    def op(kind, dst, e):
        regs, spec, prm = set(), set(), set()
        _walk_expr(e, regs, spec, prm)
        ops.append((kind, dst, tuple(regs), "bx" in spec, tuple(prm)))

    def flatten(stmts, in_loop):
        for s in stmts:
            if isinstance(s, K.Assign):
                op("assign", s.dst, s.value)
            elif isinstance(s, K.GLoad):
                loaded.add(s.buf)
                op("load", s.dst, s.index)
            elif isinstance(s, K.SLoad):
                # shared memory is per-block, but its contents may have
                # come from global loads — taint conservatively
                op("load", s.dst, s.index)
            elif isinstance(s, K.SStore):
                op("index", None, s.index)
            elif isinstance(s, K.ShflDown):
                op("assign", s.dst, K.Reg(s.src))
            elif isinstance(s, K.GStore):
                stored.add(s.buf)
                op("store", s.buf, s.index)
            elif isinstance(s, K.AtomicUpdate):
                atomics.add(s.buf)
                if in_loop:
                    looped_atomics.add(s.buf)
                op("index", None, s.index)
            elif isinstance(s, K.If):
                op("cond", None, s.cond)
                flatten(s.then, in_loop)
                flatten(s.orelse, in_loop)
            elif isinstance(s, (K.While, K.UniformWhile)):
                op("cond", None, s.cond)
                flatten(s.body, True)
            # Sync / Comment don't move the verdict

    def lattices():
        return (len(tainted), len(blockvar), len(scatter),
                len(uniform_store), sum(map(len, pdeps.values())))

    flatten(kernel.body, False)
    while True:
        before = lattices()
        for kind, dst, regs, bx, prm in ops:
            if kind == "assign":
                if not tainted.isdisjoint(regs):
                    tainted.add(dst)
                if bx or not blockvar.isdisjoint(regs):
                    blockvar.add(dst)
                if prm or not pdeps.keys().isdisjoint(regs):
                    deps = pdeps.setdefault(dst, set())
                    deps.update(prm)
                    for r in regs:
                        if r in pdeps:
                            deps |= pdeps[r]
            elif kind == "load":
                tainted.add(dst)
            elif kind == "store":
                if not tainted.isdisjoint(regs):
                    scatter.add(dst)
                if not bx and blockvar.isdisjoint(regs):
                    uniform_store.add(dst)
        if lattices() == before:
            break

    # over the converged lattices: a condition or an index that reads
    # loaded data makes the counters data-dependent, and the params it
    # reads, directly or through registers, are the memo's key params
    data_dep = False
    key_params: set[str] = set()
    for kind, _, regs, _, prm in ops:
        if kind != "assign":
            data_dep = data_dep or not tainted.isdisjoint(regs)
            key_params.update(prm)
            for r in regs:
                if r in pdeps:
                    key_params |= pdeps[r]

    invariant = dict(counters_invariant=not data_dep,
                     key_params=sorted(key_params))
    rw = sorted((atomics & loaded) | (stored & atomics))
    if rw:
        return BatchSafety(False, f"buffer(s) {rw} mix atomics with plain "
                                  "accesses (cross-block ordering)",
                           **invariant)
    checked = (stored & loaded) | scatter | uniform_store
    return BatchSafety(True, checked_bufs=sorted(checked),
                       looped_atomic_bufs=sorted(looped_atomics),
                       written_bufs=sorted(stored | atomics), **invariant)


class BatchedBlockEnv:
    """Mutable state of one executing *chunk* of thread blocks.

    Field-compatible with :class:`~repro.gpu.executor.BlockEnv` where the
    expression compiler cares (``tid``/``tx``/``ty`` stay ``(threads,)``
    and broadcast; ``bx`` is ``(blocks, 1)``), so the scalar expression
    closures run unchanged on the block-axis arrays.
    """

    __slots__ = (
        "regs", "tx", "ty", "tid", "bx", "bdx", "bdy", "gdx", "ntid",
        "warp_starts", "nwarps", "warpkey", "block_of", "rows", "block_ids",
        "gmem", "smem", "stats", "params", "block_mask", "trace",
        "block_index", "seg_cache", "kernel_name", "steps",
        "watchdog_budget", "stuck", "check", "attr", "acct",
    )

    def __init__(self, bdx: int, bdy: int, gdx: int, block_ids: np.ndarray,
                 gmem: GlobalMemory, stats: KernelStats, params: dict,
                 warp_size: int, trace: bool):
        n = bdx * bdy
        nb = len(block_ids)
        tid = np.arange(n, dtype=np.int32)
        self.tid = tid
        self.tx = (tid % bdx).astype(np.int32)
        self.ty = (tid // bdx).astype(np.int32)
        self.bdx = np.int32(bdx)
        self.bdy = np.int32(bdy)
        self.gdx = np.int32(gdx)
        self.ntid = np.int32(n)
        self.bx = block_ids.astype(np.int32).reshape(nb, 1)
        warp_of = (tid // warp_size).astype(np.int64)
        self.warp_starts = np.arange(0, n, warp_size)
        self.nwarps = len(self.warp_starts)
        # block-qualified warp ids: distinct across the chunk's blocks so
        # (warp, segment) request keys never merge between blocks
        self.warpkey = (np.arange(nb, dtype=np.int64)[:, None]
                        * self.nwarps + warp_of[None, :])
        self.block_of = np.broadcast_to(
            block_ids.astype(np.int64)[:, None], (nb, n))
        self.rows = np.broadcast_to(np.arange(nb)[:, None], (nb, n))
        self.block_ids = block_ids
        self.gmem = gmem
        self.smem = None
        self.stats = stats
        self.params = params
        self.block_mask = np.ones((nb, n), dtype=bool)
        self.regs: dict[str, np.ndarray] = {}
        self.trace = trace
        self.block_index = int(block_ids[0])
        self.seg_cache: dict = {}
        self.kernel_name = ""
        self.steps = 0
        self.watchdog_budget: float = float("inf")
        self.stuck = False
        #: per-buffer owner-block arrays for checked launches (or None)
        self.check: dict | None = None
        #: opt-in per-statement AttributionTable (shared with the launch
        #: stats; None = accounting off)
        self.attr = None
        #: where global-memory transactions are counted: the launch stats,
        #: or None on a values-only (counter-memo hit) launch
        self.acct = stats


def _warps_per_block(env: BatchedBlockEnv, mask: np.ndarray) -> np.ndarray:
    """Active-warp count per block, as an int64 ``(blocks,)`` vector."""
    t = np.add.reduceat(mask, env.warp_starts, axis=1) > 0
    return t.sum(axis=1)


#: thread-geometry specials that vary across the lanes of one block
_LANE_SPECIALS = frozenset({"tx", "ty", "tid"})


def _lane_uniform_stmts(kernel) -> frozenset:
    """ids of GLoad/GStore statements with a per-block-uniform index.

    A register is *row-uniform* when every assignment to it is (a) of a
    row-uniform expression and (b) not under lane-divergent control —
    then all lanes of a block always hold the same value.  An index
    built only from row-uniform registers, ``blockIdx``-derived
    specials, params, and constants names one location per block
    (broadcast reads like ``temp[k][0][0]``, per-block result stores),
    so the runtime hazard check and the transaction dedup can run on one
    representative per block instead of every lane.  Divergence of a
    loop is judged from its condition; the fixed point makes values
    flowing around back-edges converge.
    """
    varying: set[str] = set()

    def is_varying(e) -> bool:
        regs, specs = set(), set()
        _walk_expr(e, regs, specs)
        return bool(specs & _LANE_SPECIALS) or bool(regs & varying)

    def visit(stmts, div):
        for s in stmts:
            if isinstance(s, K.Assign):
                if div or is_varying(s.value):
                    varying.add(s.dst)
            elif isinstance(s, (K.GLoad, K.SLoad, K.ShflDown)):
                varying.add(s.dst)
            elif isinstance(s, K.If):
                d = div or is_varying(s.cond)
                visit(s.then, d)
                visit(s.orelse, d)
            elif isinstance(s, (K.While, K.UniformWhile)):
                visit(s.body, div or is_varying(s.cond))

    while True:
        before = len(varying)
        visit(kernel.body, False)
        if len(varying) == before:
            break

    out: set[int] = set()

    def collect(stmts):
        for s in stmts:
            if isinstance(s, (K.GLoad, K.GStore)) \
                    and not is_varying(s.index):
                out.add(id(s))
            elif isinstance(s, K.If):
                collect(s.then)
                collect(s.orelse)
            elif isinstance(s, (K.While, K.UniformWhile)):
                collect(s.body)

    collect(kernel.body)
    return frozenset(out)


def _compact_env(env: BatchedBlockEnv, idx: np.ndarray) -> BatchedBlockEnv:
    """Clone ``env`` with the block axis sliced to rows ``idx``.

    Used by the loop statements once most blocks of a chunk have exited:
    the per-statement NumPy cost then tracks the *live* block count
    instead of the chunk width.  Shared memory is NOT sliced — ``rows``
    keeps the original chunk-row index per surviving block, so shared
    accesses land in the right rows of the full ``(chunk, size)`` arrays.
    All id-carrying fields (``bx``, ``warpkey``, ``block_of``,
    ``block_ids``) hold absolute values, so counters, segment-reuse tags
    and fault RNG substreams are unaffected by the slice.
    """
    sub = BatchedBlockEnv.__new__(BatchedBlockEnv)
    sub.tid, sub.tx, sub.ty = env.tid, env.tx, env.ty
    sub.bdx, sub.bdy, sub.gdx, sub.ntid = env.bdx, env.bdy, env.gdx, env.ntid
    sub.warp_starts, sub.nwarps = env.warp_starts, env.nwarps
    sub.bx = env.bx[idx]
    sub.warpkey = env.warpkey[idx]
    sub.block_of = env.block_of[idx]
    sub.rows = env.rows[idx]
    sub.block_ids = env.block_ids[idx]
    sub.gmem, sub.smem, sub.stats = env.gmem, env.smem, env.stats
    sub.params = env.params
    sub.block_mask = env.block_mask[idx]
    sub.regs = {name: reg[idx] for name, reg in env.regs.items()}
    sub.trace = env.trace
    sub.block_index = env.block_index
    sub.seg_cache = env.seg_cache
    sub.kernel_name = env.kernel_name
    sub.steps = env.steps
    sub.watchdog_budget = env.watchdog_budget
    sub.stuck = env.stuck
    sub.check = env.check
    sub.attr = env.attr
    sub.acct = env.acct
    return sub


def _expand_env(env: BatchedBlockEnv, sub: BatchedBlockEnv,
                idx: np.ndarray) -> None:
    """Scatter a compacted environment's registers back into ``env``.

    Rows outside ``idx`` had no active lanes while ``sub`` ran, so their
    register values are untouched — exactly what the reference executor
    leaves for a block that already exited the loop.  Registers first
    assigned inside the loop materialize at full width here, zero-filled
    where never written, matching ``_assign`` on an uncompacted chunk.
    """
    env.steps = sub.steps
    for name, sreg in sub.regs.items():
        full = env.regs.get(name)
        if full is None or full.dtype != sreg.dtype:
            base = np.zeros(env.block_mask.shape, dtype=sreg.dtype)
            if full is not None:
                np.copyto(base, full, casting="unsafe")
            env.regs[name] = base
            full = base
        full[idx] = sreg


# --------------------------------------------------------------------------
# statement compilation (block-axis variants of executor._compile_stmt)
# --------------------------------------------------------------------------

def _compile_stmt_batched(s: K.Stmt, device: DeviceProperties,
                          uniform_ids: frozenset = frozenset(),
                          slot_sids: dict | None = None):
    """Compile one statement to ``fn(env, mask, aw, aws)`` over a chunk.

    ``mask`` is ``(blocks, threads)`` bool; ``aw`` is the per-block
    active-warp vector of the enclosing region (0 for blocks that the
    reference executor would not run the statement for) and ``aws`` its
    precomputed total — the region runner sums ``aw`` once so straight-
    line statements don't each pay the reduction.  ``uniform_ids`` holds
    the :func:`_lane_uniform_stmts` verdicts; ``slot_sids`` maps each
    global access's segment-reuse slot back to its stamped ``sid`` (for
    the launch-end reuse correction's per-statement attribution).

    Attribution parity with the reference executor: ``execs`` counts
    blocks with at least one active lane (the reference closure runs
    exactly once per such block), ``lanes``/``warp_slots`` are the lane
    and warp-slot sums the reference path accumulates block by block,
    and the counter deltas around each memory access distribute the same
    totals because the accounting calls are shared.
    """
    sid = s.sid
    if isinstance(s, K.Comment):
        return lambda env, mask, aw, aws: None

    if isinstance(s, K.Assign):
        fv = _compile_expr(s.value)
        name = s.dst
        def do_assign(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            _assign(env, name, fv(env), mask)
        return do_assign

    if isinstance(s, K.GLoad):
        fi = _compile_expr(s.index)
        name, buf = s.dst, s.buf
        uni = id(s) in uniform_ids
        slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid
        def do_gload(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
                fr = env.gmem.faults
                f0 = len(fr.records) if fr is not None else 0
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            act = blk = reps = None
            if uni:
                # statically per-block-uniform index: one representative
                # (the first active lane) stands in for every lane of its
                # block, both for the hazard check and for transaction
                # counting (the block touches exactly one segment)
                rows = np.flatnonzero(mask.any(axis=1))
                rep = idx[rows, mask.argmax(axis=1)[rows]]
                rblk = env.block_ids[rows]
                reps = (rep, rblk)
            if env.check is not None and (state := env.check.get(buf)) \
                    is not None:
                # reading a location a *later* block wrote breaks the
                # sequential block order — abort to the reference path.
                # Reads of locations owned by an earlier block are fine
                # one-sided: in reference block order the earlier block
                # has already stored, and the lockstep chunk replay
                # executes its store statement before this load; the
                # read is recorded in ``maxread`` below, so a subsequent
                # same-chunk *store* by any block ≤ the reader still
                # trips the store-side hazard check.  (This is what lets
                # the fused finish-kernel epilogue — last block reads
                # every gang's partials — stay on the batched path.)
                # Out-of-range indices are clamped here; the load itself
                # raises the real OutOfBoundsError just below.
                owners, maxread = state
                if not uni:
                    act = idx[mask]
                    blk = np.repeat(env.block_ids,
                                    np.count_nonzero(mask, axis=1))
                    rep, rblk = act, blk
                ci = np.minimum(rep, owners.size - 1)
                own = owners[ci]
                if ((own != -1) & (own > rblk)).any():
                    raise _BatchHazard(buf)
                # rblk is non-decreasing along the flattened (block,
                # thread) order, so last-write-wins fancy assignment
                # leaves the per-location max — much cheaper than
                # ``np.maximum.at``'s scalar inner loop
                maxread[ci] = np.maximum(rblk, maxread[ci])
            out = env.gmem.load_batched(
                buf, idx, mask, env.warpkey, env.block_of, env.block_ids,
                env.acct, reuse=(env.seg_cache, slot), act=act,
                act_block=blk, reps=reps)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                _attr_global(r, st, g0, l0, b0, d0)
                if fr is not None:
                    r.fault_events += len(fr.records) - f0
            _assign(env, name, out, mask)
            if env.trace:
                trace = env.stats.trace
                for b in env.block_ids[mask.any(axis=1)]:
                    trace.append(TraceEvent("gload", int(b), buf))
        return do_gload

    if isinstance(s, K.GStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        uni = id(s) in uniform_ids
        slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid
        def do_gstore(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            val = np.asarray(fv(env))
            if val.shape != mask.shape:
                val = np.broadcast_to(val, mask.shape)
            act = blk = reps = None
            if uni:
                rows = np.flatnonzero(mask.any(axis=1))
                rep = idx[rows, mask.argmax(axis=1)[rows]]
                rblk = env.block_ids[rows]
                reps = (rep, rblk)
            if env.check is not None and (state := env.check.get(buf)) \
                    is not None:
                # claim locations for the writing block.  Hazards: the
                # location belongs to another block, or a higher block
                # already read it (sequentially that read runs *after*
                # this store and must see it).  Same-statement first-write
                # collisions need no flag: the highest block wins in both
                # executors.
                owners, maxread = state
                if not uni:
                    act = idx[mask]
                    blk = np.repeat(env.block_ids,
                                    np.count_nonzero(mask, axis=1))
                    rep, rblk = act, blk
                ci = np.minimum(rep, owners.size - 1)
                own = owners[ci]
                if ((own != -1) & (own != rblk)).any():
                    raise _BatchHazard(buf)
                if (maxread[ci] > rblk).any():
                    raise _BatchHazard(buf)
                owners[ci] = rblk
            env.gmem.store_batched(
                buf, idx, val, mask, env.warpkey, env.block_of, env.acct,
                reuse=(env.seg_cache, slot), act=act, act_block=blk,
                reps=reps)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                _attr_global(r, st, g0, l0, b0, d0)
            if env.trace:
                trace = env.stats.trace
                for b in env.block_ids[mask.any(axis=1)]:
                    trace.append(TraceEvent("gstore", int(b), buf))
        return do_gstore

    if isinstance(s, K.SLoad):
        fi = _compile_expr(s.index)
        name, arr = s.dst, s.arr
        def do_sload(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                s0, c0 = st.shared_accesses, st.bank_conflict_extra
                fr = env.smem.faults
                f0 = len(fr.records) if fr is not None else 0
            out = env.smem.load(arr, idx, mask, env.warpkey, env.rows)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.shared_accesses += st.shared_accesses - s0
                r.bank_conflict_extra += st.bank_conflict_extra - c0
                if fr is not None:
                    r.fault_events += len(fr.records) - f0
            _assign(env, name, out, mask)
        return do_sload

    if isinstance(s, K.SStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        arr = s.arr
        def do_sstore(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            val = np.asarray(fv(env))
            if val.shape != mask.shape:
                val = np.broadcast_to(val, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                s0, c0 = st.shared_accesses, st.bank_conflict_extra
            env.smem.store(arr, idx, val, mask, env.warpkey, env.rows)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.shared_accesses += st.shared_accesses - s0
                r.bank_conflict_extra += st.bank_conflict_extra - c0
        return do_sstore

    if isinstance(s, K.If):
        fc = _compile_expr(s.cond)
        fthen = _compile_block_batched(s.then, device, uniform_ids,
                                       slot_sids)
        felse = _compile_block_batched(s.orelse, device, uniform_ids,
                                       slot_sids) if s.orelse else None
        def do_if(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            c = _truthy(np.asarray(fc(env)))
            if c.shape != mask.shape:
                c = np.broadcast_to(c, mask.shape)
            m_then = mask & c
            m_else = mask & ~c
            t = np.add.reduceat(m_then, env.warp_starts, axis=1) > 0
            e = np.add.reduceat(m_else, env.warp_starts, axis=1) > 0
            d = int((t & e).sum())
            env.stats.divergent_branches += d
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.divergence_splits += d
            if m_then.any():
                fthen(env, m_then, t.sum(axis=1))
            if felse is not None and m_else.any():
                felse(env, m_else, e.sum(axis=1))
        return do_if

    if isinstance(s, K.While):
        fc = _compile_expr(s.cond)
        fbody = _compile_block_batched(s.body, device, uniform_ids,
                                       slot_sids)
        def do_while(env, mask, aw, aws):
            c = _truthy(np.asarray(fc(env)))
            if c.shape != mask.shape:
                c = np.broadcast_to(c, mask.shape)
            m = mask & c
            env.stats.warp_inst_slots += aws  # first check
            r = None
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            stack = []  # (parent env, kept rows) per compaction level
            live = m.any(axis=1)
            lc = int(live.sum())
            while lc:
                if lc * 2 <= m.shape[0]:
                    # most blocks have exited (m only ever shrinks):
                    # slice the working set to the live rows
                    idx = np.flatnonzero(live)
                    stack.append((env, idx))
                    env = _compact_env(env, idx)
                    m = m[idx]
                env.steps += lc
                if env.steps > env.watchdog_budget:
                    _watchdog_trip(env)
                maw = _warps_per_block(env, m)
                maws = int(maw.sum())
                fbody(env, m, maw, maws)
                c = _truthy(np.asarray(fc(env)))
                if c.shape != m.shape:
                    c = np.broadcast_to(c, m.shape)
                m2 = m & c
                if env.stuck:
                    # injected stuck warps: a block whose exit would fire
                    # keeps its previous mask — its loop never ends
                    dead = m.any(axis=1) & ~m2.any(axis=1)
                    if dead.any():
                        m2 = np.where(dead[:, None], m, m2)
                m = m2
                env.stats.warp_inst_slots += maws  # re-check
                if r is not None:
                    r.warp_slots += maws
                live = m.any(axis=1)
                lc = int(live.sum())
            for parent, idx in reversed(stack):
                _expand_env(parent, env, idx)
                env = parent
        return do_while

    if isinstance(s, K.UniformWhile):
        fc = _compile_expr(s.cond)
        fbody = _compile_block_batched(s.body, device, uniform_ids,
                                       slot_sids)
        def do_uwhile(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            live = mask.any(axis=1)
            r = None
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(live.sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            if not live.any():
                return
            stack = []  # (parent env, kept rows) per compaction level
            while True:
                env.steps += int(live.sum())
                if env.steps > env.watchdog_budget:
                    _watchdog_trip(env)
                c = _truthy(np.asarray(fc(env)))
                if c.shape != mask.shape:
                    c = np.broadcast_to(c, mask.shape)
                if not env.stuck:
                    live = live & (mask & c).any(axis=1)
                lc = int(live.sum())
                if not lc:
                    break
                if lc * 2 <= mask.shape[0]:
                    # most blocks have left the loop (live only shrinks):
                    # slice the working set to the live rows
                    idx = np.flatnonzero(live)
                    stack.append((env, idx))
                    env = _compact_env(env, idx)
                    mask, aw, live = mask[idx], aw[idx], live[idx]
                bmask = mask & live[:, None]
                baw = np.where(live, aw, 0)
                baws = int(baw.sum())
                fbody(env, bmask, baw, baws)
                env.stats.warp_inst_slots += baws
                if r is not None:
                    r.warp_slots += baws
            for parent, idx in reversed(stack):
                _expand_env(parent, env, idx)
                env = parent
        return do_uwhile

    if isinstance(s, K.Sync):
        def do_sync(env, mask, aw, aws):
            anyb = mask.any(axis=1)
            allb = mask.all(axis=1)
            partial = anyb & ~allb
            if partial.any():
                bad = int(np.flatnonzero(partial)[0])
                raise BarrierDivergenceError(
                    "__syncthreads() executed under divergent control flow "
                    f"({int(mask[bad].sum())}/{mask.shape[1]} threads active)"
                )
            env.stats.barriers += int(anyb.sum())
            env.stats.warp_inst_slots += aws
            if env.attr is not None:
                r = env.attr.row(sid)
                arrived = int(anyb.sum())
                r.execs += arrived
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                r.barrier_arrivals += arrived
                r.barrier_wait_slots += aws
            if env.trace:
                trace = env.stats.trace
                for b in env.block_ids[anyb]:
                    trace.append(TraceEvent("sync", int(b), ""))
        return do_sync

    if isinstance(s, K.ShflDown):
        dst, src, delta = s.dst, s.src, s.delta
        ws = device.warp_size
        def do_shfl(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
            try:
                reg = env.regs[src]
            except KeyError:
                raise SimulationError(
                    f"register {src!r} read before assignment") from None
            n = reg.shape[-1]
            ar = np.arange(n)
            lane = ar % ws
            src_idx = np.where(lane + delta < ws,
                               np.minimum(ar + delta, n - 1), ar)
            _assign(env, dst, reg[:, src_idx], mask)
        return do_shfl

    if isinstance(s, K.AtomicUpdate):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        try:
            combine = ATOMIC_OPS[s.op]
        except KeyError:
            raise SimulationError(
                f"no atomic support for operator {s.op!r}") from None
        def do_atomic(env, mask, aw, aws):
            env.stats.warp_inst_slots += aws
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            val = np.asarray(fv(env))
            if val.shape != mask.shape:
                val = np.broadcast_to(val, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
            # ufunc.at applies duplicates in flattened (block, thread)
            # order — the same combine order as blocks run one at a time
            env.gmem.atomic_update(buf, idx, val, mask, env.warpkey,
                                   env.stats, combine)
            if a is not None:
                r = a.row(sid)
                r.execs += int(mask.any(axis=1).sum())
                r.lanes += int(mask.sum())
                r.warp_slots += aws
                _attr_global(r, st, g0, l0, b0, d0)
                r.atomic_rounds += st.global_transactions - g0
        return do_atomic

    raise SimulationError(f"unknown statement node {s!r}")


def _compile_block_batched(stmts: tuple, device: DeviceProperties,
                           uniform_ids: frozenset = frozenset(),
                           slot_sids: dict | None = None):
    fns = [_compile_stmt_batched(s, device, uniform_ids, slot_sids)
           for s in stmts]
    def run(env, mask, aw, aws=None):
        if aws is None:
            aws = int(aw.sum())
        for f in fns:
            f(env, mask, aw, aws)
    return run


# --------------------------------------------------------------------------
# launch driver
# --------------------------------------------------------------------------

def run_batched(ck, gmem: GlobalMemory, grid_dim: int,
                block_dim: tuple[int, int], stats: KernelStats,
                params: dict, trace: bool, faults, budget: float,
                stuck: bool, block_batch: int | None,
                check: dict | None = None,
                count: bool = True) -> KernelStats:
    """Execute a validated launch over block chunks of ``block_batch``.

    Called by :meth:`~repro.gpu.executor.CompiledKernel.run` after launch
    validation, fault-arming, and stats construction.  Results and
    counters are invariant under the chunk size: per-launch state (loop
    ``steps``, the segment-reuse cache keyed by absolute block ids)
    carries across chunks, and the cross-block reuse correction runs once
    at launch end.  ``count=False`` (a counter-memo hit) executes values
    only: transaction and bank accounting, the segment-reuse bookkeeping
    and its launch-end correction are skipped, so the memory counters of
    ``stats`` stay unset.
    """
    bdx, bdy = block_dim
    chunk = int(block_batch) if block_batch and block_batch > 0 \
        else DEFAULT_BLOCK_BATCH
    body = ck._batched_body
    if body is None:
        body = ck._batched_body = _compile_block_batched(
            ck.kernel.body, ck.device, _lane_uniform_stmts(ck.kernel),
            ck._slot_sids)
    acct = stats if count else None
    seg_cache: dict = {}
    steps = 0
    prev_faults = gmem.faults
    if faults is not None:
        gmem.faults = faults
    try:
        for start in range(0, grid_dim, chunk):
            ids = np.arange(start, min(start + chunk, grid_dim),
                            dtype=np.int64)
            env = BatchedBlockEnv(bdx, bdy, grid_dim, ids, gmem, stats,
                                  params, ck.device.warp_size, trace)
            env.smem = BatchedSharedMemory(
                ck.device, ck.kernel.shared, acct, len(ids),
                faults=faults, block_ids=ids)
            env.acct = acct
            env.seg_cache = seg_cache
            env.kernel_name = ck.kernel.name
            env.steps = steps
            env.watchdog_budget = budget
            env.stuck = stuck
            env.check = check
            env.attr = stats.attribution
            body(env, env.block_mask,
                 np.full(len(ids), env.nwarps, dtype=np.int64))
            steps = env.steps
            if check is not None and start + chunk < grid_dim:
                # chunk boundary: earlier chunks are complete and every
                # later block outranks them, so cross-chunk sharing is
                # sequential-consistent — reset the hazard state
                for owners, maxread in check.values():
                    owners.fill(-1)
                    maxread.fill(-1)
    finally:
        gmem.faults = prev_faults
    if count:
        finalize_segment_reuse(seg_cache, stats,
                               ck.device.transaction_bytes,
                               attr=stats.attribution,
                               slot_sids=ck._slot_sids)
    return stats
