"""The block-axis runtime of both fast executors, and the batched one.

The reference executor (:mod:`repro.gpu.executor`) walks grid blocks one
at a time, so the Python statement-dispatch overhead scales with
``grid_dim`` even though blocks are independent by construction — the
premise of the gang level.  Both fast executors instead run a *chunk* of
blocks at once over arrays with a **leading block axis**: registers and
masks are ``(blocks, threads)``, shared memory is ``(blocks, size)``,
``blockIdx.x`` is a ``(blocks, 1)`` column that broadcasts, and one
NumPy operation advances all blocks of a chunk through a statement.

This module holds what the two share, so each rule of the SIMT
accounting lives in one place:

* the block-independence proof (:func:`analyze_batch_safety`) and the
  lane/warp uniformity analysis (:func:`_uniform_stmts`);
* the chunk environment (:class:`BatchedBlockEnv`) with its row
  compaction (:func:`_compact_env` / :func:`_expand_env`);
* the access helpers — ``_gload``/``_gload_u``/``_gload_w``/``_gstore``/
  ``_sload``/``_sstore``/``_sync``/``_shfl`` with the hazard checks
  (``_check_read``/``_check_write``) and the access log
  (:class:`~repro.gpu.memory.AccessLog`) they append to;
* the control-flow helpers — ``_if`` (divergence split and branch
  compaction), ``_while`` and ``_uwhile`` (steps, watchdog, stuck warps,
  loop compaction), the region warp vector (``_warps_per_block``), the
  region charge (``_charge``: warp slots, barriers, attribution rows)
  and masked register assignment (``_set``);
* the scan-loop helper (:func:`_scan`), which runs a loop whose only
  loop-carried values are its induction and its accumulators
  (:func:`_scan_form`) along its iteration axis — one gather per load
  and one ordered fold per accumulator for all iterations — with the
  counters, checks and registers of the iterative loop, and hands any
  loop it cannot prove exact back to ``_while``;
* the chunk driver (:func:`_run_chunks`) with the log's folds and the
  launch-end segment-reuse correction.

The executors differ only in how they dispatch to the helpers: the
batched one (:func:`run_batched`) compiles the kernel IR into closures,
one per statement; the trace one (:mod:`repro.gpu.executor_trace`)
generates Python source that calls them.  A control-flow helper takes
its regions as callables: the batched block closures, or the functions
the generated source defines per region.  Fault hooks and
:class:`~repro.gpu.events.TraceEvent` collection are batched-only: the
closures apply them after the helper (launches that need them never run
the generated code).

The contract is *bit identity* with the reference path: reduction
results, every :class:`~repro.gpu.events.KernelStats` counter, and the
fault-injection sites (via per-block RNG substreams,
:mod:`repro.faults.injector`) are identical for any ``block_batch``.
The non-obvious part is the statement-level segment-reuse model, whose
per-slot cache chains *across* blocks in the reference executor; see
:meth:`~repro.gpu.memory.GlobalMemory._count_transactions_batched` and
:func:`~repro.gpu.memory.finalize_segment_reuse` for how the block-axis
accounting restores the chain exactly.

Control-flow accounting parity (each derived from the reference rules):

* ``warp_inst_slots`` — every statement charges the *sum* of a per-block
  active-warp vector ``aw``; blocks with no active lanes carry 0, which
  matches the reference executor never reaching the statement for them.
  A region charges all its statements at entry (:func:`_charge`): a
  launch that raises part-way discards its stats, so only complete
  launches are seen, and those reach every statement of every region
  they enter.
* divergence — per-block warp masks of both branch sides, summed.
* loop ``steps`` (the watchdog currency) — each batched loop iteration
  adds the number of blocks still iterating, so the launch total equals
  the reference sum of per-block trip counts; a scan loop adds each
  block's largest trip count at once, and each warp's largest trip
  count prices its warp slots.
* barriers — a barrier under a partially-active block raises
  :class:`~repro.errors.BarrierDivergenceError` exactly as the reference
  path; fully-inactive blocks are skipped (they never reached it).
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    BarrierDivergenceError, OutOfBoundsError, SimulationError,
)
from repro.gpu import kernelir as K
from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats, TraceEvent
from repro.gpu.executor import (
    ATOMIC_OPS, _BINOPS, _CALLS, _compile_expr, _truthy, _watchdog_trip,
    _stmt_slots,
)
from repro.gpu.memory import (
    AccessLog, BatchedSharedMemory, GlobalMemory, finalize_segment_reuse,
)

__all__ = ["BatchedBlockEnv", "run_batched", "DEFAULT_BLOCK_BATCH",
           "BatchSafety", "analyze_batch_safety"]

#: default chunk size: bounds the working set ((blocks, threads) arrays)
#: while amortizing statement dispatch over enough blocks to win
DEFAULT_BLOCK_BATCH = 256


def _chunk_size(block_batch: int | None) -> int:
    """The blocks per chunk a ``block_batch`` request runs at."""
    return int(block_batch) if block_batch and block_batch > 0 \
        else DEFAULT_BLOCK_BATCH


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
    the buffer layout, their values fix every address and every branch
    of the launch, hence every counter and also the bounds verdict and
    (per chunk size) the hazard verdict.  That is what lets
    :meth:`~repro.gpu.executor.CompiledKernel.run` memoize the counters
    of such kernels and skip, on a hit, the checks its counted launch
    already passed.
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
        "warp_starts", "nwarps", "warpkey", "rows", "block_ids",
        "gmem", "smem", "stats", "params", "block_mask", "trace",
        "block_index", "seg_cache", "kernel_name", "steps",
        "watchdog_budget", "stuck", "check", "attr", "log",
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
        #: the launch's :class:`~repro.gpu.memory.AccessLog`, which the
        #: access helpers append to; None on a values-only (counter-memo
        #: hit) launch
        self.log = None


def _warps_per_block(E: BatchedBlockEnv, m: np.ndarray, f: bool):
    """The region warp vector of mask ``m``: the active-warp count per
    block as an int64 ``(blocks,)`` vector, and its total.  A full mask
    (``f``) has every warp of every row active."""
    if f:
        nb = m.shape[0]
        return np.full(nb, E.nwarps, dtype=np.int64), nb * E.nwarps
    aw = (np.add.reduceat(m, E.warp_starts, axis=1) > 0).sum(axis=1)
    return aw, int(aw.sum())


#: per uniformity level: the thread-geometry specials that vary across
#: the lanes of one unit, the accesses the verdict covers, and whether
#: it also needs uniform control around them.  ``ty`` is constant within
#: a warp whenever ``blockDim.x`` is a multiple of the warp size — the
#: runtime guard (``WOK``) the generated code adds
_UNIFORMITY = {
    "block": (frozenset({"tx", "ty", "tid"}), (K.GLoad, K.GStore), False),
    "warp": (frozenset({"tx", "tid"}), (K.GLoad,), True),
}


def _uniform_stmts(kernel, level: str) -> frozenset:
    """ids of the global accesses whose index is uniform per ``level``.

    A register is *uniform* when every assignment to it is (a) of a
    uniform expression and (b) not under divergent control — then all
    lanes of a block (``"block"``) or of a warp (``"warp"``) always hold
    the same value.  Loads and shuffles make their destination varying;
    divergence of a loop is judged from its condition, and the fixed
    point makes values flowing around back-edges converge.

    ``"block"`` collects GLoads and GStores with a uniform index: one
    location per block (broadcast reads like ``temp[k][0][0]``,
    per-block result stores), so a full-mask load checks hazards and
    counts transactions on one representative per block
    (:func:`_gload_u`); stores take the per-lane helper, since no Table 2
    kernel stores a block-uniform index under a full mask.  ``"warp"``
    collects GLoads with a uniform index under uniform control: the
    representative helper (:func:`_gload_w`) runs on partial region
    masks too, and warp-uniform control makes each such mask constant
    within each warp (whole warps on or off).
    The ``"warp"`` verdict assumes ``ty`` is warp-uniform, which holds
    exactly when ``blockDim.x % warp_size == 0``; the generated code
    guards on that at runtime and falls back to the per-lane helper.
    """
    specials, kinds, control = _UNIFORMITY[level]
    varying: set[str] = set()
    out: set[int] = set()

    def is_varying(e) -> bool:
        regs, specs = set(), set()
        _walk_expr(e, regs, specs)
        return not (specials.isdisjoint(specs) and varying.isdisjoint(regs))

    def visit(stmts, div, collect):
        # a collection that ignores control need not judge divergence
        judge = control or not collect
        for s in stmts:
            if collect:
                if isinstance(s, kinds) and not div \
                        and not is_varying(s.index):
                    out.add(id(s))
            elif isinstance(s, K.Assign):
                if div or is_varying(s.value):
                    varying.add(s.dst)
            elif isinstance(s, (K.GLoad, K.SLoad, K.ShflDown)):
                varying.add(s.dst)
            if isinstance(s, K.If):
                d = div or (judge and is_varying(s.cond))
                visit(s.then, d, collect)
                visit(s.orelse, d, collect)
            elif isinstance(s, (K.While, K.UniformWhile)):
                visit(s.body, div or (judge and is_varying(s.cond)), collect)

    while True:
        before = len(varying)
        visit(kernel.body, False, False)
        if len(varying) == before:
            break
    visit(kernel.body, False, True)
    return frozenset(out)


def _compact_env(env: BatchedBlockEnv, idx: np.ndarray) -> BatchedBlockEnv:
    """Clone ``env`` with the block axis sliced to rows ``idx``.

    Used by the branch and loop helpers once at most half the rows of a
    chunk are live (a sparsely taken branch, a loop most blocks have
    left): the per-statement NumPy cost then tracks the *live* block
    count instead of the chunk width.  Shared memory is NOT sliced —
    ``rows`` keeps the original chunk-row index per surviving block, so
    shared accesses land in the right rows of the full ``(chunk, size)``
    arrays.
    All id-carrying fields (``bx``, ``warpkey``, ``block_ids``) keep
    their unsliced values, so counters, segment-reuse tags and fault RNG
    substreams are unaffected by the slice.
    """
    sub = BatchedBlockEnv.__new__(BatchedBlockEnv)
    sub.tid, sub.tx, sub.ty = env.tid, env.tx, env.ty
    sub.bdx, sub.bdy, sub.gdx, sub.ntid = env.bdx, env.bdy, env.gdx, env.ntid
    sub.warp_starts, sub.nwarps = env.warp_starts, env.nwarps
    sub.bx = env.bx[idx]
    sub.warpkey = env.warpkey[idx]
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
    sub.log = env.log
    return sub


def _expand_env(env: BatchedBlockEnv, sub: BatchedBlockEnv,
                idx: np.ndarray) -> None:
    """Scatter a compacted environment's registers back into ``env``.

    Rows outside ``idx`` had no active lanes while ``sub`` ran, so their
    register values are untouched — exactly what the reference executor
    leaves for a block that skipped the branch or already exited the
    loop.  Registers first assigned in the compacted region materialize
    at full width here, zero-filled where never written, matching
    :func:`_set` on an uncompacted chunk.
    """
    env.steps = sub.steps
    shp = env.block_mask.shape
    for name, sreg in sub.regs.items():
        _reg(env, name, sreg.dtype, shp)[idx] = sreg


# --------------------------------------------------------------------------
# the block-axis runtime: the batched closures call these helpers, and
# the trace executor binds them into its generated code
# --------------------------------------------------------------------------
#
# Each access helper takes the active-lane gathers of its region: ``mi``
# (flat active-lane indices, None while the mask is full), ``wk`` (the
# lanes' block-qualified warp keys, None on a values-only launch) and
# ``bf``/``rw`` (the lanes' block ids / shared-memory rows, None where
# no hazard check or counter reads them).  The generated code hoists
# them to a region prologue; the closures derive them per access.
#
# A counted access is appended to the launch's access log (``E.log``),
# which folds the transaction and bank counts of many accesses at once.
# A values-only launch (``E.log`` None: a counter-memo hit) logs nothing
# and also skips the bounds checks.  Its memo key fixes every address
# and every buffer size (``counters_invariant``), and the counted launch
# that made the entry ran the same accesses through the checks; a
# hazard check, when the launch passes one, still runs.

def _bc(c: np.ndarray, shp) -> np.ndarray:
    """Broadcast a condition/index array to the chunk shape."""
    return c if c.shape == shp else np.broadcast_to(c, shp)


def _fresh(v, shp) -> np.ndarray:
    """Materialize an assigned value as a freshly-owned full-shape array.

    Used when the RHS root may alias live storage (a register read, a
    no-op cast, a constant): registers must stay uniquely owned so the
    in-place masked ``copyto`` discipline can never write through an
    alias.
    """
    v = np.asarray(v)
    if v.shape != shp:
        out = np.empty(shp, dtype=v.dtype)
        out[...] = v
        return out
    return v.copy()


def _full(v, shp) -> np.ndarray:
    """Like :func:`_fresh` but for RHS roots that already produced a
    fresh array (ufunc outputs): only materializes on a shape mismatch."""
    v = np.asarray(v)
    if v.shape != shp:
        out = np.empty(shp, dtype=v.dtype)
        out[...] = v
        return out
    return v


def _reg(E, name: str, dtype, shp) -> np.ndarray:
    """Register ``name`` ready for a masked write of ``dtype``.

    A first write allocates it zero-filled at ``shp``; a write of another
    dtype reallocates it and keeps the old values, cast, wherever the
    write does not land (the reference ``executor._assign`` rule).  The
    result is C-contiguous, so callers may scatter through
    ``reshape(-1)``: a full-mask shuffle binds NumPy's column gather,
    which is not, and is copied here on its next partial write.
    """
    reg = E.regs.get(name)
    if reg is None or reg.dtype != dtype or not reg.flags.c_contiguous:
        base = np.zeros(shp, dtype=dtype)
        if reg is not None:
            np.copyto(base, reg, casting="unsafe")
        E.regs[name] = reg = base
    return reg


def _massign(E, name: str, v, m: np.ndarray) -> None:
    """Masked register assignment — ``executor._assign`` minus the
    full-mask branch (:func:`_set` dispatches that)."""
    v = np.asarray(v)
    np.copyto(_reg(E, name, v.dtype, m.shape), v, where=m)


def _set(E, name: str, v, m: np.ndarray, f: bool, owned: bool = False):
    """Register assignment under a region mask: a full region (``f``)
    binds a fresh array — ``owned`` says ``v`` already is one (a ufunc
    output) — and a partial one copies ``v`` in where ``m`` is set."""
    if f:
        E.regs[name] = (_full if owned else _fresh)(v, m.shape)
    else:
        _massign(E, name, v, m)


def _cast(v, dt):
    v = np.asarray(v)
    if v.dtype == dt:
        return v
    return v.astype(dt)  # C-style truncation for float->int


def _param(E, name: str):
    try:
        return E.params[name]
    except KeyError:
        raise SimulationError(
            f"kernel parameter {name!r} not bound at launch") from None


def _act_of(v, m: np.ndarray, mi) -> np.ndarray:
    """An index or value, broadcast to the chunk shape, at the active
    lanes in flattened (block, lane) order."""
    v = np.asarray(v)
    if v.shape != m.shape:
        v = np.broadcast_to(v, m.shape)
    if mi is None:
        return v.reshape(-1)
    if v.flags.c_contiguous:
        return v.reshape(-1).take(mi)
    return v[m]


def _lanes(m: np.ndarray, f: bool):
    """Flat indices of the active lanes of ``m``; None when it is full."""
    return None if f else m.reshape(-1).nonzero()[0]


def _wk(E, mi) -> np.ndarray:
    """Block-qualified warp key of each active lane (the transaction and
    bank counters group lanes by it; ``E.warpkey`` is C-contiguous)."""
    w = E.warpkey.reshape(-1)
    return w if mi is None else w.take(mi)


def _lanes_of(col: np.ndarray, mi, n: int) -> np.ndarray:
    """A per-row column (block id, shared-memory row) spread to the
    active lanes — all ``n`` lanes of every row when ``mi`` is None."""
    return np.repeat(col, n) if mi is None else col.take(mi // n)


def _check_read(check, buf: str, act: np.ndarray, blk: np.ndarray) -> None:
    """Hazard check of a read from a checked buffer.

    Reading a location a *later* block wrote breaks the sequential block
    order: raise :class:`_BatchHazard` (abort to the reference path).
    Reads of locations an earlier block owns are fine one-sided: in
    reference block order the earlier block has already stored, and the
    lockstep chunk replay executes its store statement before this load.
    The read is recorded in ``maxread``, so a later same-chunk *store* by
    any block ≤ the reader still trips :func:`_check_write` (this is
    what lets the fused finish-kernel epilogue — last block reads every
    gang's partials — stay on the fast path).  Out-of-range indices are
    clamped here; the access then raises the real OutOfBoundsError.
    """
    owners, maxread = check
    ci = np.minimum(act, owners.size - 1)
    own = owners[ci]
    if ((own != -1) & (own > blk)).any():
        raise _BatchHazard(buf)
    # blk is non-decreasing along the flattened (block, thread) order,
    # so last-write-wins fancy assignment leaves the per-location max —
    # much cheaper than ``np.maximum.at``'s scalar inner loop
    maxread[ci] = np.maximum(blk, maxread[ci])


def _check_write(check, buf: str, act: np.ndarray, blk: np.ndarray) -> None:
    """Hazard check of a store to a checked buffer: claim the locations
    for the writing blocks.  Hazards: a location belongs to another
    block, or a higher block already read it (sequentially that read
    runs *after* this store and must see it).  Same-statement
    first-write collisions need no flag: the highest block wins in both
    executors."""
    owners, maxread = check
    ci = np.minimum(act, owners.size - 1)
    own = owners[ci]
    if ((own != -1) & (own != blk)).any():
        raise _BatchHazard(buf)
    if (maxread[ci] > blk).any():
        raise _BatchHazard(buf)
    owners[ci] = blk


def _gload(E, name, buf, idx, m, mi, wk, bf, slot, check) -> None:
    """Global load: hazard check, bounds, gather, access log."""
    act = _act_of(idx, m, mi)
    if check is not None:
        _check_read(check, buf.name, act, bf)
    if E.log is not None:
        E.gmem._check_bounds(buf, act)
    vals = buf.data[act]
    if E.log is not None:
        E.log.add_global(buf, slot, act, bf, wk)
    if mi is None:
        E.regs[name] = vals.reshape(m.shape)
    else:
        _reg(E, name, vals.dtype, m.shape).reshape(-1)[mi] = vals


def _gload_u(E, name, buf, idx, m, mi, wk, bf, slot, check) -> None:
    """Per-block-uniform global load (the ``"block"`` uniformity verdict).

    With a full region mask, one representative per block stands in for
    every lane — no per-lane index materialization at all.  Counter
    parity with the generic path is exact: a uniform index gives one
    segment per warp and one tagged segment per block either way, so
    the log takes the representatives with the warp-request count (every
    warp of every block) and the lane count (``m.size``) outright.
    """
    if mi is not None:
        _gload(E, name, buf, idx, m, mi, wk, bf, slot, check)
        return
    shp = m.shape
    idxb = np.asarray(idx)
    if idxb.shape != shp:
        idxb = np.broadcast_to(idxb, shp)
    rep = idxb[:, 0]
    rblk = E.block_ids
    if check is not None:
        _check_read(check, buf.name, rep, rblk)
    if E.log is not None:
        E.gmem._check_bounds(buf, rep)
    v = buf.data[rep]
    if E.log is not None:
        E.log.add_global(buf, slot, rep, rblk,
                         requests=rep.size * E.nwarps, lanes=m.size)
    out = np.empty(shp, dtype=v.dtype)
    out[...] = v[:, None]
    E.regs[name] = out


def _gload_w(E, name, buf, idxw, m, full, slot, check, ws) -> None:
    """Per-warp-uniform global load (static verdict + runtime guard).

    ``idxw`` was evaluated on warp-representative slices — one column
    per warp — so no per-lane index array is ever materialized.  Only
    reached when ``blockDim.x % warp_size == 0`` and the ``"warp"``
    uniformity verdict holds: each warp's lanes share one index value
    and the region mask is constant within each warp, so active warps
    (and their first lanes) stand in for active lanes.  Counter parity
    with the per-lane path is exact — one segment per active warp makes
    the warp requests the active-warp count, the per-block dedup
    collapses to the representatives, and the byte count uses the true
    lane count (active warps x warp width); the hazard check and the
    bounds check see the same index values in the same order.
    """
    shp = m.shape
    nb = shp[0]
    nw = shp[1] // ws
    idxw = np.asarray(idxw)
    if idxw.shape != (nb, nw):
        idxw = np.broadcast_to(idxw, (nb, nw))
    if not idxw.flags["C_CONTIGUOUS"]:
        idxw = np.ascontiguousarray(idxw)
    if full:
        rep = idxw.reshape(-1)
        rblk = np.repeat(E.block_ids, nw)
        lanes = m.size
        miw = None
    else:
        miw = np.ascontiguousarray(m[:, ::ws]).reshape(-1).nonzero()[0]
        rep = idxw.reshape(-1).take(miw)
        rblk = E.block_ids[miw // nw]
        lanes = miw.size * ws
    if check is not None:
        _check_read(check, buf.name, rep, rblk)
    if E.log is not None:
        E.gmem._check_bounds(buf, rep)
    vals = buf.data[rep]
    if E.log is not None:
        E.log.add_global(buf, slot, rep, rblk, requests=rep.size,
                         lanes=lanes)
    if miw is None:
        out = np.empty(shp, dtype=vals.dtype)
        out.reshape(nb, nw, ws)[...] = vals.reshape(nb, nw)[:, :, None]
        E.regs[name] = out
    else:
        reg = _reg(E, name, vals.dtype, shp)
        reg.reshape(nb * nw, ws)[miw] = vals[:, None]


def _gstore(E, buf, idx, val, m, mi, wk, bf, slot, check) -> None:
    """Global store: hazard claim before bounds, cast-then-gather value
    order, duplicate indices resolved in flattened (block, lane) order —
    the highest lane of the highest block wins, as blocks run one at a
    time in the reference executor."""
    act = _act_of(idx, m, mi)
    if check is not None:
        _check_write(check, buf.name, act, bf)
    if E.log is not None:
        E.gmem._check_bounds(buf, act)
    buf.data[act] = _act_of(np.asarray(val, dtype=buf.dtype.np), m, mi)
    if E.log is not None:
        E.log.add_global(buf, slot, act, bf, wk)


def _sbounds(name: str, size: int, act: np.ndarray) -> None:
    if act.size and (act.min() < 0 or act.max() >= size):
        bad = act[(act < 0) | (act >= size)][0]
        raise OutOfBoundsError(
            f"index {int(bad)} out of bounds for shared array "
            f"{name!r} of size {size}"
        )


def _sload(E, name, arr, idx, m, mi, wk, rw, sid) -> None:
    """Shared load of statement ``sid``: bounds, gather from the lanes'
    rows, access log (banks fold over block-qualified warp keys)."""
    sm = E.smem
    a = sm._arrays[arr]
    act = _act_of(idx, m, mi)
    if E.log is not None:
        _sbounds(arr, a.shape[1], act)
    vals = a[rw, act]
    if E.log is not None:
        E.log.add_shared(sm, arr, sid, act, wk)
    if mi is None:
        E.regs[name] = vals.reshape(m.shape)
    else:
        _reg(E, name, vals.dtype, m.shape).reshape(-1)[mi] = vals


def _sstore(E, arr, idx, val, m, mi, wk, rw, sid) -> None:
    """Shared store of statement ``sid``: bounds, cast-then-gather,
    scatter, access log."""
    sm = E.smem
    a = sm._arrays[arr]
    act = _act_of(idx, m, mi)
    if E.log is not None:
        _sbounds(arr, a.shape[1], act)
    a[rw, act] = _act_of(np.asarray(val, dtype=a.dtype), m, mi)
    if E.log is not None:
        E.log.add_shared(sm, arr, sid, act, wk)


def _shfl(E, dst, src, delta, ws, m, full) -> None:
    """``__shfl_down``: lane ``l`` reads lane ``l + delta`` of its warp,
    or keeps its own value past the warp's end."""
    try:
        reg = E.regs[src]
    except KeyError:
        raise SimulationError(
            f"register {src!r} read before assignment") from None
    n = reg.shape[-1]
    ar = np.arange(n)
    lane = ar % ws
    src_idx = np.where(lane + delta < ws, np.minimum(ar + delta, n - 1), ar)
    v = reg[:, src_idx]
    if full:
        E.regs[dst] = v  # fancy gather: freshly owned
    else:
        _massign(E, dst, v, m)


def _sync(m) -> None:
    """Barrier: a block with some but not all lanes active raises (the
    region charge, :func:`_charge`, counts the arrivals)."""
    partial = m.any(axis=1) & ~m.all(axis=1)
    if partial.any():
        bad = int(partial.nonzero()[0][0])
        raise BarrierDivergenceError(
            "__syncthreads() executed under divergent control flow "
            f"({int(m[bad].sum())}/{m.shape[1]} threads active)"
        )


# --------------------------------------------------------------------------
# control flow: region charge, branches and loops
# --------------------------------------------------------------------------
#
# A *region* is a straight-line statement list run under one mask.  Both
# dispatchers run one as ``body(E, m, f, aw, aws)``: ``m`` the
# (blocks, threads) mask, ``f`` whether it is full, ``aw``/``aws`` the
# region warp vector and its total (None on a values-only launch).  The
# batched executor passes its block closures, the trace executor the
# functions its generated source defines per region.  A region body
# starts with :func:`_charge`; loop conditions are callables ``cond(E)``
# because a loop re-evaluates them in a possibly compacted environment.

def _charge(E, m, f, aws, sids: tuple, syncs: tuple = ()) -> None:
    """Charge one run of a straight-line region: each of its statements
    (``sids``) one warp slot per active warp, each barrier (``syncs``,
    also in ``sids``) one arrival per block with an active lane, and on
    an attribution launch their rows (``execs`` the blocks with an
    active lane, as the reference closure runs once per such block).
    Nothing on a values-only launch (``aws`` None)."""
    if aws is None:
        return
    st = E.stats
    st.warp_inst_slots += aws * len(sids)
    A = E.attr
    if A is None and not syncs:
        return
    eb = m.shape[0] if f else int(m.any(axis=1).sum())
    st.barriers += eb * len(syncs)
    if A is not None:
        el = m.size if f else int(m.sum())
        for sid in sids:
            row = A.row(sid)
            row.execs += eb
            row.lanes += el
            row.warp_slots += aws
        for sid in syncs:
            row = A.row(sid)
            row.barrier_arrivals += eb
            row.barrier_wait_slots += aws


def _branch(E, m, aw, aws, body) -> None:
    """Run one branch region, row-compacted when mostly idle.

    The reference executor runs a branch only for blocks whose lanes
    take it; an uncompacted chunk pays full-width array ops for every
    statement regardless.  When at most half the chunk's rows have an
    active lane, the region runs on a :func:`_compact_env` slice of
    them — invisible to results and counters (idle rows touch no
    memory, no counter and no register) — so sparsely taken branches (a
    last-block reduction epilogue, a ``tid == 0`` handoff) cost what
    they cover."""
    live = m.any(axis=1)
    lc = int(live.sum())
    if not lc:
        return
    if lc * 2 > m.shape[0]:
        body(E, m, bool(m.all()), aw, aws)
        return
    idx = live.nonzero()[0]
    sub = _compact_env(E, idx)
    m = m[idx]
    body(sub, m, bool(m.all()), None if aw is None else aw[idx], aws)
    _expand_env(E, sub, idx)


def _if(E, m, f, aw, aws, c, sid, then, orelse) -> None:
    """``if (c) then else orelse`` in region (``m``, ``f``, ``aw``,
    ``aws``).  A condition true on every lane runs ``then`` as the
    parent region (no warp has an else side, so no divergence);
    otherwise a counted launch charges the warps with lanes on both
    sides and derives each side's warp vector from the same split, and
    each side runs through :func:`_branch`.  ``orelse`` may be None."""
    c = _bc(_truthy(np.asarray(c)), m.shape)
    if c.all():
        then(E, m, f, aw, aws)
        return
    mt = m & c
    me = m & ~c
    awt = awe = awst = awse = None
    if aws is not None:
        # divergence: warps with lanes on both sides
        t = np.add.reduceat(mt, E.warp_starts, axis=1) > 0
        e = np.add.reduceat(me, E.warp_starts, axis=1) > 0
        d = int((t & e).sum())
        if d:
            E.stats.divergent_branches += d
            if E.attr is not None:
                E.attr.row(sid).divergence_splits += d
        awt = t.sum(axis=1)
        awst = int(awt.sum())
        if orelse is not None:
            awe = e.sum(axis=1)
            awse = int(awe.sum())
    _branch(E, mt, awt, awst, then)
    if orelse is not None:
        _branch(E, me, awe, awse, orelse)


def _step(E, live: int) -> None:
    """One loop iteration of ``live`` blocks: the watchdog currency."""
    E.steps += live
    if E.steps > E.watchdog_budget:
        _watchdog_trip(E)


def _unwind(E, stack: list) -> None:
    """Pop every compaction level of a loop, innermost first."""
    for parent, idx in reversed(stack):
        _expand_env(parent, E, idx)
        E = parent


def _while(E, m, sid, cond, body) -> None:
    """``while (cond) body`` under region mask ``m``.

    Lanes leave as their condition fails; the body runs under the lanes
    still in, with their warp vector, and each re-check charges it
    again.  Once at most half the rows are live the working set is
    compacted to them (``m`` only ever shrinks), and the levels unwind
    when the last block leaves.  Under injected stuck warps a block
    whose exit would fire keeps its previous mask: its loop never ends,
    and the watchdog trips."""
    cnt = E.log is not None
    m = m & _bc(_truthy(np.asarray(cond(E))), m.shape)
    row = E.attr.row(sid) if cnt and E.attr is not None else None
    stack = []
    live = m.any(axis=1)
    lc = int(live.sum())
    while lc:
        if lc * 2 <= m.shape[0]:
            idx = live.nonzero()[0]
            stack.append((E, idx))
            E = _compact_env(E, idx)
            m = m[idx]
        _step(E, lc)
        f = bool(m.all())
        aw, aws = _warps_per_block(E, m, f) if cnt else (None, None)
        body(E, m, f, aw, aws)
        m2 = m & _bc(_truthy(np.asarray(cond(E))), m.shape)
        if E.stuck:
            dead = m.any(axis=1) & ~m2.any(axis=1)
            if dead.any():
                m2 = np.where(dead[:, None], m, m2)
        m = m2
        if cnt:
            E.stats.warp_inst_slots += aws  # re-check
            if row is not None:
                row.warp_slots += aws
        live = m.any(axis=1)
        lc = int(live.sum())
    _unwind(E, stack)


def _uwhile(E, m, aw, sid, cond, body) -> None:
    """A block-uniform loop under region (``m``, ``aw``): a block stays
    in while any of its lanes' condition holds, and its whole region
    mask runs the body (``aw`` stays its warp vector).  Steps, watchdog,
    stuck warps (no block leaves), compaction and re-check charges as in
    :func:`_while`."""
    cnt = E.log is not None
    row = E.attr.row(sid) if cnt and E.attr is not None else None
    live = m.any(axis=1)
    stack = []
    while True:
        _step(E, int(live.sum()))
        c = _bc(_truthy(np.asarray(cond(E))), m.shape)
        if not E.stuck:
            live = live & (m & c).any(axis=1)
        lc = int(live.sum())
        if not lc:
            break
        if lc * 2 <= m.shape[0]:
            idx = live.nonzero()[0]
            stack.append((E, idx))
            E = _compact_env(E, idx)
            m, live = m[idx], live[idx]
            if cnt:
                aw = aw[idx]
        lf = bool(live.all())
        bm = m if lf else m & live[:, None]
        baw = baws = None
        if cnt:
            baw = aw if lf else np.where(live, aw, 0)
            baws = int(baw.sum())
        body(E, bm, bool(bm.all()), baw, baws)
        if cnt:
            E.stats.warp_inst_slots += baws  # re-check
            if row is not None:
                row.warp_slots += baws
    _unwind(E, stack)


# --------------------------------------------------------------------------
# scan loops: a loop whose only loop-carried values are its induction and
# its accumulators runs along its iteration axis
# --------------------------------------------------------------------------
#
# The fused finish kernel's strided accumulation (``acc = acc ⊕ p[i];
# i += fbs``) and a vector loop's ``sum += a[i]; i += vl`` are the
# shapes: the induction has a closed form, every load and term of every
# iteration can be evaluated at once, and only the accumulator chain
# needs its order — which ``ufunc.accumulate`` keeps (Polly's
# reduction-aware scheduling, PAPERS.md).

#: the loop-condition comparisons a scan loop may test its induction with
_SCAN_CMPS = ("<", "<=", ">", ">=")
#: accumulator operators folded by ``ufunc.accumulate`` (the accumulator
#: as the left operand): the IR's arithmetic and bitwise binary operators
#: and the two-argument min/max intrinsics
_FOLD_OPS = ("+", "-", "*", "&", "|", "^",
             "fmax", "fmaxf", "fmin", "fminf", "max", "min")
#: iterations x lanes one strip of a scan loop evaluates at once: the
#: helper's working set is bounded whatever the trip count
SCAN_BUDGET = 1 << 14


class ScanForm:
    """The static scan-loop verdict of one ``While`` (:func:`_scan_form`).

    ``iv`` is the induction, tested as ``inv && iv <cmp> bound`` (``inv``
    None when the condition is the comparison alone); ``reads`` are the
    loop-invariant registers the loop reads; ``stmts`` holds per body
    statement ``(kind, stmt, expr, op)``: kind ``"g"``/``"s"`` a global or
    shared load (``expr`` its index), ``"t"`` a temporary (its value),
    ``"a"`` an accumulator ``acc = acc op expr``, ``"f"`` any other
    accumulator (``expr`` the whole value), ``"i"`` the induction step.
    """

    __slots__ = ("iv", "cmp", "inv", "bound", "reads", "stmts")

    def __init__(self, iv, cmp, inv, bound, reads, stmts):
        self.iv, self.cmp, self.inv, self.bound = iv, cmp, inv, bound
        self.reads, self.stmts = reads, stmts

    def __str__(self) -> str:
        """A compact signature, e.g. ``"&< g a+ i"``."""
        return (("&" if self.inv is not None else "") + self.cmp + " "
                + " ".join(k + (op or "") for k, _, _, op in self.stmts))


def _reads(e) -> set:
    regs: set[str] = set()
    if e is not None:
        K.expr_reads(e, regs)
    return regs


def _scan_form(s) -> ScanForm | None:
    """The scan form of statement ``s``, or None if it is not a scan loop.

    A scan loop is a ``While`` whose body is straight-line ``Assign``/
    ``GLoad``/``SLoad`` code assigning each register at most once, whose
    condition is ``iv <cmp> bound``, optionally behind ``inv &&``, with
    ``bound`` and ``inv`` loop-invariant, and whose body updates the
    integer induction ``iv`` by ``iv = iv + step`` with ``step``
    loop-invariant.  Every other register the body assigns is an
    *accumulator* (``acc = F(acc, …)``, ``acc`` read nowhere else in the
    loop) or a *temporary* (assigned before any read of it in the body).
    Then the induction and the accumulators are the only loop-carried
    values.
    """
    if not isinstance(s, K.While):
        return None
    body = [b for b in s.body if not isinstance(b, K.Comment)]
    if not all(isinstance(b, (K.Assign, K.GLoad, K.SLoad)) for b in body):
        return None
    c, inv = s.cond, None
    if isinstance(c, K.Bin) and c.op == "&&":
        inv, c = c.a, c.b
    if not (isinstance(c, K.Bin) and c.op in _SCAN_CMPS
            and isinstance(c.a, K.Reg)):
        return None
    iv = c.a.name
    dsts = [b.dst for b in body]
    assigned = set(dsts)
    live = _reads(c.b) | _reads(inv)
    if len(assigned) != len(dsts) or iv not in assigned \
            or not assigned.isdisjoint(live):
        return None
    accs = {b.dst for b in body if isinstance(b, K.Assign)
            and b.dst != iv and b.dst in _reads(b.value)}
    stmts, defined = [], set()
    for b in body:
        op = None
        if isinstance(b, (K.GLoad, K.SLoad)):
            if b.dst == iv:
                return None  # a loaded induction: no step to count trips by
            kind, x = "g" if isinstance(b, K.GLoad) else "s", b.index
        elif b.dst == iv:
            e = b.value
            if not (isinstance(e, K.Bin) and e.op == "+"):
                return None
            if isinstance(e.a, K.Reg) and e.a.name == iv:
                kind, x = "i", e.b
            elif isinstance(e.b, K.Reg) and e.b.name == iv:
                kind, x = "i", e.a
            else:
                return None
            if not assigned.isdisjoint(_reads(x)):
                return None
        elif b.dst in accs:
            e = b.value
            args = (e.a, e.b) if isinstance(e, K.Bin) else \
                e.args if isinstance(e, K.Call) else ()
            fop = e.op if isinstance(e, K.Bin) else getattr(e, "fn", None)
            if (fop in _FOLD_OPS and len(args) == 2
                    and isinstance(args[0], K.Reg) and args[0].name == b.dst
                    and b.dst not in _reads(args[1])):
                kind, x, op = "a", args[1], fop
            else:
                kind, x = "f", e
        else:
            kind, x = "t", b.value
        rd = _reads(x) - {b.dst} if kind == "f" else _reads(x)
        for r in rd:
            if r in accs or (r in assigned and r != iv
                             and r not in defined):
                return None  # a second loop-carried value
        live |= rd - assigned
        defined.add(b.dst)
        stmts.append((kind, b, x, op))
    return ScanForm(iv, c.op, inv, c.b, tuple(sorted(live)), tuple(stmts))


class ScanLoop:
    """A scan loop in the form :func:`_scan` runs: the static form with
    each expression as a function ``fn(V)`` of an environment ``V`` (a
    :class:`BatchedBlockEnv`, or a :class:`_ScanView` of the lanes of a
    strip).  ``stmts`` holds per body statement ``(kind, dst, sid, arg,
    fn)``, the kinds of :class:`ScanForm`, with ``arg`` the ``(buffer,
    segment-reuse slot)`` of a global load, the array of a shared load
    and the ufunc of an ``"a"`` accumulator.  ``cond`` and ``body`` run
    the loop iteratively (``cond(E)``, a region ``body(E, m, f, aw,
    aws)``) where :func:`_scan` falls back to :func:`_while`; where they
    are None, :meth:`iterative` builds them from ``stmts``."""

    __slots__ = ("sid", "iv", "op", "cmp", "inv", "bound", "step", "reads",
                 "stmts", "sids", "live_in", "shared", "cond", "body")

    def __init__(self, sid, iv, cmp, inv, bound, reads, stmts, cond=None,
                 body=None):
        self.sid, self.iv, self.op, self.cmp = sid, iv, cmp, _BINOPS[cmp]
        self.inv, self.bound, self.reads, self.stmts = inv, bound, reads, stmts
        self.step = next(fn for kind, *_, fn in stmts if kind == "i")
        self.sids = tuple(x[2] for x in stmts)
        self.live_in = frozenset(reads).union(
            [iv], (x[1] for x in stmts if x[0] in "af"))
        self.shared = any(x[0] == "s" for x in stmts)
        self.cond, self.body = cond, body

    def iterative(self):
        """``(cond, body)`` of the iterative loop."""
        return self.cond or self._cond, self.body or self._body

    def _cond(self, E):
        if self.inv is not None:
            a = _truthy(np.asarray(self.inv(E)))
        c = self.cmp(E.regs[self.iv], self.bound(E))
        return c if self.inv is None else a & _truthy(np.asarray(c))

    def _body(self, E, m, f, aw, aws):
        _charge(E, m, f, aws, self.sids)
        mi = _lanes(m, f)
        wk = None if E.log is None else _wk(E, mi)
        R = E.regs
        for kind, dst, sid, arg, fn in self.stmts:
            if kind == "g":
                chk = None if E.check is None else E.check.get(arg[0])
                bf = None if wk is None and chk is None \
                    else _lanes_of(E.block_ids, mi, m.shape[1])
                _gload(E, dst, E.gmem[arg[0]], fn(E), m, mi, wk, bf, arg[1],
                       chk)
            elif kind == "s":
                _sload(E, dst, arg, fn(E), m, mi, wk,
                       _lanes_of(E.rows[:, 0], mi, m.shape[1]), sid)
            elif kind == "a":
                _set(E, dst, arg(R[dst], fn(E)), m, f, True)
            elif kind == "i":
                _set(E, dst, np.add(R[dst], fn(E)), m, f, True)
            else:
                _set(E, dst, fn(E), m, f)


class _ScanView:
    """What a scan loop's expressions read, at the ``n`` lanes of one
    strip: registers as ``(iterations, n)`` arrays, or ``(n,)`` for
    loop-invariant ones, and the thread geometry per lane (gathered
    when an expression reads it)."""

    __slots__ = ("regs", "params", "bdx", "bdy", "gdx", "ntid", "_E", "_r",
                 "_c")

    def __init__(self, E, regs: dict, r, c):
        self.regs, self.params = regs, E.params
        self.bdx, self.bdy, self.gdx, self.ntid = E.bdx, E.bdy, E.gdx, E.ntid
        self._E, self._r, self._c = E, r, c

    tx = property(lambda V: V._E.tx[V._c])
    ty = property(lambda V: V._E.ty[V._c])
    tid = property(lambda V: V._E.tid[V._c])
    bx = property(lambda V: V._E.bx[V._r, 0])

    def row(self, r: int, extra: dict) -> "_ScanView":
        """The view of one iteration (row ``r``), with ``extra`` too."""
        regs = {k: (a[r] if a.ndim == 2 else a)
                for k, a in self.regs.items()}
        regs.update(extra)
        return _ScanView(self._E, regs, self._r, self._c)


class _ScanFallback(Exception):
    """Bulk execution of a scan loop is not provably exact."""


#: what evaluating a scan loop's statements in bulk can raise: the
#: loop's own errors (an out-of-bounds index, a hazard, a missing
#: register or param, NumPy's type and value errors), which the
#: iterative loop then raises where they occur, and an unprovable case
_SCAN_ERRORS = (SimulationError, _BatchHazard, _ScanFallback, KeyError,
                IndexError, ArithmeticError, TypeError, ValueError)


class _ScanPlan:
    """The lanes a scan loop runs and their trip counts.

    Lanes are the flat (row, thread) indices ``ln`` of the region with
    at least one trip; when their trip counts differ they are ordered by
    descending count (stably), so the lanes still iterating at any
    iteration are a prefix.  ``bands`` cut the iterations where that
    prefix shrinks: ``(t_lo, t_hi, n, fin)`` runs iterations
    ``[t_lo, t_hi)`` on lanes ``[:n]``, after which lanes ``[fin:n]``
    are done.  ``s0``/``s``/``st`` are the induction's start (in its
    dtype and as int64) and step per lane (a step the same for every
    lane is a Python int).  A plan with no lane in the loop, or whose
    lanes all make one trip, stops at ``live`` (the mask of the region's
    lanes in the loop) and ``steps``, with ``bands`` None."""

    __slots__ = ("live", "ln", "r", "c", "tr", "s0", "s", "st", "ivdt",
                 "bands", "steps", "ragged", "wk", "bf", "rw", "inv")


def _at_lanes(v, ln, shp):
    """Value ``v`` (of a shape that broadcasts to ``shp``) at the flat
    lanes ``ln``: a 0-d array when it is one value for every lane."""
    v = np.asarray(v)
    if v.ndim == 0:
        return v
    if v.shape != shp:
        v = np.broadcast_to(v, shp)
    return v.reshape(-1)[ln]


def _i64(v):
    """An integer value as int64 (a Python int when it is one value),
    clamped to ±2^33: beyond that a bound or a step acts alike on an
    induction of at most 32 bits, and the trip arithmetic stays inside
    int64."""
    if v.ndim == 0:
        return max(min(int(v), 1 << 33), -(1 << 33))
    if v.dtype.itemsize < 8:
        return v
    return np.minimum(np.maximum(v, -(1 << 33)), 1 << 33)


def _scan_plan(E, m, loop) -> _ScanPlan | None:
    """Trip counts of ``loop`` under region mask ``m``, from its first
    condition check and its induction in exact integer arithmetic; None
    where that is not provably what the iterative loop does: the
    induction may overflow its dtype, a step of the wrong sign (or a
    non-integer bound or step) makes the count unprovable, or the
    loop's steps would pass the watchdog budget.

    The second condition check comes first: the condition reads only
    the induction and loop-invariant values, so ``iv + step`` decides it
    before the body runs.  When no lane passes it, every lane in the
    loop makes one trip, and the plan stops there."""
    R = E.regs
    if not loop.live_in.issubset(R.keys()):
        return None
    shp = m.shape
    p = _ScanPlan()
    p.bands = None
    p.live = live = m & _bc(_truthy(np.asarray(loop.iterative()[0](E))), shp)
    rows = live.any(axis=1)
    if not rows.any():
        p.steps = 0
        return p
    iv0 = R[loop.iv]
    step = loop.step(E)
    again = live & _bc(_truthy(np.asarray(
        loop.cmp(np.add(iv0, step), loop.bound(E)))), shp)
    if not again.any():
        p.steps = int(np.count_nonzero(rows))
        return None if E.steps + p.steps > E.watchdog_budget else p
    p.ln = ln = live.reshape(-1).nonzero()[0]
    p.ivdt = ivdt = iv0.dtype
    if ivdt.kind != "i" or ivdt.itemsize > 4 \
            or np.result_type(iv0, step) != ivdt:
        return None
    st, b = _at_lanes(step, ln, shp), _at_lanes(loop.bound(E), ln, shp)
    if st.dtype.kind != "i" or b.dtype.kind != "i":
        return None
    st, b = _i64(st), _i64(b)
    p.s0 = _at_lanes(iv0, ln, shp)
    s = p.s0.astype(np.int64)
    up = loop.op in ("<", "<=")
    d, inc = (b - s, st) if up else (s - b, -st)
    if (inc <= 0) if isinstance(inc, int) else (inc <= 0).any():
        return None  # never leaves, or only through an overflow
    strict = loop.op in ("<", ">")
    tr = (d + (inc - 1)) // inc if strict else d // inc + 1
    lim = np.iinfo(ivdt)
    # the induction moves from its start toward the bound and stops past
    # it by at most a step: only that side can leave the dtype
    if not isinstance(st, int):
        fin = s + tr * st
        end = int(fin.max()) if up else int(fin.min())
    elif isinstance(b, int):
        end = b + st
    else:
        end = (int(b.max()) if up else int(b.min())) + st
    if not lim.min <= end <= lim.max:
        return None
    top = int(tr.max())
    p.ragged = top != int(tr.min())
    r, c = np.divmod(ln, shp[1])
    # loop steps: each iteration adds the rows still in it
    if p.ragged:
        rs = np.concatenate(([0], (r[1:] != r[:-1]).nonzero()[0] + 1))
        p.steps = int(np.maximum.reduceat(tr, rs).sum())
    else:
        p.steps = top * int(np.count_nonzero(rows))
    if E.steps + p.steps > E.watchdog_budget:
        return None
    p.wk = None if E.log is None else E.warpkey.reshape(-1)[ln]
    if p.ragged:
        o = np.argsort(-tr, kind="stable")
        ln, r, c, s, tr = ln[o], r[o], c[o], s[o], tr[o]
        p.s0 = p.s0[o]
        if not isinstance(st, int):
            st = st[o]
        if p.wk is not None:
            p.wk = p.wk[o]
        u = np.unique(tr)
        n = np.searchsorted(-tr, -u, side="right")  # lanes with >= u trips
        p.bands, t_lo = [], 0
        for i, t in enumerate(u.tolist()):
            p.bands.append((t_lo, t, int(n[i]),
                            int(n[i + 1]) if i + 1 < u.size else 0))
            t_lo = t
    else:
        p.bands = [(0, top, ln.size, 0)]
    p.ln, p.r, p.c, p.s, p.st, p.tr = ln, r, c, s, st, tr
    p.bf = E.block_ids[r] \
        if E.log is not None or E.check is not None else None
    p.rw = E.rows[:, 0][r] if loop.shared else None
    p.inv = {name: _at_lanes(R[name], ln, shp) for name in loop.reads}
    return p


def _scan_put(acc: list, y, n: int) -> None:
    """One iteration of accumulator ``acc`` (``[values, dtype history]``):
    lanes ``[:n]`` take ``y``.  A result of another dtype recasts every
    lane first, as :func:`_reg` does the register."""
    y = np.asarray(y)
    if y.dtype != acc[0].dtype:
        acc[0] = acc[0].astype(y.dtype)
        acc[1].append(y.dtype)
    if y.shape == acc[0].shape:
        acc[0] = y  # every lane, in a fresh array (a ufunc's output)
    else:
        acc[0][:n] = y


def _scan_fold(kind, dst, uf, fn, V, acc: list, rows: int, n: int,
               first: bool) -> None:
    """Fold rows ``[0, rows)`` of one strip into accumulator ``dst``
    (``acc``), sequentially along the iteration axis with the operands
    as written: ``uf.accumulate`` where every iteration computes in the
    accumulator's dtype (the loop's first iteration, which may change
    it, runs alone), else one ``F`` call per iteration.  Never a
    pairwise reduction, and no padding: every row of a strip is an
    iteration of all its lanes."""
    if kind == "f":
        for r in range(rows):
            _scan_put(acc, fn(V.row(r, {dst: acc[0][:n]})), n)
        return
    x = fn(V)
    per_row = isinstance(x, np.ndarray) and x.ndim == 2
    r0 = 0
    if first:
        _scan_put(acc, uf(acc[0][:n], x[0] if per_row else x), n)
        r0 = 1
    if rows == r0:
        return
    R = acc[0].dtype
    try:
        xdt = x.dtype if hasattr(x, "dtype") else type(x)
        stable = uf.resolve_dtypes((R, xdt, None)) == (R, R, R)
    except (TypeError, ValueError):
        stable = False
    if not stable:
        for r in range(r0, rows):
            _scan_put(acc, uf(acc[0][:n], x[r] if per_row else x), n)
        return
    z = np.empty((rows - r0 + 1, n), dtype=R)
    z[0] = acc[0][:n]
    z[1:] = x[r0:] if per_row else x
    uf.accumulate(z, axis=0, dtype=R, out=z)
    acc[0][:n] = z[-1]


def _scan_eval(E, loop, p: _ScanPlan, visit, fold: bool):
    """Run the body of ``loop`` over the iterations of plan ``p`` in
    strips of at most :data:`SCAN_BUDGET` (iteration, lane) pairs.

    Registers are ``(iterations, lanes)`` arrays: the induction from its
    closed form, each load and temporary evaluated for every pair of the
    strip at once, in body order.  Each load's index array goes to
    ``visit(E, p, kind, arg, sid, idx, n)`` before it reads memory.
    With ``fold`` the accumulators fold too, and the result is the
    final values per lane: ``({register: values}, {accumulator:
    [values, dtype history]})``, in the plan's lane order."""
    iv, ivdt, L = loop.iv, p.ivdt, p.ln.size
    out, accs = {}, {}
    if fold:
        accs = {dst: [E.regs[dst].reshape(-1)[p.ln], []]
                for kind, dst, *_ in loop.stmts if kind in "af"}
    first = True
    for t_lo, t_hi, n, fin in p.bands:
        span = max(1, SCAN_BUDGET // n)
        part = n < L
        s = p.s[:n] if part else p.s
        st = p.st if isinstance(p.st, int) or not part else p.st[:n]
        inv = {k: a[:n] for k, a in p.inv.items()} if part else p.inv
        r, c = (p.r[:n], p.c[:n]) if part else (p.r, p.c)
        for t0 in range(t_lo, t_hi, span):
            rows = min(span, t_hi - t0)
            V = _ScanView(E, dict(inv), r, c)
            if first and rows == 1:
                ivl = s[None]
                V.regs[iv] = (p.s0[:n] if part else p.s0)[None]
            else:
                ivl = s + np.arange(t0, t0 + rows,
                                    dtype=np.int64)[:, None] * st
                V.regs[iv] = ivl.astype(ivdt)
            for kind, dst, sid, arg, fn in loop.stmts:
                if kind == "i":
                    V.regs[iv] = (ivl + st).astype(ivdt)
                elif kind in "af":
                    if fold:
                        _scan_fold(kind, dst, arg, fn, V, accs[dst], rows, n,
                                   first)
                elif kind == "t":
                    V.regs[dst] = np.asarray(fn(V))
                else:
                    idx = np.asarray(fn(V))
                    if idx.dtype.kind not in "iu":
                        raise _ScanFallback(dst)
                    if idx.shape != (rows, n):
                        idx = np.broadcast_to(idx, (rows, n))
                    visit(E, p, kind, arg, sid, idx, n)
                    V.regs[dst] = E.gmem[arg[0]].data[idx] if kind == "g" \
                        else E.smem._arrays[arg][p.rw[:n], idx]
            first = False
        if fold:
            # lanes [fin:n] ran their last iteration in this band's last row
            for kind, dst, *_ in loop.stmts:
                if kind not in "gst":
                    continue
                v = V.regs[dst]
                v = v[-1] if v.ndim == 2 else np.broadcast_to(v, (n,))
                if fin == 0 and n == L:
                    out[dst] = v
                    continue
                f = out.get(dst)
                if f is None:
                    f = out[dst] = np.empty(L, dtype=v.dtype)
                elif f.dtype != v.dtype:
                    raise _ScanFallback(dst)
                f[fin:n] = v[fin:n]
    return out, accs


def _scan_check(E, p, kind, arg, sid, idx, n) -> None:
    """The checks of one strip's accesses of one load: bounds on a
    counted launch, and the hazard check of a checked buffer — over all
    of the strip's iterations at once, exact because a scan loop stores
    nothing (the reads are fed in block order, as ``_check_read``
    needs)."""
    cnt = E.log is not None
    if kind == "s":
        if cnt:
            _sbounds(arg, E.smem._arrays[arg].shape[1], idx)
        return
    buf = E.gmem[arg[0]]
    if cnt:
        E.gmem._check_bounds(buf, idx)
    chk = None if E.check is None else E.check.get(arg[0])
    if chk is not None:
        act = idx.T.reshape(-1)
        blk = np.repeat(p.bf[:n], idx.shape[0])
        if p.ragged:
            o = np.argsort(blk, kind="stable")
            act, blk = act[o], blk[o]
        _check_read(chk, buf.name, act, blk)


def _scan_access(E, p, kind, arg, sid, idx, n) -> None:
    """Log one strip's accesses of one load: one access-log call per
    iteration, so the slot's segment reuse chains on the previous
    iteration as it does in :func:`_while`."""
    wk = p.wk[:n]
    if kind == "g":
        buf, bf = E.gmem[arg[0]], p.bf[:n]
        for row in idx:
            E.log.add_global(buf, arg[1], row, bf, wk)
    else:
        for row in idx:
            E.log.add_shared(E.smem, arg, sid, row, wk)


def _scan_log(E, loop, p: _ScanPlan) -> None:
    """The access log of a counted scan loop: a second pass over its
    strips, after the first has passed every check."""
    _scan_eval(E, loop, p, _scan_access, False)


def _scan_charge(E, loop, p: _ScanPlan) -> None:
    """The warp slots and attribution rows of a counted scan loop, as
    :func:`_while` charges them: each iteration, every body statement
    and the re-check take one slot per warp with a lane still in the
    loop, so each warp is charged its largest trip count."""
    wk, tr = p.wk, p.tr
    if p.ragged:
        o = np.argsort(wk, kind="stable")
        wk, tr = wk[o], tr[o]
        starts = np.concatenate(([0], (wk[1:] != wk[:-1]).nonzero()[0] + 1))
        ws = int(np.maximum.reduceat(tr, starts).sum())
    else:
        ws = int(tr[0]) * (int(np.count_nonzero(wk[1:] != wk[:-1])) + 1)
    E.stats.warp_inst_slots += ws * (len(loop.sids) + 1)
    A = E.attr
    if A is not None:
        lanes = int(p.tr.sum())
        for sid in loop.sids:
            row = A.row(sid)
            row.execs += p.steps
            row.lanes += lanes
            row.warp_slots += ws
        A.row(loop.sid).warp_slots += ws  # re-checks


def _scan(E, m, loop: ScanLoop) -> None:
    """Scan loop ``loop`` under region mask ``m``, along its iteration
    axis: results, registers, loop steps and every counter as
    :func:`_while` leaves them.

    A first pass over the strips evaluates the loop, folds its
    accumulators and runs its checks, changing nothing but the hazard
    checks' read marks (a subset of what the iterative loop marks).  A
    counted launch then logs the accesses and charges the warp slots;
    the registers are written last.  When every lane makes one trip the
    iteration axis has length one, and the loop's body region runs once
    under the lanes in the loop.  The loop runs
    iteratively instead (:func:`_while`) under stuck warps, armed fault
    hooks or TraceEvent collection, where :func:`_scan_plan` cannot
    prove the trip counts, and when the first pass raises: the
    iterative loop then raises the same error where it occurs."""
    p = None
    if not (E.stuck or E.trace or E.gmem.faults is not None):
        try:
            p = _scan_plan(E, m, loop)
            if p is not None and p.bands:
                out, accs = _scan_eval(E, loop, p, _scan_check, True)
        except _SCAN_ERRORS:
            p = None
    if p is None:
        _while(E, m, loop.sid, *loop.iterative())
        return
    if p.bands is None:
        if not p.steps:
            return
        # one trip for every lane: the iteration axis is the body, once
        live = p.live
        f = bool(live.all())
        aw, aws = (None, None) if E.log is None \
            else _warps_per_block(E, live, f)
        E.steps += p.steps
        loop.iterative()[1](E, live, f, aw, aws)
        if aws is not None:
            E.stats.warp_inst_slots += aws  # the re-check
            if E.attr is not None:
                E.attr.row(loop.sid).warp_slots += aws
        return
    if E.log is not None:
        _scan_log(E, loop, p)
        _scan_charge(E, loop, p)
    E.steps += p.steps
    regs = [(d, v, [v.dtype]) for d, v in out.items()]
    regs += [(d, a[0], a[1] or [a[0].dtype]) for d, a in accs.items()]
    # the induction's last value (proven inside its dtype by the plan)
    last = p.s + (p.tr if p.ragged else int(p.tr[0])) * p.st
    regs.append((loop.iv, last.astype(p.ivdt), [p.ivdt]))
    for name, vals, history in regs:
        for dt in history:
            reg = _reg(E, name, dt, m.shape)
        reg.reshape(-1)[p.ln] = vals


# --------------------------------------------------------------------------
# the batched executor: block-axis closures over the shared runtime
# --------------------------------------------------------------------------

#: RHS roots guaranteed to produce freshly-owned arrays (ufunc outputs):
#: a full-region assignment can bind them without a defensive copy
_OWNED_ROOTS = (K.Bin, K.Un, K.Call, K.Select)


def _fault_rows(hook, site: str, E, name: str, m: np.ndarray) -> None:
    """Offer register ``name`` (just loaded) to one fault hook, row by
    row, for each block with an active lane — in block order, keyed by
    the block's absolute id so it draws from that block's substream."""
    reg = E.regs[name]
    for i in np.flatnonzero(m.any(axis=1)):
        hook(site, reg[i], m[i], block=int(E.block_ids[i]))


def _trace_events(E, kind: str, buf: str, m: np.ndarray) -> None:
    trace = E.stats.trace
    for b in E.block_ids[m.any(axis=1)]:
        trace.append(TraceEvent(kind, int(b), buf))


def _compile_stmt_batched(s: K.Stmt, device: DeviceProperties,
                          uniform_ids: frozenset = frozenset(),
                          slot_sids: dict | None = None,
                          slots: dict | None = None):
    """Compile one statement to ``fn(E, m, f, aw, aws)`` over a chunk.

    The arguments are those of its region (see :func:`_charge`), which
    has already charged the statement's warp slots and attribution row.
    ``uniform_ids`` holds the ``"block"`` :func:`_uniform_stmts`
    verdicts; ``slot_sids`` maps each global access's segment-reuse slot
    back to its stamped ``sid`` (for the launch-end reuse correction's
    per-statement attribution); ``slots`` the segment-reuse slots of the
    global loads of a scan loop's body, which the loop's
    :class:`ScanLoop` shares.

    Memory statements, barriers and shuffles call the shared runtime
    helpers with per-access gathers, branches and loops the control-flow
    helpers with the compiled block closures; the fault hooks and
    TraceEvent appends follow the helper.  The memory counters reach
    each statement's attribution row from the access log's folds (see
    :class:`~repro.gpu.memory.AccessLog`).
    """
    sid = s.sid
    if isinstance(s, K.Assign):
        fv = _compile_expr(s.value)
        name = s.dst
        owned = isinstance(s.value, _OWNED_ROOTS)
        def do_assign(E, m, f, aw, aws):
            _set(E, name, fv(E), m, f, owned)
        return do_assign

    if isinstance(s, (K.GLoad, K.GStore)):
        slot = (slots or {}).get(id(s))
        if slot is None:
            slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid

    if isinstance(s, K.GLoad):
        fi = _compile_expr(s.index)
        name, buf = s.dst, s.buf
        uni = id(s) in uniform_ids
        load = _gload_u if uni else _gload
        def do_gload(E, m, f, aw, aws):
            gm = E.gmem
            a, fr = E.attr, gm.faults
            if a is not None and fr is not None:
                f0 = len(fr.records)
            chk = None if E.check is None else E.check.get(buf)
            mi = _lanes(m, f)
            wk = None if E.log is None else _wk(E, mi)
            # block ids feed only the hazard check and the counters (and
            # a full-mask uniform load takes one per block outright)
            bf = None
            if (wk is not None or chk is not None) \
                    and (mi is not None or not uni):
                bf = _lanes_of(E.block_ids, mi, m.shape[1])
            load(E, name, gm[buf], fi(E), m, mi, wk, bf, slot, chk)
            if fr is not None:
                _fault_rows(fr.on_gload, buf, E, name, m)
                if a is not None:
                    a.row(sid).fault_events += len(fr.records) - f0
            if E.trace:
                _trace_events(E, "gload", buf, m)
        return do_gload

    if isinstance(s, K.GStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        def do_gstore(E, m, f, aw, aws):
            chk = None if E.check is None else E.check.get(buf)
            mi = _lanes(m, f)
            wk = None if E.log is None else _wk(E, mi)
            bf = None if wk is None and chk is None \
                else _lanes_of(E.block_ids, mi, m.shape[1])
            _gstore(E, E.gmem[buf], fi(E), fv(E), m, mi, wk, bf, slot, chk)
            if E.trace:
                _trace_events(E, "gstore", buf, m)
        return do_gstore

    if isinstance(s, K.SLoad):
        fi = _compile_expr(s.index)
        name, arr = s.dst, s.arr
        def do_sload(E, m, f, aw, aws):
            a, fr = E.attr, E.gmem.faults
            if a is not None and fr is not None:
                f0 = len(fr.records)
            mi = _lanes(m, f)
            wk = None if E.log is None else _wk(E, mi)
            _sload(E, name, arr, fi(E), m, mi, wk,
                   _lanes_of(E.rows[:, 0], mi, m.shape[1]), sid)
            if fr is not None:
                _fault_rows(fr.on_sload, arr, E, name, m)
                if a is not None:
                    a.row(sid).fault_events += len(fr.records) - f0
        return do_sload

    if isinstance(s, K.SStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        arr = s.arr
        def do_sstore(E, m, f, aw, aws):
            mi = _lanes(m, f)
            wk = None if E.log is None else _wk(E, mi)
            _sstore(E, arr, fi(E), fv(E), m, mi, wk,
                    _lanes_of(E.rows[:, 0], mi, m.shape[1]), sid)
        return do_sstore

    if isinstance(s, K.If):
        fc = _compile_expr(s.cond)
        fthen = _compile_block_batched(s.then, device, uniform_ids,
                                       slot_sids)
        felse = _compile_block_batched(s.orelse, device, uniform_ids,
                                       slot_sids) if s.orelse else None
        def do_if(E, m, f, aw, aws):
            _if(E, m, f, aw, aws, fc(E), sid, fthen, felse)
        return do_if

    if isinstance(s, K.While):
        fc = _compile_expr(s.cond)
        form = _scan_form(s)
        if form is None:
            fbody = _compile_block_batched(s.body, device, uniform_ids,
                                           slot_sids)
            def do_while(E, m, f, aw, aws):
                _while(E, m, sid, fc, fbody)
            return do_while
        slots = {}
        for b in s.body:
            if isinstance(b, K.GLoad):
                slots[id(b)] = slot = next(_stmt_slots)
                if slot_sids is not None:
                    slot_sids[slot] = b.sid
        compiled = []

        def fbody(E, m, f, aw, aws):
            # the iterative body, with the fault hooks and TraceEvent
            # appends: compiled on the loop's first iterative run
            if not compiled:
                compiled.append(_compile_block_batched(
                    s.body, device, uniform_ids, slot_sids, slots))
            compiled[0](E, m, f, aw, aws)

        loop = ScanLoop(
            sid, form.iv, form.cmp,
            None if form.inv is None else _compile_expr(form.inv),
            _compile_expr(form.bound), form.reads,
            tuple((kind, b.dst, b.sid,
                   (b.buf, slots[id(b)]) if kind == "g" else
                   b.arr if kind == "s" else
                   (_BINOPS.get(op) or _CALLS[op]) if kind == "a"
                   else None,
                   _compile_expr(x))
                  for kind, b, x, op in form.stmts),
            fc, fbody)
        def do_scan(E, m, f, aw, aws):
            _scan(E, m, loop)
        return do_scan

    if isinstance(s, K.UniformWhile):
        fc = _compile_expr(s.cond)
        fbody = _compile_block_batched(s.body, device, uniform_ids,
                                       slot_sids)
        def do_uwhile(E, m, f, aw, aws):
            _uwhile(E, m, aw, sid, fc, fbody)
        return do_uwhile

    if isinstance(s, K.Sync):
        def do_sync(E, m, f, aw, aws):
            _sync(m)
            if E.trace:
                _trace_events(E, "sync", "", m)
        return do_sync

    if isinstance(s, K.ShflDown):
        dst, src, delta = s.dst, s.src, s.delta
        ws = device.warp_size
        def do_shfl(E, m, f, aw, aws):
            _shfl(E, dst, src, delta, ws, m, f)
        return do_shfl

    if isinstance(s, K.AtomicUpdate):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        try:
            combine = ATOMIC_OPS[s.op]
        except KeyError:
            raise SimulationError(
                f"no atomic support for operator {s.op!r}") from None
        def do_atomic(E, m, f, aw, aws):
            st = E.stats
            idx = _bc(np.asarray(fi(E)), m.shape)
            val = _bc(np.asarray(fv(E)), m.shape)
            a = E.attr
            if a is not None:
                g0, b0 = st.global_transactions, st.global_bytes
                d0 = st.dram_bytes
            # ufunc.at applies duplicates in flattened (block, thread)
            # order — the same combine order as blocks run one at a time
            E.gmem.atomic_update(buf, idx, val, m, E.warpkey, st, combine)
            if a is not None:
                r = a.row(sid)
                r.global_transactions += st.global_transactions - g0
                r.global_bytes += st.global_bytes - b0
                r.dram_bytes += st.dram_bytes - d0
                r.atomic_rounds += st.global_transactions - g0
        return do_atomic

    raise SimulationError(f"unknown statement node {s!r}")


def _compile_block_batched(stmts: tuple, device: DeviceProperties,
                           uniform_ids: frozenset = frozenset(),
                           slot_sids: dict | None = None,
                           slots: dict | None = None):
    """Compile a region to ``run(E, m, f, aw, aws)``: the region charge,
    then its statements' closures in order."""
    stmts = [s for s in stmts if not isinstance(s, K.Comment)]
    fns = [_compile_stmt_batched(s, device, uniform_ids, slot_sids, slots)
           for s in stmts]
    sids = tuple(s.sid for s in stmts)
    syncs = tuple(s.sid for s in stmts if isinstance(s, K.Sync))
    def run(E, m, f, aw, aws):
        _charge(E, m, f, aws, sids, syncs)
        for fn in fns:
            fn(E, m, f, aw, aws)
    return run


# --------------------------------------------------------------------------
# launch drivers
# --------------------------------------------------------------------------

def _run_chunks(ck, gmem: GlobalMemory, grid_dim: int,
                block_dim: tuple[int, int], stats: KernelStats,
                params: dict, budget: float, block_batch: int | None,
                check: dict | None, count: bool, body, slot_sids: dict, *,
                trace: bool = False, faults=None,
                stuck: bool = False) -> KernelStats:
    """Run a validated launch as ``body(env)`` over block chunks.

    Called by both fast executors once :meth:`CompiledKernel.run
    <repro.gpu.executor.CompiledKernel.run>` has validated the launch,
    armed the faults and built ``stats``.  Results and counters are
    invariant under the chunk size of ``block_batch``: per-launch state
    (loop ``steps``, the segment-reuse cache keyed by absolute block ids)
    carries across chunks, the checked-hazard state resets at chunk
    boundaries, and the cross-block reuse correction runs once at launch
    end, attributed through ``slot_sids`` (segment-reuse slot → stamped
    sid).  A counted launch logs its global and shared accesses in one
    :class:`~repro.gpu.memory.AccessLog`, which folds their transaction,
    bank and segment-reuse counts at launch end (or earlier, at its
    element budget).  ``count=False`` (a counter-memo hit) executes
    values only: it keeps no log, so the memory counters of ``stats``
    stay unset, and it skips the global and shared bounds checks, which
    the counted launch of the same memo key passed at the same
    addresses.  ``check`` is None on a hit at the chunk size that
    counted launch completed at: its hazard verdict is proven too.
    """
    bdx, bdy = block_dim
    chunk = _chunk_size(block_batch)
    ws = ck.device.warp_size
    seg_cache: dict = {}
    log = AccessLog(gmem, stats, seg_cache, slot_sids, grid_dim,
                    min(chunk, grid_dim) * -(-bdx * bdy // ws)) \
        if count else None
    steps = 0
    prev_faults = gmem.faults
    if faults is not None:
        gmem.faults = faults
    try:
        for start in range(0, grid_dim, chunk):
            ids = np.arange(start, min(start + chunk, grid_dim),
                            dtype=np.int64)
            env = BatchedBlockEnv(bdx, bdy, grid_dim, ids, gmem, stats,
                                  params, ws, trace)
            env.smem = BatchedSharedMemory(ck.device, ck.kernel.shared,
                                           stats if count else None,
                                           len(ids))
            env.log = log
            env.seg_cache = seg_cache
            env.kernel_name = ck.kernel.name
            env.steps = steps
            env.watchdog_budget = budget
            env.stuck = stuck
            env.check = check
            env.attr = stats.attribution
            body(env)
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
        log.flush()
        finalize_segment_reuse(seg_cache, stats,
                               ck.device.transaction_bytes,
                               attr=stats.attribution, slot_sids=slot_sids)
    return stats


def run_batched(ck, gmem: GlobalMemory, grid_dim: int,
                block_dim: tuple[int, int], stats: KernelStats,
                params: dict, trace: bool, faults, budget: float,
                stuck: bool, block_batch: int | None,
                check: dict | None = None,
                count: bool = True) -> KernelStats:
    """Execute a validated launch through the block-axis closures (see
    :func:`_run_chunks`); the only fast path that honors fault
    injection, stuck warps and TraceEvent collection."""
    closures = ck._batched_body
    if closures is None:
        closures = ck._batched_body = _compile_block_batched(
            ck.kernel.body, ck.device, _uniform_stmts(ck.kernel, "block"),
            ck._slot_sids)

    def body(E):
        m = E.block_mask
        closures(E, m, True, *(_warps_per_block(E, m, True)
                                if E.log is not None else (None, None)))

    return _run_chunks(ck, gmem, grid_dim, block_dim, stats, params, budget,
                       block_batch, check, count, body, ck._slot_sids,
                       trace=trace, faults=faults, stuck=stuck)
