"""Trace-compiled executor: kernel IR lowered to generated NumPy source.

The batched executor (:mod:`repro.gpu.executor_batched`) removed the
per-block Python dispatch but still walks the compiled closure tree —
one Python call per statement per region execution, plus per-access mask
gathers (``warpkey[mask]``, ``block_of[mask]``) that are recomputed for
every statement of a straight-line block even though the mask did not
change.  This module removes that layer too: each kernel is *compiled to
Python source* once — a single function of whole-array NumPy ops over
the ``(block, lane)`` axes — and executed per chunk.  What the generated
code buys over the closure interpreter:

* straight-line blocks are fused: no per-statement closure dispatch and
  no repeated ``np.asarray``/broadcast plumbing;
* divergence masks are precomputed per branch region, with an all-true
  fast path that skips the warp ``reduceat`` bookkeeping entirely;
* the per-region active-lane gathers (``mi``/``warpkey``/``block``/
  ``rows``) are hoisted to the region prologue and shared by every
  memory access in the region — skipped outright while the region mask
  is full, and the block ids / warp keys derived only where a hazard
  check or the counters read them;
* counter updates (``KernelStats`` / ``StmtCounters``) are emitted
  inline per region with the enclosing region's precomputed active-warp
  totals, exactly mirroring the batched closures' arithmetic.  Every
  line whose only consumer is a counter sits behind one per-launch flag
  (``CNT = E.acct is not None``), so the same source runs counted or
  values-only.

Bit-identity is the contract, not a goal: results, every KernelStats
counter, and attribution tables must match the reference and batched
executors exactly.  The accounting *calls* are therefore shared — the
generated code invokes the same
:meth:`~repro.gpu.memory.GlobalMemory._count_transactions_batched` and
:meth:`~repro.gpu.memory.SharedMemory._count_banks` the batched closures
use, with the same per-launch segment-reuse cache and the same
launch-end :func:`~repro.gpu.memory.finalize_segment_reuse` replay.  On
a counter-memo hit (``E.acct is None``) the generated code skips its
``CNT`` lines and the helpers skip those calls: the launch moves data
only.

Eligibility (:func:`analyze_trace_safety`) is the batched proof plus "no
atomics" (``ufunc.at`` ordering is interpreter-level; not worth a second
order proof here).  Launches that arm a fault injector or request
TraceEvent collection demote to the batched path — the generated code
carries no fault hooks by design, so the hot path pays nothing for
them.  Runtime cross-block hazards raise the same ``_BatchHazard`` and
roll back to the reference executor through the common checked-launch
wrapper in :meth:`~repro.gpu.executor.CompiledKernel.run`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BarrierDivergenceError, SimulationError
from repro.gpu import kernelir as K
from repro.gpu.device import DeviceProperties
from repro.gpu.executor import (
    _BINOPS, _CALLS, _c_div, _c_mod, _truthy,
)
from repro.gpu.executor_batched import (
    DEFAULT_BLOCK_BATCH, BatchedBlockEnv, _BatchHazard, _compact_env,
    _expand_env, _lane_uniform_stmts, _walk_expr, _warps_per_block,
    _watchdog_trip, analyze_batch_safety,
)
from repro.gpu.memory import (
    BatchedSharedMemory, GlobalMemory, finalize_segment_reuse,
)
from repro.gpu.events import KernelStats

__all__ = [
    "TraceSafety", "analyze_trace_safety", "emit_trace_source",
    "compile_trace_source", "run_trace",
]


# --------------------------------------------------------------------------
# eligibility
# --------------------------------------------------------------------------

class TraceSafety:
    """Verdict of the static trace-compilation proof for one kernel."""

    __slots__ = ("eligible", "reason")

    def __init__(self, eligible: bool, reason: str = ""):
        self.eligible = eligible
        self.reason = reason

    def __repr__(self):
        return f"TraceSafety(eligible={self.eligible}, reason={self.reason!r})"


_SUPPORTED_STMTS = (K.Assign, K.GLoad, K.GStore, K.SLoad, K.SStore,
                    K.If, K.While, K.UniformWhile, K.Sync, K.ShflDown,
                    K.Comment)


def _expr_unsupported(e) -> str | None:
    """First unsupported construct in an expression tree, or None."""
    if isinstance(e, (K.Const, K.Reg, K.Special, K.Param)):
        return None
    if isinstance(e, K.Bin):
        if e.op not in _BINOPS and e.op not in ("&&", "||"):
            return f"binary op {e.op!r}"
        return _expr_unsupported(e.a) or _expr_unsupported(e.b)
    if isinstance(e, K.Un):
        if e.op not in ("neg", "not", "inv"):
            return f"unary op {e.op!r}"
        return _expr_unsupported(e.a)
    if isinstance(e, K.Call):
        if e.fn not in _CALLS:
            return f"intrinsic {e.fn!r}"
        for a in e.args:
            bad = _expr_unsupported(a)
            if bad:
                return bad
        return None
    if isinstance(e, K.Cast):
        return _expr_unsupported(e.a)
    if isinstance(e, K.Select):
        return (_expr_unsupported(e.cond) or _expr_unsupported(e.a)
                or _expr_unsupported(e.b))
    return f"expression node {type(e).__name__}"


def analyze_trace_safety(kernel: K.Kernel) -> TraceSafety:
    """Static proof that ``kernel`` can be trace-compiled bit-identically.

    Requirements: every statement/expression is in the code generator's
    vocabulary, there are no atomics (their duplicate-combine order is a
    property of ``ufunc.at`` dispatch, left to the interpreters), and
    the batched block-independence proof holds — the trace executor
    advances chunks exactly like the batched one, so it inherits both
    the proof and the runtime checked-hazard discipline.
    """
    for s, _ in K.walk_stmts(kernel.body):
        if isinstance(s, K.AtomicUpdate):
            return TraceSafety(False, "atomic update (order-sensitive)")
        if not isinstance(s, _SUPPORTED_STMTS):
            return TraceSafety(
                False, f"unsupported statement {type(s).__name__}")
        for f in K.EXPR_FIELDS.get(type(s), ()):
            bad = _expr_unsupported(getattr(s, f))
            if bad:
                return TraceSafety(False, f"unsupported {bad}")
    safety = analyze_batch_safety(kernel)
    if not safety.batchable:
        return TraceSafety(False, safety.reason)
    return TraceSafety(True, "")


#: thread-geometry specials that vary across the lanes of one *warp*
#: (``ty`` is constant within a warp whenever ``blockDim.x`` is a
#: multiple of the warp size — the runtime guard the emitter adds)
_WARP_VARYING_SPECIALS = frozenset({"tx", "tid"})


def _warp_uniform_stmts(kernel) -> frozenset:
    """ids of GLoads with a per-warp-uniform index in warp-uniform control.

    The warp-level sibling of
    :func:`~repro.gpu.executor_batched._lane_uniform_stmts`: a register
    is warp-uniform when every assignment to it is of a warp-uniform
    expression and not under warp-divergent control, so all lanes of a
    warp always hold the same value.  Unlike the block-level verdict the
    collection also requires warp-uniform *control* around the load —
    the representative helper runs on partial region masks too, and
    warp-uniform control is what makes every such mask constant within
    each warp (whole warps on or off).  Both halves of the verdict
    assume ``ty`` is warp-uniform, which holds exactly when
    ``blockDim.x % warp_size == 0``; the generated code guards on that
    at runtime and falls back to the per-lane helper.
    """
    varying: set[str] = set()

    def is_varying(e) -> bool:
        regs, specs = set(), set()
        _walk_expr(e, regs, specs)
        return bool(specs & _WARP_VARYING_SPECIALS) or bool(regs & varying)

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

    def collect(stmts, div):
        for s in stmts:
            if isinstance(s, K.GLoad) and not div \
                    and not is_varying(s.index):
                out.add(id(s))
            elif isinstance(s, K.If):
                d = div or is_varying(s.cond)
                collect(s.then, d)
                collect(s.orelse, d)
            elif isinstance(s, (K.While, K.UniformWhile)):
                collect(s.body, div or is_varying(s.cond))

    collect(kernel.body, False)
    return frozenset(out)


# --------------------------------------------------------------------------
# runtime helpers (bound into the generated code's globals)
# --------------------------------------------------------------------------

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


def _massign(E, name: str, v, m: np.ndarray) -> None:
    """Masked register assignment — ``executor._assign`` minus the
    full-mask branch (the generated code dispatches that statically)."""
    v = np.asarray(v)
    reg = E.regs.get(name)
    if reg is None or reg.dtype != v.dtype:
        base = np.zeros(m.shape, dtype=v.dtype)
        if reg is not None:  # dtype change: keep old values where inactive
            np.copyto(base, reg, casting="unsafe")
        E.regs[name] = base
        reg = base
    np.copyto(reg, v, where=m)


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


def _arow(attr, sid, execs, lanes, slots):
    """Attribution row ``sid``, charged one execution of its statement."""
    row = attr.row(sid)
    row.execs += execs
    row.lanes += lanes
    row.warp_slots += slots
    return row


#: the memory counters an access's attribution row takes as deltas
_MEM_COUNTERS = ("global_transactions", "l2_transactions", "global_bytes",
                 "dram_bytes", "shared_accesses", "bank_conflict_extra")


def _snap(st) -> tuple:
    """The memory counters just before one access."""
    return tuple(getattr(st, f) for f in _MEM_COUNTERS)


def _attr_mem(row, st, before: tuple) -> None:
    """Charge one access's memory-counter deltas to its attribution row."""
    for f, b in zip(_MEM_COUNTERS, before):
        setattr(row, f, getattr(row, f) + getattr(st, f) - b)


def _act_of(idx: np.ndarray, m: np.ndarray, mi) -> np.ndarray:
    """Active-lane gather of a (broadcast) chunk-shaped index/value."""
    if idx.flags["C_CONTIGUOUS"]:
        return idx.reshape(-1).take(mi)
    return idx[m]


def _wk(E, mi) -> np.ndarray:
    """Block-qualified warp key of each active lane (the transaction and
    bank counters group lanes by it; ``E.warpkey`` is C-contiguous)."""
    w = E.warpkey.reshape(-1)
    return w if mi is None else w.take(mi)


def _lanes_of(col: np.ndarray, mi, n: int) -> np.ndarray:
    """A per-row column (block id, shared-memory row) spread to the
    active lanes — all ``n`` lanes of every row when ``mi`` is None."""
    return np.repeat(col, n) if mi is None else col.take(mi // n)


def _gload(E, name, buf, idx, m, mi, wk, bf, slot, check) -> None:
    """Global load for one region; mirrors the batched ``do_gload`` /
    ``GlobalMemory.load_batched`` pair (bounds, hazard check, gather,
    transaction accounting) with the region gathers precomputed."""
    gm = E.gmem
    shp = m.shape
    idx = np.asarray(idx)
    if idx.shape != shp:
        idx = np.broadcast_to(idx, shp)
    act = idx.reshape(-1) if mi is None else _act_of(idx, m, mi)
    if check is not None:
        owners, maxread = check
        ci = np.minimum(act, owners.size - 1)
        own = owners[ci]
        if ((own != -1) & (own > bf)).any():
            raise _BatchHazard(buf.name)
        maxread[ci] = np.maximum(bf, maxread[ci])
    gm._check_bounds(buf, act)
    vals = buf.data[act]
    if E.acct is not None:
        gm._count_transactions_batched(buf, act, wk, bf, E.acct,
                                       reuse=(E.seg_cache, slot))
    if mi is None:
        E.regs[name] = vals.reshape(shp)
    else:
        reg = E.regs.get(name)
        if reg is None or reg.dtype != vals.dtype:
            base = np.zeros(shp, dtype=vals.dtype)
            if reg is not None:
                np.copyto(base, reg, casting="unsafe")
            E.regs[name] = base
            reg = base
        reg.reshape(-1)[mi] = vals


def _gload_u(E, name, buf, idx, m, mi, wk, bf, slot, check) -> None:
    """Per-block-uniform global load (static lane-uniformity verdict).

    With a full region mask, one representative per block stands in for
    every lane — no per-lane index materialization at all.  Counter
    parity with the generic path is exact: a uniform index gives one
    segment per warp and one tagged segment per block either way (the
    batched executor's ``reps`` fast path makes the same argument).  The
    ``m`` array is passed to the transaction counter as ``act_idx``
    because with a full mask the active-lane count *is* ``m.size`` — the
    reps path only reads ``act_idx.size``.
    """
    if mi is not None:
        _gload(E, name, buf, idx, m, mi, wk, bf, slot, check)
        return
    gm = E.gmem
    shp = m.shape
    idxb = np.asarray(idx)
    if idxb.shape != shp:
        idxb = np.broadcast_to(idxb, shp)
    rep = idxb[:, 0]
    rblk = E.block_ids
    if check is not None:
        owners, maxread = check
        ci = np.minimum(rep, owners.size - 1)
        own = owners[ci]
        if ((own != -1) & (own > rblk)).any():
            raise _BatchHazard(buf.name)
        maxread[ci] = np.maximum(rblk, maxread[ci])
    gm._check_bounds(buf, rep)
    v = buf.data[rep]
    if E.acct is not None:
        gm._count_transactions_batched(buf, m, wk, None, E.acct,
                                       reuse=(E.seg_cache, slot),
                                       reps=(rep, rblk))
    out = np.empty(shp, dtype=v.dtype)
    out[...] = v[:, None]
    E.regs[name] = out


def _gload_w(E, name, buf, idxw, m, full, slot, check, ws) -> None:
    """Per-warp-uniform global load (static verdict + runtime guard).

    ``idxw`` was evaluated on warp-representative slices — one column
    per warp — so no per-lane index array is ever materialized.  Only
    reached when ``blockDim.x % warp_size == 0`` and the static
    :func:`_warp_uniform_stmts` verdict holds: each warp's lanes share
    one index value and the region mask is constant within each warp,
    so active warps (and their first lanes) stand in for active lanes.
    Counter parity with the per-lane path is exact — one segment per
    active warp makes ``requests`` the active-warp count, the per-block
    dedup collapses to the representatives, and the byte count uses the
    true lane count (active warps x warp width); the hazard check and
    the bounds check see the same index values in the same order.
    """
    gm = E.gmem
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
        miw = np.flatnonzero(np.ascontiguousarray(m[:, ::ws]).reshape(-1))
        rep = idxw.reshape(-1).take(miw)
        rblk = E.block_ids[miw // nw]
        lanes = miw.size * ws
    if check is not None:
        owners, maxread = check
        ci = np.minimum(rep, owners.size - 1)
        own = owners[ci]
        if ((own != -1) & (own > rblk)).any():
            raise _BatchHazard(buf.name)
        maxread[ci] = np.maximum(rblk, maxread[ci])
    gm._check_bounds(buf, rep)
    vals = buf.data[rep]
    if E.acct is not None:
        gm._count_transactions_batched(buf, rep, None, None, E.acct,
                                       reuse=(E.seg_cache, slot),
                                       wreps=(rblk, lanes))
    if miw is None:
        out = np.empty(shp, dtype=vals.dtype)
        out.reshape(nb, nw, ws)[...] = vals.reshape(nb, nw)[:, :, None]
        E.regs[name] = out
    else:
        reg = E.regs.get(name)
        if reg is None or reg.dtype != vals.dtype:
            base = np.zeros(shp, dtype=vals.dtype)
            if reg is not None:
                np.copyto(base, reg, casting="unsafe")
            E.regs[name] = base
            reg = base
        reg.reshape(nb * nw, ws)[miw] = vals[:, None]


def _gstore(E, buf, idx, val, m, mi, wk, bf, slot, check) -> None:
    """Global store for one region; mirrors ``do_gstore`` /
    ``store_batched`` (cast-then-gather value order, hazard claim before
    bounds, duplicate indices resolve in flattened lane order)."""
    gm = E.gmem
    shp = m.shape
    idx = np.asarray(idx)
    if idx.shape != shp:
        idx = np.broadcast_to(idx, shp)
    act = idx.reshape(-1) if mi is None else _act_of(idx, m, mi)
    if check is not None:
        owners, maxread = check
        ci = np.minimum(act, owners.size - 1)
        own = owners[ci]
        if ((own != -1) & (own != bf)).any():
            raise _BatchHazard(buf.name)
        if (maxread[ci] > bf).any():
            raise _BatchHazard(buf.name)
        owners[ci] = bf
    gm._check_bounds(buf, act)
    sv = np.asarray(val)
    if sv.shape != shp:
        sv = np.broadcast_to(sv, shp)
    sv = np.asarray(sv, dtype=buf.dtype.np)
    buf.data[act] = sv.reshape(-1) if mi is None else _act_of(sv, m, mi)
    if E.acct is not None:
        gm._count_transactions_batched(buf, act, wk, bf, E.acct,
                                       reuse=(E.seg_cache, slot))


def _sbounds(name: str, size: int, act: np.ndarray) -> None:
    from repro.errors import OutOfBoundsError
    if act.size and (act.min() < 0 or act.max() >= size):
        bad = act[(act < 0) | (act >= size)][0]
        raise OutOfBoundsError(
            f"index {int(bad)} out of bounds for shared array "
            f"{name!r} of size {size}"
        )


def _sload(E, name, arr, idx, m, mi, wk, rw) -> None:
    """Shared load; mirrors ``BatchedSharedMemory.load`` with the region
    gathers precomputed (bank accounting shared)."""
    sm = E.smem
    shp = m.shape
    a = sm._arrays[arr]
    idx = np.asarray(idx)
    if idx.shape != shp:
        idx = np.broadcast_to(idx, shp)
    act = idx.reshape(-1) if mi is None else _act_of(idx, m, mi)
    _sbounds(arr, a.shape[1], act)
    vals = a[rw, act]
    if sm.stats is not None:
        sm._count_banks(arr, act, wk)
    if mi is None:
        E.regs[name] = vals.reshape(shp)
    else:
        reg = E.regs.get(name)
        if reg is None or reg.dtype != vals.dtype:
            base = np.zeros(shp, dtype=vals.dtype)
            if reg is not None:
                np.copyto(base, reg, casting="unsafe")
            E.regs[name] = base
            reg = base
        reg.reshape(-1)[mi] = vals


def _sstore(E, arr, idx, val, m, mi, wk, rw) -> None:
    sm = E.smem
    shp = m.shape
    a = sm._arrays[arr]
    idx = np.asarray(idx)
    if idx.shape != shp:
        idx = np.broadcast_to(idx, shp)
    act = idx.reshape(-1) if mi is None else _act_of(idx, m, mi)
    _sbounds(arr, a.shape[1], act)
    sv = np.asarray(val)
    if sv.shape != shp:
        sv = np.broadcast_to(sv, shp)
    sv = np.asarray(sv, dtype=a.dtype)
    a[rw, act] = sv.reshape(-1) if mi is None else _act_of(sv, m, mi)
    if sm.stats is not None:
        sm._count_banks(arr, act, wk)


def _shfl(E, dst, src, delta, ws, m, full) -> None:
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


def _sync(E, m, aws, row) -> None:
    """Barrier: the divergence check always runs; the counters only on
    a counted launch (``aws`` is None on a values-only one)."""
    anyb = m.any(axis=1)
    allb = m.all(axis=1)
    partial = anyb & ~allb
    if partial.any():
        bad = int(np.flatnonzero(partial)[0])
        raise BarrierDivergenceError(
            "__syncthreads() executed under divergent control flow "
            f"({int(m[bad].sum())}/{m.shape[1]} threads active)"
        )
    if aws is None:
        return
    E.stats.barriers += int(anyb.sum())
    E.stats.warp_inst_slots += aws
    if row is not None:
        arrived = int(anyb.sum())
        row.execs += arrived
        row.lanes += int(m.sum())
        row.warp_slots += aws
        row.barrier_arrivals += arrived
        row.barrier_wait_slots += aws


#: globals bound into every generated kernel function
_BASE_GLOBALS = {
    "np": np,
    "ASR": np.asarray,
    "TRU": _truthy,
    "RED": np.add.reduceat,
    "WHERE": np.where,
    "NEG": np.negative,
    "INV": np.invert,
    "ADD": np.add, "SUB": np.subtract, "MUL": np.multiply,
    "DIV": _c_div, "MOD": _c_mod,
    "LSH": np.left_shift, "RSH": np.right_shift,
    "BAND": np.bitwise_and, "BOR": np.bitwise_or, "BXOR": np.bitwise_xor,
    "LT": np.less, "LE": np.less_equal,
    "GT": np.greater, "GE": np.greater_equal,
    "EQ": np.equal, "NE": np.not_equal,
    "I32": np.int32, "I64": np.int64,
    "F32": np.float32, "F64": np.float64, "BOOL": np.bool_,
    "DT_i32": np.dtype(np.int32), "DT_i64": np.dtype(np.int64),
    "DT_f32": np.dtype(np.float32), "DT_f64": np.dtype(np.float64),
    "DT_b": np.dtype(np.bool_),
    "_bc": _bc, "_fresh": _fresh, "_full": _full, "_massign": _massign,
    "_cast": _cast, "_param": _param, "_arow": _arow,
    "_snap": _snap, "_attr_mem": _attr_mem,
    "_gload": _gload, "_gload_u": _gload_u, "_gload_w": _gload_w,
    "_gstore": _gstore,
    "_sload": _sload, "_sstore": _sstore, "_shfl": _shfl, "_sync": _sync,
    "_flat": np.flatnonzero, "_wk": _wk, "_lanes_of": _lanes_of,
    "_compact_env": _compact_env, "_expand_env": _expand_env,
    "_warps_per_block": _warps_per_block, "_watchdog_trip": _watchdog_trip,
}
for _fn_name, _fn in _CALLS.items():
    _BASE_GLOBALS[f"C_{_fn_name}"] = _fn

_BINOP_NAMES = {
    "+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV", "%": "MOD",
    "<<": "LSH", ">>": "RSH", "&": "BAND", "|": "BOR", "^": "BXOR",
    "<": "LT", "<=": "LE", ">": "GT", ">=": "GE", "==": "EQ", "!=": "NE",
}

_CONST_CTORS = {
    np.dtype(np.int32): "I32", np.dtype(np.int64): "I64",
    np.dtype(np.float32): "F32", np.dtype(np.float64): "F64",
    np.dtype(np.bool_): "BOOL",
}

_DTYPE_NAMES = {
    np.dtype(np.int32): "DT_i32", np.dtype(np.int64): "DT_i64",
    np.dtype(np.float32): "DT_f32", np.dtype(np.float64): "DT_f64",
    np.dtype(np.bool_): "DT_b",
}

_SPECIAL_NAMES = {
    "tx": "TX", "ty": "TY", "tid": "TID", "bx": "BX",
    "bdx": "BDX", "bdy": "BDY", "gdx": "GDX", "ntid": "NTID",
}

#: RHS roots guaranteed to produce freshly-owned arrays (ufunc outputs):
#: a full-mask assign can bind them without a defensive copy
_OWNED_ROOTS = (K.Bin, K.Un, K.Call, K.Select)

#: the line re-binding the chunk-shape locals after a compaction or an
#: expansion changed ``E`` (R is the same dict *object* only until
#: ``_compact_env`` clones it, so it must be re-fetched too).  Per-lane
#: id arrays are not re-bound here: regions derive them from ``mi``.
_RECOMPUTE = "R = E.regs; SHP = E.block_mask.shape; NB = SHP[0]; BX = E.bx"


# --------------------------------------------------------------------------
# the code generator
# --------------------------------------------------------------------------

class _Region:
    """Names of one branch region's per-region variables in the
    generated source.  ``f`` is the runtime full-mask flag expression
    (``"True"`` at top level), ``aw``/``aws`` the active-warp vector and
    total of the region (bound only on a counted launch, ``CNT``),
    ``mi``/``wk``/``bf``/``rw`` the lazily-emitted active-lane gathers
    (``wk`` None unless counted, ``bf`` None unless counted or
    hazard-checked), ``eb``/``el`` the attribution block/lane counts
    (defined only under an ``A is not None`` guard)."""

    __slots__ = ("m", "f", "aw", "aws", "mi", "wk", "bf", "rw", "eb", "el")

    def __init__(self, m, f, aw, aws):
        self.m, self.f, self.aw, self.aws = m, f, aw, aws
        self.mi = self.wk = self.bf = self.rw = None
        self.eb = self.el = None


class _Emitter:
    def __init__(self, kernel: K.Kernel, device: DeviceProperties):
        self.kernel = kernel
        self.device = device
        self.uniform_ids = _lane_uniform_stmts(kernel)
        self.warp_ids = _warp_uniform_stmts(kernel)
        self.used_wok = False
        self.lines: list[str] = []
        self.ind = 1
        self.uid = 0
        self.next_slot = 0
        self.slot_sids: dict[int, int] = {}
        self.params: set[str] = set()
        self.bufs: set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def w(self, line: str = "") -> None:
        self.lines.append("    " * self.ind + line if line else "")

    def fresh(self) -> int:
        self.uid += 1
        return self.uid

    def alloc_slot(self, sid: int) -> int:
        slot = self.next_slot
        self.next_slot += 1
        self.slot_sids[slot] = sid
        return slot

    # -- expressions ------------------------------------------------------

    def expr(self, e: K.Expr, rep: bool = False) -> str:
        """One expression; ``rep=True`` evaluates on warp-representative
        slices (one column per warp) — only valid for expressions the
        warp-uniformity verdict covers."""
        if isinstance(e, K.Const):
            ctor = _CONST_CTORS[e.dtype.np]
            if e.dtype.np.kind == "f":
                v = float(e.value)
                if v != v or v in (float("inf"), float("-inf")):
                    return f'{ctor}(float("{v!r}"))'
                return f"{ctor}({v!r})"
            if e.dtype.np.kind == "b":
                return f"{ctor}({bool(e.value)!r})"
            return f"{ctor}({int(e.value)!r})"
        if isinstance(e, K.Reg):
            if rep:
                return f"R[{e.name!r}][:, ::{int(self.device.warp_size)}]"
            return f"R[{e.name!r}]"
        if isinstance(e, K.Special):
            if rep and e.kind in _WARP_VARYING_SPECIALS:
                raise SimulationError(
                    f"special {e.kind!r} in a warp-representative "
                    "expression (analysis bug)")
            if rep and e.kind == "ty":
                return f"TY[::{int(self.device.warp_size)}]"
            return _SPECIAL_NAMES[e.kind]
        if isinstance(e, K.Param):
            self.params.add(e.name)
            return f"P_{e.name}"
        if isinstance(e, K.Bin):
            a, b = self.expr(e.a, rep), self.expr(e.b, rep)
            if e.op == "&&":
                return f"(TRU(ASR({a})) & TRU(ASR({b})))"
            if e.op == "||":
                return f"(TRU(ASR({a})) | TRU(ASR({b})))"
            return f"{_BINOP_NAMES[e.op]}({a}, {b})"
        if isinstance(e, K.Un):
            a = self.expr(e.a, rep)
            if e.op == "neg":
                return f"NEG({a})"
            if e.op == "not":
                return f"(~TRU(ASR({a})))"
            return f"INV({a})"
        if isinstance(e, K.Call):
            args = ", ".join(self.expr(a, rep) for a in e.args)
            return f"C_{e.fn}({args})"
        if isinstance(e, K.Cast):
            return f"_cast({self.expr(e.a, rep)}, {_DTYPE_NAMES[e.dtype.np]})"
        if isinstance(e, K.Select):
            c = self.expr(e.cond, rep)
            a, b = self.expr(e.a, rep), self.expr(e.b, rep)
            return f"WHERE(TRU(ASR({c})), {a}, {b})"
        raise SimulationError(f"unknown expression node {e!r}")

    # -- regions ----------------------------------------------------------

    def region_prologue(self, r: _Region, stmts: tuple) -> None:
        gmem = [s for s in stmts if isinstance(s, (K.GLoad, K.GStore))]
        need_s = any(isinstance(s, (K.SLoad, K.SStore)) for s in stmts)
        need_attr = any(not isinstance(s, (K.Comment, K.Sync))
                        for s in stmts)
        # when every memory statement of the region takes the
        # warp-representative path, the per-lane gathers are dead weight
        # on the WOK path — emit them only for the fallback layout
        wonly = bool(gmem) and not need_s and all(
            isinstance(s, K.GLoad) and id(s) in self.warp_ids
            for s in gmem)
        if gmem or need_s:
            u = self.fresh()
            r.mi, r.wk = f"mi{u}", f"wk{u}"
            if wonly:
                self.used_wok = True
                self.w("if not WOK:")
                self.ind += 1
            self.w(f"{r.mi} = None" if r.f == "True" else
                   f"{r.mi} = None if {r.f} else _flat({r.m}.reshape(-1))")
            self.w(f"{r.wk} = _wk(E, {r.mi}) if CNT else None")
            if gmem:
                # block ids feed only the hazard check and the counters
                need = " or ".join(["CNT"] + [
                    f"CK_{b} is not None"
                    for b in sorted({s.buf for s in gmem})])
                if all(isinstance(s, K.GLoad) and id(s) in self.uniform_ids
                       for s in gmem):
                    # per-block-uniform loads need them on partial masks
                    need = f"{r.mi} is not None and ({need})"
                r.bf = f"bf{u}"
                self.w(f"{r.bf} = _lanes_of(E.block_ids, {r.mi}, SHP[1]) "
                       f"if {need} else None")
            if need_s:
                r.rw = f"rw{u}"
                self.w(f"{r.rw} = _lanes_of(E.rows[:, 0], {r.mi}, SHP[1])")
            if wonly:
                self.ind -= 1
        if need_attr:
            u = self.fresh()
            r.eb, r.el = f"eb{u}", f"el{u}"
            self.w("if A is not None:")
            self.ind += 1
            if r.f == "True":
                self.w(f"{r.eb} = NB; {r.el} = {r.m}.size")
            else:
                self.w(f"if {r.f}:")
                self.ind += 1
                self.w(f"{r.eb} = NB; {r.el} = {r.m}.size")
                self.ind -= 1
                self.w("else:")
                self.ind += 1
                self.w(f"{r.eb} = int({r.m}.any(axis=1).sum()); "
                       f"{r.el} = int({r.m}.sum())")
                self.ind -= 1
            self.ind -= 1

    def block(self, stmts: tuple, r: _Region) -> None:
        self.region_prologue(r, stmts)
        for s in stmts:
            self.stmt(s, r)

    def attr_row(self, r: _Region, sid: int, extra: tuple = ()) -> None:
        """The standard execs/lanes/warp_slots attribution block (an
        attribution launch is always a counted one: ``A`` implies
        ``CNT``)."""
        self.w("if A is not None:")
        self.ind += 1
        self.w(f"_r = _arow(A, {sid}, {r.eb}, {r.el}, {r.aws})")
        for line in extra:
            self.w(line)
        self.ind -= 1

    def count(self, r: _Region, sid: int | None = None, extra: tuple = (),
              pre: tuple = ()) -> None:
        """One statement's counter updates behind the per-launch ``CNT``
        guard: its warp slots, then the raw ``pre`` lines (e.g. the
        attribution snapshots taken before an access), then, given a
        ``sid``, its attribution row."""
        self.w("if CNT:")
        self.ind += 1
        self.w(f"ST.warp_inst_slots += {r.aws}")
        for line in pre:
            self.w(line)
        if sid is not None:
            self.attr_row(r, sid, extra)
        self.ind -= 1

    # -- statements -------------------------------------------------------

    def stmt(self, s: K.Stmt, r: _Region) -> None:
        if isinstance(s, K.Comment):
            return
        if isinstance(s, K.Assign):
            self.emit_assign(s, r)
        elif isinstance(s, K.GLoad):
            self.emit_gload(s, r)
        elif isinstance(s, K.GStore):
            self.emit_gstore(s, r)
        elif isinstance(s, K.SLoad):
            self.emit_sload(s, r)
        elif isinstance(s, K.SStore):
            self.emit_sstore(s, r)
        elif isinstance(s, K.If):
            self.emit_if(s, r)
        elif isinstance(s, K.While):
            self.emit_while(s, r)
        elif isinstance(s, K.UniformWhile):
            self.emit_uwhile(s, r)
        elif isinstance(s, K.Sync):
            self.emit_sync(s, r)
        elif isinstance(s, K.ShflDown):
            self.emit_shfl(s, r)
        else:
            raise SimulationError(f"unknown statement node {s!r}")

    def emit_assign(self, s: K.Assign, r: _Region) -> None:
        u = self.fresh()
        self.count(r, s.sid)
        self.w(f"v{u} = {self.expr(s.value)}")
        own = "_full" if isinstance(s.value, _OWNED_ROOTS) else "_fresh"
        if r.f == "True":
            self.w(f"R[{s.dst!r}] = {own}(v{u}, SHP)")
        else:
            self.w(f"if {r.f}:")
            self.ind += 1
            self.w(f"R[{s.dst!r}] = {own}(v{u}, SHP)")
            self.ind -= 1
            self.w("else:")
            self.ind += 1
            self.w(f"_massign(E, {s.dst!r}, v{u}, {r.m})")
            self.ind -= 1

    #: attribution of a memory access: counter snapshot before, deltas after
    _MEM_PRE = ("if A is not None:", "    _m0 = _snap(ST)")
    _MEM_ATTR = ("_attr_mem(_r, ST, _m0)",)

    def emit_gload(self, s: K.GLoad, r: _Region) -> None:
        u = self.fresh()
        slot = self.alloc_slot(s.sid)
        self.bufs.add(s.buf)
        helper = "_gload_u" if id(s) in self.uniform_ids else "_gload"
        self.count(r, pre=self._MEM_PRE)
        if id(s) in self.warp_ids:
            # warp-representative path, guarded on the runtime layout
            # condition that makes ``ty`` warp-uniform
            self.used_wok = True
            self.w("if WOK:")
            self.ind += 1
            self.w(f"ix{u} = {self.expr(s.index, rep=True)}")
            self.w(f"_gload_w(E, {s.dst!r}, B_{s.buf}, ix{u}, {r.m}, "
                   f"{r.f}, {slot}, CK_{s.buf}, "
                   f"{int(self.device.warp_size)})")
            self.ind -= 1
            self.w("else:")
            self.ind += 1
            self.w(f"ix{u} = {self.expr(s.index)}")
            self.w(f"{helper}(E, {s.dst!r}, B_{s.buf}, ix{u}, {r.m}, "
                   f"{r.mi}, {r.wk}, {r.bf}, {slot}, CK_{s.buf})")
            self.ind -= 1
        else:
            self.w(f"ix{u} = {self.expr(s.index)}")
            self.w(f"{helper}(E, {s.dst!r}, B_{s.buf}, ix{u}, {r.m}, "
                   f"{r.mi}, {r.wk}, {r.bf}, {slot}, CK_{s.buf})")
        self.attr_row(r, s.sid, self._MEM_ATTR)

    def emit_gstore(self, s: K.GStore, r: _Region) -> None:
        u = self.fresh()
        slot = self.alloc_slot(s.sid)
        self.bufs.add(s.buf)
        self.count(r, pre=self._MEM_PRE)
        self.w(f"ix{u} = {self.expr(s.index)}")
        self.w(f"v{u} = {self.expr(s.value)}")
        self.w(f"_gstore(E, B_{s.buf}, ix{u}, v{u}, {r.m}, {r.mi}, "
               f"{r.wk}, {r.bf}, {slot}, CK_{s.buf})")
        self.attr_row(r, s.sid, self._MEM_ATTR)

    def emit_sload(self, s: K.SLoad, r: _Region) -> None:
        u = self.fresh()
        self.count(r, pre=self._MEM_PRE)
        self.w(f"ix{u} = {self.expr(s.index)}")
        self.w(f"_sload(E, {s.dst!r}, {s.arr!r}, ix{u}, {r.m}, {r.mi}, "
               f"{r.wk}, {r.rw})")
        self.attr_row(r, s.sid, self._MEM_ATTR)

    def emit_sstore(self, s: K.SStore, r: _Region) -> None:
        u = self.fresh()
        self.count(r, pre=self._MEM_PRE)
        self.w(f"ix{u} = {self.expr(s.index)}")
        self.w(f"v{u} = {self.expr(s.value)}")
        self.w(f"_sstore(E, {s.arr!r}, ix{u}, v{u}, {r.m}, {r.mi}, "
               f"{r.wk}, {r.rw})")
        self.attr_row(r, s.sid, self._MEM_ATTR)

    def emit_if(self, s: K.If, r: _Region) -> None:
        u = self.fresh()
        mt, me = f"m{u}t", f"m{u}e"
        ft = f"f{u}t"
        awt, awst = f"aw{u}t", f"aws{u}t"
        self.w(f"c{u} = _bc(TRU(ASR({self.expr(s.cond)})), {r.m}.shape)")
        # all-true fast path: the then-region inherits the parent region
        # wholesale and the warp reduceats are skipped (d is 0 in the
        # reference executor too: no else-side warps exist)
        self.w(f"if bool(c{u}.all()):")
        self.ind += 1
        self.w(f"{mt} = {r.m}; {ft} = {r.f}; {me} = None")
        self.w("if CNT:")
        self.w(f"    {awt} = {r.aw}; {awst} = {r.aws}; d{u} = 0")
        self.ind -= 1
        self.w("else:")
        self.ind += 1
        self.w(f"{mt} = {r.m} & c{u}; {me} = {r.m} & ~c{u}; {ft} = False")
        # the warp-level split only feeds the counters
        self.w("if CNT:")
        self.ind += 1
        self.w(f"t{u} = RED({mt}, E.warp_starts, axis=1) > 0")
        self.w(f"e{u} = RED({me}, E.warp_starts, axis=1) > 0")
        self.w(f"d{u} = int((t{u} & e{u}).sum())")
        self.w(f"{awt} = t{u}.sum(axis=1); {awst} = int({awt}.sum())")
        self.ind -= 2
        self.count(r, s.sid, (f"_r.divergence_splits += d{u}",),
                   pre=(f"ST.divergent_branches += d{u}",))
        self.branch_region(s.then, mt, ft, awt, awst, f"{u}t")
        if s.orelse:
            awe, awse = f"aw{u}e", f"aws{u}e"
            self.w(f"if {me} is not None and {me}.any():")
            self.ind += 1
            self.w("if CNT:")
            self.w(f"    {awe} = e{u}.sum(axis=1); {awse} = int({awe}.sum())")
            self.w(f"f{u}e = bool({me}.all())")
            self.branch_region(s.orelse, me, f"f{u}e", awe, awse,
                               f"{u}e", guarded=True)
            self.ind -= 1

    def branch_region(self, stmts: tuple, m: str, f: str, aw: str,
                      aws: str, tag: str, guarded: bool = False) -> None:
        """Emit one branch region, row-compacted when mostly idle.

        The reference executor runs a branch only for blocks whose lanes
        take it; the uncompacted chunk pays full-width array ops for
        every statement regardless.  When at most half the chunk's rows
        have an active lane, slice the environment down to them with the
        While-loop compaction machinery — semantically invisible (dead
        rows touch no memory, no counters, no registers) but it makes
        sparsely-taken branches (a last-block reduction epilogue, a
        ``tid == 0`` partial handoff) cost what they cover.  ``guarded``
        marks regions already emitted under an any-lanes check.
        """
        lv, lc, cp = f"lv{tag}", f"lc{tag}", f"cp{tag}"
        ix, px = f"ix{tag}", f"px{tag}"
        self.w(f"{lv} = {m}.any(axis=1); {lc} = int({lv}.sum())")
        if not guarded:
            self.w(f"if {lc}:")
            self.ind += 1
        self.w(f"{cp} = {lc} * 2 <= {m}.shape[0]")
        self.w(f"if {cp}:")
        self.ind += 1
        self.w(f"{ix} = _flat({lv}); {px} = E")
        self.w(f"E = _compact_env(E, {ix})")
        self.w(f"{m} = {m}[{ix}]; {f} = bool({m}.all())")
        self.w(f"{aw} = np.asarray({aw})[{ix}] if CNT else None")
        self.w(_RECOMPUTE)
        self.ind -= 1
        self.block(stmts, _Region(m, f, aw, aws))
        self.w(f"if {cp}:")
        self.ind += 1
        self.w(f"_expand_env({px}, E, {ix}); E = {px}")
        self.w(_RECOMPUTE)
        self.ind -= 1
        if not guarded:
            self.ind -= 1

    def emit_while(self, s: K.While, r: _Region) -> None:
        u = self.fresh()
        mw = f"m{u}w"
        cond = self.expr(s.cond)
        self.w(f"c{u} = _bc(TRU(ASR({cond})), {r.m}.shape)")
        self.w(f"{mw} = {r.m} & c{u}")
        self.count(r, pre=(
            "if A is not None:",
            f"    _r{u} = _arow(A, {s.sid}, {r.eb}, {r.el}, {r.aws})"))
        self.w(f"stk{u} = []")
        self.w(f"lv{u} = {mw}.any(axis=1)")
        self.w(f"lc{u} = int(lv{u}.sum())")
        self.w(f"while lc{u}:")
        self.ind += 1
        self.w(f"if lc{u} * 2 <= {mw}.shape[0]:")
        self.ind += 1
        self.w(f"ix_ = _flat(lv{u})")
        self.w(f"stk{u}.append((E, ix_))")
        self.w("E = _compact_env(E, ix_)")
        self.w(f"{mw} = {mw}[ix_]")
        self.w(_RECOMPUTE)
        self.ind -= 1
        self.w(f"E.steps += lc{u}")
        self.w("if E.steps > E.watchdog_budget:")
        self.ind += 1
        self.w("_watchdog_trip(E)")
        self.ind -= 1
        self.w(f"f{u}b = bool({mw}.all())")
        # a full body mask means every warp of every row is active:
        # _warps_per_block would reduceat to a constant nwarps vector
        self.w("if CNT:")
        self.ind += 1
        self.w(f"if f{u}b:")
        self.ind += 1
        self.w(f"aw{u}b = np.full({mw}.shape[0], E.nwarps, dtype=np.int64)")
        self.w(f"aws{u}b = {mw}.shape[0] * int(E.nwarps)")
        self.ind -= 1
        self.w("else:")
        self.ind += 1
        self.w(f"aw{u}b = _warps_per_block(E, {mw})")
        self.w(f"aws{u}b = int(aw{u}b.sum())")
        self.ind -= 2
        body = _Region(mw, f"f{u}b", f"aw{u}b", f"aws{u}b")
        self.block(s.body, body)
        self.w(f"c{u} = _bc(TRU(ASR({cond})), {mw}.shape)")
        self.w(f"{mw} = {mw} & c{u}")
        self.count(body, pre=("if A is not None:",
                              f"    _r{u}.warp_slots += aws{u}b"))
        self.w(f"lv{u} = {mw}.any(axis=1)")
        self.w(f"lc{u} = int(lv{u}.sum())")
        self.ind -= 1
        self.unwind(u)

    def emit_uwhile(self, s: K.UniformWhile, r: _Region) -> None:
        u = self.fresh()
        mw, aww = f"m{u}w", f"aw{u}w"
        cond = self.expr(s.cond)
        self.w(f"lv{u} = {r.m}.any(axis=1)")
        self.count(r, pre=(
            "if A is not None:",
            f"    _r{u} = _arow(A, {s.sid}, int(lv{u}.sum()), {r.el}, "
            f"{r.aws})"))
        self.w(f"if lv{u}.any():")
        self.ind += 1
        self.w(f"stk{u} = []")
        self.w(f"{mw} = {r.m}; {aww} = {r.aw} if CNT else None")
        self.w("while True:")
        self.ind += 1
        self.w(f"E.steps += int(lv{u}.sum())")
        self.w("if E.steps > E.watchdog_budget:")
        self.ind += 1
        self.w("_watchdog_trip(E)")
        self.ind -= 1
        self.w(f"c{u} = _bc(TRU(ASR({cond})), {mw}.shape)")
        self.w(f"lv{u} = lv{u} & ({mw} & c{u}).any(axis=1)")
        self.w(f"lc{u} = int(lv{u}.sum())")
        self.w(f"if not lc{u}:")
        self.ind += 1
        self.w("break")
        self.ind -= 1
        self.w(f"if lc{u} * 2 <= {mw}.shape[0]:")
        self.ind += 1
        self.w(f"ix_ = _flat(lv{u})")
        self.w(f"stk{u}.append((E, ix_))")
        self.w("E = _compact_env(E, ix_)")
        self.w(f"{mw} = {mw}[ix_]; lv{u} = lv{u}[ix_]")
        self.w(f"{aww} = {aww}[ix_] if CNT else None")
        self.w(_RECOMPUTE)
        self.ind -= 1
        self.w(f"lf{u} = bool(lv{u}.all())")
        self.w(f"m{u}b = {mw} if lf{u} else {mw} & lv{u}[:, None]")
        self.w(f"f{u}b = bool(m{u}b.all())")
        self.w("if CNT:")
        self.w(f"    aw{u}b = {aww} if lf{u} else np.where(lv{u}, {aww}, 0)")
        self.w(f"    aws{u}b = int(aw{u}b.sum())")
        body = _Region(f"m{u}b", f"f{u}b", f"aw{u}b", f"aws{u}b")
        self.block(s.body, body)
        self.count(body, pre=("if A is not None:",
                              f"    _r{u}.warp_slots += aws{u}b"))
        self.ind -= 1
        self.unwind(u)
        self.ind -= 1

    def unwind(self, u: int) -> None:
        """Pop every compaction level and restore the chunk locals."""
        self.w(f"while stk{u}:")
        self.ind += 1
        self.w(f"_p, ix_ = stk{u}.pop()")
        self.w("_expand_env(_p, E, ix_)")
        self.w("E = _p")
        self.ind -= 1
        self.w(_RECOMPUTE)

    def emit_sync(self, s: K.Sync, r: _Region) -> None:
        self.w(f"_sync(E, {r.m}, {r.aws} if CNT else None, "
               f"None if A is None else A.row({s.sid}))")

    def emit_shfl(self, s: K.ShflDown, r: _Region) -> None:
        self.count(r, s.sid)
        self.w(f"_shfl(E, {s.dst!r}, {s.src!r}, {int(s.delta)}, "
               f"{int(self.device.warp_size)}, {r.m}, {r.f})")

    # -- assembly ---------------------------------------------------------

    def emit(self) -> str:
        top = _Region("m0", "True", "aw0", "aws0")
        self.block(self.kernel.body, top)
        body = self.lines
        head = [
            f"# trace-compiled kernel {self.kernel.name!r} "
            "(generated by repro.gpu.executor_trace)",
            "_SLOT_SIDS = " + repr(self.slot_sids),
            "def _run_chunk(E):",
            "    GM = E.gmem; ST = E.stats; A = E.attr; R = E.regs",
            # counted launch (off on a counter-memo hit): every line whose
            # only consumer is a counter sits behind this flag
            "    CNT = E.acct is not None",
            "    SHP = E.block_mask.shape; NB = SHP[0]",
            "    TX = E.tx; TY = E.ty; TID = E.tid; BX = E.bx",
            "    BDX = E.bdx; BDY = E.bdy; GDX = E.gdx; NTID = E.ntid",
        ]
        for p in sorted(self.params):
            head.append(f"    P_{p} = _param(E, {p!r})")
        for b in sorted(self.bufs):
            head.append(f"    B_{b} = GM[{b!r}]")
            head.append(f"    CK_{b} = None if E.check is None "
                        f"else E.check.get({b!r})")
        if self.used_wok:
            head.append("    WOK = int(E.bdx) % "
                        f"{int(self.device.warp_size)} == 0")
        head.append("    m0 = E.block_mask; f0 = True")
        head.append("    if CNT:")
        head.append("        aw0 = np.full(NB, E.nwarps, dtype=np.int64); "
                    "aws0 = NB * int(E.nwarps)")
        if not body:
            body = ["    pass"]
        return "\n".join(head + body) + "\n"


def emit_trace_source(kernel: K.Kernel, device: DeviceProperties) -> str:
    """Generate the per-chunk NumPy source for one eligible kernel.

    The output is deterministic in (kernel, device) and self-contained
    modulo the runtime helpers in :data:`_BASE_GLOBALS` — it embeds its
    own ``_SLOT_SIDS`` map (local segment-reuse slot -> stamped sid), so
    a source cached by the serve layer carries everything a fresh
    process needs.
    """
    return _Emitter(kernel, device).emit()


def compile_trace_source(src: str):
    """``exec`` one generated source; returns ``(fn, slot_sids)``."""
    ns = dict(_BASE_GLOBALS)
    exec(compile(src, "<trace-kernel>", "exec"), ns)
    return ns["_run_chunk"], ns["_SLOT_SIDS"]


# --------------------------------------------------------------------------
# launch driver
# --------------------------------------------------------------------------

def run_trace(ck, gmem: GlobalMemory, grid_dim: int,
              block_dim: tuple[int, int], stats: KernelStats,
              params: dict, budget: float, block_batch: int | None,
              check: dict | None = None, count: bool = True) -> KernelStats:
    """Execute a validated trace-mode launch over block chunks.

    Mirrors :func:`~repro.gpu.executor_batched.run_batched`'s chunk
    discipline exactly (per-launch ``steps`` and segment-reuse state
    carry across chunks; checked-hazard state resets at chunk
    boundaries; the cross-block reuse correction runs once at launch
    end) so results and counters are invariant under ``block_batch``.
    Faults, stuck-warp mode, and TraceEvent collection never reach this
    driver — :meth:`~repro.gpu.executor.CompiledKernel.effective_mode`
    demotes those launches to the batched path.  ``count=False`` (a
    counter-memo hit) executes values only, as in ``run_batched``.
    """
    bdx, bdy = block_dim
    chunk = int(block_batch) if block_batch and block_batch > 0 \
        else DEFAULT_BLOCK_BATCH
    fn = ck._trace_callable()
    acct = stats if count else None
    seg_cache: dict = {}
    steps = 0
    for start in range(0, grid_dim, chunk):
        ids = np.arange(start, min(start + chunk, grid_dim),
                        dtype=np.int64)
        env = BatchedBlockEnv(bdx, bdy, grid_dim, ids, gmem, stats,
                              params, ck.device.warp_size, False)
        env.smem = BatchedSharedMemory(
            ck.device, ck.kernel.shared, acct, len(ids),
            faults=None, block_ids=ids)
        env.acct = acct
        env.seg_cache = seg_cache
        env.kernel_name = ck.kernel.name
        env.steps = steps
        env.watchdog_budget = budget
        env.check = check
        env.attr = stats.attribution
        try:
            fn(env)
        except KeyError as e:  # register read before assignment
            raise SimulationError(
                f"register {e.args[0]!r} read before assignment") from None
        steps = env.steps
        if check is not None and start + chunk < grid_dim:
            # chunk boundary: earlier chunks are complete and every
            # later block outranks them — reset the hazard state
            for owners, maxread in check.values():
                owners.fill(-1)
                maxread.fill(-1)
    if count:
        finalize_segment_reuse(seg_cache, stats,
                               ck.device.transaction_bytes,
                               attr=stats.attribution,
                               slot_sids=ck._trace_slot_sids)
    return stats
