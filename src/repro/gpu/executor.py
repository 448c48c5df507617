"""Warp-synchronous block executor for the kernel IR.

Execution model: one thread block at a time, all of its threads advanced in
lock step one statement at a time.  Per-thread registers are NumPy vectors of
length ``blockDim.x * blockDim.y``; divergent control flow is realized with
boolean *active masks* (the standard SIMT reconvergence-stack model).  This
is stronger than real hardware in exactly one way — stores become visible to
the whole block at the next statement — which the lowering does not rely on:
it still emits the ``__syncthreads`` barriers the algorithms require, and the
cost model charges for them.

For speed the IR is *compiled to Python closures once per kernel* (a tree
walk per statement execution would dominate the simulation time; see the
optimization guidance in the project's HPC coding guides: hoist work out of
the hot loop).

This module is the **reference** executor: it advances one block at a
time, which keeps the semantics obvious and auditable.  It also hosts
:class:`CompiledKernel`, which dispatches each launch to one of three
executor modes, all pinned bit-identical in results and counters:

* ``"trace"`` — the kernel compiled to generated whole-array NumPy
  source (:mod:`repro.gpu.executor_trace`);
* ``"batched"`` — closures over a leading block axis, all blocks of a
  chunk per statement (:mod:`repro.gpu.executor_batched`);
* ``"reference"`` — this module's one-block-at-a-time closures.

Pin one with ``CompiledKernel.run(..., mode=...)`` or ``REPRO_EXECUTOR``.

Counter memo: when the static analysis proves a kernel's counters
data-independent, a ``trace`` or ``batched`` launch whose shape
(geometry, the params that reach a condition or an index, and the
buffer layout) matches an earlier counted launch of either mode runs
values only, without the bounds and hazard checks that launch passed,
and returns a copy of that launch's
:class:`~repro.gpu.events.KernelStats`.  The reference executor always
counts: it is the oracle the memo is checked against.  The unpinned
default is tiered on launch history: a kernel's first launch runs
``batched``, every later launch of a trace-eligible kernel runs
``trace`` (counted on a memo miss, values only on a hit).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from collections import OrderedDict

import numpy as np

from repro.dtypes import DType
from repro.errors import (
    BarrierDivergenceError, SimulationError, WatchdogTimeoutError,
)
from repro.gpu import kernelir as K
from repro.gpu.device import DeviceProperties
from repro.gpu.events import AttributionTable, KernelStats, TraceEvent
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.obs import timeline as _timeline

__all__ = ["CompiledKernel", "BlockEnv", "DEFAULT_WATCHDOG_BUDGET"]

#: Default per-launch watchdog budget, in loop-iteration *steps* (the only
#: way a kernel can run unboundedly in this IR — straight-line code is
#: finite).  The largest legitimate launches in the repo execute on the
#: order of 10^5 loop steps; the default leaves a ~10x margin while still
#: converting an infinite loop into a typed error in seconds, not hours.
DEFAULT_WATCHDOG_BUDGET = 1_000_000

#: per-GLoad/GStore statement ids keying the segment-reuse cache
_stmt_slots = itertools.count()


# --------------------------------------------------------------------------
# numeric helpers (C semantics where they differ from NumPy's)
# --------------------------------------------------------------------------

def _truthy(a: np.ndarray) -> np.ndarray:
    if a.dtype == np.bool_:
        return a
    return a != 0


def _c_div(a, b):
    """C division: truncating for integers, true division for floats."""
    a = np.asarray(a)
    if a.dtype.kind in "fc":
        return a / b
    with np.errstate(divide="ignore"):
        q = np.floor_divide(a, b)
        r = a - q * b
        # floor and trunc differ when signs differ and remainder is nonzero
        fix = (r != 0) & ((a < 0) != (np.asarray(b) < 0))
        return q + fix


def _c_mod(a, b):
    """C remainder (sign of the dividend)."""
    a = np.asarray(a)
    if a.dtype.kind in "fc":
        return np.fmod(a, b)
    with np.errstate(divide="ignore"):
        return a - _c_div(a, b) * b


_BINOPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _c_div,
    "%": _c_mod,
    "<<": np.left_shift,
    ">>": np.right_shift,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

_CALLS = {
    "fmax": np.fmax, "fmaxf": np.fmax,
    "fmin": np.fmin, "fminf": np.fmin,
    "fabs": np.abs, "fabsf": np.abs, "abs": np.abs,
    "sqrt": np.sqrt, "sqrtf": np.sqrt,
    "exp": np.exp, "expf": np.exp,
    "log": np.log, "logf": np.log,
    "sin": np.sin, "cos": np.cos,
    "floor": np.floor, "ceil": np.ceil,
    "pow": np.power, "powf": np.power,
    "min": np.minimum, "max": np.maximum,
}

#: ufuncs for AtomicUpdate combination
ATOMIC_OPS = {
    "+": np.add,
    "*": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
}


# --------------------------------------------------------------------------
# per-block environment
# --------------------------------------------------------------------------

class BlockEnv:
    """Mutable state of one executing thread block."""

    __slots__ = (
        "regs", "tx", "ty", "tid", "bx", "bdx", "bdy", "gdx", "ntid",
        "warp_of", "warp_starts", "nwarps", "gmem", "smem", "stats",
        "params", "block_mask", "trace", "block_index", "seg_cache",
        "kernel_name", "steps", "watchdog_budget", "stuck", "attr",
    )

    def __init__(self, bdx: int, bdy: int, gdx: int, gmem: GlobalMemory,
                 smem: SharedMemory, stats: KernelStats,
                 params: dict, warp_size: int, trace: bool):
        n = bdx * bdy
        tid = np.arange(n, dtype=np.int32)
        self.tid = tid
        self.tx = (tid % bdx).astype(np.int32)
        self.ty = (tid // bdx).astype(np.int32)
        self.bdx = np.int32(bdx)
        self.bdy = np.int32(bdy)
        self.gdx = np.int32(gdx)
        self.ntid = np.int32(n)
        self.bx = np.int32(0)
        self.warp_of = (tid // warp_size).astype(np.int32)
        self.warp_starts = np.arange(0, n, warp_size)
        self.nwarps = len(self.warp_starts)
        self.gmem = gmem
        self.smem = smem
        self.stats = stats
        self.params = params
        self.block_mask = np.ones(n, dtype=bool)
        self.regs: dict[str, np.ndarray] = {}
        self.trace = trace
        self.block_index = 0
        self.seg_cache: dict[int, np.ndarray] = {}
        # watchdog + fault-injection state (set by CompiledKernel.run)
        self.kernel_name = ""
        self.steps = 0  # loop-iteration steps executed this launch
        self.watchdog_budget: float = DEFAULT_WATCHDOG_BUDGET
        self.stuck = False  # injected stuck-warp mode: loops never exit
        #: opt-in per-statement AttributionTable (None = accounting off;
        #: the compiled closures check at run time so the off path costs
        #: one attribute read per statement and allocates nothing)
        self.attr: AttributionTable | None = None

    def active_warps(self, mask: np.ndarray) -> int:
        """Number of warps with at least one active lane."""
        if mask.all():
            return self.nwarps
        return int((np.add.reduceat(mask, self.warp_starts) > 0).sum())

    def reset_for_block(self, bx: int) -> None:
        self.bx = np.int32(bx)
        self.block_index = bx
        self.regs.clear()


# --------------------------------------------------------------------------
# expression compilation
# --------------------------------------------------------------------------

def _compile_expr(e: K.Expr):
    """Compile an expression tree to a closure ``fn(env) -> ndarray/scalar``."""
    if isinstance(e, K.Const):
        v = e.dtype.np.type(e.value)
        return lambda env: v
    if isinstance(e, K.Reg):
        name = e.name
        def read_reg(env):
            try:
                return env.regs[name]
            except KeyError:
                raise SimulationError(
                    f"register {name!r} read before assignment"
                ) from None
        return read_reg
    if isinstance(e, K.Special):
        kind = e.kind
        return lambda env: getattr(env, kind)
    if isinstance(e, K.Param):
        name = e.name
        def read_param(env):
            try:
                return env.params[name]
            except KeyError:
                raise SimulationError(
                    f"kernel parameter {name!r} not bound at launch"
                ) from None
        return read_param
    if isinstance(e, K.Bin):
        fa, fb = _compile_expr(e.a), _compile_expr(e.b)
        if e.op == "&&":
            return lambda env: _truthy(np.asarray(fa(env))) & _truthy(np.asarray(fb(env)))
        if e.op == "||":
            return lambda env: _truthy(np.asarray(fa(env))) | _truthy(np.asarray(fb(env)))
        try:
            op = _BINOPS[e.op]
        except KeyError:
            raise SimulationError(f"unknown binary op {e.op!r}") from None
        return lambda env: op(fa(env), fb(env))
    if isinstance(e, K.Un):
        fa = _compile_expr(e.a)
        if e.op == "neg":
            return lambda env: np.negative(fa(env))
        if e.op == "not":
            return lambda env: ~_truthy(np.asarray(fa(env)))
        if e.op == "inv":
            return lambda env: np.invert(fa(env))
        raise SimulationError(f"unknown unary op {e.op!r}")
    if isinstance(e, K.Call):
        try:
            fn = _CALLS[e.fn]
        except KeyError:
            raise SimulationError(f"unknown intrinsic {e.fn!r}") from None
        fargs = [_compile_expr(a) for a in e.args]
        if len(fargs) == 1:
            f0 = fargs[0]
            return lambda env: fn(f0(env))
        if len(fargs) == 2:
            f0, f1 = fargs
            return lambda env: fn(f0(env), f1(env))
        return lambda env: fn(*[f(env) for f in fargs])
    if isinstance(e, K.Cast):
        fa = _compile_expr(e.a)
        dt = e.dtype.np
        def do_cast(env):
            v = np.asarray(fa(env))
            if v.dtype == dt:
                return v
            return v.astype(dt)  # C-style truncation for float->int
        return do_cast
    if isinstance(e, K.Select):
        fc, fa, fb = _compile_expr(e.cond), _compile_expr(e.a), _compile_expr(e.b)
        return lambda env: np.where(_truthy(np.asarray(fc(env))), fa(env), fb(env))
    raise SimulationError(f"unknown expression node {e!r}")


# --------------------------------------------------------------------------
# statement compilation
# --------------------------------------------------------------------------

def _assign(env: BlockEnv, name: str, value, mask: np.ndarray) -> None:
    val = np.asarray(value)
    reg = env.regs.get(name)
    if reg is None or reg.dtype != val.dtype:
        base = np.zeros(env.block_mask.shape, dtype=val.dtype)
        if reg is not None:  # dtype change: keep old values where inactive
            np.copyto(base, reg, casting="unsafe")
        env.regs[name] = base
        reg = base
    if np.count_nonzero(mask) == mask.size:
        # full mask: a straight copy beats element-masked copyto
        reg[:] = val
    else:
        # copyto broadcasts scalars/rows to reg's shape
        np.copyto(reg, val, where=mask)


def _attr_global(row, st: KernelStats, g0: int, l0: int,
                 b0: int, d0: int) -> None:
    """Fold a global-access counter delta into an attribution row."""
    row.global_transactions += st.global_transactions - g0
    row.l2_transactions += st.l2_transactions - l0
    row.global_bytes += st.global_bytes - b0
    row.dram_bytes += st.dram_bytes - d0


def _compile_stmt(s: K.Stmt, device: DeviceProperties,
                  slot_sids: dict | None = None):
    """Compile one statement to ``fn(env, mask, aw)``.

    ``slot_sids`` (filled at compile time) maps each global-access
    statement's segment-reuse ``slot`` back to its stamped ``sid`` so the
    batched executor's launch-end reuse correction can be attributed to
    the right statement.
    """
    sid = s.sid
    if isinstance(s, K.Comment):
        return lambda env, mask, aw: None

    if isinstance(s, K.Assign):
        fv = _compile_expr(s.value)
        name = s.dst
        def do_assign(env, mask, aw):
            env.stats.warp_inst_slots += aw
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
            _assign(env, name, fv(env), mask)
        return do_assign

    if isinstance(s, K.GLoad):
        fi = _compile_expr(s.index)
        name, buf = s.dst, s.buf
        slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid
        def do_gload(env, mask, aw):
            env.stats.warp_inst_slots += aw
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                g0, l0 = st.global_transactions, st.l2_transactions
                b0, d0 = st.global_bytes, st.dram_bytes
                fr = env.gmem.faults
                f0 = len(fr.records) if fr is not None else 0
            out = env.gmem.load(buf, idx, mask, env.warp_of, env.stats,
                                reuse=(env.seg_cache, slot))
            if a is not None:
                r = a.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                _attr_global(r, st, g0, l0, b0, d0)
                if fr is not None:
                    r.fault_events += len(fr.records) - f0
            _assign(env, name, out, mask)
            if env.trace:
                env.stats.trace.append(TraceEvent("gload", env.block_index, buf))
        return do_gload

    if isinstance(s, K.GStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        slot = next(_stmt_slots)
        if slot_sids is not None:
            slot_sids[slot] = sid
        def do_gstore(env, mask, aw):
            env.stats.warp_inst_slots += aw
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
            env.gmem.store(buf, idx, val, mask, env.warp_of, env.stats,
                           reuse=(env.seg_cache, slot))
            if a is not None:
                r = a.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                _attr_global(r, st, g0, l0, b0, d0)
            if env.trace:
                env.stats.trace.append(TraceEvent("gstore", env.block_index, buf))
        return do_gstore

    if isinstance(s, K.SLoad):
        fi = _compile_expr(s.index)
        name, arr = s.dst, s.arr
        def do_sload(env, mask, aw):
            env.stats.warp_inst_slots += aw
            idx = np.asarray(fi(env))
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            a = env.attr
            if a is not None:
                st = env.stats
                s0, c0 = st.shared_accesses, st.bank_conflict_extra
                fr = env.smem.faults
                f0 = len(fr.records) if fr is not None else 0
            out = env.smem.load(arr, idx, mask, env.warp_of)
            if a is not None:
                r = a.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                r.shared_accesses += st.shared_accesses - s0
                r.bank_conflict_extra += st.bank_conflict_extra - c0
                if fr is not None:
                    r.fault_events += len(fr.records) - f0
            _assign(env, name, out, mask)
        return do_sload

    if isinstance(s, K.SStore):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        arr = s.arr
        def do_sstore(env, mask, aw):
            env.stats.warp_inst_slots += aw
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
            env.smem.store(arr, idx, val, mask, env.warp_of)
            if a is not None:
                r = a.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                r.shared_accesses += st.shared_accesses - s0
                r.bank_conflict_extra += st.bank_conflict_extra - c0
        return do_sstore

    if isinstance(s, K.If):
        fc = _compile_expr(s.cond)
        fthen = _compile_block(s.then, device, slot_sids)
        felse = _compile_block(s.orelse, device, slot_sids) \
            if s.orelse else None
        def do_if(env, mask, aw):
            env.stats.warp_inst_slots += aw
            c = _truthy(np.asarray(fc(env)))
            if c.shape != mask.shape:
                c = np.broadcast_to(c, mask.shape)
            m_then = mask & c
            m_else = mask & ~c
            # divergence: warps with lanes on both sides
            t = np.add.reduceat(m_then, env.warp_starts) > 0
            e = np.add.reduceat(m_else, env.warp_starts) > 0
            d = int((t & e).sum())
            env.stats.divergent_branches += d
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                r.divergence_splits += d
            if m_then.any():
                fthen(env, m_then, env.active_warps(m_then))
            if felse is not None and m_else.any():
                felse(env, m_else, env.active_warps(m_else))
        return do_if

    if isinstance(s, K.While):
        fc = _compile_expr(s.cond)
        fbody = _compile_block(s.body, device, slot_sids)
        def do_while(env, mask, aw):
            c = _truthy(np.asarray(fc(env)))
            if c.shape != mask.shape:
                c = np.broadcast_to(c, mask.shape)
            m = mask & c
            env.stats.warp_inst_slots += aw  # first condition check
            r = None
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
            while m.any():
                env.steps += 1
                if env.steps > env.watchdog_budget:
                    _watchdog_trip(env)
                maw = env.active_warps(m)
                fbody(env, m, maw)
                c = _truthy(np.asarray(fc(env)))
                if c.shape != m.shape:
                    c = np.broadcast_to(c, m.shape)
                m2 = m & c
                if env.stuck and not m2.any():
                    m2 = m  # injected stuck warp: the exit never fires
                m = m2
                env.stats.warp_inst_slots += maw  # re-check
                if r is not None:
                    r.warp_slots += maw
        return do_while

    if isinstance(s, K.UniformWhile):
        fc = _compile_expr(s.cond)
        fbody = _compile_block(s.body, device, slot_sids)
        def do_uwhile(env, mask, aw):
            env.stats.warp_inst_slots += aw
            r = None
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
            while True:
                env.steps += 1
                if env.steps > env.watchdog_budget:
                    _watchdog_trip(env)
                c = _truthy(np.asarray(fc(env)))
                if c.shape != mask.shape:
                    c = np.broadcast_to(c, mask.shape)
                if not (mask & c).any() and not env.stuck:
                    break
                fbody(env, mask, aw)
                env.stats.warp_inst_slots += aw
                if r is not None:
                    r.warp_slots += aw
        return do_uwhile

    if isinstance(s, K.Sync):
        def do_sync(env, mask, aw):
            if not mask.all():
                raise BarrierDivergenceError(
                    "__syncthreads() executed under divergent control flow "
                    f"({int(mask.sum())}/{mask.size} threads active)"
                )
            env.stats.barriers += 1
            env.stats.warp_inst_slots += aw
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                r.barrier_arrivals += 1
                r.barrier_wait_slots += aw
            if env.trace:
                env.stats.trace.append(TraceEvent("sync", env.block_index, ""))
        return do_sync

    if isinstance(s, K.ShflDown):
        dst, src, delta = s.dst, s.src, s.delta
        ws = device.warp_size
        def do_shfl(env, mask, aw):
            env.stats.warp_inst_slots += aw
            if env.attr is not None:
                r = env.attr.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
            try:
                reg = env.regs[src]
            except KeyError:
                raise SimulationError(
                    f"register {src!r} read before assignment") from None
            n = reg.shape[0]
            lane = np.arange(n) % ws
            src_idx = np.where(lane + delta < ws,
                               np.minimum(np.arange(n) + delta, n - 1),
                               np.arange(n))
            _assign(env, dst, reg[src_idx], mask)
        return do_shfl

    if isinstance(s, K.AtomicUpdate):
        fi, fv = _compile_expr(s.index), _compile_expr(s.value)
        buf = s.buf
        try:
            combine = ATOMIC_OPS[s.op]
        except KeyError:
            raise SimulationError(f"no atomic support for operator {s.op!r}") from None
        def do_atomic(env, mask, aw):
            env.stats.warp_inst_slots += aw
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
            env.gmem.atomic_update(buf, idx, val, mask, env.warp_of,
                                   env.stats, combine)
            if a is not None:
                r = a.row(sid)
                r.execs += 1
                r.lanes += int(mask.sum())
                r.warp_slots += aw
                _attr_global(r, st, g0, l0, b0, d0)
                # atomics serialize: every charged transaction is one
                # round of the read-modify-write queue
                r.atomic_rounds += st.global_transactions - g0
        return do_atomic

    raise SimulationError(f"unknown statement node {s!r}")


def _watchdog_trip(env: BlockEnv) -> None:
    raise WatchdogTimeoutError(
        f"kernel {env.kernel_name!r} exceeded its watchdog budget of "
        f"{env.watchdog_budget:g} loop steps in block {env.block_index} "
        "(infinite or runaway loop)",
        kernel=env.kernel_name, steps=env.steps,
        budget=int(env.watchdog_budget))


def _compile_block(stmts: tuple, device: DeviceProperties,
                   slot_sids: dict | None = None):
    fns = [_compile_stmt(s, device, slot_sids) for s in stmts]
    def run(env, mask, aw):
        for f in fns:
            f(env, mask, aw)
    return run


# --------------------------------------------------------------------------
# compiled kernel
# --------------------------------------------------------------------------

_EXECUTOR_MODES = ("trace", "batched", "reference")


def _env_mode() -> str | None:
    """The mode ``REPRO_EXECUTOR`` pins, or None.  Unrecognized values
    are ignored rather than raised so an exported stale variable cannot
    break every launch in the process."""
    m = os.environ.get("REPRO_EXECUTOR", "").strip().lower()
    return m if m in _EXECUTOR_MODES else None


def _default_mode() -> str:
    """The executor mode a ``mode=None`` launch resolves to.

    ``REPRO_EXECUTOR`` (``trace`` / ``batched`` / ``reference``) pins it
    — the CI matrix uses it to run the whole tier-1 suite per executor.
    Unpinned, the default is tiered: it resolves to ``"batched"``, and
    :meth:`CompiledKernel.run` moves every launch after a kernel's first
    to ``"trace"`` unless :meth:`CompiledKernel.effective_mode` would
    demote an explicit ``"trace"`` request.
    """
    return _env_mode() or "batched"


#: counter-memo entries kept per kernel (launch shapes, LRU): iterative
#: callers re-launch one or two shapes, so a handful covers them
_COUNTER_MEMO_MAX = 8


def _armed(faults):
    """``faults``, or None once the injector can no longer inject (its
    ``max_faults`` budget is spent): every hook of a disarmed injector is
    a no-op that draws no RNG, so the launch is an unfaulted one."""
    return faults if faults is not None and faults.armed else None


def _check_vocabulary(kernel: K.Kernel) -> None:
    """Raise the closure compiler's error for an unknown operator or
    intrinsic, without compiling closures."""
    stack = [getattr(s, f) for s, _ in K.walk_stmts(kernel.body)
             for f in K.EXPR_FIELDS.get(type(s), ())]
    while stack:
        e = stack.pop()
        if isinstance(e, K.Bin):
            if e.op not in _BINOPS and e.op not in ("&&", "||"):
                raise SimulationError(f"unknown binary op {e.op!r}")
            stack += (e.a, e.b)
        elif isinstance(e, K.Un):
            if e.op not in ("neg", "not", "inv"):
                raise SimulationError(f"unknown unary op {e.op!r}")
            stack.append(e.a)
        elif isinstance(e, K.Call):
            if e.fn not in _CALLS:
                raise SimulationError(f"unknown intrinsic {e.fn!r}")
            stack += e.args
        elif isinstance(e, K.Cast):
            stack.append(e.a)
        elif isinstance(e, K.Select):
            stack += (e.cond, e.a, e.b)


class CompiledKernel:
    """A kernel compiled to Python closures, runnable over a grid.

    Compile once, launch many times (the heat-equation app re-launches its
    two kernels hundreds of times).  Construction only checks operator
    names; each executor builds its code on its first launch.
    """

    def __init__(self, kernel: K.Kernel, device: DeviceProperties):
        _check_vocabulary(kernel)
        self.kernel = kernel
        self.device = device
        # segment-reuse slot -> stamped statement sid, filled as closures
        # compile (both executors share it: slots are globally unique)
        self._slot_sids: dict[int, int] = {}
        # per-block closures, compiled lazily on the first reference run
        self._body = None
        # block-axis closures, compiled lazily on the first batched run
        self._batched_body = None
        self._batch_safety = None  # lazy block-independence verdict
        # set when a checked batched launch hit a cross-block access at
        # runtime; later launches then go straight to the reference path
        self._dynamic_fallback = False
        # trace-compiled artifact, built on the first trace launch: the
        # generated source, the exec'd chunk function, its slot->sid map
        self._trace_src: str | None = None
        self._trace_fn = None
        self._trace_slot_sids: dict[int, int] | None = None
        self._trace_safety = None  # lazy trace-compilation verdict
        self._scan_loops = None  # lazy count of loops in scan form
        # counter memo: launch key -> (KernelStats of a counted launch,
        # the chunk size it completed at).  Locked because one kernel may
        # launch from several threads (the serve device pool)
        self._counter_memo: OrderedDict[tuple, tuple[KernelStats, int]] = \
            OrderedDict()
        self._memo_lock = threading.Lock()
        # set by the first launch: unpinned re-launches tier up to trace
        self._launched = False

    @property
    def batch_safety(self):
        """Static block-independence verdict (see
        :func:`repro.gpu.executor_batched.analyze_batch_safety`)."""
        if self._batch_safety is None:
            from repro.gpu.executor_batched import analyze_batch_safety
            self._batch_safety = analyze_batch_safety(self.kernel)
        return self._batch_safety

    @property
    def trace_safety(self):
        """Static trace-compilation verdict (see
        :func:`repro.gpu.executor_trace.analyze_trace_safety`)."""
        if self._trace_safety is None:
            from repro.gpu.executor_trace import analyze_trace_safety
            self._trace_safety = analyze_trace_safety(self.kernel)
        return self._trace_safety

    @property
    def scan_loops(self) -> int:
        """How many of the kernel's loops are scan loops, which both fast
        executors run along their iteration axis (see
        :func:`repro.gpu.executor_batched._scan_form`)."""
        if self._scan_loops is None:
            from repro.gpu.executor_batched import _scan_form
            self._scan_loops = sum(
                _scan_form(s) is not None
                for s, _ in K.walk_stmts(self.kernel.body))
        return self._scan_loops

    @property
    def trace_source(self) -> str | None:
        """The generated trace source, once a trace launch emitted it."""
        return self._trace_src

    def _trace_callable(self):
        """The exec'd per-chunk function (codegen + exec on first use)."""
        if self._trace_fn is None:
            from repro.gpu.executor_trace import (
                compile_trace_source, emit_trace_source)
            self._trace_src = emit_trace_source(self.kernel, self.device)
            self._trace_fn, self._trace_slot_sids = compile_trace_source(
                self._trace_src)
        return self._trace_fn

    def effective_mode(self, mode: str | None, grid_dim: int,
                       gmem: GlobalMemory, faults=None, *,
                       trace_events: bool = False) -> str:
        """The executor path a launch will actually take.

        ``"batched"`` (requested or defaulted) degrades to ``"reference"``
        when bit-identity cannot be kept: statically unsafe kernels
        (atomics mixed with plain accesses), looped atomics on floating
        buffers (whose combine order is rounding-sensitive), kernels that
        already failed the runtime block-disjointness check on an earlier
        launch, and checked kernels under an armed fault injector (whose
        RNG consumption cannot be rolled back if the checked attempt
        aborts).  The kernel span of :func:`repro.gpu.launch.launch` and
        of ``Program.run`` reports this resolved mode.

        ``"trace"`` adds one more rung: it degrades to the batched
        resolution whenever the generated code cannot honor the launch —
        statically ineligible kernels (atomics, or no block-independence
        proof), kernels already demoted by a
        runtime hazard, armed fault injectors, and ``trace_events``
        launches (TraceEvent collection is a per-access interpreter
        concern the generated code deliberately omits).  An injector
        whose ``max_faults`` budget is spent is no longer armed.
        """
        faults = _armed(faults)
        if mode is None:
            mode = _default_mode()
        if mode == "trace":
            if (self._dynamic_fallback or faults is not None
                    or trace_events or not self.trace_safety.eligible):
                mode = "batched"
            else:
                return "trace"
        if mode != "batched":
            return mode
        if self._dynamic_fallback:
            return "reference"
        safety = self.batch_safety
        if not safety.batchable:
            return "reference"
        if safety.checked_bufs and grid_dim > 1 and faults is not None:
            return "reference"
        for name in safety.looped_atomic_bufs:
            if name in gmem and np.dtype(gmem[name].dtype.np).kind == "f":
                return "reference"
        return "batched"

    def _memo_key(self, gmem: GlobalMemory, grid_dim: int,
                  bdx: int, bdy: int, params: dict) -> tuple:
        """What a memoized launch must match: the geometry, the values of
        the params that reach a condition or an index, and the layout of
        every kernel buffer.  Not the mode: ``trace`` and ``batched``
        count bit-identically, so either one's counted launch serves the
        other's hits."""
        layout = []
        for b in self.kernel.buffers:
            # a missing buffer keys as None; the launch then raises
            buf = gmem[b] if b in gmem else None
            layout.append(None if buf is None
                          else (buf.base, buf.size, buf.dtype))
        # repr keeps values that compare equal but steer an index or a
        # condition differently (-0.0 vs 0.0, int vs float) apart
        values = tuple((type(v), repr(v)) for v in
                       map(params.get, self.batch_safety.key_params))
        return (grid_dim, bdx, bdy, values, tuple(layout))

    def run(self, gmem: GlobalMemory, grid_dim: int, block_dim: tuple[int, int],
            params: dict | None = None, trace: bool = False, *,
            faults=None, watchdog_budget: int | None = None,
            mode: str | None = None, block_batch: int | None = None,
            attribution: bool = False) -> KernelStats:
        """Execute over ``grid_dim`` blocks of ``block_dim`` = (bdx, bdy).

        Blocks are independent by construction — that's the premise of
        the gang level.  ``mode`` selects how they are advanced:

        * ``"trace"`` — the kernel runs as generated whole-array NumPy
          source (see :mod:`repro.gpu.executor_trace`);
        * ``"batched"`` — all blocks of a chunk advance through each
          statement in one NumPy operation (see
          :mod:`repro.gpu.executor_batched`);
        * ``"reference"`` — one block at a time, the original executor;
        * ``None`` — the ``REPRO_EXECUTOR`` mode if that environment
          variable names one, else the tiered default: ``"batched"``
          for a kernel's first launch, ``"trace"`` for every later
          launch the generated code can honor — counted on a memo miss,
          values only on a hit (a kernel launched once never pays the
          trace compile).  The tier-up takes the demotions of an
          explicit ``"trace"`` request, so a ``trace=True``, fault-armed
          or trace-ineligible re-launch resolves as a first launch does.

        ``block_batch`` bounds the chunk size of the first two (default
        :data:`~repro.gpu.executor_batched.DEFAULT_BLOCK_BATCH`).  All
        three modes produce bit-identical results and
        :class:`~repro.gpu.events.KernelStats` counters; the fast paths
        only remove Python dispatch overhead.  A launch a fast path cannot
        honor is demoted (see :meth:`effective_mode`): trace to batched,
        batched to reference — kernels whose blocks communicate through
        global memory, looped float atomics — so the identity guarantee
        holds for every kernel.  The returned stats carry the mode the
        launch resolved to in ``stats.executor``.

        Counter memo: a ``trace`` or ``batched`` launch of a kernel whose
        counters are data-independent
        (:attr:`~repro.gpu.executor_batched.BatchSafety.counters_invariant`),
        with no armed fault injector, ``trace`` and ``attribution`` off, is
        keyed on its ``grid_dim``, ``block_dim``, the values of the
        params that reach a condition or an index, and the
        ``(base, size, dtype)`` of every kernel buffer — not on the mode:
        either fast mode's counted launch serves both.  The first launch
        of a key counts and is remembered with the chunk size it
        completed at (a few keys per kernel); a later launch with the
        same key executes values only and returns a fresh copy of the
        remembered stats.  ``stats.counters`` says which (``"memo"`` or
        ``"counted"``).  For such a kernel no condition and no index
        reads loaded data, so the key fixes every address and branch of
        the launch: a hit repeats the access stream its counted launch
        ran.  It therefore skips the memory-transaction, bank and
        segment-reuse accounting and the bounds checks that launch
        already passed.  At the same chunk size it also skips the
        cross-block hazard checks and the rollback snapshot
        (``checks="proven"`` on the ``executor-mode`` event); at another
        chunk size, where different blocks run side by side, it runs
        them (``checks="run"``).  The watchdog always runs.  The
        reference executor never memoizes: it is the counting oracle.

        ``trace`` is the single opt-in knob for structured
        :class:`~repro.gpu.events.TraceEvent` collection: off (the default)
        the executor only accumulates aggregate counters and allocates
        nothing per access; on, every global load/store and barrier appends
        one event to ``stats.trace``.  :func:`repro.gpu.launch.launch` and
        ``Program.run`` plumb the same flag through, and
        :class:`repro.obs.Profiler` consumes the collected events.

        ``faults`` (a :class:`repro.faults.FaultInjector`, opt-in) arms
        this launch for injected transient faults: it may raise
        :class:`~repro.errors.KernelLaunchError` at entry, flip bits
        of memory reads, or put the launch in stuck-warp mode; once its
        ``max_faults`` budget is spent it is disarmed and the launch runs
        as an unfaulted one.  The
        watchdog always runs: a launch exceeding ``watchdog_budget`` loop
        steps (default :data:`DEFAULT_WATCHDOG_BUDGET`; ``0`` or negative
        disables) raises :class:`~repro.errors.WatchdogTimeoutError`
        instead of hanging the caller.

        ``attribution`` (opt-in, like ``trace``) fills a per-statement
        :class:`~repro.gpu.events.AttributionTable` on
        ``stats.attribution``, keyed by the stamped statement ``sid``s.
        All executor modes produce bit-identical tables; off (the
        default) the closures allocate nothing.
        """
        bdx, bdy = block_dim
        self.device.validate_block(bdx, bdy, self.kernel.shared_bytes)
        faults = _armed(faults)
        if grid_dim < 1:
            raise SimulationError(f"grid_dim must be >= 1, got {grid_dim}")
        # an unpinned re-launch may tier up to trace
        tiered = mode is None and _env_mode() is None
        if mode is None:
            mode = _default_mode()
        if mode not in _EXECUTOR_MODES:
            raise SimulationError(
                f"unknown executor mode {mode!r} "
                "(expected 'trace', 'batched' or 'reference')")
        requested = mode
        mode = self.effective_mode(mode, grid_dim, gmem, faults,
                                   trace_events=trace)
        fallback = mode != requested
        if tiered and mode == "batched" and self._launched:
            # a re-launch runs the generated code, counted or values
            # only as the memo decides; resolving "trace" applies every
            # demotion an explicit request gets (trace events, armed
            # faults, ineligible kernels).  A first launch stays batched,
            # so a kernel launched once never pays the trace compile
            mode = self.effective_mode("trace", grid_dim, gmem, faults,
                                       trace_events=trace)
        self._launched = True
        params = dict(params or {})
        memo_key = memo = None
        trusted = False
        if (mode != "reference" and faults is None and not trace
                and not attribution
                and self.batch_safety.counters_invariant):
            from repro.gpu.executor_batched import _chunk_size
            chunk = _chunk_size(block_batch)
            memo_key = self._memo_key(gmem, grid_dim, bdx, bdy, params)
            with self._memo_lock:
                entry = self._counter_memo.get(memo_key)
                if entry is not None:
                    self._counter_memo.move_to_end(memo_key)
            if entry is not None:
                memo, proven = entry
                # the hazard verdict depends on which blocks share a
                # chunk, so only a hit at the proven chunk size skips it
                trusted = proven == chunk
        tl = _timeline.current()
        if tl is not None:
            tl.decision("gpu", "executor-mode", kernel=self.kernel.name,
                        requested=requested, mode=mode, grid=grid_dim,
                        fallback=fallback,
                        counters="counted" if memo is None else "memo",
                        checks="proven" if trusted else "run",
                        scan_loops=0 if mode == "reference"
                        else self.scan_loops)
        if faults is not None:
            faults.on_launch(self.kernel.name)  # may raise KernelLaunchError
        stats = KernelStats(
            blocks=grid_dim,
            threads_per_block=bdx * bdy,
            shared_bytes=self.kernel.shared_bytes,
        )
        if attribution:
            stats.attribution = AttributionTable()
        for b in self.kernel.buffers:
            if b not in gmem:
                raise SimulationError(
                    f"kernel {self.kernel.name!r} requires buffer {b!r} "
                    "which is not allocated"
                )
        if watchdog_budget is None:
            budget = float(DEFAULT_WATCHDOG_BUDGET)
        elif watchdog_budget <= 0:
            budget = float("inf")
        else:
            budget = float(watchdog_budget)
        stuck = (faults.on_stuck_query(self.kernel.name)
                 if faults is not None else False)
        if mode in ("batched", "trace"):
            from repro.gpu.executor_batched import _BatchHazard, run_batched
            safety = self.batch_safety
            check = snapshot = None
            if safety.checked_bufs and grid_dim > 1 and not trusted:
                # optimistic checked launch: track per-location owner and
                # highest-reader blocks for the unproven buffers, and
                # snapshot everything the kernel can write so an abort
                # can roll back
                check = {b: (np.full(gmem[b].size, -1, dtype=np.int64),
                             np.full(gmem[b].size, -1, dtype=np.int64))
                         for b in safety.checked_bufs if b in gmem}
                snapshot = {b: gmem[b].data.copy()
                            for b in safety.written_bufs if b in gmem}
            count = memo is None
            try:
                if mode == "trace":
                    from repro.gpu.executor_trace import run_trace
                    run_trace(self, gmem, grid_dim, block_dim, stats,
                              params, budget, block_batch, check=check,
                              count=count)
                else:
                    run_batched(self, gmem, grid_dim, block_dim, stats,
                                params, trace, faults, budget, stuck,
                                block_batch, check=check, count=count)
            except _BatchHazard:
                # blocks really did share a location: restore the
                # pre-launch contents and rerun sequentially (sticky —
                # later launches of this kernel skip the attempt)
                self._dynamic_fallback = True
                for b, data in snapshot.items():
                    gmem[b].data[:] = data
                stats = KernelStats(
                    blocks=grid_dim,
                    threads_per_block=bdx * bdy,
                    shared_bytes=self.kernel.shared_bytes,
                )
                if attribution:
                    stats.attribution = AttributionTable()
            else:
                if memo is not None:
                    stats = dataclasses.replace(memo, trace=[])
                elif memo_key is not None:
                    with self._memo_lock:
                        self._counter_memo[memo_key] = (
                            dataclasses.replace(stats, trace=[]), chunk)
                        if len(self._counter_memo) > _COUNTER_MEMO_MAX:
                            self._counter_memo.popitem(last=False)
                stats.executor = mode
                stats.counters = "counted" if count else "memo"
                return stats
        env = BlockEnv(bdx, bdy, grid_dim, gmem, None, stats, params,
                       self.device.warp_size, trace)
        env.seg_cache = {}  # fresh reuse state per launch
        env.kernel_name = self.kernel.name
        env.watchdog_budget = budget
        env.stuck = stuck
        env.attr = stats.attribution
        full = env.block_mask
        nw = env.nwarps
        body = self._body
        if body is None:
            body = self._body = _compile_block(self.kernel.body, self.device,
                                               self._slot_sids)
        # one shared-memory allocation serves the whole grid; contents
        # are zeroed between blocks exactly as a fresh allocation would be
        smem = SharedMemory(self.device, self.kernel.shared, stats,
                            faults=faults)
        env.smem = smem
        prev_faults = gmem.faults
        if faults is not None:
            gmem.faults = faults
        try:
            for bx in range(grid_dim):
                env.reset_for_block(bx)
                if bx:
                    smem.reset()
                if faults is not None:
                    gmem.fault_block = bx
                    smem.fault_block = bx
                body(env, full, nw)
        finally:
            gmem.faults = prev_faults
            gmem.fault_block = None
        stats.executor = "reference"
        stats.counters = "counted"
        return stats
