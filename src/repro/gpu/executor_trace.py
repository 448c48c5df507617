"""Trace-compiled executor: kernel IR lowered to generated NumPy source.

The batched executor (:mod:`repro.gpu.executor_batched`) removed the
per-block Python dispatch but still walks the compiled closure tree —
one Python call per statement per region execution, plus per-access
active-lane gathers that are recomputed for every statement of a
straight-line block even though the mask did not change.  This module
removes that layer too: each kernel is *compiled to Python source* once
— a single function of whole-array NumPy ops over the ``(block, lane)``
axes — and executed per chunk.  What the generated code buys over the
closure interpreter:

* straight-line blocks are fused: no per-statement closure dispatch and
  no repeated ``np.asarray``/broadcast plumbing;
* divergence masks are precomputed per branch region, with an all-true
  fast path that skips the warp ``reduceat`` bookkeeping entirely;
* the per-region active-lane gathers (``mi``/``wk``/``bf``/``rw``) are
  hoisted to the region prologue and shared by every memory access in
  the region — skipped outright while the region mask is full, and the
  block ids / warp keys derived only where a hazard check or the
  counters read them;
* per-warp-uniform loads run on one representative lane per warp
  (``_gload_w``);
* counter updates (``KernelStats`` / ``StmtCounters``) are emitted
  inline per region with the enclosing region's precomputed active-warp
  totals.  Every line whose only consumer is a counter sits behind one
  per-launch flag (``CNT = E.log is not None``), so the same source
  runs counted or values-only.

Bit-identity is the contract, not a goal: results, every KernelStats
counter, and attribution tables must match the reference and batched
executors exactly.  The generated code therefore calls the batched
executor's own block-axis runtime — the access helpers with their
hazard checks and access log, row compaction, and the chunk driver
with the log's folds and the launch-end segment-reuse correction — so
every rule lives in one place and only the dispatch differs.  On a
counter-memo hit (``E.log is None``) the generated code skips its
``CNT`` lines and the helpers log nothing and skip their bounds
checks; at the chunk size
of the counted launch every ``CK_<buf>`` is None too, so no hazard check
runs and no block-id gather is made: the launch moves data only.

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

from repro.errors import SimulationError
from repro.gpu import kernelir as K
from repro.gpu.device import DeviceProperties
from repro.gpu.executor import _c_div, _c_mod, _CALLS, _truthy
from repro.gpu.executor_batched import (
    _UNIFORMITY, _arow, _bc, _cast, _compact_env, _expand_env, _fresh,
    _full, _gload, _gload_u, _gload_w, _gstore, _lanes_of, _massign,
    _param, _run_chunks, _shfl, _sload, _sstore, _sync, _uniform_stmts,
    _warps_per_block, _watchdog_trip, _wk,
    analyze_batch_safety,
)
from repro.gpu.events import KernelStats
from repro.gpu.memory import GlobalMemory
# kept for perfbench's lookup by name (the chunk driver calls its own)
from repro.gpu.memory import finalize_segment_reuse  # noqa: F401

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


def analyze_trace_safety(kernel: K.Kernel) -> TraceSafety:
    """Static proof that ``kernel`` can be trace-compiled bit-identically.

    Requirements: there are no atomics (their duplicate-combine order is
    a property of ``ufunc.at`` dispatch, left to the interpreters), and
    the batched block-independence proof holds — the trace executor
    advances chunks exactly like the batched one, so it inherits both
    the proof and the runtime checked-hazard discipline.  The operator
    and intrinsic vocabulary needs no check here:
    :class:`~repro.gpu.executor.CompiledKernel` refuses unknown ones at
    construction.
    """
    if any(isinstance(s, K.AtomicUpdate)
           for s, _ in K.walk_stmts(kernel.body)):
        return TraceSafety(False, "atomic update (order-sensitive)")
    safety = analyze_batch_safety(kernel)
    if not safety.batchable:
        return TraceSafety(False, safety.reason)
    return TraceSafety(True, "")


# --------------------------------------------------------------------------
# the generated code's globals: the shared block-axis runtime of
# :mod:`repro.gpu.executor_batched` plus NumPy under short names
# --------------------------------------------------------------------------

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
    "_gload": _gload, "_gload_u": _gload_u, "_gload_w": _gload_w,
    "_gstore": _gstore,
    "_sload": _sload, "_sstore": _sstore, "_shfl": _shfl, "_sync": _sync,
    "_wk": _wk, "_lanes_of": _lanes_of,
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
        self.uniform_ids = _uniform_stmts(kernel, "block")
        self.warp_ids = _uniform_stmts(kernel, "warp")
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
            if rep and e.kind in _UNIFORMITY["warp"][0]:
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
                   f"{r.mi} = None if {r.f} else "
                   f"{r.m}.reshape(-1).nonzero()[0]")
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
        guard: its warp slots, then the raw ``pre`` lines, then, given a
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

    def emit_gload(self, s: K.GLoad, r: _Region) -> None:
        u = self.fresh()
        slot = self.alloc_slot(s.sid)
        self.bufs.add(s.buf)
        helper = "_gload_u" if id(s) in self.uniform_ids else "_gload"
        self.count(r, s.sid)
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

    def emit_gstore(self, s: K.GStore, r: _Region) -> None:
        u = self.fresh()
        slot = self.alloc_slot(s.sid)
        self.bufs.add(s.buf)
        self.count(r, s.sid)
        self.w(f"ix{u} = {self.expr(s.index)}")
        self.w(f"v{u} = {self.expr(s.value)}")
        self.w(f"_gstore(E, B_{s.buf}, ix{u}, v{u}, {r.m}, {r.mi}, "
               f"{r.wk}, {r.bf}, {slot}, CK_{s.buf})")

    def emit_sload(self, s: K.SLoad, r: _Region) -> None:
        u = self.fresh()
        self.count(r, s.sid)
        self.w(f"ix{u} = {self.expr(s.index)}")
        self.w(f"_sload(E, {s.dst!r}, {s.arr!r}, ix{u}, {r.m}, {r.mi}, "
               f"{r.wk}, {r.rw}, {s.sid})")

    def emit_sstore(self, s: K.SStore, r: _Region) -> None:
        u = self.fresh()
        self.count(r, s.sid)
        self.w(f"ix{u} = {self.expr(s.index)}")
        self.w(f"v{u} = {self.expr(s.value)}")
        self.w(f"_sstore(E, {s.arr!r}, ix{u}, v{u}, {r.m}, {r.mi}, "
               f"{r.wk}, {r.rw}, {s.sid})")

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
        self.w(f"{ix} = {lv}.nonzero()[0]; {px} = E")
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
        self.w(f"ix_ = lv{u}.nonzero()[0]")
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
        self.w(f"ix_ = lv{u}.nonzero()[0]")
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
            "    CNT = E.log is not None",
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
    """Execute a validated trace-mode launch: the generated chunk
    function over the shared chunk driver
    (:func:`~repro.gpu.executor_batched._run_chunks`), so results and
    counters are invariant under ``block_batch`` exactly as in
    ``run_batched``.  Faults, stuck-warp mode, and TraceEvent collection
    never reach this driver —
    :meth:`~repro.gpu.executor.CompiledKernel.effective_mode` demotes
    those launches to the batched path.  ``count=False`` (a counter-memo
    hit) executes values only."""
    fn = ck._trace_callable()

    def body(env):
        try:
            fn(env)
        except KeyError as e:  # register read before assignment
            raise SimulationError(
                f"register {e.args[0]!r} read before assignment") from None

    return _run_chunks(ck, gmem, grid_dim, block_dim, stats, params, budget,
                       block_batch, check, count, body, ck._trace_slot_sids)
