"""Trace-compiled executor: kernel IR lowered to generated NumPy source.

The batched executor (:mod:`repro.gpu.executor_batched`) removed the
per-block Python dispatch but still walks the compiled closure tree —
one Python call per statement per region execution, plus per-access
active-lane gathers that are recomputed for every statement of a
straight-line block even though the mask did not change.  This module
removes that layer too: each kernel is *compiled to Python source* once
— one function per region of whole-array NumPy ops over the
``(block, lane)`` axes, nested in a per-chunk ``_run_chunk(E)`` — and
executed per chunk.  What the generated code buys over the closure
interpreter:

* expressions are fused into each statement's helper call: no
  per-statement or per-operator closure dispatch;
* the per-region active-lane gathers (``mi``/``wk``/``bf``/``rw``) are
  hoisted to the region prologue and shared by every memory access in
  the region — skipped outright while the region mask is full, and the
  block ids / warp keys derived only where a hazard check or the
  counters read them (``CNT = E.log is not None``, off on a values-only
  launch);
* per-warp-uniform loads run on one representative lane per warp
  (``_gload_w``);
* a scan loop (:func:`~repro.gpu.executor_batched._scan_form`) is
  emitted once, as a module-level
  :class:`~repro.gpu.executor_batched.ScanLoop` of lambdas, and runs
  along its iteration axis in the shared
  :func:`~repro.gpu.executor_batched._scan` helper, which also builds
  the iterative fallback from it.

Bit-identity is the contract, not a goal: results, every KernelStats
counter, and attribution tables must match the reference and batched
executors exactly.  The generated code therefore calls the batched
executor's own block-axis runtime — the access helpers with their
hazard checks and access log; the control-flow helpers (``_if``,
``_while``, ``_uwhile``) with the divergence split, loop steps,
watchdog and row compaction, which call the generated region
functions back; the scan-loop helper (``_scan``); the region charge
(``_charge``) that counts warp slots, barriers and attribution rows;
and the chunk driver with the log's folds and the launch-end
segment-reuse correction — so every rule
lives in one place and only the dispatch differs.  On a counter-memo
hit (``E.log is None``) the helpers count nothing, log nothing and skip
their bounds checks; at the chunk size of the counted launch every
``CK_<buf>`` is None too, so no hazard check runs and no block-id
gather is made: the launch moves data only.

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

import re

import numpy as np

from repro.errors import SimulationError
from repro.gpu import kernelir as K
from repro.gpu.device import DeviceProperties
from repro.gpu.executor import _c_div, _c_mod, _CALLS, _truthy
from repro.gpu.executor_batched import (
    _OWNED_ROOTS, _UNIFORMITY, ScanLoop, _cast, _charge, _gload, _gload_u,
    _gload_w, _gstore, _if, _lanes, _lanes_of, _param, _run_chunks, _scan,
    _scan_form, _set, _shfl, _sload, _sstore, _sync, _uniform_stmts,
    _uwhile, _warps_per_block, _while, _wk, analyze_batch_safety,
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
    "ASR": np.asarray,
    "TRU": _truthy,
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
    "_set": _set, "_cast": _cast, "_param": _param,
    "_gload": _gload, "_gload_u": _gload_u, "_gload_w": _gload_w,
    "_gstore": _gstore,
    "_sload": _sload, "_sstore": _sstore, "_shfl": _shfl, "_sync": _sync,
    "_wk": _wk, "_lanes": _lanes, "_lanes_of": _lanes_of,
    "_charge": _charge, "_if": _if, "_while": _while, "_uwhile": _uwhile,
    "_warps_per_block": _warps_per_block,
    "_scan": _scan, "_ScanLoop": ScanLoop,
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

#: per-function locals bound from the function's (possibly compacted)
#: ``E``, and per-launch locals bound once by ``_run_chunk``: each only
#: where the code reads it
_REGION_LOCALS = (("R", "E.regs"), ("BX", "E.bx"))
_LAUNCH_LOCALS = (("TX", "E.tx"), ("TY", "E.ty"), ("TID", "E.tid"),
                  ("BDX", "E.bdx"), ("BDY", "E.bdy"), ("GDX", "E.gdx"),
                  ("NTID", "E.ntid"))


def _binds(lines: list[str], table) -> list[str]:
    """The ``NAME = value`` bindings of ``table`` that ``lines`` read."""
    text = "\n".join(lines)
    return [f"{n} = {v}" for n, v in table
            if re.search(rf"\b{n}\b", text)]


# --------------------------------------------------------------------------
# the code generator
# --------------------------------------------------------------------------

class _Emitter:
    """Emits one kernel as ``_run_chunk(E)``: a function per region
    (``rN(E, m, f, aw, aws)``, see
    :func:`~repro.gpu.executor_batched._charge`) and per loop condition
    (``cN(E)``), nested in ``_run_chunk`` so they share its per-launch
    locals, with the shared control-flow helpers calling them.  A scan
    loop is emitted once, as a module-level
    :class:`~repro.gpu.executor_batched.ScanLoop` (``SN``) whose
    expressions are lambdas of an environment ``V``, for
    :func:`~repro.gpu.executor_batched._scan` to run."""

    def __init__(self, kernel: K.Kernel, device: DeviceProperties):
        self.kernel = kernel
        self.device = device
        self.uniform_ids = _uniform_stmts(kernel, "block")
        self.warp_ids = _uniform_stmts(kernel, "warp")
        self.used_wok = False
        self.funcs: list[list[str]] = []
        self.scans: list[str] = []
        self.lines: list[str] = []
        self.ind = 0
        self.uid = 0
        self.next_slot = 0
        self.slot_sids: dict[int, int] = {}
        self.params: set[str] = set()
        self.bufs: set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.ind + line)

    def alloc_slot(self, sid: int) -> int:
        slot = self.next_slot
        self.next_slot += 1
        self.slot_sids[slot] = sid
        return slot

    def func(self, prefix: str, params: str, emit_body) -> str:
        """Emit one function ``emit_body`` fills; returns its name."""
        self.uid += 1
        name = f"{prefix}{self.uid}"
        outer = self.lines, self.ind
        self.lines, self.ind = [], 1
        emit_body()
        body = self.lines
        self.lines, self.ind = outer
        self.funcs.append([f"def {name}({params}):"]
                          + ["    " + b for b in _binds(body, _REGION_LOCALS)]
                          + body)
        return name

    # -- expressions ------------------------------------------------------

    def expr(self, e: K.Expr, rep: bool = False, scan: bool = False) -> str:
        """One expression; ``rep=True`` evaluates on warp-representative
        slices (one column per warp) — only valid for expressions the
        warp-uniformity verdict covers; ``scan=True`` reads everything
        from an environment ``V`` (a scan loop's lambdas)."""
        if scan and isinstance(e, K.Reg):
            return f"V.regs[{e.name!r}]"
        if scan and isinstance(e, K.Special):
            return f"V.{e.kind}"
        if scan and isinstance(e, K.Param):
            return f"_param(V, {e.name!r})"
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
            a, b = self.expr(e.a, rep, scan), self.expr(e.b, rep, scan)
            if e.op == "&&":
                return f"(TRU(ASR({a})) & TRU(ASR({b})))"
            if e.op == "||":
                return f"(TRU(ASR({a})) | TRU(ASR({b})))"
            return f"{_BINOP_NAMES[e.op]}({a}, {b})"
        if isinstance(e, K.Un):
            a = self.expr(e.a, rep, scan)
            if e.op == "neg":
                return f"NEG({a})"
            if e.op == "not":
                return f"(~TRU(ASR({a})))"
            return f"INV({a})"
        if isinstance(e, K.Call):
            args = ", ".join(self.expr(a, rep, scan) for a in e.args)
            return f"C_{e.fn}({args})"
        if isinstance(e, K.Cast):
            a = self.expr(e.a, rep, scan)
            return f"_cast({a}, {_DTYPE_NAMES[e.dtype.np]})"
        if isinstance(e, K.Select):
            c = self.expr(e.cond, rep, scan)
            a, b = self.expr(e.a, rep, scan), self.expr(e.b, rep, scan)
            return f"WHERE(TRU(ASR({c})), {a}, {b})"
        raise SimulationError(f"unknown expression node {e!r}")

    # -- regions ----------------------------------------------------------

    def region(self, stmts: tuple) -> str:
        """One region function: the region charge, the active-lane
        gathers its memory statements share, then the statements."""
        stmts = tuple(s for s in stmts if not isinstance(s, K.Comment))

        def body():
            sids = tuple(s.sid for s in stmts)
            syncs = tuple(s.sid for s in stmts if isinstance(s, K.Sync))
            if sids:
                self.w(f"_charge(E, m, f, aws, {sids!r}, {syncs!r})"
                       if syncs else f"_charge(E, m, f, aws, {sids!r})")
            self.gathers(stmts)
            for s in stmts:
                self.stmt(s)
            if not stmts:
                self.w("pass")

        return self.func("r", "E, m, f, aw, aws", body)

    def gathers(self, stmts: tuple) -> None:
        """The region's active-lane gathers ``mi``/``wk``/``bf``/``rw``
        (``wk`` None unless counted, ``bf`` None unless counted or
        hazard-checked), hoisted for every memory statement to share."""
        gmem = [s for s in stmts if isinstance(s, (K.GLoad, K.GStore))]
        need_s = any(isinstance(s, (K.SLoad, K.SStore)) for s in stmts)
        if not gmem and not need_s:
            return
        # when every memory statement of the region takes the
        # warp-representative path, the per-lane gathers are dead weight
        # on the WOK path — emit them only for the fallback layout
        wonly = bool(gmem) and not need_s and all(
            isinstance(s, K.GLoad) and id(s) in self.warp_ids
            for s in gmem)
        if wonly:
            self.used_wok = True
            self.w("if not WOK:")
            self.ind += 1
        self.w("mi = _lanes(m, f)")
        self.w("wk = _wk(E, mi) if CNT else None")
        if gmem:
            # block ids feed only the hazard check and the counters
            need = " or ".join(["CNT"] + [
                f"CK_{b} is not None" for b in sorted({s.buf for s in gmem})])
            if all(isinstance(s, K.GLoad) and id(s) in self.uniform_ids
                   for s in gmem):
                # per-block-uniform loads need them on partial masks
                need = f"mi is not None and ({need})"
            self.w(f"bf = _lanes_of(E.block_ids, mi, m.shape[1]) "
                   f"if {need} else None")
        if need_s:
            self.w("rw = _lanes_of(E.rows[:, 0], mi, m.shape[1])")
        if wonly:
            self.ind -= 1

    def cond(self, e: K.Expr) -> str:
        """A loop condition as a function of the (compacted) env."""
        return self.func("c", "E", lambda: self.w(f"return {self.expr(e)}"))

    # -- statements -------------------------------------------------------

    def stmt(self, s: K.Stmt) -> None:
        sid = s.sid
        if isinstance(s, K.Assign):
            owned = ", True" if isinstance(s.value, _OWNED_ROOTS) else ""
            self.w(f"_set(E, {s.dst!r}, {self.expr(s.value)}, m, f{owned})")
        elif isinstance(s, K.GLoad):
            self.emit_gload(s)
        elif isinstance(s, K.GStore):
            self.bufs.add(s.buf)
            self.w(f"_gstore(E, B_{s.buf}, {self.expr(s.index)}, "
                   f"{self.expr(s.value)}, m, mi, wk, bf, "
                   f"{self.alloc_slot(sid)}, CK_{s.buf})")
        elif isinstance(s, K.SLoad):
            self.w(f"_sload(E, {s.dst!r}, {s.arr!r}, {self.expr(s.index)}, "
                   f"m, mi, wk, rw, {sid})")
        elif isinstance(s, K.SStore):
            self.w(f"_sstore(E, {s.arr!r}, {self.expr(s.index)}, "
                   f"{self.expr(s.value)}, m, mi, wk, rw, {sid})")
        elif isinstance(s, K.If):
            then = self.region(s.then)
            orelse = self.region(s.orelse) if s.orelse else None
            self.w(f"_if(E, m, f, aw, aws, {self.expr(s.cond)}, {sid}, "
                   f"{then}, {orelse})")
        elif isinstance(s, K.While):
            form = _scan_form(s)
            if form is None:
                self.w(f"_while(E, m, {sid}, {self.cond(s.cond)}, "
                       f"{self.region(s.body)})")
            else:
                self.w(f"_scan(E, m, {self.scan_loop(sid, form)})")
        elif isinstance(s, K.UniformWhile):
            self.w(f"_uwhile(E, m, aw, {sid}, {self.cond(s.cond)}, "
                   f"{self.region(s.body)})")
        elif isinstance(s, K.Sync):
            self.w("_sync(m)")
        elif isinstance(s, K.ShflDown):
            self.w(f"_shfl(E, {s.dst!r}, {s.src!r}, {int(s.delta)}, "
                   f"{int(self.device.warp_size)}, m, f)")
        else:
            raise SimulationError(f"unknown statement node {s!r}")

    def scan_loop(self, sid: int, form) -> str:
        """A scan loop's module-level ``ScanLoop``; returns its name."""
        self.uid += 1
        name = f"S{self.uid}"

        def fn(e):
            return f"lambda V: {self.expr(e, scan=True)}"

        stmts = []
        for kind, b, x, op in form.stmts:
            arg = (f"({b.buf!r}, {self.alloc_slot(b.sid)})" if kind == "g"
                   else repr(b.arr) if kind == "s"
                   else _BINOP_NAMES.get(op, f"C_{op}") if kind == "a"
                   else "None")
            stmts.append(f"({kind!r}, {b.dst!r}, {b.sid}, {arg}, {fn(x)})")
        inv = "None" if form.inv is None else fn(form.inv)
        self.scans.append(
            f"{name} = _ScanLoop({sid}, {form.iv!r}, {form.cmp!r}, {inv}, "
            f"{fn(form.bound)}, {form.reads!r}, ({', '.join(stmts)},))")
        return name

    def emit_gload(self, s: K.GLoad) -> None:
        slot = self.alloc_slot(s.sid)
        self.bufs.add(s.buf)
        helper = "_gload_u" if id(s) in self.uniform_ids else "_gload"
        call = (f"{helper}(E, {s.dst!r}, B_{s.buf}, {self.expr(s.index)}, "
                f"m, mi, wk, bf, {slot}, CK_{s.buf})")
        if id(s) not in self.warp_ids:
            self.w(call)
            return
        # warp-representative path, guarded on the runtime layout
        # condition that makes ``ty`` warp-uniform
        self.used_wok = True
        self.w("if WOK:")
        self.w(f"    _gload_w(E, {s.dst!r}, B_{s.buf}, "
               f"{self.expr(s.index, rep=True)}, m, f, {slot}, "
               f"CK_{s.buf}, {int(self.device.warp_size)})")
        self.w("else:")
        self.w("    " + call)

    # -- assembly ---------------------------------------------------------

    def emit(self) -> str:
        top = self.region(self.kernel.body)
        head = [f"P_{p} = _param(E, {p!r})" for p in sorted(self.params)]
        for b in sorted(self.bufs):
            head.append(f"B_{b} = E.gmem[{b!r}]")
            head.append(f"CK_{b} = None if E.check is None "
                        f"else E.check.get({b!r})")
        if self.used_wok:
            head.append(f"WOK = int(E.bdx) % {int(self.device.warp_size)}"
                        " == 0")
        funcs = [line for fn in self.funcs for line in fn]
        head = _binds(funcs, _LAUNCH_LOCALS) + head
        return "\n".join([
            f"# trace-compiled kernel {self.kernel.name!r} "
            "(generated by repro.gpu.executor_trace)",
            "_SLOT_SIDS = " + repr(self.slot_sids),
            *self.scans,
            "def _run_chunk(E):",
            # counted launch (off on a counter-memo hit): the gathers
            # only the counters read sit behind this flag
            "    CNT = E.log is not None",
            *("    " + line for line in head + funcs),
            "    aw, aws = _warps_per_block(E, E.block_mask, True) if CNT "
            "else (None, None)",
            f"    {top}(E, E.block_mask, True, aw, aws)",
        ]) + "\n"


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
