"""Kernel IR: the CUDA-like instruction set emitted by the compiler.

The lowering phase (:mod:`repro.codegen`) translates OpenACC loop nests into
kernels expressed in this IR; the simulator (:mod:`repro.gpu.executor`)
executes them warp-synchronously.  The IR deliberately mirrors the shape of
the CUDA C the OpenUH compiler emits in the paper (Fig. 3 and Fig. 5):
window-sliding ``while`` loops over thread indices, shared-memory staging,
explicit ``__syncthreads``.

Control flow comes in two flavours:

* :class:`While` — per-thread masked loop: each thread iterates while *its
  own* condition holds.  Used for loops that contain no barriers.
* :class:`UniformWhile` — lock-step loop: the whole block iterates while
  *any* thread's condition holds, with every thread executing the body (so
  barriers inside are uniform); lowerings guard per-thread effects with an
  explicit ``active`` predicate.  This is how real GPU codegen keeps
  ``__syncthreads`` legal inside distributed loops whose trip count is not a
  multiple of the thread count.

Expressions are typed; the builder inserts explicit :class:`Cast` nodes so
the executor never relies on NumPy's promotion rules (which differ from C's).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

from repro.dtypes import DType

__all__ = [
    # expressions
    "Expr", "Const", "Reg", "Special", "Param", "Bin", "Un", "Call", "Cast",
    "Select",
    # statements
    "Stmt", "Assign", "GLoad", "GStore", "SLoad", "SStore", "If", "While",
    "UniformWhile", "Sync", "Comment", "AtomicUpdate", "ShflDown",
    # containers
    "SharedArraySpec", "Kernel",
    # helpers
    "const_int", "dump", "dump_with_sids", "stamp_sids", "walk_stmts",
    "stmt_text",
    # rewrite utilities / verifier (pass-pipeline support)
    "transform_block", "map_expr", "expr_reads", "stmt_reads",
    "stmt_writes", "verify_kernel", "BLOCK_FIELDS", "EXPR_FIELDS",
    "SPECIALS",
]


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expr:
    """Base class for kernel-IR expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A scalar literal of a specific machine type."""

    value: object
    dtype: DType


@dataclass(frozen=True)
class Reg(Expr):
    """Read a per-thread register."""

    name: str


#: Built-in thread-geometry values (CUDA names per Table 1 of the paper).
SPECIALS = ("tx", "ty", "bx", "bdx", "bdy", "gdx", "tid", "ntid")


@dataclass(frozen=True)
class Special(Expr):
    """A thread-geometry builtin.

    ``tx``/``ty`` = ``threadIdx.x/y``; ``bx`` = ``blockIdx.x``;
    ``bdx``/``bdy`` = ``blockDim.x/y``; ``gdx`` = ``gridDim.x``;
    ``tid`` = flattened thread id ``ty*bdx+tx``; ``ntid`` = ``bdx*bdy``.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in SPECIALS:
            raise ValueError(f"unknown special {self.kind!r}")


@dataclass(frozen=True)
class Param(Expr):
    """A scalar kernel parameter (uniform across all threads)."""

    name: str


@dataclass(frozen=True)
class Bin(Expr):
    """Binary operation.  Operands must already share the result dtype
    (for arithmetic) — the IR builder inserts casts."""

    op: str
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Un(Expr):
    """Unary operation: ``neg``, ``not``, ``inv`` (bitwise complement)."""

    op: str
    a: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Intrinsic call (``fmax``, ``fabs``, ``sqrt``...)."""

    fn: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Cast(Expr):
    """Convert to a machine type (C-style truncation for float→int)."""

    dtype: DType
    a: Expr


@dataclass(frozen=True)
class Select(Expr):
    """Branchless select: ``cond ? a : b`` evaluated elementwise."""

    cond: Expr
    a: Expr
    b: Expr


def const_int(v: int) -> Const:
    """Shorthand for an ``int`` literal (the index arithmetic workhorse)."""
    return Const(int(v), DType.INT)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

class Stmt:
    """Base class for kernel-IR statements.

    Every concrete statement carries a *stable statement id* ``sid`` plus
    an optional source location ``loc`` (a short ``"file:line"``-style
    string).  Both are ``compare=False`` fields: statements stamped with
    different ids still compare (and hash) equal, so structural kernel
    identity — the launch compile-cache key and the golden-IR tests — is
    unaffected.  ``sid`` is ``-1`` until :func:`stamp_sids` assigns
    pre-order ids at the end of lowering; the executors key the opt-in
    per-statement attribution tables on it.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Stmt):
    """Write a per-thread register (under the active mask)."""

    dst: str
    value: Expr
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GLoad(Stmt):
    """``dst = buffer[index]`` from global memory (coalescing-accounted)."""

    dst: str
    buf: str
    index: Expr
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GStore(Stmt):
    """``buffer[index] = value`` to global memory."""

    buf: str
    index: Expr
    value: Expr
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SLoad(Stmt):
    """``dst = shared_array[index]`` (bank-conflict-accounted)."""

    dst: str
    arr: str
    index: Expr
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SStore(Stmt):
    """``shared_array[index] = value``."""

    arr: str
    index: Expr
    value: Expr
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class If(Stmt):
    """Masked two-way branch; divergence within a warp is recorded."""

    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class While(Stmt):
    """Per-thread masked loop (no barriers allowed inside)."""

    cond: Expr
    body: tuple[Stmt, ...]
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class UniformWhile(Stmt):
    """Lock-step loop: iterate while any thread's condition holds.

    All threads execute the body each iteration (barriers inside are legal);
    lowerings must guard per-thread effects with a predicate.
    """

    cond: Expr
    body: tuple[Stmt, ...]
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Sync(Stmt):
    """``__syncthreads()`` — errors if executed under divergent control flow."""

    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Comment(Stmt):
    """No-op annotation kept for kernel dumps (costs nothing)."""

    text: str
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AtomicUpdate(Stmt):
    """``atomic buffer[index] = op(buffer[index], value)`` on global memory.

    Duplicate indices within one statement combine (unlike plain stores where
    the last writer wins).  Used by the extension/ablation lowerings; the
    paper's OpenUH strategies do not rely on atomics.
    """

    buf: str
    index: Expr
    op: str  # a reduction-operator token, e.g. "+", "max"
    value: Expr
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ShflDown(Stmt):
    """``dst = __shfl_down(src, delta)``: read ``src`` from the lane
    ``delta`` positions higher *within the same warp*; lanes whose source
    would cross the warp boundary keep their own value (CUDA semantics).

    Kepler-class hardware capability used by the warp-shuffle reduction
    extension (ablation A9) — register traffic only, no shared memory and
    no barriers.
    """

    dst: str
    src: str
    delta: int
    sid: int = field(default=-1, compare=False)
    loc: str | None = field(default=None, compare=False)


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedArraySpec:
    """A per-block shared-memory array declaration.

    ``overlay`` implements the paper's §3.3 space-sharing rule: arrays with
    the same overlay key occupy the *same* region, sized for the largest
    member (legal because reduction buffers of different operands are live
    at disjoint times).  ``None`` means a private region.
    """

    name: str
    dtype: DType
    size: int  # elements
    overlay: str | None = None

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize


@dataclass(frozen=True)
class Kernel:
    """A compiled device kernel.

    ``params`` are uniform scalars bound at launch; ``buffers`` names the
    global buffers the kernel may touch; ``shared`` declares the per-block
    shared arrays (their total size participates in occupancy).
    """

    name: str
    body: tuple[Stmt, ...]
    params: tuple[str, ...] = ()
    buffers: tuple[str, ...] = ()
    shared: tuple[SharedArraySpec, ...] = ()
    note: str = ""

    @property
    def shared_bytes(self) -> int:
        """Shared-memory footprint, with overlay groups counted once
        (at the size of their largest member)."""
        plain = sum(s.nbytes for s in self.shared if s.overlay is None)
        groups: dict[str, int] = {}
        for s in self.shared:
            if s.overlay is not None:
                groups[s.overlay] = max(groups.get(s.overlay, 0), s.nbytes)
        return plain + sum(groups.values())


# --------------------------------------------------------------------------
# Statement-id stamping (source-counter attribution support)
# --------------------------------------------------------------------------

def _stamp_block(stmts: tuple[Stmt, ...], counter) -> tuple[Stmt, ...]:
    out = []
    for s in stmts:
        sid = next(counter)  # pre-order: parent before children
        if isinstance(s, If):
            s = dataclasses.replace(
                s, sid=sid, then=_stamp_block(s.then, counter),
                orelse=_stamp_block(s.orelse, counter))
        elif isinstance(s, (While, UniformWhile)):
            s = dataclasses.replace(s, sid=sid,
                                    body=_stamp_block(s.body, counter))
        else:
            s = dataclasses.replace(s, sid=sid)
        out.append(s)
    return tuple(out)


def stamp_sids(kernel: Kernel) -> Kernel:
    """Return ``kernel`` with every statement stamped with a pre-order sid.

    Ids are dense (``0..n-1``), deterministic for a given body shape, and
    excluded from equality/hash, so the stamped kernel is structurally
    identical to the input (same compile-cache key, same golden dumps).
    The lowering applies this as its final step; the executors and the
    attribution layer rely on the ids being stable across compilations.
    """
    counter = itertools.count()
    return dataclasses.replace(kernel, body=_stamp_block(kernel.body, counter))


def walk_stmts(stmts: tuple[Stmt, ...], depth: int = 0):
    """Yield ``(stmt, depth)`` over a statement tree in pre-order."""
    for s in stmts:
        yield s, depth
        if isinstance(s, If):
            yield from walk_stmts(s.then, depth + 1)
            yield from walk_stmts(s.orelse, depth + 1)
        elif isinstance(s, (While, UniformWhile)):
            yield from walk_stmts(s.body, depth + 1)


# --------------------------------------------------------------------------
# Rewrite utilities (the optimization passes' workhorses)
# --------------------------------------------------------------------------

def transform_block(stmts: tuple[Stmt, ...], fn) -> tuple[Stmt, ...]:
    """Rebuild a statement tree bottom-up through ``fn``.

    Child blocks (``If.then``/``orelse``, loop bodies) are transformed
    first, then ``fn(stmt)`` is applied to the (possibly rebuilt)
    statement.  ``fn`` returns the statement unchanged, a replacement
    statement, ``None`` to delete it, or a tuple/list of statements to
    splice in its place.  A block in which nothing changed is returned
    as the same object, so a no-op rewrite keeps the kernel's identity.
    """
    out: list[Stmt] = []
    changed = False
    for orig in stmts:
        s = orig
        if type(s) in BLOCK_FIELDS:
            blocks = {f: transform_block(getattr(s, f), fn)
                      for f in BLOCK_FIELDS[type(s)]}
            if any(b is not getattr(s, f) for f, b in blocks.items()):
                s = dataclasses.replace(s, **blocks)
        r = fn(s)
        if r is None:
            changed = True
        elif isinstance(r, (tuple, list)):
            out.extend(r)
            changed = True
        else:
            out.append(r)
            changed = changed or r is not orig
    if not changed and isinstance(stmts, tuple):
        return stmts
    return tuple(out)


def map_expr(e: Expr, fn) -> Expr:
    """Rebuild an expression bottom-up through ``fn`` (applied to every
    node after its children were mapped).  A node whose children all
    came back unchanged is passed to ``fn`` as the same object."""
    if isinstance(e, Bin):
        a, b = map_expr(e.a, fn), map_expr(e.b, fn)
        if a is not e.a or b is not e.b:
            e = Bin(e.op, a, b)
    elif isinstance(e, (Un, Cast)):
        a = map_expr(e.a, fn)
        if a is not e.a:
            e = dataclasses.replace(e, a=a)
    elif isinstance(e, Call):
        args = tuple(map_expr(a, fn) for a in e.args)
        if any(x is not y for x, y in zip(args, e.args)):
            e = Call(e.fn, args)
    elif isinstance(e, Select):
        c, a, b = (map_expr(e.cond, fn), map_expr(e.a, fn),
                   map_expr(e.b, fn))
        if c is not e.cond or a is not e.a or b is not e.b:
            e = Select(c, a, b)
    return fn(e)


def expr_reads(e: Expr, regs: set[str]) -> None:
    """Collect the register names an expression reads into ``regs``."""
    t = type(e)  # exact types: the verifier's hot loop
    if t is Reg:
        regs.add(e.name)
    elif t is Bin:
        expr_reads(e.a, regs)
        expr_reads(e.b, regs)
    elif t is Un or t is Cast:
        expr_reads(e.a, regs)
    elif t is Call:
        for a in e.args:
            expr_reads(a, regs)
    elif t is Select:
        expr_reads(e.cond, regs)
        expr_reads(e.a, regs)
        expr_reads(e.b, regs)


#: the child-block fields of each compound statement type
BLOCK_FIELDS = {If: ("then", "orelse"), While: ("body",),
                UniformWhile: ("body",)}
#: the expression fields of each statement type that has any
EXPR_FIELDS = {
    Assign: ("value",), GLoad: ("index",), GStore: ("index", "value"),
    SLoad: ("index",), SStore: ("index", "value"), If: ("cond",),
    While: ("cond",), UniformWhile: ("cond",),
    AtomicUpdate: ("index", "value"),
}


def stmt_reads(s: Stmt) -> set[str]:
    """Register names a statement reads in its own expressions (not in
    its child blocks)."""
    regs: set[str] = set()
    for f in EXPR_FIELDS.get(type(s), ()):
        expr_reads(getattr(s, f), regs)
    if isinstance(s, ShflDown):
        regs.add(s.src)
    return regs


def stmt_writes(s: Stmt) -> str | None:
    """The register a statement defines, or ``None``."""
    if isinstance(s, (Assign, GLoad, SLoad, ShflDown)):
        return s.dst
    return None


# --------------------------------------------------------------------------
# IR verifier (run between pipeline passes)
# --------------------------------------------------------------------------

_KNOWN_STMTS = (Assign, GLoad, GStore, SLoad, SStore, If, While,
                UniformWhile, Sync, Comment, AtomicUpdate, ShflDown)


def verify_kernel(kernel: Kernel, *, expect_sids: bool = False) -> None:
    """Structural sanity checks over a kernel; raises
    :class:`~repro.errors.IRVerificationError` on the first violation
    (the per-statement checks in pre-order, then the register reads).

    Run by the pass manager after every kernel-modifying pass so a broken
    rewrite is pinned to the pass that produced it, not to a downstream
    simulator crash.  Checks:

    * every statement/expression node is a known IR type;
    * global buffers touched are declared in ``kernel.buffers``;
    * shared arrays touched are declared in ``kernel.shared``;
    * every register read is written *somewhere* in the kernel
      (flow-insensitive — lowerings guard definitions with masks);
    * no ``Sync`` inside a per-thread masked ``While`` (barriers are only
      legal in lock-step ``UniformWhile`` loops);
    * with ``expect_sids=True`` (after the stamping pass): sids are the
      dense pre-order ``0..n-1``.
    """
    from repro.errors import IRVerificationError

    shared_names = {sa.name for sa in kernel.shared}
    buffers = set(kernel.buffers)
    defined: set[str] = set()
    read: set[str] = set()
    sids: list[int] = []

    def bad(msg: str) -> IRVerificationError:
        return IRVerificationError(f"{kernel.name}: {msg}")

    # one pre-order walk runs the structural checks and collects every
    # definition and read; the flow-insensitive read check needs them all
    def walk(stmts, in_masked_loop: bool):
        for s in stmts:
            if not isinstance(s, _KNOWN_STMTS):
                raise bad(f"unknown statement node {s!r}")
            sids.append(s.sid)
            if isinstance(s, Sync) and in_masked_loop:
                raise bad("__syncthreads() inside a per-thread While loop "
                          f"(sid={s.sid})")
            if isinstance(s, (GLoad, GStore, AtomicUpdate)) \
                    and s.buf not in buffers:
                raise bad(f"undeclared global buffer {s.buf!r} in "
                          f"`{stmt_text(s)}`")
            if isinstance(s, (SLoad, SStore)) and s.arr not in shared_names:
                raise bad(f"undeclared shared array {s.arr!r} in "
                          f"`{stmt_text(s)}`")
            read.update(stmt_reads(s))
            w = stmt_writes(s)
            if w is not None:
                defined.add(w)
            if isinstance(s, If):
                walk(s.then, in_masked_loop)
                walk(s.orelse, in_masked_loop)
            elif isinstance(s, While):
                walk(s.body, True)
            elif isinstance(s, UniformWhile):
                walk(s.body, in_masked_loop)

    walk(kernel.body, False)

    if not read <= defined:
        # name the first statement that reads an undefined register
        for s, _ in walk_stmts(kernel.body):
            missing = stmt_reads(s) - defined
            if missing:
                raise bad(f"register(s) {sorted(missing)} read but never "
                          f"written, in `{stmt_text(s)}`")

    if expect_sids and sids != list(range(len(sids))):
        raise bad(f"statement ids are not the dense pre-order "
                  f"0..{len(sids) - 1}: {sids[:8]}...")


# --------------------------------------------------------------------------
# Pretty printer (used by the inspect example and golden tests)
# --------------------------------------------------------------------------

def _fmt_expr(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        if hasattr(v, "item"):
            v = v.item()
        if e.dtype is DType.LONG:
            return f"{v}L"
        if e.dtype is DType.FLOAT:
            return f"{float(v)}f"
        if e.dtype is DType.DOUBLE:
            return f"{float(v)}"
        return repr(v)
    if isinstance(e, Reg):
        return e.name
    if isinstance(e, Special):
        names = {
            "tx": "threadIdx.x", "ty": "threadIdx.y", "bx": "blockIdx.x",
            "bdx": "blockDim.x", "bdy": "blockDim.y", "gdx": "gridDim.x",
            "tid": "tid", "ntid": "ntid",
        }
        return names[e.kind]
    if isinstance(e, Param):
        return f"${e.name}"
    if isinstance(e, Bin):
        return f"({_fmt_expr(e.a)} {e.op} {_fmt_expr(e.b)})"
    if isinstance(e, Un):
        sym = {"neg": "-", "not": "!", "inv": "~"}[e.op]
        return f"{sym}{_fmt_expr(e.a)}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt_expr(a) for a in e.args)})"
    if isinstance(e, Cast):
        return f"({e.dtype.ctype}){_fmt_expr(e.a)}"
    if isinstance(e, Select):
        return f"({_fmt_expr(e.cond)} ? {_fmt_expr(e.a)} : {_fmt_expr(e.b)})"
    raise TypeError(f"unknown expr {e!r}")


def _head_text(s: Stmt) -> str:
    """The one-line rendering of a statement (loop/branch heads included)."""
    if isinstance(s, Assign):
        return f"{s.dst} = {_fmt_expr(s.value)};"
    if isinstance(s, GLoad):
        return f"{s.dst} = {s.buf}[{_fmt_expr(s.index)}];  // global"
    if isinstance(s, GStore):
        return f"{s.buf}[{_fmt_expr(s.index)}] = {_fmt_expr(s.value)};  // global"
    if isinstance(s, SLoad):
        return f"{s.dst} = {s.arr}[{_fmt_expr(s.index)}];  // shared"
    if isinstance(s, SStore):
        return f"{s.arr}[{_fmt_expr(s.index)}] = {_fmt_expr(s.value)};  // shared"
    if isinstance(s, If):
        return f"if ({_fmt_expr(s.cond)})"
    if isinstance(s, While):
        return f"while ({_fmt_expr(s.cond)})"
    if isinstance(s, UniformWhile):
        return f"while-any ({_fmt_expr(s.cond)})"
    if isinstance(s, Sync):
        return "__syncthreads();"
    if isinstance(s, Comment):
        return f"// {s.text}"
    if isinstance(s, AtomicUpdate):
        return (f"atomic {s.buf}[{_fmt_expr(s.index)}] "
                f"{s.op}= {_fmt_expr(s.value)};")
    if isinstance(s, ShflDown):
        return f"{s.dst} = __shfl_down({s.src}, {s.delta});"
    raise TypeError(f"unknown stmt {s!r}")


def stmt_text(s: Stmt) -> str:
    """Short single-line text of a statement (used to *name* statements
    in attribution reports and roofline verdicts)."""
    return _head_text(s)


def _dump_stmts(stmts: tuple[Stmt, ...], indent: int, out: list[str],
                sid_lines: dict[int, int] | None = None) -> None:
    pad = "  " * indent
    for s in stmts:
        if sid_lines is not None and s.sid >= 0:
            sid_lines[s.sid] = len(out)
        if isinstance(s, If):
            out.append(f"{pad}if ({_fmt_expr(s.cond)}) {{")
            _dump_stmts(s.then, indent + 1, out, sid_lines)
            if s.orelse:
                out.append(f"{pad}}} else {{")
                _dump_stmts(s.orelse, indent + 1, out, sid_lines)
            out.append(f"{pad}}}")
        elif isinstance(s, While):
            out.append(f"{pad}while ({_fmt_expr(s.cond)}) {{")
            _dump_stmts(s.body, indent + 1, out, sid_lines)
            out.append(f"{pad}}}")
        elif isinstance(s, UniformWhile):
            out.append(f"{pad}while-any ({_fmt_expr(s.cond)}) {{")
            _dump_stmts(s.body, indent + 1, out, sid_lines)
            out.append(f"{pad}}}")
        else:
            out.append(pad + _head_text(s))


def _dump_header(kernel: Kernel) -> list[str]:
    out = [f"__global__ void {kernel.name}"
           f"({', '.join(kernel.params)}) // buffers: {', '.join(kernel.buffers)}"]
    for sa in kernel.shared:
        out.append(f"  __shared__ {sa.dtype.ctype} {sa.name}[{sa.size}];")
    if kernel.note:
        out.append(f"  // {kernel.note}")
    out.append("{")
    return out


def dump(kernel: Kernel) -> str:
    """Render a kernel as pseudo-CUDA text."""
    out = _dump_header(kernel)
    _dump_stmts(kernel.body, 1, out)
    out.append("}")
    return "\n".join(out)


def dump_with_sids(kernel: Kernel) -> tuple[list[str], dict[int, int]]:
    """Render a kernel as pseudo-CUDA *lines* plus a sid → line-index map.

    The map points each stamped statement at the 0-based index of its
    first rendered line, so the attribution layer can attach per-line
    gutters (``%time / transactions / conflicts``) to the listing.
    """
    out = _dump_header(kernel)
    sid_lines: dict[int, int] = {}
    _dump_stmts(kernel.body, 1, out, sid_lines)
    out.append("}")
    return out, sid_lines
