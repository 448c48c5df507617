"""Scan loops: loops run along their iteration axis, bit for bit.

A scan loop (:func:`repro.gpu.executor_batched._scan_form`) carries only
its induction and its accumulators from one iteration to the next, so
both fast executors run it with one gather per load and one ordered fold
per accumulator (:func:`~repro.gpu.executor_batched._scan`).  These
tests generate such loops — per-lane starts and trip counts (zero
included, lanes leaving at different iterations), int32/float32/float64
data with -0.0, NaN, inf and int32 wrap-around, every fold operator,
temporaries read after the loop — and pin a batched first launch, a
counted trace re-launch and a counter-memo hit against the reference
executor: results, :class:`~repro.gpu.events.KernelStats` and
attribution tables.  The loops the helper must hand back to the
iterative ``_while`` (an induction it cannot prove free of overflow, a
watchdog budget the loop would pass, a non-integer bound) must match
too, as must a loop whose induction is loaded rather than stepped,
which is not a scan loop at all.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import acc
from repro.dtypes import DType
from repro.errors import WatchdogTimeoutError
from repro.gpu import GlobalMemory, K20C
from repro.gpu import executor_batched, executor_trace
from repro.gpu import kernelir as K
from repro.gpu.executor import CompiledKernel
from repro.gpu.executor_batched import _scan_form
from repro.obs import timeline
from repro.testsuite.cases import generate_cases

_DT = {"int": DType.INT, "float": DType.FLOAT, "double": DType.DOUBLE}
_OPS = {"int": ("+", "*", "max", "min", "^", "|", "&"),
        "float": ("+", "*", "max", "min", "fmax"),
        "double": ("+", "*", "max", "min", "fmin")}
_SPECIAL = {"int": (0, 1, -1, 2**31 - 1, -2**31, 65537, -3),
            "float": (0.0, -0.0, 1.5, float("nan"), float("inf"),
                      float("-inf"), 3e38, -1e-30),
            "double": (0.0, -0.0, 1.5, float("nan"), float("inf"),
                       float("-inf"), 1e308, -1e-300)}
#: the loop's statement id (stamped in program order)
_LOOP_SID = 8


def _c(v, dt=DType.INT):
    return K.Const(v, dt)


def _i(v):
    return K.const_int(v)


def _scan_kernel(spec) -> K.Kernel:
    """``iv = S0 + (tid*A + bx*B) % M`` per lane, then
    ``while ([tid % 3 != 0 &&] iv <cmp> bound) { ld = data[(iv + off) & mask];
    sv = sh[iv & (ntid-1)]; t = ld + sv; acc = acc <op> t;
    acc2 = <general fold>; iv += step }`` (the induction update first
    or last), and every register stored after the loop."""
    dt = _DT[spec["ctype"]]
    tid, bx, ntid = K.Special("tid"), K.Special("bx"), K.Special("ntid")
    gid = K.Bin("+", K.Bin("*", bx, ntid), tid)
    start = K.Bin("+", _i(spec["s0"]), K.Bin("%", K.Bin(
        "+", K.Bin("*", tid, _i(spec["a"])), K.Bin("*", bx, _i(spec["b"]))),
        _i(spec["mod"])))
    if spec["long_iv"]:
        start = K.Cast(DType.LONG, start)
    bound = K.Param("bound") if spec["bound_param"] else \
        _c(spec["bound"], DType.FLOAT if spec["float_bound"] else DType.INT)
    cond = K.Bin(spec["cmp"], K.Reg("iv"), bound)
    if spec["inv"]:
        cond = K.Bin("&&", K.Bin("!=", K.Bin("%", tid, _i(3)), _i(0)), cond)
    op = spec["op"]
    fold = K.Call(op, (K.Reg("acc"), K.Reg("t"))) \
        if op in ("max", "min", "fmax", "fmin") \
        else K.Bin(op, K.Reg("acc"), K.Reg("t"))
    general = (K.Bin("-", K.Reg("t"), K.Reg("acc2")) if dt != DType.INT
               else K.Bin("^", K.Bin("*", K.Reg("acc2"), _i(3)), K.Reg("t")))
    step = K.Assign("iv", K.Bin("+", K.Reg("iv"), _i(spec["step"])))
    body = [
        K.GLoad("ld", "data", K.Bin("&", K.Bin("+", K.Reg("iv"),
                                               _i(spec["off"])),
                                    _i(spec["size"] - 1))),
        K.SLoad("sv", "sh", K.Bin("&", K.Reg("iv"), K.Bin("-", ntid, _i(1)))),
        K.Assign("t", K.Bin("+", K.Reg("ld"), K.Reg("sv"))),
        K.Assign("acc", fold),
        K.Assign("acc2", general),
    ]
    body.insert(0, step) if spec["step_first"] else body.append(step)
    zero = _c(0, dt)
    stmts = (
        K.SStore("sh", tid, K.Cast(dt, K.Bin("-", tid, _i(7)))),
        K.Sync(),
        K.Assign("iv", start),
        K.GLoad("acc", "init", gid),
        K.Assign("acc2", zero),
        K.Assign("t", zero),
        K.Assign("ld", zero),
        K.Assign("sv", zero),
        K.While(cond, tuple(body)),
    ) + tuple(K.GStore(f"out_{r}", gid, K.Reg(r))
              for r in ("acc", "acc2", "t", "ld", "sv", "iv"))
    k = K.stamp_sids(K.Kernel(
        "scan", stmts,
        buffers=("data", "init") + tuple(
            f"out_{r}" for r in ("acc", "acc2", "t", "ld", "sv", "iv")),
        shared=(K.SharedArraySpec("sh", dt, spec["threads"]),)))
    loop = next(s for s, _ in K.walk_stmts(k.body)
                if isinstance(s, K.While))
    assert loop.sid == _LOOP_SID
    return k


def _memory(spec, data, init) -> GlobalMemory:
    dt = _DT[spec["ctype"]]
    n = spec["blocks"] * spec["threads"]
    g = GlobalMemory(K20C)
    g.alloc("data", data.size, dt, init=data)
    g.alloc("init", n, dt, init=init)
    for r in ("acc", "acc2", "t", "ld", "sv"):
        g.alloc(f"out_{r}", n, dt)
    g.alloc("out_iv", n, DType.LONG if spec["long_iv"] else DType.INT)
    return g


def _stats(st) -> dict:
    d = {f.name: getattr(st, f.name) for f in dataclasses.fields(st)
         if f.name not in ("trace", "attribution", "executor", "counters")}
    d["attr"] = st.attribution.as_dict() if st.attribution else None
    return d


def _launch(ck, spec, data, init, mode, attribution=False, budget=None):
    g = _memory(spec, data, init)
    try:
        st = ck.run(g, spec["blocks"], (spec["threads"], 1),
                    params={"bound": spec["bound"]}, mode=mode,
                    block_batch=spec["block_batch"],
                    attribution=attribution, watchdog_budget=budget)
    except WatchdogTimeoutError as e:
        return ("watchdog", e.budget), None
    outs = {name: g[name].data.tobytes() for name in ck.kernel.buffers
            if name.startswith("out_")}
    return outs, st


def _while_sids(monkeypatch) -> list:
    """The statement ids the iterative loop helper runs, called from the
    batched closures and ``_scan`` (a module global) or from generated
    trace code (bound in its globals)."""
    sids = []
    real = executor_batched._while

    def spy(E, m, sid, cond, body):
        sids.append(sid)
        return real(E, m, sid, cond, body)

    monkeypatch.setattr(executor_batched, "_while", spy)
    monkeypatch.setitem(executor_trace._BASE_GLOBALS, "_while", spy)
    return sids


def _check(spec, data, init, monkeypatch, scanned: bool, budget=None):
    """Reference vs a batched first launch, a counted trace re-launch
    and a memo hit; ``scanned`` says whether the fast launches must run
    the loop along its iteration axis or hand it to ``_while``."""
    kernel = _scan_kernel(spec)
    assert _scan_form(next(s for s, _ in K.walk_stmts(kernel.body)
                           if isinstance(s, K.While))) is not None
    ref_out, ref = _launch(CompiledKernel(kernel, K20C), spec, data, init,
                           "reference", True, budget)
    sids = _while_sids(monkeypatch)
    ck = CompiledKernel(kernel, K20C)
    launches = [("batched", True), ("trace", True), ("trace", False),
                ("trace", False)]
    for i, (mode, attribution) in enumerate(launches):
        del sids[:]
        out, got = _launch(ck, spec, data, init, mode, attribution, budget)
        assert out == ref_out, (mode, i)
        assert (_LOOP_SID in sids) != scanned, (mode, i, sids)
        if ref is None:
            continue
        want = _stats(ref)
        if not attribution:
            want["attr"] = None
        assert _stats(got) == want, (mode, i)
        assert (got.executor, got.counters) == (
            mode, "memo" if i == 3 else "counted")


def _data(draw, ctype, size):
    special = st.sampled_from(_SPECIAL[ctype])
    if ctype == "int":
        plain = st.integers(-2**31, 2**31 - 1)
    else:
        w = 32 if ctype == "float" else 64
        plain = st.floats(width=w, allow_nan=True, allow_infinity=True)
    vals = draw(st.lists(st.one_of(special, plain), min_size=size,
                         max_size=size))
    return np.array(vals, dtype=_DT[ctype].np)


@st.composite
def _specs(draw):
    ctype = draw(st.sampled_from(("int", "float", "double")))
    cmp = draw(st.sampled_from(("<", "<=", ">", ">=")))
    up = cmp in ("<", "<=")
    s0 = draw(st.integers(-40, 40))
    mod = draw(st.integers(1, 50))
    step = draw(st.integers(1, 6)) * (1 if up else -1)
    bound = s0 + draw(st.integers(-5, 60)) * (1 if up else -1) \
        + (0 if up else mod)
    spec = dict(
        ctype=ctype, cmp=cmp, s0=s0, mod=mod, step=step, bound=bound,
        a=draw(st.integers(0, 13)), b=draw(st.integers(0, 7)),
        op=draw(st.sampled_from(_OPS[ctype])),
        inv=draw(st.booleans()), step_first=draw(st.booleans()),
        bound_param=draw(st.booleans()),
        blocks=draw(st.integers(1, 5)),
        threads=draw(st.sampled_from((32, 64))),
        block_batch=draw(st.sampled_from((1, 3, None))),
        long_iv=False, float_bound=False)
    lo = min(s0, bound) - 8
    hi = max(s0 + mod, bound) + 8
    spec["off"] = -lo
    spec["size"] = 1 << (hi - lo).bit_length()
    data = _data(draw, ctype, spec["size"])
    init = _data(draw, ctype, spec["blocks"] * spec["threads"])
    return spec, data, init


class TestScanLoopProperties:
    @given(case=_specs())
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_reference(self, case):
        spec, data, init = case
        with pytest.MonkeyPatch.context() as mp:
            _check(spec, data, init, mp, scanned=True)


class TestScanLoopFallbacks:
    """Loops the helper cannot prove exact run iteratively, and match."""

    BASE = dict(ctype="float", cmp="<", s0=3, mod=20, step=3, bound=40,
                a=5, b=3, op="+", inv=True, step_first=False,
                bound_param=True, blocks=4, threads=32, block_batch=3,
                long_iv=False, float_bound=False, off=8, size=64)

    def _inputs(self, spec, size=64):
        rng = np.random.default_rng(7)
        dt = _DT[spec["ctype"]].np
        data = rng.standard_normal(size).astype(dt)
        init = rng.standard_normal(spec["blocks"]
                                   * spec["threads"]).astype(dt)
        return data, init

    def test_plain_loop_scans(self, monkeypatch):
        spec = dict(self.BASE)
        _check(spec, *self._inputs(spec), monkeypatch, scanned=True)

    def test_wide_induction_runs_iteratively(self, monkeypatch):
        # a 64-bit induction is not proven free of overflow
        spec = dict(self.BASE, long_iv=True)
        _check(spec, *self._inputs(spec), monkeypatch, scanned=False)

    def test_float_bound_runs_iteratively(self, monkeypatch):
        spec = dict(self.BASE, bound=40.5, bound_param=False,
                    float_bound=True)
        _check(spec, *self._inputs(spec), monkeypatch, scanned=False)

    def test_overflowing_induction_runs_iteratively(self, monkeypatch):
        # iv <= INT_MAX - 2 in steps of 5 wraps past INT_MAX: the loop
        # never leaves, and every executor trips the same watchdog
        spec = dict(self.BASE, s0=2**31 - 40, mod=4, bound=2**31 - 2,
                    step=5, cmp="<=")
        ref_out, _ = _launch(CompiledKernel(_scan_kernel(spec), K20C), spec,
                             *self._inputs(spec), "reference", budget=500)
        assert ref_out == ("watchdog", 500)
        _check(spec, *self._inputs(spec), monkeypatch, scanned=False,
               budget=500)

    def test_tight_watchdog_runs_iteratively(self, monkeypatch):
        # 4 blocks with 3-13 trips each pass a budget of 20 steps
        spec = dict(self.BASE)
        data, init = self._inputs(spec)
        ref_out, _ = _launch(CompiledKernel(_scan_kernel(spec), K20C), spec,
                             data, init, "reference", budget=20)
        assert ref_out == ("watchdog", 20)
        _check(spec, data, init, monkeypatch, scanned=False, budget=20)

    def test_loaded_induction_runs_iteratively(self, monkeypatch):
        # pointer chasing, ``while (i < n) i = next[i]``: the induction
        # has no step, so the loop is not a scan loop
        tid, bx, ntid = K.Special("tid"), K.Special("bx"), K.Special("ntid")
        loop = K.While(K.Bin("<", K.Reg("i"), K.Param("n")),
                       (K.GLoad("i", "next", K.Reg("i")),))
        kernel = K.stamp_sids(K.Kernel("chase", (
            K.Assign("i", K.Bin("%", K.Bin("*", tid, _i(3)), _i(40))),
            loop,
            K.GStore("out", K.Bin("+", K.Bin("*", bx, ntid), tid),
                     K.Reg("i")),
        ), buffers=("next", "out")))
        loop = next(s for s, _ in K.walk_stmts(kernel.body)
                    if isinstance(s, K.While))
        assert _scan_form(loop) is None
        nxt = np.arange(40, dtype=np.int32)
        nxt += 1 + nxt % 3 * (nxt % 5)

        def launch(ck, mode, attribution):
            g = GlobalMemory(K20C)
            g.alloc("next", 40, DType.INT, init=nxt)
            g.alloc("out", 3 * 32, DType.INT)
            st = ck.run(g, 3, (32, 1), params={"n": 40}, mode=mode,
                        block_batch=2, attribution=attribution)
            return g["out"].data.tobytes(), _stats(st)

        ref_out, want = launch(CompiledKernel(kernel, K20C), "reference",
                               True)
        sids = _while_sids(monkeypatch)
        ck = CompiledKernel(kernel, K20C)
        for i, (mode, attribution) in enumerate(
                [("batched", True), ("trace", True), ("trace", False)]):
            del sids[:]
            out, got = launch(ck, mode, attribution)
            assert out == ref_out, (mode, i)
            assert loop.sid in sids, (mode, i, sids)
            assert got == dict(want, attr=want["attr"] if attribution
                               else None), (mode, i)


def test_executor_mode_reports_scan_loops():
    """The ``executor-mode`` decision says how many of the kernel's loops
    a fast launch runs along their iteration axis: a gang worker vector
    cell's vector loop and its fused finish loops (one per finish lane a
    thread replays)."""
    case, = generate_cases(positions=("gang worker vector",), ops=("+",),
                           ctypes=("float",), size=256)
    prog = acc.compile(case.source, pipeline="optimized", num_gangs=4,
                       num_workers=2, vector_length=32)
    inputs = case.make_inputs(np.random.default_rng(3))
    with timeline.enabled() as tl:
        for mode in ("batched", "trace", "reference"):
            prog.run(executor_mode=mode, **inputs)
    main = prog.lowered.main_kernel
    loops = sum(_scan_form(s) is not None for s, _ in K.walk_stmts(main.body))
    assert loops >= 2
    assert [(e.attrs["mode"], e.attrs["scan_loops"])
            for e in tl.events("gpu", kind="decision")
            if e.name == "executor-mode" and e.attrs["kernel"] == main.name] \
        == [("batched", loops), ("trace", loops), ("reference", 0)]
