"""The benchmark's four workloads.

Each workload is built from ``(seed, seconds)`` alone: the seed makes the
program order and every input, ``seconds`` sizes the amount of work from a
nominal per-unit cost measured on a 2-core host, so the same arguments
give the same work on every commit.  A workload has three steps:

* ``setup()`` — compile what the workload serves, warm caches (timed
  separately as ``setup_s`` in fresh processes);
* ``run(units)`` — the timed phase over a list of units;
* ``check(outcome)`` — the untimed comparison of one unit's outputs with
  an independent reference (a message on mismatch, else ``None``).
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def digest(scalars: dict, outputs: dict, modeled_ms=None) -> str:
    """Bitwise fingerprint of a result (and its modeled time)."""
    h = hashlib.sha256()
    for group in (scalars or {}, outputs or {}):
        for name in sorted(group):
            h.update(name.encode())
            h.update(np.asarray(group[name]).tobytes())
    if modeled_ms is not None:
        h.update(float(modeled_ms).hex().encode())
    return h.hexdigest()


def close_enough(want, got, ctype: str) -> bool:
    """Exact for integers; relative tolerance for floating results."""
    want, got = np.asarray(want), np.asarray(got)
    if ctype in ("float", "double"):
        rtol = 1e-5 if ctype == "float" else 1e-9
        return bool(np.allclose(got, want, rtol=rtol, atol=0))
    return bool(np.array_equal(got, want))


@dataclass
class Outcome:
    """What one unit did: its timed calls, modeled time and digests.

    ``run_iv``/``compile_iv`` hold each timed call's ``(start, end)``;
    :func:`run_units` turns them into speed-corrected ``run_ms`` /
    ``compile_ms`` (see speed.py).
    """

    label: str
    #: called before each timed call; takes a speed probe when one is due
    tick: object = None
    run_iv: list = field(default_factory=list)
    compile_iv: list = field(default_factory=list)
    run_ms: list = field(default_factory=list)
    compile_ms: list = field(default_factory=list)
    modeled_ms: float = 0.0
    #: unit wall without the probes taken inside it, uncorrected
    latency_ms: float = 0.0
    #: host-speed correction for the unit as a whole
    factor: float = 1.0
    digests: list = field(default_factory=list)
    value: object = None
    error: str = ""

    def run(self, prog, **kwargs):
        """One timed ``Program.run``; records modeled ms and a digest."""
        if self.tick is not None:
            self.tick()
        t0 = time.perf_counter()
        res = prog.run(**kwargs)
        self.run_iv.append((t0, time.perf_counter()))
        self.modeled_ms += res.modeled_ms
        self.digests.append(digest(res.scalars, res.outputs, res.modeled_ms))
        return res

    def compile(self, source: str, **kwargs):
        """One timed cold ``acc.compile``."""
        from repro import acc

        if self.tick is not None:
            self.tick()
        t0 = time.perf_counter()
        prog = acc.compile(source, **kwargs)
        self.compile_iv.append((t0, time.perf_counter()))
        return prog


@dataclass
class Unit:
    label: str
    fn: object     # fn(outcome) -> value handed to check
    check: object  # check(value) -> error message or None


def run_units(units: list[Unit], store=None) -> list[Outcome]:
    """Closed loop: each unit starts when the previous one finished.

    Speed probes run between timed calls, at most every ``speed.EVERY_S``,
    and correct each call's time (see speed.py).  With a span ``store``
    the probes are spans of their own, so the traced wall stays
    accounted for.
    """
    log = speed.SpeedLog()

    def probe(k=1):
        idx = store.open("bench.probe") if store is not None else None
        try:
            log.probe(k)
        finally:
            if idx is not None:
                store.close(idx)

    def tick():
        if log.due():
            probe()

    outcomes, intervals = [], []
    probe(3)
    for u in units:
        tick()
        oc = Outcome(u.label, tick=tick)
        n_probes = len(log)
        t0 = time.perf_counter()
        try:
            oc.value = u.fn(oc)
        except Exception as exc:  # a failed operation is counted, not fatal
            oc.error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        oc.latency_ms = (t1 - t0 - sum(log.took[n_probes:])) * 1e3
        outcomes.append(oc)
        intervals.append((t0, t1))
    probe(3)
    for oc, (t0, t1) in zip(outcomes, intervals):
        oc.factor = log.factor(t0, t1)
        oc.run_ms = [(b - a) * 1e3 * log.factor(a, b) for a, b in oc.run_iv]
        oc.compile_ms = [(b - a) * 1e3 * log.factor(a, b)
                         for a, b in oc.compile_iv]
    return outcomes


def check_units(units: list[Unit], outcomes: list[Outcome]) -> None:
    for u, oc in zip(units, outcomes):
        if not oc.error:
            oc.error = u.check(oc.value) or ""


def compile_set_up(builds) -> tuple[dict, list[float]]:
    """Compile each ``(key, source, geometry)`` once.

    Returns the programs and each compile's time in ms, corrected for
    host speed like the timed phase (speed.py).
    """
    from repro import acc

    log = speed.SpeedLog()
    log.probe(3)
    progs, intervals = {}, []
    for key, source, geometry in builds:
        if log.due():
            log.probe()
        t0 = time.perf_counter()
        progs[key] = acc.compile(source, **geometry)
        intervals.append((t0, time.perf_counter()))
    log.probe(3)
    return progs, [(t1 - t0) * 1e3 * log.factor(t0, t1)
                   for t0, t1 in intervals]


def _warm_imports() -> None:
    """Pay the lazy imports of the first compile and run in set-up."""
    from repro import acc

    prog = acc.compile("float a[n];\nfloat s = 0.0f;\n"
                       "#pragma acc parallel copyin(a)\n"
                       "#pragma acc loop gang vector reduction(+:s)\n"
                       "for (i = 0; i < n; i++) s += a[i];\n",
                       num_gangs=2, num_workers=1, vector_length=32)
    prog.run(a=np.ones(64, dtype=np.float32))


# ---------------------------------------------------------------------------
# table2_grid
# ---------------------------------------------------------------------------

class Table2Grid:
    """Warm ``Program.run`` over the full Table 2 grid.

    Chosen because the executors and ``gpu.memory`` accounting do nearly
    all the work here and compile does none (all compiles are set-up).
    """

    name = "table2_grid"
    GEOMETRY = dict(num_gangs=192, num_workers=8, vector_length=128)
    SIZE = 4096
    PASS_S = 5.5          # nominal seconds per pass over the 42 cells
    #: per-run latency limit for slo_good_frac: about 1.5x the largest
    #: latency p99 seen across seeds on a 2-core host (340 ms)
    SLO_MS = 500.0

    def __init__(self, seed: int, seconds: float):
        from repro.testsuite.cases import generate_cases

        rng = np.random.default_rng(seed)
        self.cases = generate_cases(size=self.SIZE)
        self.inputs = [c.make_inputs(rng) for c in self.cases]
        self.passes = max(1, round(seconds / self.PASS_S))
        self.orders = [[int(i) for i in rng.permutation(len(self.cases))]
                       for _ in range(self.passes)]
        self.programs: dict[int, object] = {}
        self.setup_compile_ms: list[float] = []

    def program_list(self) -> list[str]:
        return [self.cases[i].label for i in self.orders[0]]

    def setup(self) -> None:
        _warm_imports()
        self.programs, self.setup_compile_ms = compile_set_up(
            (i, self.cases[i].source, self.GEOMETRY) for i in self.orders[0])
        # one small run per program builds the executors' lazy per-kernel
        # state, so the timed passes measure warm runs
        from repro.testsuite.cases import make_case

        rng = np.random.default_rng(0)
        for i, prog in self.programs.items():
            c = self.cases[i]
            prog.run(**make_case(c.position, c.op, c.ctype,
                                 size=64).make_inputs(rng))
        self.expected = [c.expected(inp)
                         for c, inp in zip(self.cases, self.inputs)]

    def _unit(self, i: int) -> Unit:
        case, prog, inputs = self.cases[i], self.programs[i], self.inputs[i]

        def fn(oc):
            return oc.run(prog, **inputs)

        def check(res):
            for kind, var, want in self.expected[i]:
                got = (res.scalars[var] if kind == "scalar"
                       else res.outputs[var])
                if not close_enough(want, got, case.ctype):
                    return f"{case.label}: {var} mismatch"
            return None

        return Unit(case.label, fn, check)

    def units(self, trace: bool = False) -> list[Unit]:
        orders = self.orders[:1] if trace else self.orders
        return [self._unit(i) for order in orders for i in order]

    def modeled_units(self, outcomes: list[Outcome]) -> list[Outcome]:
        return outcomes[:len(self.cases)]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# compile_corpus
# ---------------------------------------------------------------------------

#: launch geometries of the corpus.  With 16-element inputs the cost of a
#: verifying run is set by fixed per-launch and per-statement costs and
#: by the sequential loop trips a thread makes, not by the simulated thread
#: count: blocks of one worker cost 2-3x more per run than blocks of 4-16
#: workers, and a draw from 1-4 gangs x 1-2 workers x 32 lanes raised the
#: launches' share of the traced wall from 42% to 53% (README, Traced run)
_CORPUS_GEOMETRIES = tuple((g, w, v) for g in (1, 2, 4, 8)
                           for w in (4, 8, 16) for v in (32, 64))
#: the draw that defines the corpus; ``--seed`` orders it and makes inputs
_CORPUS_SEED = 2014
_EXAMPLES = ("vecsum.c", "fig9_rmp.c", "kernels_matmul.c",
             "softmax_cascade.c")
#: repro.reduce tuple/argmax shapes: ((op, kind, ctype), ...)
_REDUCE_SHAPES = (
    (("+", "scalar", "int"),),
    (("max", "argmax", "float"),),
    (("min", "argmin", "int"),),
    (("+", "scalar", "long"), ("max", "argmax", "float")),
    (("*", "scalar", "int"), ("min", "scalar", "double"),
     ("^", "scalar", "int")),
)


def _corpus_universe() -> list[tuple]:
    """Every program the corpus may draw: (kind, detail, geometry)."""
    from repro.testsuite.cases import ALL_CTYPES, ALL_OPS, POSITIONS

    from repro.codegen.reduction.operators import get_operator
    from repro.dtypes import ctype_to_dtype
    from repro.errors import AnalysisError

    classes = []
    for pos in POSITIONS:
        for op in ALL_OPS:
            for ct in ALL_CTYPES:
                try:
                    get_operator(op).validate_dtype(ctype_to_dtype(ct))
                except AnalysisError:
                    continue
                classes.append(("case", (pos, op, ct)))
    classes += [("example", name) for name in _EXAMPLES]
    classes.append(("softmax", None))
    classes += [("reduce", k) for k in range(len(_REDUCE_SHAPES))]
    return [(kind, detail, geom) for geom in _CORPUS_GEOMETRIES
            for kind, detail in classes]


class CompileCorpus:
    """One cold ``acc.compile`` and one tiny verifying run per program.

    Chosen because the compile side (parse, the passes, the pass
    manager's IR verifier, trace codegen and ``CompiledKernel``
    construction) is the largest share of the wall here, about half; the
    verifying runs' launches take about 40%, fixed per-launch and
    per-statement costs that do not shrink with the 16-element inputs.  It is the control for ``table2_grid``.
    """

    name = "compile_corpus"
    UNIT_S = 0.012        # nominal seconds per compile+verify pair
    TINY = 16             # verifying-run problem size
    SLO_MS = 70.0         # about 1.5x the largest p99 seen (48 ms)

    def __init__(self, seed: int, seconds: float):
        universe = _corpus_universe()
        n = min(len(universe), max(8, round(seconds / self.UNIT_S)))
        pick = np.random.default_rng(_CORPUS_SEED).permutation(
            len(universe))[:n]
        rng = np.random.default_rng(seed)
        self.specs = [universe[int(pick[int(j)])]
                      for j in rng.permutation(n)]
        keys = [self._key(s) for s in self.specs]
        if len(set(keys)) != len(keys):
            raise AssertionError("compile_corpus drew a duplicate program")
        self.keys = keys
        self.setup_compile_ms: list[float] = []  # it compiles when timed
        self.items = [self._build(s, np.random.default_rng([seed, k]))
                      for k, s in enumerate(self.specs)]

    def program_list(self) -> list[str]:
        return [f"{k[1][:40]!r}@{k[2]}" for k in self.keys]

    @staticmethod
    def _key(spec) -> tuple:
        kind, detail, geom = spec
        return (kind, repr(detail), geom)

    # -- per-kind source, inputs and reference ---------------------------

    def _build(self, spec, rng) -> dict:
        kind, detail, (g, w, v) = spec
        geometry = dict(num_gangs=g, num_workers=w, vector_length=v)
        item = getattr(self, f"_build_{kind}")(detail, rng)
        item["geometry"] = geometry
        item["label"] = f"{kind}:{detail}@{g}x{w}x{v}"
        return item

    def _build_case(self, detail, rng) -> dict:
        from repro.testsuite.cases import make_case

        case = make_case(*detail, size=self.TINY)
        inputs = case.make_inputs(rng)
        return {"source": case.source, "inputs": inputs,
                "expected": [(kind, var, want, case.ctype) for kind, var, want
                             in case.expected(inputs)]}

    def _build_example(self, name, rng) -> dict:
        source = (ROOT / "examples" / "programs" / name).read_text()
        n = self.TINY
        if name == "vecsum.c":
            a = rng.integers(0, 8, n).astype(np.float32)
            return {"source": source, "inputs": {"a": a},
                    "expected": [("scalar", "total", np.int64(a.sum()),
                                  "long")]}
        if name == "fig9_rmp.c":
            x = rng.integers(0, 8, (4, 4, 8)).astype(np.float32)
            want = (np.arange(4) + x.sum(axis=(1, 2))).astype(np.float32)
            return {"source": source,
                    "inputs": {"input": x, "temp": np.zeros(4, np.float32)},
                    "expected": [("array", "temp", want, "float")]}
        if name == "kernels_matmul.c":
            m = 6
            a = rng.integers(0, 4, (m, m)).astype(np.float32)
            b = rng.integers(0, 4, (m, m)).astype(np.float32)
            return {"source": source,
                    "inputs": {"A": a.reshape(-1), "B": b.reshape(-1),
                               "C": np.zeros(m * m, np.float32), "n": m},
                    "expected": [("array", "C", (a @ b).reshape(-1),
                                  "float")]}
        x = rng.standard_normal(n).astype(np.float32)
        return {"source": source,
                "inputs": {"x": x, "y": np.zeros_like(x)},
                "expected": [("array", "y", _softmax_ref(x), "float")]}

    def _build_softmax(self, _detail, rng) -> dict:
        from repro.apps.softmax import SOFTMAX_SRC

        x = rng.standard_normal(self.TINY).astype(np.float32)
        return {"source": SOFTMAX_SRC,
                "inputs": {"x": x, "y": np.zeros_like(x),
                           "m": np.float32(-np.inf), "s": np.float32(0.0)},
                "expected": [("array", "y", _softmax_ref(x), "float")]}

    def _build_reduce(self, k, rng) -> dict:
        from repro.dtypes import ctype_to_dtype
        from repro.reduce import build_source
        from repro.reduce.spec import ReductionSpec

        shape = _REDUCE_SHAPES[k]
        specs = tuple(ReductionSpec(op=op, kind=kind) for op, kind, _ in shape)
        dtypes = tuple(ctype_to_dtype(ct) for _, _, ct in shape)
        inputs, expected = {}, []
        for j, (spec, dt, (op, kind, ct)) in enumerate(
                zip(specs, dtypes, shape)):
            if dt.np.kind == "f":
                a = rng.standard_normal(self.TINY).astype(dt.np)
            else:
                a = rng.integers(0, 8, self.TINY).astype(dt.np)
            inputs[f"a{j}"] = a
            inputs[f"r{j}"] = spec.host_init(dt)
            if spec.is_pair:
                inputs[f"r{j}_i"] = np.int32(np.iinfo(np.int32).max)
                idx = int(np.argmax(a) if kind == "argmax" else np.argmin(a))
                expected.append(("scalar", f"r{j}", a[idx], ct))
                expected.append(("scalar", f"r{j}_i", np.int32(idx), "int"))
            else:
                ufunc = {"+": np.add, "*": np.multiply, "min": np.minimum,
                         "^": np.bitwise_xor}[op]
                expected.append(("scalar", f"r{j}",
                                 ufunc.reduce(a, dtype=dt.np), ct))
        return {"source": build_source(specs, dtypes), "inputs": inputs,
                "expected": expected}

    # -- the workload ----------------------------------------------------

    def setup(self) -> None:
        _warm_imports()

    def _unit(self, item) -> Unit:
        def fn(oc):
            prog = oc.compile(item["source"], **item["geometry"])
            return oc.run(prog, **item["inputs"])

        def check(res):
            for kind, var, want, ctype in item["expected"]:
                got = (res.scalars[var] if kind == "scalar"
                       else res.outputs[var])
                if not close_enough(want, got, ctype):
                    return f"{item['label']}: {var} mismatch"
            return None

        return Unit(item["label"], fn, check)

    def units(self, trace: bool = False) -> list[Unit]:
        items = self.items[:max(8, len(self.items) // 4)] if trace \
            else self.items
        return [self._unit(it) for it in items]

    def modeled_units(self, outcomes):
        return outcomes

    def close(self) -> None:
        pass


def _softmax_ref(x: np.ndarray) -> np.ndarray:
    e = np.exp(x.astype(np.float64) - x.max())
    return (e / e.sum()).astype(np.float32)


# ---------------------------------------------------------------------------
# apps_iterative
# ---------------------------------------------------------------------------

class AppsIterative:
    """The paper's applications, driven the way a user drives them.

    Chosen because it uses the executor layer differently from
    ``table2_grid``: many small launches with per-run transfers (the heat
    loop re-launches two kernels per iteration), plus atomics
    (``segmented_reduce``).  A change that speeds big launches but adds
    per-launch or transfer cost shows here.
    """

    name = "apps_iterative"
    ROUND_S = 0.5         # nominal seconds per round of the five apps
    SLO_MS = 900.0        # about 1.5x the largest p99 seen (617 ms)
    HEAT_N, HEAT_TOL_PER_DEG = 32, 0.001
    SOFTMAX_N, MATMUL_N, PI_N = 8192, 16, 1 << 16
    SEG_N, SEG_K = 16384, 64

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        self.rounds = max(1, round(seconds / self.ROUND_S))
        self.plan = []
        for _ in range(self.rounds):
            m = self.MATMUL_N
            self.plan.append([
                ("heat", float(rng.uniform(50.0, 150.0))),
                ("softmax", rng.standard_normal(self.SOFTMAX_N)
                 .astype(np.float32)),
                ("matmul", (rng.random((m, m), dtype=np.float32),
                            rng.random((m, m), dtype=np.float32))),
                ("pi", (rng.random(self.PI_N, dtype=np.float32) * 2 - 1,
                        rng.random(self.PI_N, dtype=np.float32) * 2 - 1)),
                ("segmented", (rng.integers(0, 8, self.SEG_N)
                               .astype(np.int32),
                               rng.integers(0, self.SEG_K, self.SEG_N)
                               .astype(np.int32))),
            ])
        self.progs: dict[str, object] = {}
        self.setup_compile_ms: list[float] = []

    def program_list(self) -> list[str]:
        return [kind for rnd in self.plan for kind, _ in rnd]

    def setup(self) -> None:
        from repro.apps.heat2d import ERROR_SRC, UPDATE_SRC
        from repro.apps.matmul import MATMUL_SRC
        from repro.apps.montecarlo_pi import PI_SRC
        from repro.apps.softmax import SOFTMAX_SRC
        from repro.reduce import api as reduce_api

        _warm_imports()
        n = self.HEAT_N
        heat_geom = dict(num_gangs=max(4, min(96, n - 2)), num_workers=1,
                         vector_length=min(128, max(32, -(-(n - 2) // 32)
                                                    * 32)))
        builds = {
            "update": (UPDATE_SRC, heat_geom),
            "error": (ERROR_SRC, heat_geom),
            "softmax": (SOFTMAX_SRC, dict(num_gangs=16, num_workers=1,
                                          vector_length=64)),
            "matmul": (MATMUL_SRC, dict(num_gangs=192, num_workers=8,
                                        vector_length=128)),
            "pi": (PI_SRC, dict(num_gangs=192, num_workers=1,
                                vector_length=128)),
        }
        self.progs, self.setup_compile_ms = compile_set_up(
            (name, src, geom) for name, (src, geom) in builds.items())
        # segmented_reduce compiles through the library's program memo on
        # its first call (not a compile sample: the call also runs)
        vals, segs = self.plan[0][4][1]
        reduce_api.segmented_reduce(vals, segs, self.SEG_K)
        self.progs["segmented"] = next(
            p for key, p in reduce_api._PROGRAMS.items()
            if "atomic update" in key[0])
        # one run of every app warms the executors' lazy per-kernel state
        for unit in self.units(trace=True):
            unit.fn(Outcome(unit.label))

    # -- one unit per app invocation --------------------------------------

    def _heat(self, temp):
        from repro.apps.heat2d import initial_grid, reference_solver

        tol = self.HEAT_TOL_PER_DEG * temp
        max_iters = 1000

        def fn(oc):
            t1 = initial_grid(self.HEAT_N, temp)
            errors = []
            for _ in range(max_iters):
                upd = oc.run(self.progs["update"], temp1=t1,
                             temp2=t1.copy())
                t2 = upd.outputs["temp2"]
                err = oc.run(self.progs["error"], temp1=t1, temp2=t2)
                errors.append(float(err.scalars["error"]))
                t1 = t2
                if errors[-1] < tol:
                    break
            return t1, errors

        def check(value):
            t1, errors = value
            ref_t, ref_err, _ = reference_solver(
                self.HEAT_N, tol=tol, max_iters=max_iters,
                boundary_temp=temp)
            if len(errors) != len(ref_err):
                return (f"heat: {len(errors)} iterations, reference "
                        f"{len(ref_err)}")
            if not np.allclose(t1, ref_t, atol=1e-4 * temp / 100.0):
                return "heat: temperature mismatch"
            return None

        return Unit(f"heat:T={temp:.3f}", fn, check)

    def _softmax(self, x):
        def fn(oc):
            return oc.run(self.progs["softmax"], x=x, y=np.zeros_like(x),
                          m=np.float32(-np.inf), s=np.float32(0.0))

        def check(res):
            return (None if np.allclose(res.outputs["y"], _softmax_ref(x),
                                        rtol=1e-4, atol=1e-9)
                    else "softmax: mismatch")

        return Unit("softmax", fn, check)

    def _matmul(self, ab):
        a, b = ab
        m = a.shape[0]

        def fn(oc):
            return oc.run(self.progs["matmul"], A=a.reshape(-1),
                          B=b.reshape(-1), C=np.zeros(m * m, np.float32),
                          n=m)

        def check(res):
            want = (a.astype(np.float64) @ b.astype(np.float64))
            return (None if np.allclose(res.outputs["C"].reshape(m, m),
                                        want, rtol=1e-4, atol=1e-3)
                    else "matmul: mismatch")

        return Unit("matmul", fn, check)

    def _pi(self, xy):
        x, y = xy

        def fn(oc):
            return oc.run(self.progs["pi"], x=x, y=y)

        def check(res):
            want = int(np.count_nonzero(x * x + y * y < np.float32(1.0)))
            return (None if int(res.scalars["m"]) == want
                    else "pi: inside-count mismatch")

        return Unit("pi", fn, check)

    def _segmented(self, vs):
        vals, segs = vs

        def fn(oc):
            return oc.run(self.progs["segmented"], vals=vals, segs=segs,
                          out=np.zeros(self.SEG_K, np.int32))

        def check(res):
            want = np.zeros(self.SEG_K, np.int32)
            np.add.at(want, segs, vals)
            return (None if np.array_equal(res.outputs["out"], want)
                    else "segmented_reduce: mismatch")

        return Unit("segmented", fn, check)

    def units(self, trace: bool = False) -> list[Unit]:
        rounds = self.plan[:1] if trace else self.plan
        return [getattr(self, f"_{kind}")(arg)
                for rnd in rounds for kind, arg in rnd]

    def modeled_units(self, outcomes):
        return outcomes[:len(self.plan[0])]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

_SERVE_POSITIONS = ("gang", "worker", "vector", "gang worker",
                    "worker vector")
_SERVE_OPS = ("+", "max", "&", "|")
_HOT_GEOMETRY = (2, 2, 32)
#: cold programs are the serve combos at these geometries, in order, so
#: every seed's cold share has the same make-up
_COLD_GEOMETRIES = ((2, 2, 64), (4, 2, 32), (2, 4, 32), (1, 2, 32),
                    (4, 4, 32), (2, 1, 64))


class ServeMixed:
    """Open-loop seeded Poisson arrivals into a 2-device ``Scheduler``.

    Chosen because it is the only workload where queueing, the device
    pool and the serve compile cache sit on the request path.  Arrivals
    follow a fixed schedule whatever the service does, and each latency
    is timed from the request's *due* time, so a stall shows in every
    request queued behind it.

    BENCHMARK.json does not run it: on a shared 2-core host its latency
    tail follows the other tenants more than the host-speed correction
    can undo (perfbench/README.md has the spreads).
    """

    name = "serve_mixed"
    #: requests per second: under a third of the saturation rate of this
    #: request mix on this configuration, measured on a 2-core host by
    #: stepping the rate (8 s and 3 s schedules).  Up to 100 req/s the
    #: service kept pace (device busy share 0.68, p50 latency 37 ms); at
    #: 130 req/s throughput stayed near 100/s, p50 latency passed 400 ms
    #: and requests expired.  A higher rate amplified the host's speed
    #: swings until the latency p90 of five seeds spread past its bound.
    RATE = 30.0
    COLD_FRAC = 0.2       # share of requests that are distinct cold programs
    HOT = 8               # programs in the warmed hot set
    N_DEVICES = 2
    SIZE = 16
    SLO_MS = 170.0        # about 1.5x the largest p99 seen (114 ms)

    def __init__(self, seed: int, seconds: float):
        from repro.serve.loadgen import LoadRequest
        from repro.serve.scheduler import ComputeRequest
        from repro.testsuite.cases import make_case

        rng = np.random.default_rng(seed)
        self.duration = float(seconds)
        n = max(4, round(self.RATE * seconds))
        # a Poisson process conditioned on its count: sorted uniforms
        self.due = np.sort(rng.uniform(0.0, self.duration, n))
        combos = [(p, o) for p in _SERVE_POSITIONS for o in _SERVE_OPS]
        self.hot = [combos[i] for i in
                    np.random.default_rng(_CORPUS_SEED).permutation(
                        len(combos))[:self.HOT]]
        n_cold = round(n * self.COLD_FRAC)
        if n_cold > len(combos) * len(_COLD_GEOMETRIES):
            raise ValueError(f"{seconds} s needs {n_cold} distinct cold "
                             "programs; the serve corpus has fewer")
        cold_slots = set(int(i) for i in rng.choice(n, n_cold,
                                                    replace=False))
        # hot requests cycle through the hot set (each seeded cycle a new
        # order); cold ones take each combo once per cold geometry
        hot_seq = [self.hot[int(j)] for _ in range(n // self.HOT + 1)
                   for j in rng.permutation(self.HOT)]
        cold_combos = [combos[int(j)] for j in rng.permutation(len(combos))]
        self.cases = {}
        self.requests = []
        self.programs = []  # (combo, geometry) of each request, in order
        n_hot = 0
        for i in range(n):
            if i in cold_slots:
                k = len(self.requests) - n_hot
                combo = cold_combos[k % len(combos)]
                geo = _COLD_GEOMETRIES[k // len(combos)]
            else:
                combo, geo = hot_seq[n_hot], _HOT_GEOMETRY
                n_hot += 1
            self.programs.append((combo, geo))
            case = self.cases.get(combo)
            if case is None:
                case = self.cases[combo] = make_case(*combo, "int",
                                                     size=self.SIZE)
            inputs = case.make_inputs(rng)
            arrays = {k: v for k, v in inputs.items()
                      if isinstance(v, np.ndarray)}
            scalars = {k: v for k, v in inputs.items()
                       if not isinstance(v, np.ndarray)}
            req = ComputeRequest(
                id=f"req-{i:05d}", source=case.source, arrays=arrays,
                scalars=scalars, num_gangs=geo[0], num_workers=geo[1],
                vector_length=geo[2])
            self.requests.append(LoadRequest(req, case,
                                             case.expected(inputs)))
        self.hot_cases = {c: self.cases.get(c) or make_case(
            *c, "int", size=self.SIZE) for c in self.hot}
        self.modeled: dict = {}  # (combo, geometry) -> modeled ms
        self.seed = seed
        self.setup_compile_ms: list[float] = []
        self._loop = None

    def served_modeled_ms(self) -> float:
        """Modeled device ms of every request, summed in arrival order.

        A program's modeled time does not depend on its data, so it is
        measured once per program: the hot set in set-up, each cold
        program after the timed phase (from the cache the miss filled).
        """
        total = 0.0
        for lr, (combo, geo) in zip(self.requests, self.programs):
            if (combo, geo) not in self.modeled:
                prog, _status = self.cache.compile(
                    lr.request.source, num_gangs=geo[0],
                    num_workers=geo[1], vector_length=geo[2])
                self.modeled[combo, geo] = prog.run(
                    **lr.request.arrays, **lr.request.scalars).modeled_ms
            total += self.modeled[combo, geo]
        return total

    def program_list(self) -> list[str]:
        return [f"{lr.request.id}:{lr.case.label}@"
                f"{lr.request.num_gangs}x{lr.request.num_workers}x"
                f"{lr.request.vector_length}" for lr in self.requests]

    def setup(self) -> None:
        from repro.serve import CompileCache, DevicePool, Scheduler, \
            ServeConfig

        _warm_imports()
        OUT.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=OUT)
        self.cache = CompileCache(self.cache_dir)
        rng = np.random.default_rng([self.seed, 1])
        g, w, v = _HOT_GEOMETRY
        geometry = dict(num_gangs=g, num_workers=w, vector_length=v)
        # compiled outside the cache, so the compile_ms samples hold no
        # cache write, then stored as the cache would store a miss
        progs, self.setup_compile_ms = compile_set_up(
            (combo, self.hot_cases[combo].source, geometry)
            for combo in self.hot)
        self.setup_errors = []
        for combo in self.hot:
            case, prog = self.hot_cases[combo], progs[combo]
            self.cache.put(self.cache.key_for(case.source, **geometry), prog)
            inputs = case.make_inputs(rng)
            res = prog.run(**inputs)
            self.modeled[combo, _HOT_GEOMETRY] = res.modeled_ms
            for kind, var, want in case.expected(inputs):
                got = (res.scalars[var] if kind == "scalar"
                       else res.outputs[var])
                if not np.array_equal(got, want):
                    self.setup_errors.append(f"warm {case.label}: {var}")
        self._loop = asyncio.new_event_loop()
        self.pool = DevicePool(self.N_DEVICES)
        self.sched = Scheduler(self.pool, ServeConfig(), cache=self.cache)
        self._loop.run_until_complete(self.sched.start())

    async def _drive(self):
        n = len(self.requests)
        sent, done = [0.0] * n, [0.0] * n
        tasks = []
        log = speed.SpeedLog()
        with speed.ProbeProcess(log):
            t_start = time.perf_counter()
            for i, lr in enumerate(self.requests):
                delay = t_start + self.due[i] - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent[i] = time.perf_counter()
                task = self.sched.submit_nowait(lr.request)
                task.add_done_callback(
                    lambda _t, i=i: done.__setitem__(i, time.perf_counter()))
                tasks.append(task)
            results = list(await asyncio.gather(*tasks))
            # probes after the last completion, for its correction
            await asyncio.sleep(speed.WINDOW_S)
        return t_start, sent, done, results, log

    def run_open_loop(self) -> dict:
        t_start, sent, done, results, log = \
            self._loop.run_until_complete(self._drive())
        due = [t_start + d for d in self.due]
        factors = [log.factor(u, d) for u, d in zip(due, done)]
        return {
            "results": results,
            "latency_ms": [(d - u) * 1e3 for d, u in zip(done, due)],
            "late_ms": [(s - u) * 1e3 for s, u in zip(sent, due)],
            "factors": factors,
            "wall_s": max(done) - t_start,
            "probes": len(log),
        }

    def close(self) -> None:
        if self._loop is not None:
            self._loop.run_until_complete(self.sched.close())
            for dev in self.pool.devices:
                dev.executor.shutdown(wait=True)
            self._loop.close()
            self._loop = None
        if getattr(self, "cache_dir", None):
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


WORKLOADS = {w.name: w for w in (Table2Grid, CompileCorpus, AppsIterative,
                                 ServeMixed)}
