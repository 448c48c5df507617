"""Pins of the post-pipeline kernel IR, and of the fold and verifier
contracts the pass manager relies on.

``TestPostPipelinePin`` hashes the ``dump_kernel`` listing of every
kernel the pipeline produces over a fixed corpus: every Table 2 cell at
two geometries, the example programs, softmax and the ``repro.reduce``
shapes.  The hashes were recorded with the quadratic ``fold-constants``
that preceded the linear rewrite, so any rewrite of the fold (or of the
identity-preserving rewrite utilities) that changes one statement of
the output fails here.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro import acc
from repro.errors import IRVerificationError
from repro.gpu import kernelir as K
from repro.passes import PASS_REGISTRY, PIPELINES
from repro.passes.kernelopt import fold_kernel

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"

GEOMETRIES = (dict(num_gangs=4, num_workers=2, vector_length=32),
              dict(num_gangs=16, num_workers=4, vector_length=64))

#: repro.reduce shapes: ((op, kind, ctype), ...)
REDUCE_SHAPES = (
    (("+", "scalar", "int"),),
    (("max", "argmax", "float"),),
    (("min", "argmin", "int"),),
    (("+", "scalar", "long"), ("max", "argmax", "float")),
    (("*", "scalar", "int"), ("min", "scalar", "double"),
     ("^", "scalar", "int")),
)

#: pipeline -> (programs compiled, kernels dumped, sha256 of the dumps)
PIN = {
    "minimal": (104, 186, "11ec56fb931727416a9053f4100f9817"
                          "a118b03bd9a96b3f801d4faa4f59ee91"),
    "optimized": (104, 118, "3c2a868577bf3f256619673682f0252f"
                            "9f67703d7b33de131e083d51bd9fef0f"),
}


def corpus() -> list[tuple[str, str, dict]]:
    """``(label, source, geometry)`` for every program the pin covers."""
    from repro.apps.softmax import SOFTMAX_SRC
    from repro.dtypes import ctype_to_dtype
    from repro.reduce import build_source
    from repro.reduce.spec import ReductionSpec
    from repro.testsuite.cases import (POSITIONS, TABLE2_CTYPES, TABLE2_OPS,
                                       make_case)

    out = []
    for geom in GEOMETRIES:
        for pos in POSITIONS:
            for op in TABLE2_OPS:
                for ct in TABLE2_CTYPES:
                    out.append((f"{pos} {op} {ct}",
                                make_case(pos, op, ct).source, geom))
        for path in sorted(EXAMPLES.glob("*.c")):
            out.append((path.name, path.read_text(), geom))
        out.append(("softmax", SOFTMAX_SRC, geom))
        for k, shape in enumerate(REDUCE_SHAPES):
            specs = tuple(ReductionSpec(op=op, kind=kind)
                          for op, kind, _ in shape)
            dtypes = tuple(ctype_to_dtype(ct) for _, _, ct in shape)
            out.append((f"reduce{k}", build_source(specs, dtypes), geom))
    return out


def pipeline_digest(pipeline: str) -> tuple[int, int, str]:
    h = hashlib.sha256()
    programs = kernels = 0
    for label, source, geom in corpus():
        prog = acc.compile(source, pipeline=pipeline, **geom)
        programs += 1
        h.update(f"{label}@{sorted(geom.items())}\n".encode())
        for kernel in prog.lowered.kernels:
            h.update(K.dump(kernel).encode())
            h.update(b"\n")
            kernels += 1
    return programs, kernels, h.hexdigest()


class TestPostPipelinePin:
    @pytest.mark.parametrize("pipeline", sorted(PIN))
    def test_post_pipeline_ir_is_pinned(self, pipeline):
        assert pipeline_digest(pipeline) == PIN[pipeline]


class TestLinearFold:
    def test_long_dead_temp_chain_vanishes(self):
        # each temp is read only by the next; the last is never read
        n = 400
        chain = [K.Assign("t0", K.Special("tid"))]
        chain += [K.Assign(f"t{i}", K.Bin("+", K.Reg(f"t{i - 1}"),
                                          K.const_int(i)))
                  for i in range(1, n)]
        store = K.GStore("buf", K.Special("tid"), K.Special("tid"))
        kernel = K.Kernel("k", (*chain[:n // 2],
                                K.If(K.Bin("<", K.Special("tid"),
                                           K.const_int(4)),
                                     tuple(chain[n // 2:])),
                                store), buffers=("buf",))
        out, changes = fold_kernel(kernel)
        assert out.body == (K.If(kernel.body[n // 2].cond, ()), store)
        assert changes == n

    def test_unchanged_kernel_keeps_identity(self):
        kernel = K.Kernel("k", (
            K.GLoad("x", "buf", K.Special("tid")),
            K.GStore("buf", K.Special("tid"), K.Reg("x")),
        ), buffers=("buf",))
        assert fold_kernel(kernel) == (kernel, 0)


SRC = """
float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

#: every (pipeline, pass) position whose output the manager verifies
POSITIONS = [(pl, name) for pl in ("minimal", "optimized")
             for name in PIPELINES[pl].passes
             if PASS_REGISTRY[name].kind in ("lower", "kernelopt",
                                            "finalize")]


def _after(monkeypatch, name, rewrite):
    """Run ``rewrite(lowered)`` right after pass ``name``."""
    p = PASS_REGISTRY[name]

    def fn(state):
        note = p.fn(state)
        state.lowered = rewrite(state.lowered)
        return note

    monkeypatch.setitem(PASS_REGISTRY, name, dataclasses.replace(p, fn=fn))


def _break_nested(kernel):
    """Read a never-written register inside the first nested block;
    every other statement stays the same object."""
    body = list(kernel.body)
    i = next(i for i, s in enumerate(body)
             if isinstance(s, (K.If, K.While, K.UniformWhile)))
    bad = K.Assign("_broken", K.Reg("_never_written"))
    s = body[i]
    body[i] = (dataclasses.replace(s, then=(bad, *s.then))
               if isinstance(s, K.If)
               else dataclasses.replace(s, body=(bad, *s.body)))
    return dataclasses.replace(kernel, body=tuple(body))


class TestVerifierNeverRarer:
    @pytest.mark.parametrize("pipeline,name", POSITIONS)
    def test_nested_block_break_raises(self, monkeypatch, pipeline, name):
        _after(monkeypatch, name, lambda lw: dataclasses.replace(
            lw, main_kernel=_break_nested(lw.main_kernel)))
        with pytest.raises(IRVerificationError, match="_never_written"):
            acc.compile(SRC, pipeline=pipeline, **GEOMETRIES[0])

    @pytest.mark.parametrize("pipeline", ["minimal", "optimized"])
    def test_equal_but_new_kernel_is_verified(self, monkeypatch, pipeline):
        # stamped kernels with their sids reset compare equal (sids are
        # compare-excluded) but are new objects: the finalize check runs
        def unstamp(lw):
            k = lw.main_kernel
            new = dataclasses.replace(k, body=K.transform_block(
                k.body, lambda s: dataclasses.replace(s, sid=-1)))
            assert new == k and new is not k
            return dataclasses.replace(lw, main_kernel=new)

        _after(monkeypatch, "stamp-sids", unstamp)
        with pytest.raises(IRVerificationError, match="statement ids"):
            acc.compile(SRC, pipeline=pipeline, **GEOMETRIES[0])

    @pytest.mark.parametrize("pipeline,name", POSITIONS)
    def test_every_new_kernel_object_is_verified(self, monkeypatch,
                                                 pipeline, name):
        import repro.passes.manager as manager

        checked = []
        real = manager.verify_kernel
        monkeypatch.setattr(manager, "verify_kernel", lambda k, **kw: (
            checked.append(k), real(k, **kw)))
        produced = []

        def copy_all(lw):
            main = dataclasses.replace(lw.main_kernel)
            produced.append(main)
            return dataclasses.replace(lw, main_kernel=main)

        _after(monkeypatch, name, copy_all)
        acc.compile(SRC, pipeline=pipeline, **GEOMETRIES[0])
        assert produced and all(any(k is c for c in checked)
                                for k in produced)

    def test_unchanged_kernels_are_verified_once(self, monkeypatch):
        import repro.passes.manager as manager

        checked = []
        real = manager.verify_kernel
        monkeypatch.setattr(manager, "verify_kernel", lambda k, **kw: (
            checked.append((id(k), kw["expect_sids"])), real(k, **kw)))
        acc.compile(SRC, pipeline="optimized", **GEOMETRIES[0])
        assert len(checked) == len(set(checked))
