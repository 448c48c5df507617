"""Log-step reduction generator tests (paper Fig. 7, §3.1, §3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtypes import DType
from repro.errors import LoweringError
from repro.codegen.reduction.logstep import logstep_reduce, prev_pow2
from repro.codegen.reduction.operators import get_operator
from repro.gpu import kernelir as K
from repro.gpu.device import K20C
from repro.gpu.executor import CompiledKernel
from repro.gpu.memory import GlobalMemory


def run_block_reduce(values, op_token, dtype, bdx, *, elide=True,
                     return_stats=False):
    """One block of (bdx, 1): lane i stores values[i], reduce, lane 0 writes."""
    n = len(values)
    assert n == bdx
    red = get_operator(op_token)
    ls = logstep_reduce("sbuf", n, red, dtype, lane=K.Special("tx"),
                        elide_warp_sync=elide)
    body = (
        K.GLoad("v", "in", K.Special("tx")),
        K.SStore("sbuf", K.Special("tx"), K.Reg("v")),
        *ls.stmts,
        K.If(K.Bin("==", K.Special("tx"), K.const_int(0)), (
            K.SLoad("r", "sbuf", ls.result_index),
            K.GStore("out", K.const_int(0), K.Reg("r")),
        )),
    )
    kern = K.Kernel("blockreduce", body, buffers=("in", "out"),
                    shared=(K.SharedArraySpec("sbuf", dtype, n),))
    g = GlobalMemory(K20C)
    g.alloc("in", n, dtype, init=np.asarray(values, dtype=dtype.np))
    g.alloc("out", 1, dtype)
    stats = CompiledKernel(kern, K20C).run(g, 1, (bdx, 1))
    result = g["out"].data[0]
    if return_stats:
        return result, ls, stats
    return result


class TestPrevPow2:
    @pytest.mark.parametrize("n,expect", [
        (1, 1), (2, 2), (3, 2), (4, 4), (5, 4), (96, 64), (128, 128),
        (1000, 512), (1024, 1024),
    ])
    def test_values(self, n, expect):
        assert prev_pow2(n) == expect

    def test_rejects_zero(self):
        with pytest.raises(LoweringError):
            prev_pow2(0)


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 4, 32, 64, 128, 256, 1024])
    def test_sum_power_of_two(self, n):
        vals = np.arange(n, dtype=np.int32)
        assert run_block_reduce(vals, "+", DType.INT, n) == vals.sum()

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 33, 96, 100, 1000])
    def test_sum_non_power_of_two(self, n):
        # §3.3: the 96-thread example is the paper's own walkthrough
        vals = np.arange(n, dtype=np.int32) + 1
        assert run_block_reduce(vals, "+", DType.INT, n) == vals.sum()

    @pytest.mark.parametrize("op", ["+", "*", "max", "min", "&", "|", "^",
                                    "&&", "||"])
    def test_all_operators_int(self, op):
        rng = np.random.default_rng(42)
        vals = rng.integers(1, 5, size=96).astype(np.int32)
        got = run_block_reduce(vals, op, DType.INT, 96)
        expect = get_operator(op).np_reduce(vals, DType.INT)
        assert got == expect

    @pytest.mark.parametrize("dtype", [DType.FLOAT, DType.DOUBLE])
    def test_float_sum(self, dtype):
        rng = np.random.default_rng(7)
        vals = rng.random(128).astype(dtype.np)
        got = run_block_reduce(vals, "+", dtype, 128)
        # tree order differs from sequential order: tolerance needed
        np.testing.assert_allclose(got, vals.sum(dtype=np.float64),
                                   rtol=1e-5)

    def test_float_max_exact(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(100).astype(np.float32)
        got = run_block_reduce(vals, "max", DType.FLOAT, 100)
        assert got == vals.max()

    def test_no_elision_same_result(self):
        vals = np.arange(96, dtype=np.int32)
        a = run_block_reduce(vals, "+", DType.INT, 96, elide=True)
        b = run_block_reduce(vals, "+", DType.INT, 96, elide=False)
        assert a == b == vals.sum()

    def test_single_element(self):
        assert run_block_reduce(np.array([17], np.int32), "+", DType.INT, 1) == 17


class TestSyncCounts:
    """Ablation A4: warp-aware elision removes the last-6-iteration barriers."""

    def test_128_lane_elided_barrier_count(self):
        _, ls, stats = run_block_reduce(np.ones(128, np.int32), "+",
                                        DType.INT, 128, return_stats=True)
        # steps: 64,32,16,8,4,2,1; syncs: leading + after s=64
        assert ls.steps == 7
        assert ls.syncs == 2
        assert stats.barriers == 2

    def test_128_lane_full_barrier_count(self):
        _, ls, stats = run_block_reduce(np.ones(128, np.int32), "+",
                                        DType.INT, 128, elide=False,
                                        return_stats=True)
        # leading + after every step except the last
        assert ls.syncs == 7
        assert stats.barriers == 7

    def test_1024_lane_elided(self):
        _, ls, _ = run_block_reduce(np.ones(1024, np.int32), "+",
                                    DType.INT, 1024, return_stats=True)
        assert ls.steps == 10
        # after 512,256,128,64 (>32) + leading
        assert ls.syncs == 5

    def test_paper_96_thread_walkthrough(self):
        # §3.3: 96 -> fold 32 onto head -> 64 -> log-step
        _, ls, _ = run_block_reduce(np.ones(96, np.int32), "+",
                                    DType.INT, 96, return_stats=True)
        assert ls.steps == 1 + 6  # pre-fold + steps 32,16,8,4,2,1

    def test_warp_sized_reduce_needs_only_leading_sync(self):
        _, ls, _ = run_block_reduce(np.ones(32, np.int32), "+",
                                    DType.INT, 32, return_stats=True)
        assert ls.syncs == 1


class TestRowLayouts:
    """Row layout Fig. 6(c) vs transposed Fig. 6(b): same result, different
    bank behaviour."""

    def _multi_row(self, bdx, bdy, transposed):
        dtype = DType.INT
        red = get_operator("+")
        rng = np.random.default_rng(5)
        data = rng.integers(0, 100, size=(bdy, bdx)).astype(np.int32)
        if transposed:
            # partials stored at [tx*bdy + ty]; row ty reduces over stride bdy
            store_idx = K.Bin("+", K.Bin("*", K.Special("tx"),
                                         K.const_int(bdy)), K.Special("ty"))
            ls = logstep_reduce("sbuf", bdx, red, dtype, lane=K.Special("tx"),
                                base=K.Special("ty"), stride=bdy,
                                elide_warp_sync=False)
        else:
            store_idx = K.Bin("+", K.Bin("*", K.Special("ty"),
                                         K.const_int(bdx)), K.Special("tx"))
            ls = logstep_reduce("sbuf", bdx, red, dtype, lane=K.Special("tx"),
                                base=K.Bin("*", K.Special("ty"),
                                           K.const_int(bdx)), stride=1)
        body = (
            K.GLoad("v", "in", K.Special("tid")),
            K.SStore("sbuf", store_idx, K.Reg("v")),
            *ls.stmts,
            K.Sync(),
            K.If(K.Bin("==", K.Special("tx"), K.const_int(0)), (
                K.SLoad("r", "sbuf", ls.result_index),
                K.GStore("out", K.Special("ty"), K.Reg("r")),
            )),
        )
        kern = K.Kernel("rowreduce", body, buffers=("in", "out"),
                        shared=(K.SharedArraySpec("sbuf", dtype, bdx * bdy),))
        g = GlobalMemory(K20C)
        g.alloc("in", bdx * bdy, dtype, init=data.reshape(-1))
        g.alloc("out", bdy, dtype)
        stats = CompiledKernel(kern, K20C).run(g, 1, (bdx, bdy))
        return g["out"].data.copy(), data.sum(axis=1), stats

    def test_row_layout_each_row_reduces(self):
        got, expect, _ = self._multi_row(32, 4, transposed=False)
        np.testing.assert_array_equal(got, expect)

    def test_transposed_layout_each_row_reduces(self):
        got, expect, _ = self._multi_row(32, 4, transposed=True)
        np.testing.assert_array_equal(got, expect)

    def test_transposed_layout_has_more_bank_conflicts(self):
        _, _, row = self._multi_row(32, 8, transposed=False)
        _, _, tr = self._multi_row(32, 8, transposed=True)
        assert tr.bank_conflict_extra > row.bank_conflict_extra


class TestPropertyBased:
    @given(
        n=st.integers(min_value=1, max_value=256),
        op=st.sampled_from(["+", "*", "max", "min", "&", "|", "^"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_for_any_size(self, n, op, seed):
        rng = np.random.default_rng(seed)
        vals = rng.integers(-4, 5, size=n).astype(np.int32)
        got = run_block_reduce(vals, op, DType.INT, n,
                               elide=(n % 32 == 0 or n <= 32))
        expect = get_operator(op).np_reduce(vals, DType.INT)
        assert got == expect


class TestDeterministicTemporaries:
    """The lowering numbers log-step temporaries from its own counter,
    so a program's kernels do not depend on what the process compiled
    before it."""

    def test_compile_a_b_a_is_identical(self):
        from repro import acc
        from repro.gpu.executor_trace import emit_trace_source
        from repro.testsuite.cases import make_case

        def listings(case):
            prog = acc.compile(make_case(*case).source, num_gangs=4,
                               num_workers=4, vector_length=32,
                               pipeline="optimized")
            return ([K.dump(k) for k in prog.lowered.kernels],
                    [emit_trace_source(k, prog.device)
                     for k in prog.lowered.kernels])

        a = ("worker vector", "*", "double")
        first = listings(a)
        assert any("_ls" in text for text in first[0])
        listings(("gang worker vector", "+", "float"))
        assert listings(a) == first

    def test_names_are_unique_within_a_compile(self):
        # three reductions, each finished by its own log-step kernel:
        # no two kernels share a temporary
        from repro import acc
        from repro.dtypes import ctype_to_dtype
        from repro.reduce import build_source
        from repro.reduce.spec import ReductionSpec

        ops = ("+", "min", "^")
        src = build_source(tuple(ReductionSpec(op=op) for op in ops),
                           (ctype_to_dtype("int"),) * 3)
        prog = acc.compile(src, num_gangs=4, num_workers=4,
                           vector_length=32, pipeline="minimal",
                           vector_strategy="logstep")
        owner = {}
        for kernel in prog.lowered.kernels:
            for s, _ in K.walk_stmts(kernel.body):
                name = getattr(s, "dst", "")
                if name.startswith("_ls"):
                    assert owner.setdefault(name, kernel.name) \
                        == kernel.name
        assert len({n[:n.rindex("_")] for n in owner}) >= len(ops)
