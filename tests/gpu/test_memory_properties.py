"""Property tests on the memory model's accounting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtypes import DType
from repro.gpu.device import K20C, DeviceProperties
from repro.gpu.events import KernelStats
from repro.gpu.executor_batched import DEFAULT_BLOCK_BATCH
from repro.gpu.kernelir import SharedArraySpec
from repro.gpu.memory import (
    AccessLog, GlobalMemory, SharedMemory, finalize_segment_reuse,
)

SIZE = 4096


def warp_of(n):
    return (np.arange(n) // 32).astype(np.int32)


class TestGlobalAccounting:
    @given(
        idx=st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=128),
        dtype=st.sampled_from([DType.INT, DType.DOUBLE]),
    )
    @settings(max_examples=50, deadline=None)
    def test_transaction_bounds(self, idx, dtype):
        """DRAM fetches are bounded by distinct segments and lane count;
        total requests never exceed active lanes."""
        g = GlobalMemory(K20C)
        g.alloc("a", SIZE, dtype)
        stats = KernelStats()
        arr = np.asarray(idx, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        g.load("a", arr, mask, warp_of(len(idx)), stats)

        base = g["a"].base
        segs = np.unique((base + arr * dtype.itemsize) // 128).size
        requests = stats.global_transactions + stats.l2_transactions
        assert stats.global_transactions == segs
        assert requests >= segs
        assert requests <= len(idx)
        assert stats.global_bytes == len(idx) * dtype.itemsize
        assert stats.dram_bytes == segs * 128

    @given(idx=st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=96))
    @settings(max_examples=30, deadline=None)
    def test_statement_reuse_never_increases_dram(self, idx):
        """Re-executing the same access with a reuse slot costs no new
        DRAM fetches."""
        g = GlobalMemory(K20C)
        g.alloc("a", SIZE, DType.FLOAT)
        arr = np.asarray(idx, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        cache: dict = {}
        s1 = KernelStats()
        g.load("a", arr, mask, warp_of(len(idx)), s1, reuse=(cache, 7))
        s2 = KernelStats()
        g.load("a", arr, mask, warp_of(len(idx)), s2, reuse=(cache, 7))
        assert s2.global_transactions == 0
        assert s2.l2_transactions == \
            s1.global_transactions + s1.l2_transactions

    @given(
        values=st.lists(st.integers(-100, 100), min_size=1, max_size=64),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_store_load_roundtrip(self, values, seed):
        g = GlobalMemory(K20C)
        g.alloc("a", SIZE, DType.INT)
        rng = np.random.default_rng(seed)
        idx = rng.choice(SIZE, size=len(values), replace=False)
        vals = np.asarray(values, dtype=np.int32)
        mask = np.ones(len(values), dtype=bool)
        g.store("a", idx, vals, mask, warp_of(len(values)), KernelStats())
        out = g.load("a", idx, mask, warp_of(len(values)), KernelStats())
        np.testing.assert_array_equal(out, vals)


class TestSharedAccounting:
    @given(idx=st.lists(st.integers(0, 255), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_conflict_degree_bounds(self, idx):
        """One warp access serializes between 1 and 32 times, and exactly
        matches the max distinct-words-per-bank."""
        stats = KernelStats()
        sm = SharedMemory(K20C, (SharedArraySpec("s", DType.FLOAT, 256),),
                          stats)
        arr = np.asarray(idx, dtype=np.int64)
        mask = np.ones(len(idx), dtype=bool)
        sm.load("s", arr, mask, np.zeros(len(idx), dtype=np.int32))

        words = np.unique(arr)  # float32: one word per element
        banks = words % 32
        expect = max(np.bincount(banks.astype(int), minlength=32).max(), 1)
        assert stats.shared_accesses == expect
        assert 1 <= stats.shared_accesses <= 32
        assert stats.bank_conflict_extra == expect - 1


def _fold_launch(nblocks, nthreads, chunk, dtype, size, calls, flushes,
                 device=K20C, bounds=None):
    """Counters of one synthetic launch two ways: logged block-axis
    accesses folded by an :class:`AccessLog` (chunk-major order, warp
    keys qualified by the block's row in its chunk), and the sequential
    rule — blocks in index order, each access counted on its own by
    :meth:`GlobalMemory._count_transactions` with the slot caches
    chained across blocks, and by :meth:`SharedMemory._count_banks`.

    ``calls`` lists ``(slot, kind, seed)``: ``kind`` is ``"g"`` (per-lane
    indices), ``"reps"`` (one index per block, every lane active) or
    ``"wreps"`` (one index per active warp, whole warps active); a
    ``None`` slot is a shared access.  ``flushes`` holds the (chunk,
    call) steps after which the log folds early.  ``bounds`` overrides
    the block-id and warp-key bounds the log packs its keys for."""
    ws = device.warp_size
    nwarps = -(-nthreads // ws)
    g = GlobalMemory(device)
    g.alloc("pad", 3, DType.INT)
    buf = g.alloc("a", size, dtype)
    spec = (SharedArraySpec("s", dtype, 96),)
    # per (call, block): active lane ids and their indices, or None
    plan = []
    for slot, kind, seed in calls:
        rng = np.random.default_rng(seed)
        hi = size if slot is not None else 96
        per = {}
        for b in range(nblocks):
            if rng.random() < 0.25:
                continue  # the block does not execute this access
            if kind == "reps":
                lanes = np.arange(nthreads)
                idx = np.full(nthreads, rng.integers(hi))
            elif kind == "wreps":
                warps = np.flatnonzero(rng.random(nwarps) < 0.7)
                if not warps.size:
                    continue
                lanes = (warps[:, None] * ws + np.arange(ws)).reshape(-1)
                idx = np.repeat(rng.integers(hi, size=warps.size), ws)
            else:
                lanes = np.flatnonzero(rng.random(nthreads) < 0.8)
                if not lanes.size:
                    continue
                if rng.random() < 0.5:
                    idx = (rng.integers(hi) + lanes
                           * int(rng.integers(1, 4))) % hi
                else:
                    idx = rng.integers(hi, size=lanes.size)
            per[b] = (lanes, idx.astype(np.int32))
        plan.append(per)

    want = KernelStats()
    sm_ref = SharedMemory(device, spec, want)
    cache: dict = {}
    for b in range(nblocks):
        for (slot, _, _), per in zip(calls, plan):
            if b in per:
                lanes, idx = per[b]
                if slot is None:
                    sm_ref._count_banks("s", idx, lanes // ws)
                else:
                    g._count_transactions(buf, idx, lanes // ws, want,
                                          reuse=(cache, slot))

    got = KernelStats()
    seg_cache: dict = {}
    log = AccessLog(g, got, seg_cache, None,
                    *(bounds or (nblocks, min(chunk, nblocks) * nwarps)))
    sm = SharedMemory(device, spec, got)
    for c0 in range(0, nblocks, chunk):
        for k, ((slot, kind, _), per) in enumerate(zip(calls, plan)):
            rows = [b for b in range(c0, min(c0 + chunk, nblocks))
                    if b in per]
            if not rows:
                continue
            if kind in ("reps", "wreps") and slot is not None:
                rep, rblk, lanes = [], [], 0
                for b in rows:
                    lane, idx = per[b]
                    rep.append(idx[::ws] if kind == "wreps" else idx[:1])
                    rblk += [b] * rep[-1].size
                    lanes += lane.size
                rep = np.concatenate(rep)
                log.add_global(buf, slot, rep,
                               np.asarray(rblk, dtype=np.int64),
                               requests=rep.size * (nwarps if kind == "reps"
                                                    else 1), lanes=lanes)
            else:
                idx = np.concatenate([per[b][1] for b in rows])
                wk = np.concatenate([(b - c0) * nwarps + per[b][0] // ws
                                     for b in rows]).astype(np.int64)
                blocks = np.concatenate(
                    [np.full(per[b][0].size, b, dtype=np.int64)
                     for b in rows])
                if slot is None:
                    log.add_shared(sm, "s", 0, idx, wk)
                else:
                    log.add_global(buf, slot, idx, blocks, wk)
            if (c0 // chunk, k) in flushes:
                log.flush()
    log.flush()
    finalize_segment_reuse(seg_cache, got, device.transaction_bytes)
    return got, want


_COUNTERS = ("global_transactions", "l2_transactions", "global_bytes",
             "dram_bytes", "shared_accesses", "bank_conflict_extra")


class TestAccessLogFold:
    """The access log's folds equal counting every access in block
    order, whatever the chunking, the call mix and the flush points."""

    @given(
        nblocks=st.integers(1, 7),
        nthreads=st.sampled_from([24, 32, 64, 96]),
        chunk=st.sampled_from([1, 3, DEFAULT_BLOCK_BATCH]),
        dtype=st.sampled_from([DType.FLOAT, DType.DOUBLE]),
        size=st.sampled_from([8, 32, 100, 700]),
        calls=st.lists(st.tuples(st.sampled_from([0, 1, None]),
                                 st.sampled_from(["g", "reps", "wreps"]),
                                 st.integers(0, 2**16)),
                       min_size=1, max_size=10),
        flushes=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                        max_size=6),
        # 96-byte segments take the general segment arithmetic: no
        # power-of-two element count, and a base off the segment grid
        tb=st.sampled_from([128, 96]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fold_equals_sequential_counting(self, nblocks, nthreads, chunk,
                                             dtype, size, calls, flushes,
                                             tb):
        if nthreads % K20C.warp_size:
            # warp-representative accesses need whole warps
            calls = [(s, "g" if k == "wreps" else k, x)
                     for s, k, x in calls]
        got, want = _fold_launch(nblocks, nthreads, chunk, dtype, size,
                                 calls, flushes,
                                 DeviceProperties(transaction_bytes=tb))
        assert {f: getattr(got, f) for f in _COUNTERS} \
            == {f: getattr(want, f) for f in _COUNTERS}

    @given(
        size=st.sampled_from([8, 700]),
        calls=st.lists(st.tuples(st.sampled_from([0, None]),
                                 st.sampled_from(["g", "reps", "wreps"]),
                                 st.integers(0, 2**16)),
                       min_size=1, max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_at_the_packed_key_width_limit(self, size, calls):
        """Bounds that leave a few calls' room in the packed keys (16 at
        a one-segment buffer, 1 at 700 doubles; 2 for the banks) fold a
        slot or an array as its calls fill them."""
        got, want = _fold_launch(4, 64, 2, DType.DOUBLE, size, calls,
                                 set(), bounds=(2**58, 2**22))
        assert {f: getattr(got, f) for f in _COUNTERS} \
            == {f: getattr(want, f) for f in _COUNTERS}

    @pytest.mark.parametrize("chunk", [1, 3, DEFAULT_BLOCK_BATCH])
    @pytest.mark.parametrize("nblocks", [1, 5])
    def test_single_segment_buffer(self, nblocks, chunk):
        """A buffer inside one segment packs its segment field at zero
        bits: a block's repeated accesses must still hit the L2."""
        calls = [(0, "g", 1), (0, "reps", 2), (1, "g", 3), (0, "g", 4),
                 (None, "g", 5), (0, "wreps", 6), (None, "g", 7)]
        got, want = _fold_launch(nblocks, 64, chunk, DType.FLOAT, 8,
                                 calls, {(0, 2)})
        assert {f: getattr(got, f) for f in _COUNTERS} \
            == {f: getattr(want, f) for f in _COUNTERS}
        assert got.l2_transactions > 0
