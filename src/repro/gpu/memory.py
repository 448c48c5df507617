"""Simulated device memories with traffic accounting.

``GlobalMemory`` holds named buffers laid out on a flat byte address space
(256-byte aligned, like ``cudaMalloc``), so coalescing is computed from real
byte addresses: each warp access is split into the set of 128-byte segments
it touches, and each segment is one transaction.  Fully coalesced accesses by
a 32-thread warp of 4-byte elements therefore cost 1 transaction; a strided
(blocking-scheduled) access costs up to 32 — this is the mechanism behind the
paper's preference for window-sliding scheduling (§3.1.3).

``SharedMemory`` models the 32-bank, 4-byte-word Kepler shared memory: a warp
access that maps *n* distinct words to the same bank serializes into *n*
accesses (same-word broadcast is free).  The transposed reduction layouts the
paper rejects (Fig. 6(b) / 8(b)) pay for themselves here.

Store semantics: when several active threads store to the same element in one
statement, the highest thread id wins, deterministically.  This makes
missing-privatization races (the modeled commercial-compiler defects) produce
stable wrong answers instead of flaky ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import DType
from repro.errors import OutOfBoundsError, ResourceError
from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats

__all__ = ["Buffer", "GlobalMemory", "SharedMemory", "BatchedSharedMemory",
           "finalize_segment_reuse"]

_ALIGN = 256

#: tag multiplier separating the block id from the segment id in the
#: batched segment-reuse bookkeeping; segment ids are byte address //
#: transaction size, far below 2^40 for any allocatable device memory
_SEG_TAG = 1 << 40


@dataclass
class Buffer:
    """A device global-memory buffer."""

    name: str
    dtype: DType
    size: int  # elements
    base: int  # byte address on the simulated device
    data: np.ndarray  # 1-D array of dtype.np, length == size

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize


class GlobalMemory:
    """Device global memory: a set of named buffers + traffic accounting."""

    def __init__(self, device: DeviceProperties):
        self.device = device
        self._buffers: dict[str, Buffer] = {}
        self._next_base = _ALIGN  # leave address 0 unused, like real allocators
        #: opt-in fault injector (repro.faults.FaultInjector); attached per
        #: launch by CompiledKernel.run — None means no fault work at all
        self.faults = None
        #: absolute index of the block currently executing (set by the
        #: reference executor per block) so fault sites key the per-block
        #: RNG substream; None routes to the injector's main stream
        self.fault_block = None

    # -- allocation --------------------------------------------------------

    def alloc(self, name: str, size: int, dtype: DType,
              init: np.ndarray | None = None) -> Buffer:
        """Allocate a named buffer; optionally copy initial contents."""
        if name in self._buffers:
            raise ResourceError(f"buffer {name!r} already allocated")
        if size < 0:
            raise ResourceError(f"negative buffer size {size} for {name!r}")
        nbytes = size * dtype.itemsize
        used = sum(b.nbytes for b in self._buffers.values())
        if used + nbytes > self.device.global_mem_bytes:
            raise ResourceError(
                f"allocating {nbytes} bytes for {name!r} exceeds device memory "
                f"({used} bytes in use of {self.device.global_mem_bytes})"
            )
        data = np.zeros(size, dtype=dtype.np)
        if init is not None:
            flat = np.asarray(init, dtype=dtype.np).reshape(-1)
            if flat.size != size:
                raise ResourceError(
                    f"init for {name!r} has {flat.size} elements, expected {size}"
                )
            data[:] = flat
        buf = Buffer(name, dtype, size, self._next_base, data)
        self._next_base += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        self._buffers[name] = buf
        return buf

    def free(self, name: str) -> None:
        """Release a buffer (address space is not recycled; fine for runs)."""
        del self._buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def __getitem__(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise OutOfBoundsError(f"no such buffer {name!r}") from None

    def buffers(self) -> list[Buffer]:
        return list(self._buffers.values())

    # -- access (called by the executor with per-thread index vectors) ------

    def load(self, name: str, idx: np.ndarray, mask: np.ndarray,
             warp_of: np.ndarray, stats: KernelStats,
             reuse: tuple | None = None) -> np.ndarray:
        """Gather ``buffer[idx]`` for active threads; count transactions.

        Returns a full-width vector; lanes with ``mask == False`` hold the
        buffer's zero value (they are never observed by correct kernels).
        ``reuse`` is an optional ``(cache_dict, slot)`` pair enabling the
        statement-level segment-reuse model (see ``_count_transactions``).
        """
        buf = self[name]
        act = idx[mask]
        self._check_bounds(buf, act)
        out = np.zeros(idx.shape, dtype=buf.dtype.np)
        if act.size:
            out[mask] = buf.data[act]
            self._count_transactions(buf, act, warp_of[mask], stats, reuse)
            if self.faults is not None:
                # transient read upset: corrupts the gathered register
                # vector only, never the buffer contents
                self.faults.on_gload(name, out, mask,
                                     block=self.fault_block)
        return out

    def store(self, name: str, idx: np.ndarray, values: np.ndarray,
              mask: np.ndarray, warp_of: np.ndarray,
              stats: KernelStats, reuse: tuple | None = None) -> None:
        """Scatter ``buffer[idx] = values`` for active threads.

        Duplicate indices: highest thread id wins (NumPy fancy assignment
        applies positions in order and thread vectors are id-ordered).
        """
        buf = self[name]
        act = idx[mask]
        if not act.size:
            return
        self._check_bounds(buf, act)
        buf.data[act] = np.asarray(values, dtype=buf.dtype.np)[mask]
        self._count_transactions(buf, act, warp_of[mask], stats, reuse)

    def atomic_update(self, name: str, idx: np.ndarray, values: np.ndarray,
                      mask: np.ndarray, warp_of: np.ndarray,
                      stats: KernelStats, combine) -> None:
        """Read-modify-write where duplicate indices *combine* via ``combine``.

        ``combine`` is a NumPy ufunc (e.g. ``np.add``); ``ufunc.at`` gives the
        atomics semantics.  Each lane is charged a transaction (atomics do not
        coalesce on Kepler-class hardware).
        """
        buf = self[name]
        act = idx[mask]
        if not act.size:
            return
        self._check_bounds(buf, act)
        combine.at(buf.data, act, np.asarray(values, dtype=buf.dtype.np)[mask])
        stats.global_transactions += int(act.size)
        stats.global_bytes += int(act.size) * buf.dtype.itemsize * 2
        stats.dram_bytes += int(act.size) * buf.dtype.itemsize * 2

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _check_bounds(buf: Buffer, act: np.ndarray) -> None:
        if act.size and (act.min() < 0 or act.max() >= buf.size):
            bad = act[(act < 0) | (act >= buf.size)][0]
            raise OutOfBoundsError(
                f"index {int(bad)} out of bounds for buffer "
                f"{buf.name!r} of size {buf.size}"
            )

    def _count_transactions(self, buf: Buffer, act_idx: np.ndarray,
                            act_warp: np.ndarray, stats: KernelStats,
                            reuse: tuple | None = None) -> None:
        """Per warp, count the distinct 128-byte segments touched.

        A segment requested by several warps *within one access* is fetched
        from DRAM once; the other warps' requests are L2 hits (the
        block-level broadcast a real cache provides for redundant loads).

        When ``reuse=(cache, slot)`` is given, segments that this same
        statement touched on its *previous* execution also hit the L2 —
        the sequential-chunk locality of a thread walking a contiguous
        range (each lane stays inside one 128-byte segment for several
        iterations).  This keeps the blocking-scheduling penalty at a
        cache-service ratio instead of an unrealistic full-DRAM refetch
        per iteration.
        """
        seg = (buf.base + act_idx.astype(np.int64) * buf.dtype.itemsize) \
            // self.device.transaction_bytes
        # distinct (warp, segment) pairs == total warp requests
        key = act_warp.astype(np.int64) * (1 << 40) + seg
        requests = int(np.unique(key).size)
        uniq_seg = np.unique(seg)
        if reuse is not None:
            cache, slot = reuse
            prev = cache.get(slot)
            if prev is None:
                dram = int(uniq_seg.size)
            else:
                dram = int((~np.isin(uniq_seg, prev,
                                     assume_unique=True)).sum())
            cache[slot] = uniq_seg
        else:
            dram = int(uniq_seg.size)
        stats.global_transactions += dram
        stats.l2_transactions += requests - dram
        stats.global_bytes += int(act_idx.size) * buf.dtype.itemsize
        stats.dram_bytes += dram * self.device.transaction_bytes

    # -- block-axis accounting (all blocks of a chunk in one call) --------

    def _count_transactions_batched(self, buf: Buffer, act_idx: np.ndarray,
                                    act_warpkey: np.ndarray,
                                    act_block: np.ndarray,
                                    stats: KernelStats,
                                    reuse: tuple | None = None,
                                    reps: tuple | None = None,
                                    wreps: tuple | None = None) -> None:
        """Block-axis version of :meth:`_count_transactions`.

        Warp requests use block-qualified warp keys, so per-warp segment
        sets never merge across blocks and ``requests`` equals the sum of
        the per-block request counts.  The statement-level segment-reuse
        model needs more care: in the reference executor the per-slot
        cache chains *across* blocks (block ``b``'s first execution of a
        statement compares against the previous block's final segments).
        Here each block's segments are tagged with the block id, later
        executions compare against the same block's previous execution
        (exact), and first executions are counted as all-DRAM eagerly;
        :func:`finalize_segment_reuse` replays the cross-block chain at
        launch end and moves the overlap from DRAM to L2, restoring
        bit-identical totals.

        ``reps`` — ``(rep, rblk)``, one representative index and block id
        per active block — asserts the index is per-block uniform (the
        static ``"block"`` verdict of
        :func:`~repro.gpu.executor_batched._uniform_stmts`).  Every lane
        of a block then touches the one segment its representative
        touches, so warp requests collapse to the distinct warp keys and
        the per-lane key construction below is skipped — the dominant
        cost of broadcast-heavy kernels.

        ``wreps`` — ``(rblk, lanes)``; ``act_idx`` then holds one
        representative index per *active warp* (in lane order), ``rblk``
        the block id of each, and ``lanes`` the true active-lane count.
        Asserts the index is per-warp uniform under a warp-uniform mask
        (the static ``"warp"`` verdict of the same analysis plus the
        ``blockDim.x % warp_size == 0`` launch guard).
        One segment per warp and one rep per warp make ``requests`` the
        rep count outright, the block-tagged dedup collapses to the reps
        (every lane of a warp touches its rep's segment), and the byte
        count comes from ``lanes`` instead of ``act_idx.size``.
        """
        nbytes = int(act_idx.size) * buf.dtype.itemsize
        if wreps is not None:
            rblk, lanes = wreps
            nbytes = int(lanes) * buf.dtype.itemsize
            seg_r = act_idx.astype(np.int64)
            seg_r *= buf.dtype.itemsize
            seg_r += buf.base
            seg_r //= self.device.transaction_bytes
            # one rep per active warp with distinct block-qualified warp
            # keys: requests = the rep count
            requests = int(seg_r.size)
            bkey = rblk.astype(np.int64) * _SEG_TAG
            bkey += seg_r
            if not _is_sorted(bkey):
                bkey.sort()
            newseg = np.empty(bkey.size, dtype=bool)
            newseg[0] = True
            np.not_equal(bkey[1:], bkey[:-1], out=newseg[1:])
            uniq_bseg = bkey[newseg]
        elif reps is not None:
            rep, rblk = reps
            seg_r = rep.astype(np.int64)
            seg_r *= buf.dtype.itemsize
            seg_r += buf.base
            seg_r //= self.device.transaction_bytes
            # one segment per warp: requests = distinct warp keys (the
            # block-qualified keys arrive sorted along the lane order)
            requests = 1 + int(np.count_nonzero(
                act_warpkey[1:] != act_warpkey[:-1]))
            # one tagged segment per block, already unique and sorted
            # (rblk is strictly increasing)
            uniq_bseg = rblk.astype(np.int64) * _SEG_TAG
            uniq_bseg += seg_r
        else:
            # in-place key arithmetic: each array below is a fresh
            # temporary, so the compound expressions are unrolled to
            # avoid extra passes
            seg = act_idx.astype(np.int64)
            seg *= buf.dtype.itemsize
            seg += buf.base
            seg //= self.device.transaction_bytes
            # sort+diff dedup: ~10x cheaper than np.unique's hash path at
            # the per-statement sizes this runs at (callers guarantee
            # act_idx is non-empty)
            wkey = act_warpkey * _SEG_TAG
            wkey += seg
            if not _is_sorted(wkey):
                wkey.sort()
            requests = 1 + int(np.count_nonzero(wkey[1:] != wkey[:-1]))
            bkey = act_block * _SEG_TAG
            bkey += seg
            if not _is_sorted(bkey):
                bkey.sort()
            newseg = np.empty(bkey.size, dtype=bool)
            newseg[0] = True
            np.not_equal(bkey[1:], bkey[:-1], out=newseg[1:])
            uniq_bseg = bkey[newseg]
        if reuse is not None:
            cache, slot = reuse
            st = cache.get(slot)
            if st is None:
                st = cache[slot] = _SlotReuse()
            if st.cur.size:
                dram = int(uniq_bseg.size
                           - _in_sorted(uniq_bseg, st.cur).sum())
            else:
                dram = int(uniq_bseg.size)
            blk = uniq_bseg // _SEG_TAG
            bstart = np.empty(blk.size, dtype=bool)
            bstart[0] = True
            np.not_equal(blk[1:], blk[:-1], out=bstart[1:])
            starts = np.flatnonzero(bstart)
            pblocks = blk[starts]
            pb = pblocks.tolist()
            if not st.seen.issuperset(pb):
                for j, b in enumerate(pb):
                    if b not in st.seen:
                        lo = starts[j]
                        hi = starts[j + 1] if j + 1 < starts.size \
                            else uniq_bseg.size
                        st.first[b] = uniq_bseg[lo:hi] - b * _SEG_TAG
                        st.seen.add(b)
            if not st.cur.size or st.blocks.issubset(pbset := set(pb)):
                # every cached block is executing this statement, so the
                # eviction replaces the whole cache: skip the range
                # subtraction (the steady state of full-chunk loops)
                st.cur = uniq_bseg
                st.blocks = set(pb)
            else:
                # evict the executing blocks' previous entries: tagged
                # keys put each block in the contiguous key range
                # [b*TAG, (b+1)*TAG), so eviction is range subtraction
                lo = np.searchsorted(st.cur, pblocks * _SEG_TAG)
                hi = np.searchsorted(st.cur, (pblocks + 1) * _SEG_TAG)
                if len(pb) <= 8:
                    keep_mask = np.ones(st.cur.size, dtype=bool)
                    for l, h in zip(lo.tolist(), hi.tolist()):
                        keep_mask[l:h] = False
                    keep = st.cur[keep_mask]
                else:
                    delta = np.zeros(st.cur.size + 1, dtype=np.int32)
                    np.add.at(delta, lo, 1)
                    np.add.at(delta, hi, -1)
                    keep = st.cur[np.cumsum(delta[:-1]) == 0]
                st.cur = np.sort(np.concatenate([keep, uniq_bseg]))
                st.blocks |= pbset
        else:
            dram = int(uniq_bseg.size)
        stats.global_transactions += dram
        stats.l2_transactions += requests - dram
        stats.global_bytes += nbytes
        stats.dram_bytes += dram * self.device.transaction_bytes


def _is_sorted(a: np.ndarray) -> bool:
    """True when ``a`` is already non-decreasing.

    The dominant access shapes (coalesced walks, per-block-uniform
    broadcast reads) produce pre-sorted dedup keys, so one comparison
    pass routinely replaces an O(n log n) sort.
    """
    return a.size < 2 or bool((a[1:] >= a[:-1]).all())


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of sorted ``values`` in sorted ``table``.

    Equivalent to ``np.isin(values, table, assume_unique=True)`` but a
    plain binary search — no hashing and no temporary concatenation, which
    makes it materially cheaper at the per-statement call rates of the
    batched executor's reuse bookkeeping.
    """
    if not table.size:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[pos] == values


class _SlotReuse:
    """Per-statement segment-reuse state for the batched executor."""

    __slots__ = ("cur", "first", "seen", "blocks")

    def __init__(self):
        #: sorted block-tagged segments of each block's latest execution
        self.cur = np.empty(0, dtype=np.int64)
        #: untagged segments of each block's *first* execution
        self.first: dict[int, np.ndarray] = {}
        self.seen: set[int] = set()
        #: blocks with an entry in ``cur`` (drives the full-replacement
        #: eviction fast path)
        self.blocks: set[int] = set()


def finalize_segment_reuse(cache: dict, stats: KernelStats,
                           transaction_bytes: int,
                           attr=None, slot_sids: dict | None = None) -> None:
    """Apply the cross-block reuse correction at batched-launch end.

    The reference executor runs blocks in index order, so block ``b``'s
    first execution of a statement sees the slot cache left by the nearest
    preceding block that executed it.  Replay that chain: for consecutive
    executing blocks ``(p, b)``, segments of ``b``'s first execution that
    also appear in ``p``'s final execution were counted as DRAM eagerly
    but are L2 hits in the reference accounting.

    ``attr`` (an :class:`~repro.gpu.events.AttributionTable`) with
    ``slot_sids`` (slot → stamped statement sid) applies the same
    correction to the owning statement's row — the correction is per
    slot, and each slot belongs to exactly one statement, so the
    per-statement tables stay bit-identical to the reference executor's.
    """
    for slot, st in cache.items():
        if not isinstance(st, _SlotReuse) or len(st.first) < 2:
            continue
        blocks = sorted(st.first)
        # one membership query for every consecutive pair: tag block b's
        # first-execution segments with its predecessor p and look them
        # up in the tagged cache — the p-range of ``cur`` holds exactly
        # p's final segments, so this is the pairwise intersection sum
        # without the per-pair python loop
        firsts = [st.first[b] for b in blocks[1:]]
        qry = np.concatenate(firsts)
        qry += np.repeat(
            np.asarray(blocks[:-1], dtype=np.int64) * _SEG_TAG,
            [f.size for f in firsts])
        overlap = int(_in_sorted(qry, st.cur).sum())
        if overlap:
            stats.global_transactions -= overlap
            stats.l2_transactions += overlap
            stats.dram_bytes -= overlap * transaction_bytes
            if attr is not None:
                row = attr.row(slot_sids.get(slot, -1)
                               if slot_sids is not None else -1)
                row.global_transactions -= overlap
                row.l2_transactions += overlap
                row.dram_bytes -= overlap * transaction_bytes


class SharedMemory:
    """Per-block shared memory: named arrays + bank-conflict accounting."""

    def __init__(self, device: DeviceProperties,
                 specs: tuple,  # tuple[SharedArraySpec, ...]
                 stats: KernelStats, faults=None):
        self.device = device
        self.stats = stats
        self.faults = faults  # opt-in repro.faults.FaultInjector
        self.fault_block = None  # executing block (reference executor)
        self._arrays: dict[str, np.ndarray] = {}
        self._offsets: dict[str, int] = {}
        self._dtypes: dict[str, DType] = {}
        off = 0
        # overlay groups share one region sized by the largest member
        # (the paper's §3.3 mixed-dtype reduction-buffer sharing)
        overlay_off: dict[str, int] = {}
        overlay_end: dict[str, int] = {}
        for spec in specs:
            a = spec.dtype.itemsize  # align to element size, as nvcc does
            if spec.overlay is not None and spec.overlay in overlay_off:
                base = overlay_off[spec.overlay]
                base = (base + a - 1) // a * a
                self._offsets[spec.name] = base
                overlay_end[spec.overlay] = max(
                    overlay_end[spec.overlay], base + spec.nbytes)
                off = max(off, overlay_end[spec.overlay])
            else:
                off = (off + a - 1) // a * a
                self._offsets[spec.name] = off
                if spec.overlay is not None:
                    overlay_off[spec.overlay] = off
                    overlay_end[spec.overlay] = off + spec.nbytes
                off += spec.nbytes
            self._dtypes[spec.name] = spec.dtype
            self._arrays[spec.name] = np.zeros(spec.size, dtype=spec.dtype.np)
        # recompute the true footprint: max end over all placements
        total = 0
        for spec in specs:
            total = max(total,
                        self._offsets[spec.name] + spec.nbytes)
        off = total
        if off > device.shared_mem_per_block:
            raise ResourceError(
                f"kernel requires {off} bytes of shared memory; device limit "
                f"is {device.shared_mem_per_block}"
            )
        self.total_bytes = off

    def load(self, name: str, idx: np.ndarray, mask: np.ndarray,
             warp_of: np.ndarray) -> np.ndarray:
        arr = self._array(name, idx, mask)
        out = np.zeros(idx.shape, dtype=arr.dtype)
        act = idx[mask]
        if act.size:
            out[mask] = arr[act]
            self._count_banks(name, act, warp_of[mask])
            if self.faults is not None:
                self.faults.on_sload(name, out, mask,
                                     block=self.fault_block)
        return out

    def store(self, name: str, idx: np.ndarray, values: np.ndarray,
              mask: np.ndarray, warp_of: np.ndarray) -> None:
        arr = self._array(name, idx, mask)
        act = idx[mask]
        if not act.size:
            return
        arr[act] = np.asarray(values, dtype=arr.dtype)[mask]
        self._count_banks(name, act, warp_of[mask])

    def reset(self) -> None:
        """Zero all arrays, as a freshly allocated block would see them.

        Lets one allocation serve every block of a launch (the reference
        executor resets between blocks instead of reallocating)."""
        for arr in self._arrays.values():
            arr.fill(0)

    def read_array(self, name: str) -> np.ndarray:
        """Direct (cost-free) view for tests and debugging."""
        return self._arrays[name]

    # -- internals -----------------------------------------------------------

    def _array(self, name: str, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
        try:
            arr = self._arrays[name]
        except KeyError:
            raise OutOfBoundsError(f"no such shared array {name!r}") from None
        act = idx[mask]
        if act.size and (act.min() < 0 or act.max() >= arr.size):
            bad = act[(act < 0) | (act >= arr.size)][0]
            raise OutOfBoundsError(
                f"index {int(bad)} out of bounds for shared array "
                f"{name!r} of size {arr.size}"
            )
        return arr

    def _count_banks(self, name: str, act_idx: np.ndarray,
                     act_warp: np.ndarray) -> None:
        """Conflict-serialized access count for one warp-synchronous access.

        Per warp: group the *distinct words* touched by bank; the access
        serializes into ``max_over_banks(#distinct words)`` shared accesses.
        Lanes reading the same word broadcast for free.
        """
        itemsize = self._dtypes[name].itemsize
        word = (self._offsets[name] + act_idx.astype(np.int64) * itemsize) \
            // self.device.shared_mem_bank_width
        nbanks = self.device.shared_mem_banks
        # distinct (warp, word) pairs — sort+diff dedup, same sorted
        # result as np.unique at a fraction of the per-call overhead
        key = act_warp.astype(np.int64) * (1 << 40) + word
        if not _is_sorted(key):
            key.sort()
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        uniq = key[keep]
        uw_warp = uniq >> 40
        uw_bank = (uniq & ((1 << 40) - 1)) % nbanks
        # count distinct words per (warp, bank), then take max per warp
        key2 = uw_warp * nbanks + uw_bank
        key2.sort()
        b2 = np.empty(key2.size, dtype=bool)
        b2[0] = True
        np.not_equal(key2[1:], key2[:-1], out=b2[1:])
        starts2 = np.flatnonzero(b2)
        counts = np.empty(starts2.size, dtype=np.int64)
        np.subtract(starts2[1:], starts2[:-1], out=counts[:-1])
        counts[-1] = key2.size - starts2[-1]
        warps2 = key2[starts2] // nbanks
        # segment max: warps2 is sorted; find boundaries
        starts = np.flatnonzero(np.r_[True, warps2[1:] != warps2[:-1]])
        degrees = np.maximum.reduceat(counts, starts)
        serialized = int(degrees.sum())
        self.stats.shared_accesses += serialized
        self.stats.bank_conflict_extra += serialized - int(degrees.size)


class BatchedSharedMemory(SharedMemory):
    """Shared memory for a chunk of blocks advancing together.

    Each named array is carried as a ``(blocks, size)`` matrix — one row
    per block of the chunk, so cross-block isolation is structural.  The
    block-axis access helpers of :mod:`repro.gpu.executor_batched` read
    and write the rows and count banks through
    :meth:`SharedMemory._count_banks` with block-qualified warp keys:
    per-(block, warp) conflict degrees are computed exactly as the
    per-block model and summed.  Constructed with ``stats=None`` (a
    counter-memo hit) it counts nothing.
    """

    def __init__(self, device: DeviceProperties, specs: tuple,
                 stats: KernelStats | None, nblocks: int):
        super().__init__(device, specs, stats)
        for name, arr in self._arrays.items():
            self._arrays[name] = np.zeros((nblocks, arr.size),
                                          dtype=arr.dtype)

    def read_block(self, name: str, row: int) -> np.ndarray:
        """One block's view of a shared array (tests/debugging)."""
        return self._arrays[name][row]
