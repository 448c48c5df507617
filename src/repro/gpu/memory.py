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

The reference executor counts each access as it runs.  A counted
block-axis launch (the batched and trace executors) instead appends its
accesses to an :class:`AccessLog` and counts them in folds: once per
segment-reuse slot for global memory
(:meth:`GlobalMemory._count_transactions_batched`) and once per shared
array for banks (:meth:`SharedMemory._count_banks`), at launch end or
when the log reaches its element budget.  Every counter equals the
per-access count.

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
           "AccessLog", "finalize_segment_reuse"]

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

    # -- block-axis accounting: one fold per slot over the access log -----

    def _count_transactions_batched(self, log: "_SlotLog", st: "_SlotReuse",
                                    stats: KernelStats) -> None:
        """Count one slot's logged block-axis accesses in one fold.

        The result is what :meth:`_count_transactions` gives when each
        logged access (a *call*) is counted in order with the slot's
        reuse cache chained per block.  The elements of all calls are
        folded together on packed integer keys: ``(call, block,
        segment)`` for the block-tagged unique segments and ``(call,
        warp key, segment)`` for the warp requests.  The warp keys are
        block-qualified, so per-warp segment sets never merge across
        blocks or calls.  A representative call (``wkeys`` None: the
        ``"block"``/``"warp"`` uniformity verdicts of
        :func:`~repro.gpu.executor_batched._uniform_stmts`) logs its
        request count outright and one element per block or warp.

        Segment reuse: a ``(call, block)`` group's segments hit the L2
        where the same block's previous execution of the statement
        touched them.  That execution is the nearest earlier group of
        the block in this fold (a binary search of the shifted keys),
        or else the block's range of ``st.cur``, left by an earlier fold
        of the slot.  A block's first execution is counted as all-DRAM
        here; :func:`finalize_segment_reuse` replays the cross-block
        chain of the reference executor at launch end and moves the
        overlap from DRAM to L2, restoring bit-identical totals.  The
        fold leaves ``st`` as per-call counting would, so folds chain
        across flushes and chunks.
        """
        sb, hi = log.sb, log.hi
        mb = hi - sb
        # the fold consumes the log: each part is dropped once the keys
        # built from it exist, so the fold's peak holds few copies
        keys = _cat(log.keys)
        requests = log.requests
        g = [i for i, w in enumerate(log.wkeys) if w is not None]
        if g:
            rkey = _cat([log.wkeys[i] for i in g]) << sb
            log.wkeys = None
            rkey |= keys if len(g) == len(log.keys) \
                else _cat([log.keys[i] for i in g])
            requests += _count_distinct(rkey)
            del rkey
        log.keys = None
        bkey = _cat(log.blocks) << sb
        log.blocks = None
        bkey |= keys
        del keys
        uk = _distinct(bkey)
        del bkey
        u = uk.size
        # (call, block) groups: contiguous runs of the sorted keys
        gk = uk >> sb
        new = np.empty(u, dtype=bool)
        new[0] = True
        np.not_equal(gk[1:], gk[:-1], out=new[1:])
        start = new.nonzero()[0]
        gkey = gk[start]
        size = np.empty(start.size, dtype=np.int64)
        np.subtract(start[1:], start[:-1], out=size[:-1])
        size[-1] = u - start[-1]
        gcall = gkey >> mb
        gblk = gkey & ((1 << mb) - 1)
        # per group: the tagged cache key of an element is its packed key
        # plus this offset
        off = gblk * _SEG_TAG
        off += log.seg0
        off -= gkey << sb
        hits = 0
        if gcall[0] == gcall[-1]:
            # one call: every group is its block's first and last here
            first = last = None
        else:
            # each group's predecessor: the block's previous group
            order = np.argsort(gblk, kind="stable")
            ob = gblk[order]
            same = (ob[1:] == ob[:-1]).nonzero()[0]
            has = order[same + 1]
            prev = order[same]
            first = np.ones(gkey.size, dtype=bool)
            first[has] = False
            last = np.ones(gkey.size, dtype=bool)
            last[prev] = False
            if has.size:
                # shift each element's call field back to its group's
                # predecessor; first groups keep delta 0 and find
                # themselves, which the subtraction below takes back
                lo = int(has.min())
                delta = np.zeros(gkey.size - lo, dtype=np.int64)
                delta[has - lo] = (gcall[has] - gcall[prev]) << hi
                tail = uk[start[lo]:]
                q = tail - np.repeat(delta, size[lo:])
                found = int(np.count_nonzero(uk[np.searchsorted(uk, q)] == q))
                hits = found - (tail.size - int(size[has].sum()))
        fk, fb, fsz = _group_keys(uk, start, size, off, gblk, first)
        if st.cur.size:
            hits += int(_in_sorted(fk, st.cur).sum())
        pb = fb.tolist()
        if not st.seen.issuperset(pb):
            ends = np.cumsum(fsz).tolist()
            lo = 0
            for b, e in zip(pb, ends):
                if b not in st.seen:
                    st.first[b] = fk[lo:e] - b * _SEG_TAG
                    st.seen.add(b)
                lo = e
        if last is None:
            lk, lb = fk, fb
        else:
            lk, lb, _ = _group_keys(uk, start, size, off, gblk, last)
            if not _is_sorted(lk):
                lk.sort()
        _evict_and_cache(st, lk, lb)
        dram = u - hits
        stats.global_transactions += dram
        stats.l2_transactions += requests - dram
        stats.global_bytes += log.lanes * log.buf.dtype.itemsize
        stats.dram_bytes += dram * self.device.transaction_bytes


def _cat(parts: list) -> np.ndarray:
    """One array of the parts; the part itself when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _is_sorted(a: np.ndarray) -> bool:
    """True when ``a`` is already non-decreasing.

    The dominant access shapes (coalesced walks, per-block-uniform
    broadcast reads) produce pre-sorted dedup keys, so one comparison
    pass routinely replaces an O(n log n) sort.
    """
    return a.size < 2 or bool((a[1:] >= a[:-1]).all())


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a`` (sorted in place: ``a`` must
    be a fresh array).  Sort+diff dedup: far cheaper than ``np.unique``
    at the sizes the folds run at."""
    if not _is_sorted(a):
        a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _count_distinct(a: np.ndarray) -> int:
    """How many distinct values ``a`` holds (sorted in place, as above)."""
    if not _is_sorted(a):
        a.sort()
    return 1 + int(np.count_nonzero(a[1:] != a[:-1]))


def _group_keys(uk, start, size, off, gblk, sel):
    """The tagged cache keys, block ids and sizes of the ``sel`` groups
    (all groups when ``sel`` is None), in group order.  A contiguous run
    of groups — the steady state: a fold's first or last call — is a
    slice, not a gather."""
    if sel is None:
        return uk + np.repeat(off, size), gblk, size
    idx = sel.nonzero()[0]
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    if hi - lo == idx.size:
        end = int(start[hi]) if hi < start.size else uk.size
        return (uk[start[lo]:end] + np.repeat(off[lo:hi], size[lo:hi]),
                gblk[lo:hi], size[lo:hi])
    return (uk[np.repeat(sel, size)] + np.repeat(off[idx], size[idx]),
            gblk[idx], size[idx])


def _evict_and_cache(st: "_SlotReuse", keys: np.ndarray,
                     blocks: np.ndarray) -> None:
    """Make the sorted tagged ``keys`` the latest execution of each of
    ``blocks`` in ``st.cur``, replacing those blocks' earlier entries."""
    pb = blocks.tolist()
    if not st.cur.size or st.blocks.issubset(pbset := set(pb)):
        # every cached block executed in this fold, so the eviction
        # replaces the whole cache: skip the range subtraction (the
        # steady state of full-chunk loops)
        st.cur = keys
        st.blocks = set(pb)
        return
    # evict the executing blocks' previous entries (a tagged key's
    # block is its quotient by the tag)
    keep = st.cur[~np.isin(st.cur // _SEG_TAG, blocks)]
    st.cur = np.sort(np.concatenate([keep, keys]))
    st.blocks |= pbset


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in sorted ``table``.

    Equivalent to ``np.isin(values, table, assume_unique=True)`` but a
    plain binary search — no hashing and no temporary concatenation.
    """
    if not table.size:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[pos] == values


class _SlotReuse:
    """Segment-reuse state of one slot (global-access statement) over a
    block-axis launch, left by the slot's folds.  ``cur`` holds each
    block's latest execution, ``first`` each block's first one;
    :func:`finalize_segment_reuse` reads both at launch end."""

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
    and write the rows and log each access; the :class:`AccessLog` counts
    banks through :meth:`SharedMemory._count_banks` with block-qualified,
    call-tagged warp keys: per-(call, block, warp) conflict degrees are
    computed exactly as the per-block model and summed.  Constructed
    with ``stats=None`` (a counter-memo hit) it counts nothing.
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


# --------------------------------------------------------------------------
# the access log of a counted block-axis launch
# --------------------------------------------------------------------------

#: element budget of one launch's :class:`AccessLog`: once the pending
#: accesses hold this many elements, every slot and shared array folds.
#: It bounds the log's memory and, through the call count, the call
#: field of the packed fold keys
LOG_BUDGET = 1 << 14

#: warp-key bits :meth:`SharedMemory._count_banks` takes: its
#: ``(warp, word)`` keys put the warp key above bit 40 of an int64
_BANK_WARP_BITS = 23


class _SlotLog:
    """One slot's logged accesses since its last fold.

    Per access (a *call*): ``keys`` holds each element's segment,
    relative to the buffer's first, with the call number above bit
    ``hi``; ``blocks`` the elements' block ids; ``wkeys`` their
    block-qualified warp keys, or None for a representative access,
    whose warp requests are added to ``requests`` as it is logged.  The
    segment takes ``sb`` bits and a block id or warp key ``hi - sb``, so
    at most ``cap`` calls fit a 62-bit key.
    """

    __slots__ = ("buf", "tb", "seg0", "off", "shift", "sb", "hi", "cap",
                 "keys", "blocks", "wkeys", "requests", "lanes", "n")

    def __init__(self, buf: Buffer, tb: int, mbits: int):
        isz = buf.dtype.itemsize
        self.buf, self.tb = buf, tb
        self.seg0, self.off = divmod(buf.base, tb)
        span = (self.off + max(buf.nbytes, 1) - 1) // tb + 1
        self.sb = (span - 1).bit_length()
        self.hi = self.sb + mbits
        self.cap = 1 << max(62 - self.hi, 0)
        # an aligned buffer whose segment holds a power-of-two number of
        # elements takes its segments with one shift
        per = tb // isz
        self.shift = (per.bit_length() - 1 if self.off == 0
                      and per * isz == tb and not per & (per - 1) else None)
        self.keys: list[np.ndarray] = []
        self.blocks: list[np.ndarray] = []
        self.wkeys: list[np.ndarray | None] = []
        self.requests = self.lanes = self.n = 0

    def add(self, idx: np.ndarray, blocks: np.ndarray, wkeys, requests: int,
            lanes: int) -> None:
        if self.shift is not None:
            k = np.right_shift(idx, self.shift, dtype=np.int64)
        else:
            k = idx.astype(np.int64)
            k *= self.buf.dtype.itemsize
            k += self.off
            k //= self.tb
        c = len(self.keys)
        if c:
            k |= c << self.hi
        self.keys.append(k)
        self.blocks.append(blocks)
        self.wkeys.append(wkeys)
        self.requests += requests
        self.lanes += lanes
        self.n += idx.size


class _BankLog:
    """One shared array's logged accesses since its last fold (``sid``
    is the statement whose attribution row they charge, or None)."""

    __slots__ = ("smem", "arr", "sid", "idx", "wkeys", "n")

    def __init__(self, smem: "SharedMemory", arr: str, sid):
        self.smem, self.arr, self.sid = smem, arr, sid
        self.idx: list[np.ndarray] = []
        self.wkeys: list[np.ndarray] = []
        self.n = 0


class AccessLog:
    """The counted global and shared accesses of one block-axis launch.

    The access helpers of :mod:`repro.gpu.executor_batched` append each
    access here instead of counting it; a fold counts many accesses in
    one call.  Global accesses fold once per segment-reuse slot, through
    :meth:`GlobalMemory._count_transactions_batched`, which chains each
    slot's :class:`_SlotReuse` state in ``seg_cache`` exactly as
    counting every access would.  Shared accesses fold once per array,
    through the unchanged :meth:`SharedMemory._count_banks` over the
    concatenated accesses with call-tagged warp keys: conflict degrees
    are per (call, warp), so their sum is the per-access sum.

    :meth:`flush` folds everything, at launch end or once the pending
    accesses reach :data:`LOG_BUDGET` elements; a slot or array also
    folds when its call count fills the packed keys.  On an
    attribution launch each fold's counter deltas go to the row of its
    statement: a global slot's through ``slot_sids``, and shared
    accesses are logged per (array, statement).  A launch that raises,
    a hazard rollback included, drops its log unfolded.

    ``grid_dim`` and ``wkeys`` bound the block ids and the warp keys the
    accesses carry.
    """

    __slots__ = ("gmem", "stats", "seg_cache", "slot_sids", "mbits",
                 "wbits", "slots", "banks", "pending")

    def __init__(self, gmem: GlobalMemory, stats: KernelStats,
                 seg_cache: dict, slot_sids: dict | None, grid_dim: int,
                 wkeys: int):
        self.gmem, self.stats = gmem, stats
        self.seg_cache, self.slot_sids = seg_cache, slot_sids
        self.wbits = (wkeys - 1).bit_length()
        self.mbits = max((grid_dim - 1).bit_length(), self.wbits)
        self.slots: dict[int, _SlotLog] = {}
        self.banks: dict = {}
        self.pending = 0

    def add_global(self, buf: Buffer, slot: int, idx: np.ndarray,
                   blocks: np.ndarray, wkeys: np.ndarray | None = None,
                   requests: int = 0, lanes: int | None = None) -> None:
        """Log one global access of ``slot``: per element its index,
        block id and warp key; or, for a representative access
        (``wkeys`` None), one element per block or warp with the
        access's warp ``requests`` and active ``lanes``."""
        sl = self.slots.get(slot)
        if sl is None:
            sl = self.slots[slot] = _SlotLog(
                buf, self.gmem.device.transaction_bytes, self.mbits)
        sl.add(idx, blocks, wkeys, requests,
               idx.size if lanes is None else lanes)
        self.pending += idx.size
        if len(sl.keys) == sl.cap:
            self._fold_slot(slot, self.slots.pop(slot))
        if self.pending >= LOG_BUDGET:
            self.flush()

    def add_shared(self, smem: "SharedMemory", arr: str, sid: int,
                   idx: np.ndarray, wkeys: np.ndarray) -> None:
        """Log one shared access of statement ``sid`` to ``arr``."""
        attr = self.stats.attribution is not None
        key = (arr, sid) if attr else arr
        bl = self.banks.get(key)
        if bl is None:
            bl = self.banks[key] = _BankLog(smem, arr, sid if attr else None)
        bl.idx.append(idx.copy())  # the index may alias a register
        bl.wkeys.append(wkeys)
        bl.n += idx.size
        self.pending += idx.size
        if len(bl.wkeys) << self.wbits >= 1 << _BANK_WARP_BITS:
            self._fold_bank(self.banks.pop(key))
        if self.pending >= LOG_BUDGET:
            self.flush()

    def flush(self) -> None:
        """Fold every pending slot and shared array."""
        slots, self.slots = self.slots, {}
        banks, self.banks = self.banks, {}
        for slot, sl in slots.items():
            self._fold_slot(slot, sl)
        for bl in banks.values():
            self._fold_bank(bl)

    def _fold_slot(self, slot: int, sl: _SlotLog) -> None:
        self.pending -= sl.n
        st = self.seg_cache.get(slot)
        if st is None:
            st = self.seg_cache[slot] = _SlotReuse()
        stats = self.stats
        attr = stats.attribution
        if attr is not None:
            g0, l0 = stats.global_transactions, stats.l2_transactions
            b0, d0 = stats.global_bytes, stats.dram_bytes
        self.gmem._count_transactions_batched(sl, st, stats)
        if attr is not None:
            row = attr.row(self.slot_sids.get(slot, -1)
                           if self.slot_sids is not None else -1)
            row.global_transactions += stats.global_transactions - g0
            row.l2_transactions += stats.l2_transactions - l0
            row.global_bytes += stats.global_bytes - b0
            row.dram_bytes += stats.dram_bytes - d0

    def _fold_bank(self, bl: _BankLog) -> None:
        self.pending -= bl.n
        wk = _cat(bl.wkeys)
        if len(bl.wkeys) > 1:
            # call-tag the warp keys: degrees are per (call, warp)
            wk |= np.repeat(
                np.arange(len(bl.wkeys), dtype=np.int64) << self.wbits,
                [w.size for w in bl.wkeys])
        stats = self.stats
        if bl.sid is not None:
            s0, c0 = stats.shared_accesses, stats.bank_conflict_extra
        bl.smem._count_banks(bl.arr, _cat(bl.idx), wk)
        if bl.sid is not None:
            row = stats.attribution.row(bl.sid)
            row.shared_accesses += stats.shared_accesses - s0
            row.bank_conflict_extra += stats.bank_conflict_extra - c0
