"""Event accounting for simulated kernel execution.

The executor does not keep a per-access trace (that would be enormous);
instead it accumulates the aggregate counters the cost model consumes, plus a
small optional structured trace for debugging/teaching (enabled per launch).

Counter semantics:

``warp_inst_slots``
    Number of (warp, statement) execution slots.  A statement executed by a
    block with 4 active warps adds 4.  Divergent ``if`` bodies execute both
    sides, so divergence shows up here automatically.
``global_transactions`` / ``global_bytes``
    128-byte segment transactions per warp access after coalescing, and the
    useful bytes moved (for the bandwidth bound).
``shared_accesses``
    Conflict-serialized shared-memory warp accesses: an access with bank
    conflict degree *d* counts *d*.
``barriers``
    ``__syncthreads`` executions (per block).
``divergent_branches``
    Branches where at least one warp had threads on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["AttributionTable", "KernelStats", "StmtCounters", "TraceEvent"]


@dataclass
class TraceEvent:
    """One structured trace record (only collected when tracing is on)."""

    kind: str  # "gload", "gstore", "sload", "sstore", "sync", "branch"
    block: int
    detail: str


@dataclass
class StmtCounters:
    """Per-statement accounting (one row of an :class:`AttributionTable`).

    Filled by both executors under the opt-in ``attribution`` launch knob;
    the batched and reference paths must produce bit-identical rows (pinned
    by the differential test suite).  ``warp_slots`` mirrors the statement's
    contribution to ``KernelStats.warp_inst_slots`` exactly, so summing a
    column over all rows reproduces the kernel-level counter.
    """

    execs: int = 0  # per-block executions (a block entering the stmt once)
    lanes: int = 0  # active thread-lanes summed over executions
    warp_slots: int = 0  # (warp, statement) issue slots
    global_transactions: int = 0  # DRAM segment fetches
    l2_transactions: int = 0  # warp requests served by the L2
    global_bytes: int = 0
    dram_bytes: int = 0
    shared_accesses: int = 0  # conflict-serialized shared warp accesses
    bank_conflict_extra: int = 0
    divergence_splits: int = 0  # warps with lanes on both sides of a branch
    barrier_arrivals: int = 0  # per-block __syncthreads arrivals
    barrier_wait_slots: int = 0  # warp slots spent at the barrier
    atomic_rounds: int = 0  # serialized atomic transactions
    fault_events: int = 0  # injected faults landing on this statement

    def merge(self, other: "StmtCounters") -> None:
        for f in fields(StmtCounters):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(StmtCounters)}


class AttributionTable:
    """sid → :class:`StmtCounters` accounting table for one launch.

    Only allocated when a launch opts in (``attribution=True``); the
    executors' closures check for ``None`` at run time so the off path
    allocates nothing.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, StmtCounters] = {}

    def row(self, sid: int) -> StmtCounters:
        r = self.rows.get(sid)
        if r is None:
            r = self.rows[sid] = StmtCounters()
        return r

    def merge(self, other: "AttributionTable") -> None:
        for sid, r in other.rows.items():
            self.row(sid).merge(r)

    def as_dict(self) -> dict[int, dict]:
        return {sid: self.rows[sid].as_dict() for sid in sorted(self.rows)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributionTable):
            return NotImplemented
        return self.as_dict() == other.as_dict()


@dataclass
class KernelStats:
    """Aggregate execution counters for one kernel launch."""

    blocks: int = 0
    threads_per_block: int = 0
    shared_bytes: int = 0

    warp_inst_slots: int = 0
    global_transactions: int = 0  # DRAM segment fetches (distinct per access)
    l2_transactions: int = 0  # warp requests served by the L2 (same segment
    #                           requested by other warps in the same access)
    global_bytes: int = 0  # useful bytes moved (active lanes x itemsize)
    dram_bytes: int = 0  # segment bytes fetched from DRAM (>= useful for
    #                      uncoalesced access; < useful for broadcasts)
    shared_accesses: int = 0
    bank_conflict_extra: int = 0  # serialized accesses beyond the conflict-free 1/warp
    barriers: int = 0
    divergent_branches: int = 0

    trace: list[TraceEvent] = field(default_factory=list)
    #: opt-in per-statement accounting (``attribution=True`` launches only)
    attribution: AttributionTable | None = None

    #: launch-configuration fields: describe the launch rather than count
    #: events, so :meth:`merge` must not sum them
    CONFIG_FIELDS = frozenset({"blocks", "threads_per_block", "shared_bytes"})

    #: launch provenance, set by
    #: :meth:`~repro.gpu.executor.CompiledKernel.run`: the executor mode
    #: the launch resolved to, and whether its counters were ``"counted"``
    #: or served from the counter ``"memo"``.  Plain attributes, not
    #: fields: they say how the counters were produced, so equality,
    #: :meth:`merge` and :meth:`summary` ignore them
    executor = None
    counters = None

    def merge(self, other: "KernelStats") -> None:
        """Fold another stats object (e.g. per-block counters) into this one.

        Counter fields are discovered by reflection so a newly added counter
        cannot silently be dropped; only the launch-configuration fields and
        the structured ``trace``/``attribution`` extras are special-cased.
        """
        for f in fields(KernelStats):
            if f.name in self.CONFIG_FIELDS or f.name in ("trace",
                                                          "attribution"):
                continue
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        self.trace.extend(other.trace)
        if other.attribution is not None:
            if self.attribution is None:
                self.attribution = AttributionTable()
            self.attribution.merge(other.attribution)

    def summary(self) -> str:
        """Human-readable one-line summary (used by the inspect example)."""
        return (
            f"blocks={self.blocks} tpb={self.threads_per_block} "
            f"sbytes={self.shared_bytes} "
            f"inst={self.warp_inst_slots} gtx={self.global_transactions} "
            f"l2={self.l2_transactions} gbytes={self.global_bytes} "
            f"dram={self.dram_bytes} smem={self.shared_accesses} "
            f"(+{self.bank_conflict_extra} conflict) sync={self.barriers} "
            f"div={self.divergent_branches}"
        )
