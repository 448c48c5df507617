"""Analytic timing model: kernel execution counters → modeled time.

The contract (also stated in DESIGN.md): for one kernel launch,

* compute cost  = ``warp_inst_slots × issue_cycles``
* global memory = ``global_transactions × global_segment_cycles``, bounded
  below by the DRAM bandwidth (``global_bytes / dram_bandwidth``)
* shared memory = ``shared_accesses × shared_access_cycles`` (conflict
  serialization is already folded into the access count)
* barriers      = ``barriers × sync_cycles``

These per-block-aggregate cycles are divided by the number of concurrently
resident blocks (occupancy from threads/block and shared-memory footprint,
over the *usable* SMs — the paper assumes 12 of the K20c's 13), modeling
wave-style block scheduling, then converted to microseconds at the device
clock and topped with the fixed kernel-launch overhead.

Host↔device transfers are charged at PCIe bandwidth plus a fixed latency.

Absolute numbers are a model; the reproduction targets are the *ratios*
between strategies, which are driven by the counters (transactions,
conflicts, barrier counts, extra kernel launches) the strategies differ in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.device import DeviceProperties
from repro.gpu.events import KernelStats

__all__ = ["CostModel", "LAUNCH_SID", "TimeBreakdown",
           "estimate_reduction_strategies"]

#: pseudo-statement id carrying the fixed kernel-launch overhead in
#: per-statement time apportionment (no real statement has sid < 0)
LAUNCH_SID = -1


@dataclass
class TimeBreakdown:
    """Modeled time of one launch, split by component (microseconds)."""

    launch_us: float = 0.0
    compute_us: float = 0.0
    global_us: float = 0.0
    shared_us: float = 0.0
    sync_us: float = 0.0
    bandwidth_floor_us: float = 0.0
    concurrency: int = 1

    @property
    def total_us(self) -> float:
        busy = self.compute_us + self.global_us + self.shared_us + self.sync_us
        return self.launch_us + max(busy, self.bandwidth_floor_us)


@dataclass
class CostModel:
    """Converts :class:`KernelStats` into modeled microseconds."""

    device: DeviceProperties

    def kernel_time(self, stats: KernelStats) -> TimeBreakdown:
        d = self.device
        conc = min(
            max(1, stats.blocks),
            d.concurrent_blocks(max(1, stats.threads_per_block),
                                stats.shared_bytes),
        )
        cycles_to_us = 1.0 / (d.clock_ghz * 1000.0)

        def us(cycles: float) -> float:
            return cycles / conc * cycles_to_us

        bw_bytes_per_us = d.dram_bandwidth_gbps * 1000.0  # GB/s == bytes/ns
        return TimeBreakdown(
            launch_us=d.kernel_launch_us,
            compute_us=us(stats.warp_inst_slots * d.issue_cycles),
            global_us=us(stats.global_transactions * d.global_segment_cycles
                         + stats.l2_transactions * d.l2_segment_cycles),
            shared_us=us(stats.shared_accesses * d.shared_access_cycles),
            sync_us=us(stats.barriers * d.sync_cycles),
            bandwidth_floor_us=stats.dram_bytes / bw_bytes_per_us,
            concurrency=conc,
        )

    def stmt_times(self, stats: KernelStats) -> dict[int, float]:
        """Apportion :meth:`kernel_time` across statements (sid → µs).

        Each attribution row is charged the same per-unit cycle costs the
        kernel-level model uses (issue, global/L2 segments, shared
        accesses, barrier waits); because the per-column row sums equal
        the kernel counters exactly, the rows' busy cycles sum to the
        kernel's.  The busy-or-bandwidth-bound portion of the total
        (``total_us - launch_us`` — which silently absorbs the DRAM
        bandwidth floor when it binds) is then split in proportion to
        each row's cycles, the fixed launch overhead becomes a pseudo-row
        under :data:`LAUNCH_SID`, and the float residual is folded into
        the largest row, so the returned values sum to
        ``kernel_time(stats).total_us`` to within an ulp.

        Requires ``stats.attribution`` (run with ``attribution=True``).
        """
        if stats.attribution is None:
            raise ValueError("stats has no attribution table; run the "
                             "kernel with attribution=True")
        d = self.device
        tb = self.kernel_time(stats)
        cycles = {
            sid: (r.warp_slots * d.issue_cycles
                  + r.global_transactions * d.global_segment_cycles
                  + r.l2_transactions * d.l2_segment_cycles
                  + r.shared_accesses * d.shared_access_cycles
                  + r.barrier_arrivals * d.sync_cycles)
            for sid, r in sorted(stats.attribution.rows.items())
        }
        out: dict[int, float] = {LAUNCH_SID: tb.launch_us}
        busy = sum(cycles.values())
        if busy > 0:
            scale = (tb.total_us - tb.launch_us) / busy
            for sid, c in cycles.items():
                out[sid] = c * scale
        residual = tb.total_us - sum(out.values())
        out[max(out, key=out.get)] += residual
        return out

    def transfer_time(self, nbytes: int) -> float:
        """Modeled host↔device copy time in microseconds."""
        d = self.device
        return d.pcie_latency_us + nbytes / (d.pcie_bandwidth_gbps * 1000.0)


def _logstep_profile(width: int, elide_warp_sync: bool,
                     warp_size: int = 32) -> tuple[int, int]:
    """(combining steps, barriers) of one log-step tree over ``width``,
    mirroring the sync-emission rules of ``codegen.reduction.logstep``."""
    if width <= 1:
        return 0, 0
    p = 1
    while p * 2 <= width:
        p *= 2
    rem = width - p
    steps, syncs = 0, 1  # the leading barrier ordering the staging stores
    if rem:
        steps += 1
        if not elide_warp_sync or max(rem, p // 2) > warp_size:
            syncs += 1
    s = p // 2
    while s >= 1:
        steps += 1
        if s > 1 and (not elide_warp_sync or s > warp_size):
            syncs += 1
        s //= 2
    return steps, syncs


def estimate_reduction_strategies(
    device: DeviceProperties,
    geom,
    *,
    dtype,
    partials: int = 0,
    vector_candidates: tuple[str, ...] = (),
    gang_candidates: tuple[str, ...] = (),
    finish_block_size: int = 256,
    elide_warp_sync: bool = True,
    cascade: bool = False,
) -> dict[str, dict[str, float]]:
    """Analytically price reduction-strategy candidates (µs per launch grid).

    The autotune pass calls this per reduction variable with the candidate
    values that are *legal* for it (gating — exact-combine operators,
    power-of-two widths, atomic-capable operators — is the caller's job).
    Candidates are priced by synthesizing coarse :class:`KernelStats` for
    just the reduction portion of the kernel and running them through the
    same :class:`CostModel` the simulator charges, so the comparison uses
    the device's actual cycle ratios rather than a second ad-hoc model.
    Absolute values are rough; only the per-field ordering is consumed.

    Returns ``{field: {candidate: modeled_us}}`` for each field with ≥1
    candidate: ``vector_strategy`` (``logstep`` | ``shuffle``) and
    ``gang_partial_style`` (``buffer`` | ``atomic``, where ``buffer``
    includes the extra finish-kernel launch over ``partials`` staged
    values).

    ``cascade=True`` adds ``cascade_fusion`` with ``fused`` vs
    ``unfused`` prices for a reduce→consume handoff across two kernel
    stages: ``unfused`` is the separate finish launch plus the host
    reading the result between the stage launches; ``fused`` is every
    consumer-stage block redundantly replaying the finish combine tree
    (no launch, no intermediate read — the result read moves after the
    last stage, so it still appears once in both prices).
    """
    cm = CostModel(device)
    blocks = geom.num_gangs
    tpb = geom.threads_per_block
    warps = max(1, -(-tpb // device.warp_size))
    itemsize = dtype.itemsize
    out: dict[str, dict[str, float]] = {}

    if vector_candidates:
        width = geom.vector_length if geom.vector_length > 1 else tpb
        est: dict[str, float] = {}
        for cand in vector_candidates:
            if cand == "logstep":
                steps, syncs = _logstep_profile(width, elide_warp_sync,
                                                device.warp_size)
                stats = KernelStats(
                    blocks=blocks, threads_per_block=tpb,
                    shared_bytes=tpb * itemsize,
                    # staging store + 3 accesses per combining step, per warp
                    shared_accesses=(1 + 3 * steps) * warps,
                    warp_inst_slots=2 * steps * warps,
                    barriers=syncs)
            elif cand == "shuffle":
                lanes = min(width, device.warp_size)
                shfl_steps = max(1, lanes.bit_length() - 1)
                nw = max(1, width // device.warp_size)
                cross = nw > 1
                stats = KernelStats(
                    blocks=blocks, threads_per_block=tpb,
                    shared_bytes=(nw * itemsize if cross else 0),
                    # one shfl + one combine slot per step per warp, plus
                    # the cross-warp shared-memory handoff when nw > 1
                    warp_inst_slots=2 * shfl_steps * warps * (2 if cross
                                                              else 1),
                    shared_accesses=(3 * warps if cross else 0),
                    barriers=(2 if cross else 0))
            else:  # pragma: no cover - caller passes known candidates
                continue
            est[cand] = cm.kernel_time(stats).total_us
        out["vector_strategy"] = est

    if gang_candidates:
        est = {}
        fbs = finish_block_size
        fwarps = max(1, -(-fbs // device.warp_size))
        n = max(1, partials)
        for cand in gang_candidates:
            if cand == "buffer":
                # one extra launch: strided accumulation over the partial
                # buffer, then a log-step tree over the staged block
                steps, syncs = _logstep_profile(fbs, elide_warp_sync,
                                                device.warp_size)
                rounds = -(-n // fbs)
                stats = KernelStats(
                    blocks=1, threads_per_block=fbs,
                    shared_bytes=fbs * itemsize,
                    global_transactions=rounds * fwarps,
                    global_bytes=n * itemsize,
                    dram_bytes=n * itemsize,
                    shared_accesses=(1 + 3 * steps) * fwarps,
                    warp_inst_slots=(3 * rounds + 2 * steps) * fwarps,
                    barriers=syncs)
                est[cand] = cm.kernel_time(stats).total_us
            elif cand == "atomic":
                # no extra launch; the device serializes one RMW round per
                # contending gang, so drop the launch term from the model
                stats = KernelStats(
                    blocks=1, threads_per_block=device.warp_size,
                    global_transactions=2 * blocks,
                    global_bytes=blocks * itemsize,
                    dram_bytes=blocks * itemsize,
                    warp_inst_slots=blocks)
                tb = cm.kernel_time(stats)
                est[cand] = tb.total_us - tb.launch_us
            else:  # pragma: no cover - caller passes known candidates
                continue
        out["gang_partial_style"] = est

    if cascade:
        fbs = finish_block_size
        fwarps = max(1, -(-fbs // device.warp_size))
        n = max(1, partials)
        steps, syncs = _logstep_profile(fbs, elide_warp_sync,
                                        device.warp_size)
        rounds = -(-n // fbs)
        # unfused: the dedicated finish launch (single block) + the host
        # reading the finished scalar before the next stage can launch
        fin = KernelStats(
            blocks=1, threads_per_block=fbs,
            shared_bytes=fbs * itemsize,
            global_transactions=rounds * fwarps,
            global_bytes=n * itemsize,
            dram_bytes=n * itemsize,
            shared_accesses=(1 + 3 * steps) * fwarps,
            warp_inst_slots=(3 * rounds + 2 * steps) * fwarps,
            barriers=syncs)
        unfused = (cm.kernel_time(fin).total_us
                   + cm.transfer_time(itemsize))
        # fused: the same combine tree replayed redundantly by every
        # consumer block at the main geometry.  The partial buffer is
        # re-read per block but stays hot in L2 after the first wave,
        # so DRAM is charged once; no launch overhead, and the result
        # read happens after the final stage either way.
        rep = KernelStats(
            blocks=blocks, threads_per_block=tpb,
            shared_bytes=fbs * itemsize,
            global_transactions=rounds * fwarps * blocks,
            global_bytes=n * itemsize * blocks,
            dram_bytes=n * itemsize,
            shared_accesses=(1 + 3 * steps) * fwarps * blocks,
            warp_inst_slots=(3 * rounds + 2 * steps) * fwarps * blocks,
            barriers=(syncs + 1) * blocks)
        tb = cm.kernel_time(rep)
        out["cascade_fusion"] = {"unfused": unfused,
                                 "fused": tb.total_us - tb.launch_us}

    return out


@dataclass
class TimingLedger:
    """Accumulates modeled time across the kernels/transfers of one run.

    Programs append entries as they execute; reports and benchmarks read the
    totals.  Times are microseconds.
    """

    entries: list[tuple[str, float]] = field(default_factory=list)

    def add(self, label: str, us: float) -> None:
        self.entries.append((label, float(us)))

    @property
    def total_us(self) -> float:
        return sum(t for _, t in self.entries)

    @property
    def total_ms(self) -> float:
        return self.total_us / 1000.0

    def by_label(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, t in self.entries:
            out[label] = out.get(label, 0.0) + t
        return out

    def format_report(self) -> str:
        """Aligned per-label table: count, total, and share of each label.

        Labels repeat across iterative launches (``kernel:acc_region_main``
        once per iteration), so rows aggregate by label and keep the count.
        Rows are sorted most-expensive first, ties broken by label, so the
        report is stable across dict insertion order.  Used by the
        profile text report (``repro.obs.report``).
        """
        totals = self.by_label()
        counts: dict[str, int] = {}
        for label, _ in self.entries:
            counts[label] = counts.get(label, 0) + 1
        grand = self.total_us
        lines = []
        for label, t in sorted(totals.items(),
                               key=lambda kv: (-kv[1], kv[0])):
            share = f"{100.0 * t / grand:5.1f}%" if grand > 0 else "    -"
            lines.append(f"  {label:<40s} x{counts[label]:<5d}"
                         f"{t:12.2f} us {share}")
        lines.append(f"  {'TOTAL':<46s}{grand:12.2f} us")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format_report()
