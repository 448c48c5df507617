"""The interleaved log-step reduction (paper Fig. 7, §3.1.1, §3.3).

Generates fully-unrolled kernel-IR statement sequences that reduce ``n``
values held in a shared-memory array down to one, halving the active lane
count each step.  The generator implements the paper's refinements:

* **Full unrolling** — the block size is bounded by 1024 threads, so all
  steps are emitted statically (§3.1.1: "we unroll all iterations").
* **Warp-aware synchronization elision** — once a step's producers and
  readers fit in one warp (distance ≤ 32 with warp-aligned rows), the
  barrier between steps is dropped (§3.1.2: no synchronization in the last
  6 iterations).  Pass ``elide_warp_sync=False`` to emit a barrier after
  every step — that is the baseline behaviour ablation A4 measures, and it
  is also what correctness requires when the row width is not a multiple of
  the warp size (§3.3's performance warning about non-multiple-of-32 vector
  sizes follows from this).
* **Non-power-of-two pre-fold** (§3.3) — when ``n`` is not a power of two,
  the ``n - p`` elements beyond the previous power of two ``p`` are first
  folded onto the head, exactly as the paper describes for 96 threads
  (fold 32 onto the first 32, then reduce 64).

The same generator serves every layout by parameterizing the element
addressing (``base + lane*stride``): row layout Fig. 6(c) uses stride 1;
the transposed layout Fig. 6(b) uses stride ``blockDim.y`` and pays for it
in shared-memory bank conflicts, which the simulator counts.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.dtypes import DType
from repro.errors import LoweringError
from repro.gpu import kernelir as K
from repro.codegen.reduction.operators import ReductionOperator

from repro.codegen.reduction.treeutil import prev_pow2

__all__ = ["LogStepReduction", "logstep_reduce", "prev_pow2"]


@dataclass
class LogStepReduction:
    """A generated reduction sequence and where its result lives."""

    stmts: tuple[K.Stmt, ...]
    result_index: K.Expr  # shared-array element index holding the result
    steps: int  # number of halving steps emitted (diagnostics/ablation)
    syncs: int  # number of barriers emitted (diagnostics/ablation)


def _idx(base: K.Expr | None, lane: K.Expr, stride: int) -> K.Expr:
    e = lane if stride == 1 else K.Bin("*", lane, K.const_int(stride))
    if base is None:
        return e
    return K.Bin("+", base, e)


def _guarded(cond: K.Expr, extra: K.Expr | None) -> K.Expr:
    return cond if extra is None else K.Bin("&&", extra, cond)


def logstep_reduce(
    arr: str,
    n: int,
    op: ReductionOperator,
    dtype: DType,
    *,
    lane: K.Expr,
    base: K.Expr | None = None,
    stride: int = 1,
    guard: K.Expr | None = None,
    elide_warp_sync: bool = True,
    warp_size: int = 32,
    leading_sync: bool = True,
    trailing_sync: bool = False,
    space: str = "shared",
    uid: Iterator[int] | None = None,
) -> LogStepReduction:
    """Emit an unrolled interleaved log-step reduction over ``n`` elements.

    Element ``k`` of the reduction lives at shared index ``base + k*stride``;
    lane ``k`` of the participating threads (selected by ``lane < k`` guards,
    optionally conjoined with ``guard``) owns element ``k``.

    ``leading_sync`` emits the barrier that orders the callers' partial
    stores before the first combining step; ``trailing_sync`` emits one
    after the last step so *other* threads may read the result.

    ``space`` selects where the staging buffer lives: ``"shared"``
    (default) or ``"global"`` — the §3.3 fallback for kernels whose shared
    memory is reserved for other computation (``arr`` then names a global
    buffer).

    ``uid`` numbers the temporaries ``_ls{u}_a``/``_ls{u}_b`` (default
    0): the lowering passes its per-compile counter, so names are unique
    within a compile and independent of earlier compiles.
    """
    if n < 1:
        raise LoweringError(f"cannot reduce {n} elements")
    if space not in ("shared", "global"):
        raise LoweringError(f"unknown reduction space {space!r}")
    u = next(uid) if uid is not None else 0
    t1, t2 = f"_ls{u}_a", f"_ls{u}_b"
    stmts: list[K.Stmt] = []
    syncs = 0
    steps = 0
    load = K.SLoad if space == "shared" else K.GLoad
    store = K.SStore if space == "shared" else K.GStore

    def combine_at(dst_lane: K.Expr, src_lane: K.Expr, active: K.Expr):
        return K.If(_guarded(active, guard), (
            load(t1, arr, _idx(base, dst_lane, stride)),
            load(t2, arr, _idx(base, src_lane, stride)),
            store(arr, _idx(base, dst_lane, stride),
                  op.combine(K.Reg(t1), K.Reg(t2), dtype)),
        ))

    if leading_sync:
        stmts.append(K.Sync())
        syncs += 1

    p = prev_pow2(n)
    rem = n - p
    if rem:
        stmts.append(K.Comment(
            f"pre-fold {rem} tail elements onto the head (n={n} -> {p})"))
        stmts.append(combine_at(lane, K.Bin("+", lane, K.const_int(p)),
                                K.Bin("<", lane, K.const_int(rem))))
        steps += 1
        if not elide_warp_sync or max(rem, p // 2) > warp_size:
            stmts.append(K.Sync())
            syncs += 1

    s = p // 2
    while s >= 1:
        stmts.append(combine_at(lane, K.Bin("+", lane, K.const_int(s)),
                                K.Bin("<", lane, K.const_int(s))))
        steps += 1
        if s > 1 and (not elide_warp_sync or s > warp_size):
            stmts.append(K.Sync())
            syncs += 1
        s //= 2

    if trailing_sync:
        stmts.append(K.Sync())
        syncs += 1

    return LogStepReduction(
        stmts=tuple(stmts),
        result_index=_idx(base, K.const_int(0), stride),
        steps=steps,
        syncs=syncs,
    )
