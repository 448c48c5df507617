"""Shared helpers for the benchmark harnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["ProfileSink", "Series", "format_series", "speedup_note"]


@dataclass
class Series:
    """One plotted series: label → (x, value-or-status) points."""

    label: str
    points: list[tuple[object, object]] = field(default_factory=list)

    def add(self, x, value) -> None:
        self.points.append((x, value))


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def format_series(title: str, series: list[Series],
                  xlabel: str = "x", unit: str = "modeled ms") -> str:
    """Render series as an aligned text table (one row per x value)."""
    xs: list[object] = []
    for s in series:
        for x, _ in s.points:
            if x not in xs:
                xs.append(x)
    cells = [v for s in series for _, v in s.points]
    width = max(12,
                max((len(s.label) for s in series), default=12) + 2,
                max((len(_fmt_cell(v)) for v in cells), default=0) + 2)
    lines = [title, f"(values in {unit})",
             f"{xlabel:<16}" + "".join(f"{s.label:>{width}}" for s in series)]
    for x in xs:
        row = f"{str(x):<16}"
        for s in series:
            cell = dict(s.points).get(x, "-")
            row += f"{_fmt_cell(cell):>{width}}"
        lines.append(row)
    return "\n".join(lines)


def speedup_note(base: float, other: float) -> str:
    """Human-readable relative factor."""
    if base <= 0 or other <= 0:
        return "n/a"
    if other >= base:
        return f"{other / base:.2f}x slower"
    return f"{base / other:.2f}x faster"


class ProfileSink:
    """Optional machine-readable profile output for a bench run.

    Holds one :class:`repro.obs.Profiler` the bench enters around its
    sweep (every kernel launch and transfer accumulates into it) and
    writes the Chrome-trace profile document — plus a ``bench`` metadata
    block — next to the bench's text tables, e.g.
    ``artifacts/profile.json`` for ``--quick`` artifact runs.
    """

    def __init__(self, path: str):
        from repro.obs import Profiler
        self.path = path
        self.profiler = Profiler()

    def write(self, meta: dict | None = None,
              truncated_by: BaseException | None = None) -> str:
        """Serialize the accumulated profile; returns the path written.

        ``truncated_by`` marks a flush from the error path: the sweep
        died mid-run, and the document carries whatever was captured up
        to the failure, stamped ``truncated`` (see
        :meth:`repro.obs.Profiler.to_dict`).
        """
        doc = self.profiler.to_dict(truncated_by=truncated_by)
        if meta:
            doc["bench"] = dict(meta)
        with open(self.path, "w") as f:
            json.dump(doc, f, indent=2)
        return self.path
