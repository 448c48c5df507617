"""Fig. 11 regenerator: per-position compiler comparison series.

The paper's Fig. 11 plots the testsuite data of Table 2 as one bar chart per
reduction position (a: gang, b: worker, c: vector, d: gang worker,
e: worker vector, f: gang worker vector, g: same-line gang worker vector),
with bars per (operator, data type, compiler).  Missing bars are failures.

Usage::

    python -m repro.bench.fig11 [--quick] [--positions gang worker ...]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.bench.harness import Series, format_series
from repro.testsuite import run_testsuite
from repro.testsuite.cases import BENCH_SIZES, POSITIONS

__all__ = ["generate_fig11", "SUBFIGURES"]

#: subfigure letter per position, as in the paper
SUBFIGURES = dict(zip(POSITIONS, "abcdefg"))


def generate_fig11(positions=POSITIONS, quick: bool = False,
                   ctypes=("int", "float", "double"), progress=None,
                   metrics=None):
    """Returns {position: TestsuiteReport-slice} rendered as series."""
    if quick:
        rep = run_testsuite(positions=positions, ctypes=ctypes, size=512,
                            num_gangs=8, num_workers=4, vector_length=32,
                            progress=progress, metrics=metrics)
    else:
        rep = run_testsuite(positions=positions, ctypes=ctypes,
                            sizes=BENCH_SIZES, progress=progress,
                            metrics=metrics)
    figures = {}
    for pos in positions:
        series = []
        for comp in rep.compilers:
            s = Series(label=comp)
            for r in rep.results:
                if r.case.position == pos and r.compiler == comp:
                    s.add(f"[{r.case.op}] {r.case.ctype}",
                          r.modeled_ms if r.passed else r.status)
            series.append(s)
        figures[pos] = series
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--positions", nargs="+", default=list(POSITIONS))
    ap.add_argument("--profile-out", metavar="PATH",
                    help="write a machine-readable profile of the sweep "
                         "(Chrome-trace JSON, e.g. artifacts/profile.json)")
    args = ap.parse_args(argv)
    t0 = time.time()
    sink = None
    if args.profile_out:
        from repro.bench.harness import ProfileSink
        sink = ProfileSink(args.profile_out)
    try:
        with sink.profiler if sink else contextlib.nullcontext():
            figures = generate_fig11(
                positions=tuple(args.positions), quick=args.quick,
                metrics=sink.profiler.metrics if sink else None)
    except BaseException as exc:
        # flush the partial trace (stamped truncated) on a failed sweep
        if sink is not None and not isinstance(exc, KeyboardInterrupt):
            path = sink.write({"bench": "fig11", "quick": args.quick,
                               "positions": list(args.positions)},
                              truncated_by=exc)
            print(f"[partial profile written to {path} (truncated)]",
                  file=sys.stderr)
        raise
    if sink is not None:
        path = sink.write({"bench": "fig11", "quick": args.quick,
                           "positions": list(args.positions)})
        print(f"[profile written to {path}]", file=sys.stderr)
    for pos, series in figures.items():
        letter = SUBFIGURES.get(pos, "?")
        print()
        print(format_series(
            f"Figure 11({letter}) — reduction in {pos}",
            series, xlabel="[op] dtype"))
    print(f"\n[{time.time() - t0:.1f}s wall]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
