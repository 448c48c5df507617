"""Run one testsuite case under a compiler profile and verify it.

Mirrors the paper's methodology (§4): run the reduction on the (simulated)
accelerator, compute the same reduction on the CPU, compare.  A mismatch is
a FAIL ("implementation issue"); a :class:`~repro.errors.CompileError` is a
CE; both map onto Table 2's cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import acc
from repro.errors import CompileError
from repro.testsuite.cases import ReductionCase

__all__ = ["CaseResult", "run_case"]

#: status values (Table 2 vocabulary)
PASS, FAIL, CE = "pass", "F", "CE"


@dataclass
class CaseResult:
    """Outcome of one (case, compiler) run."""

    case: ReductionCase
    compiler: str
    status: str  # "pass" | "F" | "CE"
    modeled_ms: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def cell(self) -> str:
        """Table-2-style cell: time in ms, or F/CE."""
        if self.status == PASS:
            return f"{self.modeled_ms:.2f}"
        return self.status


def _matches(expected, got, ctype: str) -> bool:
    if ctype in ("float", "double"):
        rtol = 1e-5 if ctype == "float" else 1e-9
        return np.allclose(got, expected, rtol=rtol, atol=0)
    return np.array_equal(got, expected)


def run_case(case: ReductionCase, compiler: str = "openuh", *,
             num_gangs: int | None = None, num_workers: int | None = None,
             vector_length: int | None = None, seed: int = 42,
             executor_mode: str | None = None,
             block_batch: int | None = None, attribution: bool = False,
             **compile_overrides) -> CaseResult:
    """Compile and run one case; verify against the CPU reference.

    An enclosing ``with Profiler():`` captures the case's compile phases,
    transfers, and kernel launches like any other run.
    ``executor_mode`` / ``block_batch`` select the simulator's executor
    path (see :meth:`repro.gpu.executor.CompiledKernel.run`); results are
    identical either way, only wall-clock differs.  ``attribution=True``
    fills per-statement tables on every launch's stats (visible through
    kernel records of an enclosing profiler).
    """
    name = compiler if isinstance(compiler, str) else compiler.name
    try:
        prog = acc.compile(case.source, compiler=compiler,
                           num_gangs=num_gangs, num_workers=num_workers,
                           vector_length=vector_length,
                           **compile_overrides)
    except CompileError as exc:
        return CaseResult(case, name, CE, detail=str(exc))

    rng = np.random.default_rng(seed)
    inputs = case.make_inputs(rng)
    result = prog.run(executor_mode=executor_mode,
                      block_batch=block_batch, attribution=attribution,
                      **inputs)

    for kind, varname, expected in case.expected(inputs):
        got = (result.scalars[varname] if kind == "scalar"
               else result.outputs[varname])
        if not _matches(expected, got, case.ctype):
            detail = (f"{varname}: expected "
                      f"{np.asarray(expected).ravel()[:4]}..., got "
                      f"{np.asarray(got).ravel()[:4]}...")
            return CaseResult(case, name, FAIL,
                              modeled_ms=result.kernel_ms, detail=detail)
    return CaseResult(case, name, PASS, modeled_ms=result.kernel_ms)
