"""Known-bad fixture for RPR504 (telemetry-hot-loop)."""

from repro.obs import runtime as _obs
from repro.obs.clock import stopwatch


def solve_traced(operator, loads):
    _obs.span("solve")  # BAD: context manager discarded
    return operator.solve(loads)


def time_assembly(assembler):
    stopwatch("assembly_seconds")  # BAD: watch discarded
    return assembler.build()
