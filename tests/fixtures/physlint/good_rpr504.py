"""Known-good fixture for RPR504 (telemetry-hot-loop)."""

from repro.obs import runtime as _obs
from repro.obs.clock import stopwatch


def solve_traced(operator, loads):
    with _obs.span("solve"):
        return operator.solve(loads)


def time_assembly(assembler):
    watch = stopwatch("assembly_seconds")
    with watch:
        return assembler.build()
