"""OFTEC: power-aware deployment and control of forced-convection and
thermoelectric coolers.

A from-scratch Python reproduction of Dousti & Pedram, DAC 2014.  The
package implements the full evaluation flow of the paper's Figure 5:

* a compact-RC package thermal model with TEC sub-layers
  (:mod:`repro.thermal`, :mod:`repro.materials`, :mod:`repro.geometry`),
* thermoelectric device/array models (:mod:`repro.tec`),
* fan and heat-sink conductance models (:mod:`repro.fan`),
* temperature-dependent leakage with the Equation (4) linearization
  (:mod:`repro.leakage`),
* synthetic MiBench-style workload power profiles (:mod:`repro.power`),
* the OFTEC optimizer, Algorithm 1, and the baseline controllers
  (:mod:`repro.core`), and
* sweep/campaign/reporting utilities (:mod:`repro.analysis`).

Quickstart::

    from repro import build_cooling_problem, run_oftec, mibench_profiles

    profile = mibench_profiles()["basicmath"]
    problem = build_cooling_problem(profile)
    result = run_oftec(problem)
    print(result.omega_star, result.current_star, result.total_power)
"""

from .constants import I_TEC_MAX, OMEGA_MAX, T_AMBIENT, T_MAX
from .core import (
    CoolingProblem,
    Evaluation,
    Evaluator,
    FailureReport,
    OFTECResult,
    ProblemLimits,
    build_cooling_problem,
    run_fixed_fan_baseline,
    run_oftec,
    run_tec_only,
    run_variable_fan_baseline,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    EvaluationBudgetError,
    FloorplanParseError,
    GeometryError,
    IndefiniteSystemError,
    JournalCorruptionError,
    JournalError,
    MaterialError,
    ReproError,
    SingularNetworkError,
    SolveTimeoutError,
    SolverError,
    ThermalRunawayError,
    WorkerCrashError,
)
from .power import BenchmarkProfile, mibench_profiles

__version__ = "1.30.0"

__all__ = [
    "I_TEC_MAX",
    "OMEGA_MAX",
    "T_AMBIENT",
    "T_MAX",
    "CoolingProblem",
    "Evaluation",
    "Evaluator",
    "OFTECResult",
    "ProblemLimits",
    "build_cooling_problem",
    "run_oftec",
    "FailureReport",
    "run_variable_fan_baseline",
    "run_fixed_fan_baseline",
    "run_tec_only",
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "FloorplanParseError",
    "MaterialError",
    "SolverError",
    "SingularNetworkError",
    "EvaluationBudgetError",
    "SolveTimeoutError",
    "ThermalRunawayError",
    "IndefiniteSystemError",
    "CalibrationError",
    "WorkerCrashError",
    "JournalError",
    "JournalCorruptionError",
    "BenchmarkProfile",
    "mibench_profiles",
    "__version__",
]
