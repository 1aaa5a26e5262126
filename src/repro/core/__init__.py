"""OFTEC core: the paper's contribution.

:class:`CoolingProblem` bundles the package thermal model, leakage
calibration, and a workload's dynamic power map with the optimization
limits; :class:`Evaluator` turns an operating point ``(omega, I_TEC)``
into the paper's two objectives (𝒯, max die temperature, and 𝒫, total
cooling-related power); :mod:`repro.core.solvers` implements
Optimization 1 and Optimization 2 with the active-set SQP backend (plus
the interior-point and grid-search comparison methods); and
:func:`run_oftec` is Algorithm 1.  Baseline controllers (variable-speed
fan, fixed-speed fan, TEC-only) and the forward-looking controllers the
paper sketches (lookup-table, transient boost, threshold/hysteresis) live
alongside.
"""

from .problem import CoolingProblem, ProblemLimits, build_cooling_problem
from .evaluator import Evaluation, EvaluationGradient, Evaluator
from .solvers import (
    OptimizationOutcome,
    minimize_power,
    minimize_temperature,
    SOLVER_METHODS,
)
from .oftec import OFTECResult, run_oftec
from .baselines import (
    BaselineResult,
    run_fixed_fan_baseline,
    run_tec_only,
    run_variable_fan_baseline,
)
from .lut import LookupTableController, LUTEntry
from .boost import TransientBoostPlan, plan_transient_boost
from .thresholds import (
    ThresholdControllerResult,
    run_hysteresis_controller,
    run_threshold_controller,
)
from .multichannel import (
    ChannelAssignment,
    EV6_DEFAULT_CHANNELS,
    MultiChannelEvaluator,
    MultiChannelResult,
    run_oftec_multichannel,
)
from .dvfs import (
    DVFSModel,
    ThrottleResult,
    find_max_frequency,
    scaled_problem,
)
from .resilient import (
    AttemptRecord,
    FailureReport,
    ResilientOutcome,
    ResilientSolver,
    failure_report_from_exception,
)
from .robust import EnvelopeEvaluator, RobustResult, run_oftec_robust
from .placement import (
    CMP4_ADJACENCY,
    PlacementResult,
    optimize_thread_placement,
    placement_spread_score,
)
from .online import (
    IntervalDecision,
    OnlineControlResult,
    lut_policy,
    reoptimize_policy,
    run_online_controller,
    static_policy,
)

__all__ = [
    "CoolingProblem",
    "ProblemLimits",
    "build_cooling_problem",
    "Evaluation",
    "EvaluationGradient",
    "Evaluator",
    "OptimizationOutcome",
    "minimize_power",
    "minimize_temperature",
    "SOLVER_METHODS",
    "OFTECResult",
    "run_oftec",
    "BaselineResult",
    "run_variable_fan_baseline",
    "run_fixed_fan_baseline",
    "run_tec_only",
    "LookupTableController",
    "LUTEntry",
    "TransientBoostPlan",
    "plan_transient_boost",
    "ThresholdControllerResult",
    "run_threshold_controller",
    "run_hysteresis_controller",
    "ChannelAssignment",
    "EV6_DEFAULT_CHANNELS",
    "MultiChannelEvaluator",
    "MultiChannelResult",
    "run_oftec_multichannel",
    "DVFSModel",
    "ThrottleResult",
    "find_max_frequency",
    "scaled_problem",
    "AttemptRecord",
    "FailureReport",
    "ResilientOutcome",
    "ResilientSolver",
    "failure_report_from_exception",
    "EnvelopeEvaluator",
    "RobustResult",
    "run_oftec_robust",
    "CMP4_ADJACENCY",
    "PlacementResult",
    "optimize_thread_placement",
    "placement_spread_score",
    "IntervalDecision",
    "OnlineControlResult",
    "static_policy",
    "lut_policy",
    "reoptimize_policy",
    "run_online_controller",
]
