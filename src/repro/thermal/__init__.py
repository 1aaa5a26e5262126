"""Compact thermal-network substrate (Section 4 of the paper).

Implements the electrical-dual RC model: :class:`ThermalNetwork` is the
generic sparse node/conductance graph with a static base matrix and
per-evaluation diagonal/RHS overlays; :class:`PackageThermalModel`
(built by :func:`build_package_model`) instantiates the seven-layer
Figure 2 assembly — including the three TEC sub-layers of Figure 4 and the
fan-speed-dependent sink-to-ambient coupling of Equation (9) — and solves
the steady state ``G(omega) T = P(omega, I_TEC)`` with the leakage
relinearization loop and thermal-runaway detection.  A backward-Euler
transient solver supports the controller studies.
"""

from .network import ThermalNetwork, NodeKind, condition_estimate
from .operator import (
    Factorization,
    KrylovState,
    OperatorStats,
    ThermalOperator,
)
from .adjoint import SteadyStateGradients, steady_state_gradients
from .assembly import PackageThermalModel, build_package_model, \
    PackageModelConfig
from .solver import (
    SolveContext,
    SolveStats,
    SteadyStateResult,
    solve_steady_state,
    solve_steady_state_batch,
)
from .transient import TransientResult, simulate_transient
from .validation import (
    StackProfile,
    format_stack_profile,
    layer_vertical_resistances,
    one_dimensional_stack_profile,
)
from .spice import export_spice_netlist, parse_netlist_system
from .sensors import Sensor, SensorArray, recommended_guard_band
from .timeconstants import (
    TimeConstantAnalysis,
    boost_window_recommendation,
    extract_time_constants,
)

__all__ = [
    "ThermalNetwork",
    "NodeKind",
    "condition_estimate",
    "Factorization",
    "KrylovState",
    "OperatorStats",
    "ThermalOperator",
    "PackageThermalModel",
    "build_package_model",
    "PackageModelConfig",
    "SolveContext",
    "SteadyStateGradients",
    "steady_state_gradients",
    "SteadyStateResult",
    "SolveStats",
    "solve_steady_state",
    "solve_steady_state_batch",
    "TransientResult",
    "simulate_transient",
    "StackProfile",
    "format_stack_profile",
    "layer_vertical_resistances",
    "one_dimensional_stack_profile",
    "export_spice_netlist",
    "parse_netlist_system",
    "Sensor",
    "SensorArray",
    "recommended_guard_band",
    "TimeConstantAnalysis",
    "boost_window_recommendation",
    "extract_time_constants",
]
