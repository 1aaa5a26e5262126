"""Algorithm 1 (OFTEC) end-to-end behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import run_oftec
from repro.core import Evaluator, ProblemLimits, build_cooling_problem
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyEvaluator,
)


class TestLightWorkload:
    def test_feasible_and_constrained(self, tec_problem):
        result = run_oftec(tec_problem)
        assert result.feasible
        assert result.max_chip_temperature < tec_problem.limits.t_max

    def test_midpoint_already_feasible_skips_opt2(self, tec_problem):
        # Light workloads are feasible at (omega_max/2, I_max/2), so
        # Algorithm 1 should go straight to Optimization 1.
        result = run_oftec(tec_problem)
        assert result.opt2 is None
        assert result.opt1 is not None
        # A healthy run stops at the ladder's first attempt.
        assert [(a.method, a.retry, a.success)
                for a in result.attempts] == [("slsqp", 0, True)]
        assert result.failures == []

    def test_operating_point_within_bounds(self, tec_problem):
        result = run_oftec(tec_problem)
        limits = tec_problem.limits
        assert 0.0 <= result.omega_star <= limits.omega_max
        assert 0.0 <= result.current_star <= limits.i_tec_max

    def test_runtime_recorded(self, tec_problem):
        result = run_oftec(tec_problem)
        assert result.runtime_seconds > 0.0
        assert result.thermal_solves > 0

    def test_result_accessors(self, tec_problem):
        result = run_oftec(tec_problem)
        assert result.total_power == result.evaluation.total_power
        assert result.max_chip_temperature == \
            result.evaluation.max_chip_temperature
        assert result.problem_name == "basicmath"


class TestHeavyWorkload:
    @pytest.fixture(scope="class")
    def tight_problem(self, heavy_tec_problem):
        """A problem whose midpoint violates T_max but is rescuable.

        T_max is placed between the Optimization 2 minimum and the
        midpoint temperature, so Algorithm 1 lines 2-3 must engage.
        """
        from repro.core import minimize_temperature
        evaluator = Evaluator(heavy_tec_problem)
        limits = heavy_tec_problem.limits
        midpoint = evaluator.evaluate(limits.omega_max / 2.0,
                                      limits.i_tec_max / 2.0)
        coolest = minimize_temperature(evaluator)
        t_mid = midpoint.max_chip_temperature
        t_min = coolest.evaluation.max_chip_temperature
        assert t_min < t_mid
        tight = ProblemLimits(t_max=(t_min + t_mid) / 2.0,
                              omega_max=limits.omega_max,
                              i_tec_max=limits.i_tec_max)
        from repro.core import CoolingProblem
        return CoolingProblem(
            heavy_tec_problem.name, heavy_tec_problem.model,
            heavy_tec_problem.leakage, heavy_tec_problem.fan,
            heavy_tec_problem.dynamic_cell_power, tight,
            heavy_tec_problem.coverage)

    def test_feasible_via_opt2(self, tight_problem):
        # The midpoint violates T_max; Algorithm 1 lines 2-3 must kick
        # in and still find a feasible point.
        result = run_oftec(tight_problem)
        assert result.feasible
        assert result.opt2 is not None

    def test_constraint_rides_near_active(self, tight_problem):
        # Optimization 1 trades temperature headroom for power: with a
        # tight threshold the thermal constraint ends up near-active.
        result = run_oftec(tight_problem)
        t_max = tight_problem.limits.t_max
        assert result.max_chip_temperature < t_max
        assert result.max_chip_temperature > t_max - 5.0

    def test_nonzero_tec_current(self, tight_problem):
        # Without TEC help the tight threshold is unreachable, so I* > 0.
        result = run_oftec(tight_problem)
        assert result.current_star > 0.05


class TestInfeasible:
    @pytest.fixture(scope="class")
    def impossible_problem(self, profiles):
        # A T_max below ambient is unreachable by any cooling effort.
        limits = ProblemLimits(t_max=310.0)
        return build_cooling_problem(profiles["quicksort"],
                                     limits=limits, grid_resolution=4)

    def test_returns_failed(self, impossible_problem):
        result = run_oftec(impossible_problem)
        assert not result.feasible
        assert result.opt1 is None


class TestSolverBreakdown:
    def test_timeout_inside_opt1_falls_down_the_ladder(self,
                                                      tec_problem):
        # Call 0 of the timeout stream is the midpoint's solve (light
        # workload: feasible, so no Optimization 2); call 1 is the
        # first fresh solve of Optimization 1's SLSQP attempt.
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind=FaultKind.SOLVE_TIMEOUT, rate=1.0,
                      start_call=1, max_fires=1),))
        faulty = FaultyEvaluator(tec_problem, FaultInjector(plan))
        result = run_oftec(tec_problem, evaluator=faulty)
        assert faulty.injector.fired_counts() == {"solve-timeout": 1}
        assert result.feasible
        assert result.opt2 is None and result.opt1 is not None
        first = result.attempts[0]
        assert (first.method, first.retry, first.success,
                first.error_type) \
            == ("slsqp", 0, False, "SolveTimeoutError")
        assert result.attempts[-1].success
        assert result.failures == []


class TestEvaluatorReuse:
    def test_shared_evaluator_cache(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        first = run_oftec(tec_problem, evaluator=evaluator)
        solves_after_first = evaluator.solve_count
        second = run_oftec(tec_problem, evaluator=evaluator)
        # The second run replays mostly cached evaluations.
        assert evaluator.solve_count - solves_after_first < \
            solves_after_first
        assert second.omega_star == pytest.approx(first.omega_star,
                                                  rel=0.05)


#: Runs Algorithm 1 on every MiBench profile at the 6x6 grid (whose
#: band factor has the periphery as its border) and prints each
#: result's operating point, temperature, power and solve count in hex.
_OFTEC_DIGEST_SCRIPT = """
from repro import build_cooling_problem, mibench_profiles, run_oftec
for name, profile in mibench_profiles().items():
    problem = build_cooling_problem(profile, grid_resolution=6)
    assert problem.model.network.operator._layout.border > 0
    result = run_oftec(problem)
    print(name, *(float(value).hex() for value in (
        result.omega_star, result.current_star,
        result.max_chip_temperature, result.total_power)),
        result.thermal_solves)
"""


class TestBlasThreads:
    def test_results_independent_of_openblas_threads(self):
        # The band factor, its back-solves and the SQP backend all run
        # at one OpenBLAS thread, so one and two threads agree bit for
        # bit.
        source = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            completed = subprocess.run(
                [sys.executable, "-c", _OFTEC_DIGEST_SCRIPT],
                capture_output=True, text=True, timeout=600,
                env={**os.environ, "PYTHONPATH": source,
                     "OPENBLAS_NUM_THREADS": threads})
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert len(outputs[0].splitlines()) == 8
        assert outputs[0] == outputs[1]
