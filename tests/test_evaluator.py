"""Evaluator: objectives, caching, clamping, runaway penalties."""

import numpy as np
import pytest

from repro.core import Evaluator
from repro.errors import ConfigurationError


class TestEvaluation:
    def test_total_power_decomposition(self, evaluator):
        ev = evaluator.evaluate(262.0, 1.0)
        assert ev.total_power == pytest.approx(
            ev.leakage_power + ev.tec_power + ev.fan_power)
        assert ev.cooling_power == pytest.approx(
            ev.tec_power + ev.fan_power)

    def test_fan_power_cubic(self, evaluator, tec_problem):
        ev = evaluator.evaluate(300.0, 0.0)
        assert ev.fan_power == pytest.approx(
            tec_problem.fan.power(300.0))

    def test_feasibility_flag(self, evaluator, tec_problem):
        ev = evaluator.evaluate(262.0, 1.0)
        assert ev.feasible == (ev.max_chip_temperature
                               < tec_problem.limits.t_max)

    def test_steady_attached(self, evaluator):
        ev = evaluator.evaluate(262.0, 0.5)
        assert ev.steady is not None
        assert ev.steady.omega == ev.omega

    def test_objectives_match_evaluation(self, evaluator):
        ev = evaluator.evaluate(200.0, 0.5)
        assert evaluator.temperature_objective(200.0, 0.5) == \
            ev.max_chip_temperature
        assert evaluator.power_objective(200.0, 0.5) == ev.total_power

    def test_thermal_margin_sign(self, evaluator, tec_problem):
        ev = evaluator.evaluate(262.0, 1.0)
        margin = evaluator.thermal_margin(262.0, 1.0)
        assert margin == pytest.approx(
            tec_problem.limits.t_max - ev.max_chip_temperature)


class TestCaching:
    def test_repeat_hits_cache(self, evaluator):
        evaluator.evaluate(262.0, 1.0)
        solves = evaluator.solve_count
        evaluator.evaluate(262.0, 1.0)
        assert evaluator.solve_count == solves
        assert evaluator.call_count == 2

    def test_clear_cache(self, evaluator):
        evaluator.evaluate(262.0, 1.0)
        evaluator.clear_cache()
        solves = evaluator.solve_count
        evaluator.evaluate(262.0, 1.0)
        assert evaluator.solve_count == solves + 1

    def test_distinct_points_resolve(self, evaluator):
        evaluator.evaluate(262.0, 1.0)
        solves = evaluator.solve_count
        evaluator.evaluate(263.0, 1.0)
        assert evaluator.solve_count == solves + 1


class TestCacheBounds:
    def test_cache_limit_validated(self, tec_problem):
        with pytest.raises(ConfigurationError):
            Evaluator(tec_problem, cache_limit=0)

    def test_cache_info_counters(self, evaluator):
        info = evaluator.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        assert info.limit == evaluator.cache_limit
        evaluator.evaluate(200.0, 1.0)
        evaluator.evaluate(200.0, 1.0)
        info = evaluator.cache_info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.size == 1
        assert info.evictions == 0

    def test_eviction_at_limit(self, tec_problem):
        evaluator = Evaluator(tec_problem, cache_limit=2)
        for omega in (200.0, 210.0, 220.0):
            evaluator.evaluate(omega, 1.0)
        info = evaluator.cache_info()
        assert info.size == 2
        assert info.evictions == 1
        # The oldest entry (omega = 200) was dropped: fresh solve.
        solves = evaluator.solve_count
        evaluator.evaluate(200.0, 1.0)
        assert evaluator.solve_count == solves + 1

    def test_recency_protects_hot_entry(self, tec_problem):
        evaluator = Evaluator(tec_problem, cache_limit=2)
        evaluator.evaluate(200.0, 1.0)
        evaluator.evaluate(210.0, 1.0)
        evaluator.evaluate(200.0, 1.0)  # refresh before the cap bites
        evaluator.evaluate(220.0, 1.0)  # evicts omega = 210 instead
        solves = evaluator.solve_count
        evaluator.evaluate(200.0, 1.0)
        assert evaluator.solve_count == solves

    def test_clear_cache_resets_warm_context(self, evaluator):
        evaluator.evaluate(200.0, 1.0)
        assert evaluator.context.warm_chip is not None
        evaluator.clear_cache()
        assert evaluator.context.warm_chip is None
        assert evaluator.cache_info().size == 0


class TestEvaluateMany:
    def test_matches_sequential_with_leakage(self, tec_problem):
        points = [(200.0, 1.0), (250.0, 0.5), (200.0, 1.0)]
        batched = Evaluator(tec_problem)
        sequential = Evaluator(tec_problem)
        many = batched.evaluate_many(points)
        singles = [sequential.evaluate(o, i) for o, i in points]
        for ours, theirs in zip(many, singles):
            assert ours.max_chip_temperature \
                == theirs.max_chip_temperature
            assert ours.total_power == theirs.total_power
        assert batched.solve_count == sequential.solve_count

    def test_batched_path_bitwise_matches_sequential(self, tec_problem):
        points = [(200.0, 1.0), (200.0, 1.0), (250.0, 0.5),
                  (200.0, 0.5)]
        batched = Evaluator(tec_problem)
        sequential = Evaluator(tec_problem)
        many = batched.evaluate_many(points)
        singles = [sequential.evaluate(o, i) for o, i in points]
        for ours, theirs in zip(many, singles):
            assert ours.max_chip_temperature \
                == theirs.max_chip_temperature
            assert ours.total_power == theirs.total_power
            assert (ours.steady.temperatures
                    == theirs.steady.temperatures).all()

    def test_batched_path_accounting(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        points = [(200.0, 1.0), (200.0, 1.0), (250.0, 0.5)]
        evaluator.evaluate_many(points)
        # Two distinct operating points: one solve each, and the
        # duplicate counts as the cache hit it would have been
        # sequentially.
        assert evaluator.solve_count == 2
        info = evaluator.cache_info()
        assert info.misses == 2
        assert info.hits == 1
        # A second pass is served entirely from the cache.
        evaluator.evaluate_many(points)
        assert evaluator.solve_count == 2
        assert evaluator.cache_info().hits == 4

    def test_budgeted_evaluator_falls_back(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        evaluator.set_solve_budget(1)
        from repro.errors import EvaluationBudgetError
        with pytest.raises(EvaluationBudgetError):
            evaluator.evaluate_many([(200.0, 1.0), (250.0, 0.5)])


class TestClamping:
    def test_omega_clamped(self, evaluator, tec_problem):
        ev = evaluator.evaluate(1e6, 0.0)
        assert ev.omega == tec_problem.limits.omega_max
        ev = evaluator.evaluate(-5.0, 0.5)
        assert ev.omega == 0.0

    def test_current_clamped(self, evaluator, tec_problem):
        ev = evaluator.evaluate(262.0, 99.0)
        assert ev.current == tec_problem.limits.i_tec_max

    def test_baseline_current_clamped_to_zero(self, baseline_problem):
        evaluator = Evaluator(baseline_problem)
        ev = evaluator.evaluate(262.0, 3.0)
        assert ev.current == 0.0


class TestRunawayPenalty:
    def test_runaway_flagged(self, heavy_tec_problem):
        evaluator = Evaluator(heavy_tec_problem)
        ev = evaluator.evaluate(0.0, 0.0)
        assert ev.runaway
        assert not ev.feasible
        assert ev.steady is None

    def test_penalty_values_large_but_finite(self, heavy_tec_problem):
        evaluator = Evaluator(heavy_tec_problem)
        ev = evaluator.evaluate(0.0, 0.0)
        assert np.isfinite(ev.max_chip_temperature)
        assert np.isfinite(ev.total_power)
        assert ev.max_chip_temperature > \
            heavy_tec_problem.limits.t_max + 50.0
        assert ev.total_power > 1e3

    def test_penalty_exceeds_any_feasible_power(self, heavy_tec_problem):
        evaluator = Evaluator(heavy_tec_problem)
        runaway = evaluator.evaluate(0.0, 0.0)
        feasible = evaluator.evaluate(400.0, 1.0)
        assert runaway.total_power > 10.0 * feasible.total_power
