"""ThermalOperator: structure/state split, warm solves, bit-identity.

The bit-identity tests here back the operator module's claim that the
cold build-once/update-many path (``splu`` through the precomputed
diagonal index map) reproduces the legacy construction (``spsolve`` on
a freshly assembled ``static + diag(overlay)``) bit for bit, fault-free,
across all eight MiBench benchmarks.  The tolerance gates back its
second claim: every full-tolerance warm solve (an exact repeat of the
held factor, or PCG preconditioned by it) stays within 1e-9 K of that
direct solve, and each of the leakage loop's loose Newton solves stays
within ten times the tolerance it asked for.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import spsolve

from repro import run_oftec
from repro.errors import (
    ConfigurationError,
    IndefiniteSystemError,
    SingularNetworkError,
    ThermalRunawayError,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
)
from repro.thermal import (
    KrylovState,
    OperatorStats,
    SolveContext,
    ThermalOperator,
    condition_estimate,
    solve_steady_state,
    solve_steady_state_batch,
)
from repro.thermal.operator import KRYLOV_TOLERANCE, NEWTON_TOLERANCE

BENCHMARKS = ("basicmath", "bitcount", "crc32", "djkstra", "fft",
              "quicksort", "stringsearch", "susan")

#: Operating points spanning the fan/TEC box for equivalence checks.
POINTS = ((180.0, 0.5), (320.0, 1.5))


def model_overlays(problem, omega, current):
    """Leakage-free (diag, rhs) copies for one operating point."""
    model = problem.model
    zeros = np.zeros(model.grid.cell_count)
    fan_power = problem.fan.power(omega)
    diag, rhs = model.overlays(
        omega, current, problem.dynamic_cell_power, zeros, zeros,
        sink_heat=problem.fan_heat_fraction * fan_power)
    # overlays() hands out views of reused buffers; copy to retain.
    return diag.copy(), rhs.copy()


def legacy_solve(network, overlay, rhs):
    """The pre-operator construction: assemble then spsolve."""
    matrix = network.static_matrix + diags(overlay, format="csr")
    return spsolve(matrix.tocsc(), rhs)


def fresh_operator(network):
    """Independent operator over a copy of the network's structure."""
    return ThermalOperator(network.static_matrix)


def grounded_laplacian(n=6, ground=1.0):
    """Path-graph Laplacian with one node tied to ambient, W/K."""
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    main[0] += ground
    off = np.full(n - 1, -1.0)
    return csr_matrix(diags([off, main, off], [-1, 0, 1]))


class TestStructure:
    def test_validation(self, tec_problem):
        with pytest.raises(ConfigurationError):
            ThermalOperator(csr_matrix(np.ones((2, 3))))

    def test_shape_checks(self, tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        n = operator.node_count
        with pytest.raises(ConfigurationError):
            operator.solve(np.zeros(n - 1), np.ones(n))
        with pytest.raises(ConfigurationError):
            operator.solve(np.zeros(n), np.ones(n - 1))

    def test_zero_static_diagonal_gets_a_slot(self):
        # An antisymmetric-coupling matrix with an empty diagonal: the
        # operator must still have diagonal storage for the overlay.
        static = csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        operator = ThermalOperator(static)
        overlay = np.array([3.0, 4.0])
        rhs = np.array([1.0, 2.0])
        expected = np.linalg.solve(
            static.toarray() + np.diag(overlay), rhs)
        np.testing.assert_allclose(operator.solve(overlay, rhs),
                                   expected, rtol=1e-12)


class TestBitIdentity:
    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_operator_matches_legacy_spsolve(self, tec_problem,
                                             profiles, workload):
        problem = tec_problem.with_profile(profiles[workload])
        network = problem.model.network
        for omega, current in POINTS:
            overlay, rhs = model_overlays(problem, omega, current)
            ours = network.solve(overlay, rhs)
            theirs = legacy_solve(network, overlay, rhs)
            assert (ours == theirs).all(), \
                f"{workload} at omega={omega}, I={current}"

    def test_repeated_solve_reuses_factor_bitwise(self, tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[1])
        warm = KrylovState()
        first = operator.solve(overlay, rhs, warm)
        second = operator.solve(overlay, rhs, warm)
        assert (first == second).all()
        assert (first == operator.solve(overlay, rhs)).all()
        assert operator.stats.factorizations == 2
        assert operator.stats.cache_hits == 1


class TestFactorCache:
    """The solve sequence's held factor: the only factor reuse left."""

    def test_hit_and_solve_counters(self, tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        warm = KrylovState()
        operator.solve(overlay, rhs, warm)
        operator.solve(overlay, 2.0 * rhs, warm)
        stats = operator.stats
        assert replace(stats, factor_seconds=0.0, solve_seconds=0.0) \
            == OperatorStats(solves=2, factorizations=1, cache_hits=1,
                             fresh_factorizations=1)
        # The first solve's wall time includes the factor it triggered.
        assert stats.solve_seconds > stats.factor_seconds > 0.0
        assert stats.reuse_ratio == 0.5

    def test_clear_drops_factors_keeps_counters(self, tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        context = SolveContext.for_model(tec_problem.model)
        operator.solve(overlay, rhs, context.krylov)
        context.reset()
        assert context.krylov.factor is None
        assert operator.stats.factorizations == 1
        operator.solve(overlay, rhs, context.krylov)
        assert operator.stats.factorizations == 2
        assert operator.stats.cache_hits == 0

    def test_reset_stats_keeps_factors(self, tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        warm = KrylovState()
        operator.solve(overlay, rhs, warm)
        operator.reset_stats()
        assert operator.stats == OperatorStats(0, 0, 0, 0)
        operator.solve(overlay, rhs, warm)
        assert operator.stats.cache_hits == 1
        assert operator.stats.factorizations == 0

    def test_operator_holds_no_factor_across_sequences(self,
                                                       tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        operator.solve(overlay, rhs, KrylovState())
        operator.solve(overlay, rhs, KrylovState())
        assert operator.stats.factorizations == 2
        assert operator.stats.cache_hits == 0

    def test_state_pickles_empty(self, tec_problem):
        import pickle

        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        context = SolveContext.for_model(tec_problem.model)
        operator.solve(overlay, rhs, context.krylov)
        clone = pickle.loads(pickle.dumps(context))
        assert clone.krylov.factor is None
        assert context.krylov.factor is not None


class TestFailurePaths:
    def test_singular_system_raises_typed_error(self):
        operator = ThermalOperator(grounded_laplacian(ground=0.0))
        n = operator.node_count
        with pytest.raises(SingularNetworkError) as excinfo:
            operator.solve(np.zeros(n), np.ones(n))
        error = excinfo.value
        assert "singular" in str(error) or "degenerate" in str(error)
        assert error.condition_estimate is not None

    def test_degenerate_growth_guard(self):
        # Factors fine, but one 1e-14 W/K path to ambient amplifies the
        # solution by ~1e14: the growth guard must reject it.
        operator = ThermalOperator(grounded_laplacian(ground=1e-14))
        n = operator.node_count
        with pytest.raises(SingularNetworkError, match="degenerate"):
            operator.solve(np.zeros(n), np.ones(n))

    def test_failures_are_not_cached(self):
        operator = ThermalOperator(grounded_laplacian(ground=1.0))
        n = operator.node_count
        warm = KrylovState()
        healthy = operator.solve(np.zeros(n), np.ones(n), warm)
        assert np.all(np.isfinite(healthy))
        held = warm.factor
        with pytest.raises(SingularNetworkError):
            # Cancel the grounding via the overlay: singular again.
            sabotage = np.zeros(n)
            sabotage[0] = -1.0
            operator.solve(sabotage, np.ones(n), warm)
        # The failed system never becomes the preconditioner.
        assert warm.factor is held

    def test_singular_psd_system_is_not_certified(self):
        # A floating path graph is exactly singular and PSD: on its null
        # direction PCG's curvature is rounding noise of either sign
        # (negative for these weights), which must not read as an
        # indefiniteness certificate.
        weights = np.array([0.67, 0.34, 0.14, 0.11, 0.83])
        n = weights.size + 1
        main = np.zeros(n)
        main[:-1] += weights
        main[1:] += weights
        operator = ThermalOperator(
            csr_matrix(diags([-weights, main, -weights], [-1, 0, 1])))
        warm = KrylovState()
        operator.solve(np.ones(n), np.ones(n), warm)
        before = operator.stats
        with pytest.raises(SingularNetworkError):
            operator.solve(np.zeros(n), np.ones(n), warm)
        assert operator.stats.krylov_iterations > before.krylov_iterations

    def test_condition_estimate_blows_up_when_singular(self):
        estimate = condition_estimate(grounded_laplacian(ground=0.0))
        assert estimate > 1e12
        healthy = condition_estimate(grounded_laplacian(ground=1.0))
        assert healthy < 1e6


class TestSolveContext:
    def test_warm_chip_follows_solves(self, tec_problem):
        problem = tec_problem
        context = SolveContext.for_model(problem.model)
        assert context.warm_chip is None
        result = solve_steady_state(
            problem.model, 250.0, 1.0, problem.dynamic_cell_power,
            problem.leakage, context=context)
        assert context.warm_chip is not None
        assert (context.warm_chip == result.chip_temperatures).all()
        context.reset()
        assert context.warm_chip is None

    def test_context_operator_is_shared_network_engine(self, tec_problem):
        context = SolveContext.for_model(tec_problem.model)
        assert context.operator is tec_problem.model.network.operator

    def test_warm_start_preserves_converged_result(self, tec_problem):
        problem = tec_problem
        cold = solve_steady_state(
            problem.model, 250.0, 1.0, problem.dynamic_cell_power,
            problem.leakage)
        context = SolveContext.for_model(problem.model)
        solve_steady_state(problem.model, 252.0, 1.0,
                           problem.dynamic_cell_power, problem.leakage,
                           context=context)
        warm = solve_steady_state(
            problem.model, 250.0, 1.0, problem.dynamic_cell_power,
            problem.leakage, context=context)
        # Warm starts change iteration counts, not the fixed point.
        assert warm.max_chip_temperature == pytest.approx(
            cold.max_chip_temperature, abs=2.0 *
            problem.model.config.leak_tolerance)


class TestBatchedSteadyState:
    def test_batch_matches_sequential_bitwise(self, tec_problem):
        problem = tec_problem
        points = [(200.0, 0.5), (200.0, 0.5), (300.0, 1.0)]
        batch = solve_steady_state_batch(
            problem.model, points, problem.dynamic_cell_power,
            leakage=None)
        for (omega, current), result in zip(points, batch):
            single = solve_steady_state(
                problem.model, omega, current,
                problem.dynamic_cell_power, leakage=None)
            assert (result.temperatures == single.temperatures).all()
            assert result.max_chip_temperature \
                == single.max_chip_temperature
            assert result.tec_power == single.tec_power

    def test_grouped_points_share_factorizations(self, tec_problem):
        problem = tec_problem
        operator = problem.model.network.operator
        # Same overlay, different RHS (sink heat): one factor, n solves.
        points = [(260.0, 0.75)] * 4
        before = operator.stats
        solve_steady_state_batch(
            problem.model, points, problem.dynamic_cell_power,
            leakage=None, sink_heats=[0.0, 1.0, 2.0, 3.0])
        after = operator.stats
        assert after.solves - before.solves == 4
        assert after.factorizations - before.factorizations <= 1

    def test_batch_isolates_runaway_points(self, heavy_tec_problem):
        problem = heavy_tec_problem
        points = [(0.0, 0.0), (400.0, 1.0)]
        results = solve_steady_state_batch(
            problem.model, points, problem.dynamic_cell_power,
            leakage=None)
        # omega = 0 has no sink coupling: unbounded, but contained.
        assert isinstance(results[0], Exception) \
            or results[0].max_chip_temperature > 400.0
        assert results[1].max_chip_temperature < 400.0

    def test_sink_heats_length_validated(self, tec_problem):
        with pytest.raises(ConfigurationError):
            solve_steady_state_batch(
                tec_problem.model, [(200.0, 0.5)],
                tec_problem.dynamic_cell_power, leakage=None,
                sink_heats=[0.0, 1.0])

    def test_leakage_batch_warm_chains_like_sequential(self,
                                                       tec_problem):
        problem = tec_problem
        points = [(220.0, 0.5), (240.0, 1.0)]
        batch_ctx = SolveContext.for_model(problem.model)
        batch = solve_steady_state_batch(
            problem.model, points, problem.dynamic_cell_power,
            leakage=problem.leakage, context=batch_ctx)
        seq_ctx = SolveContext.for_model(problem.model)
        for (omega, current), result in zip(points, batch):
            single = solve_steady_state(
                problem.model, omega, current,
                problem.dynamic_cell_power, leakage=problem.leakage,
                context=seq_ctx)
            assert (result.temperatures == single.temperatures).all()
        assert (batch_ctx.warm_chip == seq_ctx.warm_chip).all()


class TestFactorReuseWorkloads:
    def test_fewer_factorizations_than_solves_after_cache_clear(
            self, tec_problem):
        from repro.core import Evaluator

        evaluator = Evaluator(tec_problem)
        operator = evaluator.context.operator
        evaluator.evaluate(230.0, 0.8)
        mid = operator.stats
        # Dropping the evaluation cache drops the held factor too: the
        # rerun is a cold sequence that factors once and solves the
        # rest of its relinearized systems by PCG on that factor.
        evaluator.clear_cache()
        evaluator.evaluate(230.0, 0.8)
        after = operator.stats
        solves = after.solves - mid.solves
        assert solves > 1
        assert after.factorizations - mid.factorizations == 1
        assert after.krylov_solves - mid.krylov_solves == solves - 1


def direct_solve(network, overlay, rhs):
    """Reference: assemble ``static + diag(overlay)`` and spsolve."""
    matrix = (network.static_matrix + diags(overlay, format="csr")).tocsc()
    return spsolve(matrix, rhs)


class WarmSolveAudit:
    """Wraps one operator's solve entry points for a test and compares
    every warm result with the direct solve of the same system.

    Full-tolerance warm solves (every result a caller receives,
    including the leakage loop's polish) land in ``forward_error``;
    the loop's loose Newton solves are audited separately, each
    against the tolerance it asked for, in ``loose_ratio`` (largest
    error over requested tolerance).
    """

    def __init__(self, network, monkeypatch):
        self.forward_error = 0.0
        self.loose_ratio = 0.0
        self.adjoint_error = 0.0
        self.forward = 0
        self.loose = 0
        self.adjoint = 0
        operator = network.operator
        solve, solve_adjoint = operator.solve, operator.solve_adjoint

        def audited_solve(overlay, rhs, warm=None, *,
                          tolerance=KRYLOV_TOLERANCE):
            result = solve(overlay, rhs, warm, tolerance=tolerance)
            if warm is not None:
                error = float(np.abs(
                    result - direct_solve(network, overlay, rhs)).max())
                if tolerance == KRYLOV_TOLERANCE:
                    self.forward_error = max(self.forward_error, error)
                    self.forward += 1
                else:
                    assert tolerance >= NEWTON_TOLERANCE
                    self.loose_ratio = max(self.loose_ratio,
                                           error / tolerance)
                    self.loose += 1
            return result

        def audited_adjoint(overlay, rhs, warm=None):
            result = solve_adjoint(overlay, rhs, warm)
            exact = np.column_stack([direct_solve(network, overlay, col)
                                     for col in rhs.T])
            relative = np.abs(result - exact).max(axis=0) \
                / np.abs(exact).max(axis=0)
            self.adjoint_error = max(self.adjoint_error,
                                     float(relative.max()))
            self.adjoint += 1
            return result

        monkeypatch.setattr(operator, "solve", audited_solve)
        monkeypatch.setattr(operator, "solve_adjoint", audited_adjoint)


class BrokenFactor:
    """A held factor whose back-solves return NaN (``non-finite``) or
    the negated solution (``negated``)."""

    def __init__(self, factor, breakage):
        self.overlay = factor.overlay
        self._factor = factor
        self._scale = np.nan if breakage == "non-finite" else -1.0

    def solve(self, rhs):
        return self._scale * self._factor.solve(rhs)


class TestWarmSolves:
    """Tolerance gates of the context-scoped PCG path."""

    def test_exact_keying_separates_close_overlays(self, tec_problem):
        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        warm = KrylovState()
        operator.solve(overlay, rhs, warm)
        operator.solve(overlay + 1e-9, rhs, warm)
        stats = operator.stats
        assert stats.factorizations == 1
        assert stats.cache_hits == 0
        assert stats.krylov_solves == 1

    @pytest.mark.parametrize("workload", BENCHMARKS)
    def test_oftec_trace_within_tolerance_of_direct_solve(
            self, tec_problem, profiles, workload, monkeypatch):
        problem = tec_problem.with_profile(profiles[workload])
        operator = problem.model.network.operator
        audit = WarmSolveAudit(problem.model.network, monkeypatch)
        before = operator.stats
        run_oftec(problem)
        after = operator.stats
        assert audit.forward > 0 and audit.adjoint > 0 and audit.loose > 0
        assert audit.forward_error <= 1e-9
        assert audit.adjoint_error <= 1e-9
        assert audit.loose_ratio <= 10.0
        # The trace really ran on PCG, not on fresh factors.
        assert after.krylov_solves - before.krylov_solves \
            > after.factorizations - before.factorizations

    def test_operator_is_exactly_symmetric_with_tec_on(self,
                                                       tec_problem):
        # Every overlay term (fan coupling, Peltier, leakage slope)
        # lands on the diagonal, so A^T = A and the adjoint needs no
        # transposed solve.
        model = tec_problem.model
        cells = model.grid.cell_count
        diag, _ = model.overlays(
            300.0, tec_problem.current_upper_bound,
            tec_problem.dynamic_cell_power, np.full(cells, 0.01),
            np.zeros(cells), sink_heat=1.0)
        matrix = model.network.static_matrix + diags(diag, format="csr")
        assert (matrix != matrix.T).nnz == 0

    def test_stale_preconditioner_converges_or_refactors(
            self, tec_problem):
        network = tec_problem.model.network
        operator = fresh_operator(network)
        warm = KrylovState()
        operator.solve(*model_overlays(tec_problem, 0.0, 0.0), warm)
        before = operator.stats
        overlay, rhs = model_overlays(tec_problem,
                                      tec_problem.limits.omega_max,
                                      tec_problem.current_upper_bound)
        result = operator.solve(overlay, rhs, warm)
        after = operator.stats
        krylov = after.krylov_solves - before.krylov_solves
        refactored = after.fresh_factorizations \
            - before.fresh_factorizations
        assert krylov + refactored == 1
        assert refactored == after.factorizations - before.factorizations
        assert np.abs(result - direct_solve(network, overlay, rhs)).max() \
            <= 1e-9

    def test_vector_and_block_recurrences_agree(self, tec_problem):
        # One RHS through the scalar path (solve) and as an (n, 1)
        # block through the masked path (solve_adjoint), both on PCG
        # from M^-1 b against the same held factor.
        operator = fresh_operator(tec_problem.model.network)
        warm = KrylovState()
        operator.solve(*model_overlays(tec_problem, *POINTS[0]), warm)
        overlay, rhs = model_overlays(tec_problem, 185.0, 0.6)
        iterations = []
        solutions = []
        for solve, system in ((operator.solve, rhs),
                              (operator.solve_adjoint, rhs[:, None])):
            warm.vector = warm.block = None
            before = operator.stats
            solutions.append(solve(overlay, system, warm).reshape(-1))
            after = operator.stats
            assert after.krylov_solves - before.krylov_solves == 1
            iterations.append(after.krylov_iterations
                              - before.krylov_iterations)
        vector, block = solutions
        assert iterations[0] == iterations[1] > 0
        assert np.abs(vector - block).max() <= 1e-12 * np.abs(block).max()

    @pytest.mark.parametrize("breakage", ["non-finite", "negated"])
    def test_vector_pcg_refactors_on_broken_preconditioner(
            self, tec_problem, breakage):
        # A held factor whose back-solves go non-finite gives a
        # non-finite iterate; a negated one makes rho = r^T M^-1 r < 0.
        network = tec_problem.model.network
        operator = fresh_operator(network)
        warm = KrylovState()
        operator.solve(*model_overlays(tec_problem, *POINTS[0]), warm)
        warm.factor = BrokenFactor(warm.factor, breakage)
        overlay, rhs = model_overlays(tec_problem, 185.0, 0.6)
        self.assert_refactors(operator, network, warm, overlay, rhs)

    @staticmethod
    def negative_definite(tec_problem):
        """An operator holding a factor at ``POINTS[0]``, and that
        overlay shifted down by twice the 1-norm: a negative definite
        system, so ``p^T A p < 0`` on PCG's first step."""
        network = tec_problem.model.network
        operator = fresh_operator(network)
        warm = KrylovState()
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        operator.solve(overlay, rhs, warm)
        matrix = network.static_matrix + diags(overlay, format="csr")
        shift = 2.0 * float(abs(matrix).sum(axis=0).max())
        return operator, warm, overlay - shift, rhs

    def test_vector_pcg_certifies_negative_curvature(self, tec_problem):
        operator, warm, shifted, rhs = self.negative_definite(tec_problem)
        held = warm.factor
        before = operator.stats
        with pytest.raises(IndefiniteSystemError) as excinfo:
            operator.solve(shifted, rhs, warm)
        after = operator.stats
        assert isinstance(excinfo.value, ThermalRunawayError)
        assert excinfo.value.max_temperature == float("inf")
        assert excinfo.value.rayleigh_quotient < 0.0
        # One CG step proves it; nothing is factored or replaced.
        assert after.krylov_iterations - before.krylov_iterations == 1
        assert after.factorizations == before.factorizations
        assert after.fresh_factorizations == before.fresh_factorizations
        assert after.krylov_solves == before.krylov_solves
        assert warm.factor is held

    def test_block_pcg_refactors_on_negative_curvature(self, tec_problem):
        # The (n, k) adjoint block has no certificate: at the same
        # shifted overlay it factors fresh and holds that factor.
        operator, warm, shifted, rhs = self.negative_definite(tec_problem)
        network = tec_problem.model.network
        block = np.column_stack([rhs, np.ones_like(rhs)])
        before = operator.stats
        duals = operator.solve_adjoint(shifted, block, warm)
        after = operator.stats
        assert after.krylov_iterations - before.krylov_iterations == 1
        assert after.krylov_solves == before.krylov_solves
        assert after.fresh_factorizations \
            - before.fresh_factorizations == 1
        assert warm.holds(shifted)
        for column in range(2):
            exact = direct_solve(network, shifted, block[:, column])
            assert np.abs(duals[:, column] - exact).max() \
                <= 1e-9 * max(1.0, np.abs(exact).max())

    @staticmethod
    def assert_refactors(operator, network, warm, overlay, rhs):
        before = operator.stats
        result = operator.solve(overlay, rhs, warm)
        after = operator.stats
        # Each breakage stops the recurrence on its first step.
        assert after.krylov_iterations - before.krylov_iterations == 1
        assert after.krylov_solves == before.krylov_solves
        assert after.fresh_factorizations \
            - before.fresh_factorizations == 1
        assert warm.holds(overlay)
        exact = direct_solve(network, overlay, rhs)
        assert np.abs(result - exact).max() \
            <= 1e-9 * max(1.0, np.abs(exact).max())

    def test_singular_fault_on_warm_path_raises_typed_error(
            self, tec_problem):
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.SINGULAR_NETWORK, rate=1.0, start_call=1),))
        faulty = FaultyNetwork(tec_problem.model.network,
                               FaultInjector(plan))
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        warm = KrylovState()
        faulty.solve(overlay, rhs, warm)  # immune first call: primes
        held = warm.factor
        assert held is not None
        with pytest.raises(SingularNetworkError) as excinfo:
            faulty.solve(overlay, rhs, warm)
        assert excinfo.value.condition_estimate is not None
        assert excinfo.value.condition_estimate > 1e12
        assert warm.factor is held

    def test_stats_exported_as_counters(self, tec_problem):
        from repro.obs import telemetry_session

        operator = fresh_operator(tec_problem.model.network)
        overlay, rhs = model_overlays(tec_problem, *POINTS[0])
        warm = KrylovState()
        nearby, _ = model_overlays(tec_problem, 185.0, 0.5)
        with telemetry_session() as (_tracer, metrics):
            operator.solve(overlay, rhs, warm)
            operator.solve(nearby, rhs, warm)
            snapshot = metrics.snapshot()
        stats = operator.stats
        assert stats.krylov_solves == 1 and stats.krylov_iterations > 0
        assert stats.solve_seconds > 0.0
        counters = snapshot["counters"]
        for name, value in vars(stats).items():
            if value:
                assert counters[f"operator.{name}"] == value, name
        assert counters["operator.krylov_solves"] == 1
        assert counters["operator.fresh_factorizations"] == 1
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_results_independent_of_earlier_runs(self, tec_problem,
                                                 profiles):
        # The held factor is scoped to a run's own solve context, so
        # whatever ran before on the shared operator cannot leak in.
        target = tec_problem.with_profile(profiles["fft"])
        alone = run_oftec(target)
        run_oftec(tec_problem.with_profile(profiles["crc32"]))
        after = run_oftec(target)
        assert after.omega_star == alone.omega_star
        assert after.current_star == alone.current_star
        assert (after.evaluation.steady.temperatures
                == alone.evaluation.steady.temperatures).all()


class TestHeldAnswers:
    """A warm PCG runs from the sequence's last accepted answer of the
    same shape, else from ``M^-1 b``."""

    #: Priming point, then the point whose answer is held, then the
    #: target system (omega in rad/s, current in A).
    SEQUENCE = ((180.0, 0.5), (182.0, 0.55), (183.0, 0.56))

    @staticmethod
    def adjoint_block(rhs):
        return np.column_stack([rhs, np.ones_like(rhs)])

    def primed(self, tec_problem):
        """An operator and a state holding a factor at the first point
        and the answers (vector and block) at the second."""
        operator = fresh_operator(tec_problem.model.network)
        warm = KrylovState()
        operator.solve(*model_overlays(tec_problem, *self.SEQUENCE[0]),
                       warm)
        overlay, rhs = model_overlays(tec_problem, *self.SEQUENCE[1])
        operator.solve(overlay, rhs, warm)
        operator.solve_adjoint(overlay, self.adjoint_block(rhs), warm)
        return operator, warm

    @staticmethod
    def without_answers(warm):
        """The same factor, no held answers: PCG runs from M^-1 b."""
        bare = KrylovState()
        bare.factor = warm.factor
        return bare

    @staticmethod
    def counted(operator, solve, *args):
        before = operator.stats
        result = solve(*args)
        after = operator.stats
        return (result, after.krylov_iterations - before.krylov_iterations,
                after.held_starts - before.held_starts)

    def test_vector_solve_starts_from_held_answer(self, tec_problem):
        network = tec_problem.model.network
        operator, warm = self.primed(tec_problem)
        overlay, rhs = model_overlays(tec_problem, *self.SEQUENCE[2])
        _, bare_iterations, bare_held = self.counted(
            operator, operator.solve, overlay, rhs,
            self.without_answers(warm))
        result, iterations, held = self.counted(
            operator, operator.solve, overlay, rhs, warm)
        assert (bare_held, held) == (0, 1)
        assert 0 < iterations < bare_iterations
        assert np.abs(result - direct_solve(network, overlay, rhs)).max() \
            <= 1e-10
        assert np.array_equal(warm.vector, result)

    def test_block_solve_starts_from_held_answer(self, tec_problem):
        network = tec_problem.model.network
        operator, warm = self.primed(tec_problem)
        overlay, rhs = model_overlays(tec_problem, *self.SEQUENCE[2])
        block = self.adjoint_block(rhs)
        _, bare_iterations, bare_held = self.counted(
            operator, operator.solve_adjoint, overlay, block,
            self.without_answers(warm))
        duals, iterations, held = self.counted(
            operator, operator.solve_adjoint, overlay, block, warm)
        assert (bare_held, held) == (0, 1)
        assert 0 < iterations < bare_iterations
        for column in range(2):
            exact = direct_solve(network, overlay, block[:, column])
            assert np.abs(duals[:, column] - exact).max() <= 1e-10
        assert np.array_equal(warm.block, duals)

    def test_reset_and_pickling_drop_held_answers(self, tec_problem):
        import pickle

        _, warm = self.primed(tec_problem)
        assert warm.vector is not None and warm.block is not None
        clone = pickle.loads(pickle.dumps(warm))
        assert (clone.factor, clone.vector, clone.block) \
            == (None, None, None)
        warm.reset()
        assert (warm.factor, warm.vector, warm.block) == (None, None, None)

    def test_shape_mismatch_starts_from_preconditioned_rhs(
            self, tec_problem):
        operator, warm = self.primed(tec_problem)
        overlay, rhs = model_overlays(tec_problem, *self.SEQUENCE[2])
        # The held block has two columns: a one-column block finds no
        # answer of its shape and runs exactly like a bare state.
        bare, bare_iterations, _ = self.counted(
            operator, operator.solve_adjoint, overlay, rhs[:, None],
            self.without_answers(warm))
        duals, iterations, held = self.counted(
            operator, operator.solve_adjoint, overlay, rhs[:, None], warm)
        assert held == 0
        assert iterations == bare_iterations
        assert np.array_equal(duals, bare)
        assert warm.block.shape == (rhs.size, 1)

    def test_guard_failure_never_becomes_held_answer(self):
        # PCG against the healthy factor converges on a system whose
        # one 1e-14 W/K path to ambient amplifies the solution by
        # ~1e14: the growth guard rejects it, and the held answer stays
        # the last healthy one.
        operator = ThermalOperator(grounded_laplacian(ground=1.0))
        n = operator.node_count
        warm = KrylovState()
        healthy = operator.solve(np.zeros(n), np.ones(n), warm)
        degenerate = np.zeros(n)
        degenerate[0] = -1.0 + 1e-14
        before = operator.stats
        with pytest.raises(SingularNetworkError, match="degenerate"):
            operator.solve(degenerate, np.ones(n), warm)
        assert operator.stats.krylov_solves == before.krylov_solves + 1
        assert np.array_equal(warm.vector, healthy)
        # The fresh-factor path: a broken preconditioner sends the same
        # system to a fresh factor, whose back-solve the guard rejects.
        warm.factor = BrokenFactor(warm.factor, "non-finite")
        before = operator.stats
        with pytest.raises(SingularNetworkError, match="degenerate"):
            operator.solve(degenerate, np.ones(n), warm)
        assert operator.stats.fresh_factorizations \
            == before.fresh_factorizations + 1
        assert np.array_equal(warm.vector, healthy)
