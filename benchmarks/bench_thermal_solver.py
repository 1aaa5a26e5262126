"""Substrate performance: the sparse thermal solver itself.

Not a paper figure — this bench guards the reproduction's own engine:
model assembly cost, the per-evaluation sparse solve, the transient
stepper, and the operator layer's factor-cache payoff, at the
production grid resolution.  The operator metrics (repeated-solve
throughput, factorizations per solve over the Table 2 campaign) are
written to ``BENCH_3.json`` at the repository root.
"""

import time

import numpy as np

from _common import emit_bench_json
from repro.analysis import run_campaign
from repro.materials import default_package_stack
from repro.geometry import Grid, alpha21264_floorplan
from repro.tec import TECArray, default_tec_device
from repro.thermal import build_package_model, simulate_transient, \
    solve_steady_state


def test_model_assembly(benchmark, resolution):
    floorplan = alpha21264_floorplan()
    grid = Grid.for_floorplan(floorplan, resolution, resolution)
    array = TECArray(grid, default_tec_device())

    def assemble():
        return build_package_model(default_package_stack(), grid,
                                   tec_array=array)

    model = benchmark(assemble)
    print(f"\n{model.network.node_count} nodes at "
          f"{resolution}x{resolution}")
    assert model.network.finalized


def test_steady_solve(benchmark, tec_problem):
    model = tec_problem.model
    power = tec_problem.dynamic_cell_power

    def solve():
        return solve_steady_state(model, 262.0, 1.0, power,
                                  tec_problem.leakage)

    result = benchmark(solve)
    assert result.stats.converged


def test_steady_solve_no_leakage(benchmark, tec_problem):
    # The raw linear-solve floor (one factorization, no outer loop).
    model = tec_problem.model
    power = tec_problem.dynamic_cell_power

    def solve():
        return solve_steady_state(model, 262.0, 1.0, power,
                                  leakage=None)

    result = benchmark(solve)
    assert np.isfinite(result.max_chip_temperature)


def _time_solves(network, overlay, rhs, rounds, cold):
    """Mean seconds per ``network.solve`` (cold drops the factor LRU)."""
    network.solve(overlay, rhs)  # prime (and JIT-warm scipy paths)
    start = time.perf_counter()
    for _ in range(rounds):
        if cold:
            network.operator.clear()
        network.solve(overlay, rhs)
    return (time.perf_counter() - start) / rounds


def test_operator_reuse_and_emit(tec_problem, baseline_problem,
                                 profiles, resolution):
    """Factor-cache payoff: repeated-solve throughput and the Table 2
    campaign's factorizations-per-solve ratio; emits BENCH_3.json."""
    model = tec_problem.model
    zeros = np.zeros(model.grid.cell_count)
    diag, rhs = model.overlays(262.0, 1.0,
                               tec_problem.dynamic_cell_power,
                               zeros, zeros, sink_heat=2.0)
    diag, rhs = diag.copy(), rhs.copy()
    network = model.network

    rounds = 40
    cold = _time_solves(network, diag, rhs, rounds, cold=True)
    warm = _time_solves(network, diag, rhs, rounds, cold=False)
    speedup = cold / warm
    print(f"\nrepeated same-omega solve: cold {1.0 / cold:.1f}/s, "
          f"warm {1.0 / warm:.1f}/s ({speedup:.1f}x)")

    # The campaign units run on an unpickled copy of the templates, so
    # the operator counters come from the per-unit statistics.
    start = time.perf_counter()
    campaign = run_campaign(profiles, tec_problem, baseline_problem)
    wall = time.perf_counter() - start
    units = campaign.worker_stats["units"]
    solves = sum(unit["solves"] for unit in units)
    factorizations = sum(unit["factorizations"] for unit in units)
    hits = sum(unit["factor_cache_hits"] for unit in units)
    print(f"campaign: {wall:.1f} s wall, {solves} solves, "
          f"{factorizations} factorizations, {hits} factor-cache hits")

    payload = {
        "bench": "thermal_solver_operator",
        "grid_resolution": resolution,
        "repeated_solve": {
            "rounds": rounds,
            "cold_solves_per_sec": 1.0 / cold,
            "warm_solves_per_sec": 1.0 / warm,
            "speedup": speedup,
        },
        "table2_campaign": {
            "wall_seconds": wall,
            "benchmarks": len(campaign.comparisons),
            "solves": solves,
            "factorizations": factorizations,
            "factorizations_per_solve": factorizations / solves,
            "factor_cache_hits": hits,
        },
    }
    emit_bench_json("BENCH_3.json", payload)

    assert len(campaign.comparisons) == len(profiles)
    # The structure/state split must pay for itself: strictly fewer
    # factorizations than solves across the campaign, and repeated
    # same-operating-point solves at least twice as fast (the 2x bar
    # only applies at realistic grids; tiny smoke grids factor in
    # microseconds, where fixed overheads dominate).
    assert factorizations < solves
    assert speedup > 1.0
    if resolution >= 8:
        assert speedup >= 2.0


def test_transient_second(benchmark, tec_problem):
    # One simulated second at 20 Hz (the boost-controller workload).
    model = tec_problem.model
    power = tec_problem.dynamic_cell_power

    def simulate():
        return simulate_transient(
            model, duration=1.0, dt=0.05, omega=262.0, current=1.0,
            dynamic_cell_power=power, leakage=tec_problem.leakage)

    result = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert not result.runaway
