"""The four end-to-end workloads: seeded inputs, timed items, checks.

A workload is built once per child process (the timed set-up) and then
runs *items*.  An item is one call into the public API that a user waits
for; its latency unit is the finest step the benchmark can time from
outside the program without tracing it (through the workload's own
policy and evaluator hooks), rescaled to a reference host speed by
:class:`hostclock.HostClock`:

========  ============================================  ==================
workload  item (one public call)                        latency unit
========  ============================================  ==================
oftec     ``run_oftec`` on one seeded profile variant   the whole run
sweep     ``sweep_objective_surfaces`` on a 16x14 grid  one (omega, I) point
online    ``run_online_controller``, 400 steps of 50 ms one 0.5 s interval
campaign  ``run_campaign``, Table 2 with TEC-only       the whole campaign
========  ============================================  ==================

Inputs come only from :func:`item_input` ``(workload, seed, round,
index)``; the library receives the generated profiles and traces, never
the seed.  Every item is checked without a reference
(:meth:`Workload.check`) and, for the committed seed-0 reference, against
the recorded outputs (:meth:`Workload.compare`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    Evaluator,
    build_cooling_problem,
    mibench_profiles,
    run_oftec,
)
from repro.analysis import (
    run_campaign,
    sweep_objective_surfaces,
    verify_paper_shapes,
)
from repro.core.lut import LookupTableController
from repro.core.online import lut_policy, run_online_controller
from repro.power import MIBENCH_NAMES, BenchmarkProfile, PowerTrace

from hostclock import HostClock

#: Problem sizes: ``full`` is the benchmark, ``smoke`` the test's tiny run.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"grid": 12, "sweep": (16, 14), "online_steps": 400},
    "smoke": {"grid": 4, "sweep": (4, 3), "online_steps": 40},
}

#: Items per round that a reference records (and a reference-writing
#: run executes): 3 rounds give the 48 Algorithm 1 variants, one sweep
#: of each sweep profile, and three online traces.
REFERENCE_ITEMS = {"oftec": 16, "sweep": 1, "online": 1, "campaign": 1}

#: Log-normal spread of the per-unit power multipliers of a variant.
#: At 0.08 the heavy profiles flip in and out of needing Optimization 2
#: and the median Algorithm 1 wall moved 6.6% (IQR over median) between
#: seeds; at 0.03 it moves 3.5%.
VARIANT_SIGMA = 0.03

#: Figure 6(a)/(b) profiles, one per round (the paper plots Basicmath;
#: Quicksort and FFT widen the runaway region the sweep has to cross).
SWEEP_PROFILES = ("basicmath", "quicksort", "fft")

#: Paper Table 2 operating points per benchmark: (I* in A, omega* in
#: RPM).  The online workload's lookup table holds exactly these rows.
PAPER_TABLE2 = {
    "basicmath": (0.68, 1352.0),
    "bitcount": (2.30, 2451.0),
    "crc32": (0.37, 1114.0),
    "djkstra": (1.14, 2516.0),
    "fft": (0.99, 2490.0),
    "quicksort": (2.83, 2433.0),
    "stringsearch": (0.74, 1399.0),
    "susan": (1.81, 2509.0),
}

#: Online control timing, s.
DT = 0.05
CONTROL_INTERVAL = 0.5

#: Paper shapes ``verify_paper_shapes`` checks on a full campaign.
PAPER_SHAPES = 11

#: Relative tolerances of the checks.
REEVALUATE_RTOL = 1e-9
REFERENCE_POWER_RTOL = 1e-4
REFERENCE_RTOL = 1e-6


# -- inputs ---------------------------------------------------------------


def _variant(unit_power: Dict[str, float], rng: random.Random,
             ) -> Dict[str, float]:
    """``unit_power`` with every unit scaled by its own log-normal draw."""
    return {unit: power * rng.lognormvariate(0.0, VARIANT_SIGMA)
            for unit, power in sorted(unit_power.items())}


def item_input(workload: str, seed: int, round_index: int, index: int,
               size: str) -> Dict[str, Any]:
    """The inputs of one item: plain data, fixed by its arguments."""
    rng = random.Random(f"e2e/{workload}/{seed}/{round_index}/{index}")
    profiles = {name: profile.as_dict()
                for name, profile in mibench_profiles().items()}
    if workload == "oftec":
        base = MIBENCH_NAMES[index % len(MIBENCH_NAMES)]
        return {"name": base, "unit_power": _variant(profiles[base], rng)}
    if workload == "sweep":
        base = SWEEP_PROFILES[(round_index + index) % len(SWEEP_PROFILES)]
        return {"name": base, "unit_power": _variant(profiles[base], rng)}
    if workload == "online":
        phases = []
        left = SIZES[size]["online_steps"]
        while left > 0:
            # 0.4-2 s phases, deliberately not aligned to the 0.5 s
            # control interval, so decision windows straddle hops.
            steps = min(left, rng.randint(8, 40))
            base = rng.choice(MIBENCH_NAMES)
            phases.append({"name": base, "steps": steps,
                           "unit_power": _variant(profiles[base], rng)})
            left -= steps
        return {"phases": phases}
    if workload == "campaign":
        # The paper's fixed Table 2 inputs: the seed does not apply.
        return {"profiles": profiles}
    raise ValueError(f"unknown workload {workload!r}")


def input_digest(workload: str, seed: int, size: str, rounds: int) -> str:
    """Fingerprint of the inputs of every reference item of a run."""
    digest = hashlib.sha256(f"{workload}/{size}".encode())
    for round_index in range(rounds):
        for index in range(REFERENCE_ITEMS[workload]):
            payload = item_input(workload, seed, round_index, index, size)
            digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def item_key(round_index: int, index: int) -> str:
    """Reference key of one item."""
    return f"{round_index}/{index}"


# -- timing ---------------------------------------------------------------


@dataclass
class Item:
    """One completed item.

    Attributes:
        wall: Wall seconds inside the public call, calibration excluded.
        latencies: Seconds per latency unit, rescaled to the reference
            host speed.
        outcome: What the call returned (plus what the checks need).
        work: Counters the traced run adds to its layer totals.
    """

    wall: float
    latencies: List[float]
    outcome: Any
    work: Dict[str, float] = field(default_factory=dict)


def _rel(got: float, want: float) -> float:
    """Relative difference, exact for equal values (including zeros)."""
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(got), abs(want))


class Workload:
    """Base: the template problem, the timed call, and the checks."""

    name = ""
    #: Items run as one group, so a run always holds whole groups and
    #: its input mix does not depend on how fast the items are.
    cycle = 1
    #: Latency units between two host calibrations.
    calibrate_every = 1
    #: Benchmark-side span opened around the call in the traced run.
    top_kind: Optional[str] = None
    #: Whether the traced run wraps the layers inside the call.
    traced_layers = True

    def __init__(self, size: Dict[str, Any]):
        self.size = size
        self.clock = HostClock(self.calibrate_every)
        self.template = build_cooling_problem(
            mibench_profiles()["basicmath"], grid_resolution=size["grid"])
        # One gradient evaluation at Algorithm 1's start point, so the
        # lazy first-call costs land in set-up, not in the first item.
        Evaluator(self.template).evaluate_with_grad(
            self.template.limits.omega_max / 2.0,
            self.template.current_upper_bound / 2.0)

    @property
    def operators(self) -> list:
        """Operators whose lifetime counters the traced run reads."""
        return [self.template.model.network.operator]

    def timed(self, recorder, fn: Callable, *args, **kwargs,
              ) -> Tuple[Any, float]:
        """``(result, wall)`` of one call, traced under a recorder; the
        wall leaves out calibrations the workload's hooks ran."""
        calibrating = self.clock.calibration_s
        scope = contextlib.nullcontext()
        if recorder is not None:
            scope = recorder.scope(self.operators, self.traced_layers)
            if self.top_kind is not None:
                fn = recorder.wrap(self.top_kind, fn)
        with scope:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - started
        return result, wall - (self.clock.calibration_s - calibrating)

    def run(self, inp: Dict[str, Any], recorder) -> Item:
        raise NotImplementedError

    def check(self, item: Item) -> List[str]:
        """Reference-free checks; one message per failed check."""
        raise NotImplementedError

    def record(self, item: Item) -> Dict[str, Any]:
        """The outputs a reference keeps for this item."""
        raise NotImplementedError

    def compare(self, item: Item, expected: Dict[str, Any]) -> List[str]:
        """Checks against a reference record."""
        raise NotImplementedError


class OftecWorkload(Workload):
    """Algorithm 1 on seeded variants of the 8 MiBench profiles."""

    name = "oftec"
    cycle = len(MIBENCH_NAMES)

    def run(self, inp, recorder):
        problem = self.template.with_profile(inp["unit_power"],
                                             name=inp["name"])
        self.clock.start()
        result, wall = self.timed(recorder, run_oftec, problem)
        self.clock.unit_done()
        return Item(wall, self.clock.latencies(), (problem, result))

    def check(self, item):
        problem, result = item.outcome
        problems = []
        if result.feasible \
                and not result.max_chip_temperature < problem.limits.t_max:
            problems.append(
                f"feasible result at T={result.max_chip_temperature!r} K "
                f">= T_max")
        fresh = Evaluator(problem).evaluate(result.omega_star,
                                            result.current_star)
        for label, got, want in (
                ("P", fresh.total_power, result.total_power),
                ("T", fresh.max_chip_temperature,
                 result.max_chip_temperature)):
            if not _rel(got, want) <= REEVALUATE_RTOL:
                problems.append(
                    f"re-evaluated {label} differs by "
                    f"{_rel(got, want):.2e} relative")
        return problems

    def record(self, item):
        _, result = item.outcome
        return {"feasible": bool(result.feasible),
                "power": float(result.total_power)}

    def compare(self, item, expected):
        got = self.record(item)
        problems = []
        if got["feasible"] != expected["feasible"]:
            problems.append(f"feasible={got['feasible']}, reference "
                            f"{expected['feasible']}")
        if not _rel(got["power"], expected["power"]) \
                <= REFERENCE_POWER_RTOL:
            problems.append(f"P*={got['power']!r} W, reference "
                            f"{expected['power']!r} W")
        return problems


class _PointClock(Evaluator):
    """Evaluator that ends a latency unit after every point it answers."""

    def __init__(self, problem, clock: HostClock):
        super().__init__(problem)
        self.clock = clock
        self.points = 0

    def evaluate(self, omega, current):
        evaluation = super().evaluate(omega, current)
        self.points += 1
        self.clock.unit_done()
        return evaluation


def _mask(array: np.ndarray) -> List[str]:
    """A boolean matrix as one 0/1 string per row."""
    return ["".join("1" if flag else "0" for flag in row) for row in array]


class SweepWorkload(Workload):
    """Figure 6(a)/(b) objective surfaces on a 16x14 (omega, I) grid."""

    name = "sweep"
    # A point takes ~20 ms; calibrating every 4 points costs ~8%.
    calibrate_every = 4
    top_kind = "sweep_objective_surfaces"

    def run(self, inp, recorder):
        problem = self.template.with_profile(inp["unit_power"],
                                             name=inp["name"])
        evaluator = _PointClock(problem, self.clock)
        omega_points, current_points = self.size["sweep"]
        points = omega_points * current_points
        self.clock.start()
        surfaces, wall = self.timed(
            recorder, sweep_objective_surfaces, problem,
            omega_points=omega_points, current_points=current_points,
            evaluator=evaluator, workers=0)
        if evaluator.points == points:
            latencies = self.clock.latencies()
        else:
            # The points were not asked one by one: equal shares.
            latencies = [wall * self.clock.scale_now() / points] * points
        return Item(wall, latencies, (problem, surfaces))

    def check(self, item):
        problem, surfaces = item.outcome
        temperature = surfaces.temperature
        finite = np.isfinite(temperature)
        problems = []
        if not np.array_equal(finite, np.isfinite(surfaces.power)):
            problems.append("T and P surfaces disagree on runaway points")
        expected = finite & (np.where(finite, temperature, np.inf)
                             < problem.limits.t_max)
        if not np.array_equal(surfaces.feasible, expected):
            problems.append("feasible mask is not 'bounded and T < T_max'")
        # Runaway is a low-fan-speed cliff (Section 6.2): at omega_max
        # some current must reach a bounded steady state.  A heavy
        # variant may still have no feasible point on a coarse grid.
        if not finite[-1].any():
            problems.append("every point at omega_max runs away")
        return problems

    def record(self, item):
        _, surfaces = item.outcome
        finite = np.isfinite(surfaces.temperature)
        record: Dict[str, Any] = {
            "runaway": _mask(surfaces.runaway_mask),
            "feasible": _mask(surfaces.feasible),
        }
        if finite.any():
            temperature = surfaces.temperature[finite]
            power = surfaces.power[finite]
            record.update(t_min=float(temperature.min()),
                          t_max=float(temperature.max()),
                          p_min=float(power.min()),
                          p_max=float(power.max()))
        return record

    def compare(self, item, expected):
        got = self.record(item)
        problems = [f"{mask} mask differs from the reference"
                    for mask in ("runaway", "feasible")
                    if got[mask] != expected[mask]]
        for key in ("t_min", "t_max", "p_min", "p_max"):
            if key in got and key in expected:
                if not _rel(got[key], expected[key]) <= REFERENCE_RTOL:
                    problems.append(f"{key}={got[key]!r}, reference "
                                    f"{expected[key]!r}")
            elif key in got or key in expected:
                problems.append(f"{key} present on one side only")
        return problems


class OnlineWorkload(Workload):
    """LUT-policy closed loop over a seeded phase-hopping trace."""

    name = "online"
    top_kind = "run_online_controller"

    def __init__(self, size):
        super().__init__(size)
        profiles = mibench_profiles()
        self.unit_names = sorted({unit for profile in profiles.values()
                                  for unit in profile.unit_power})
        self.table = LookupTableController(self.unit_names)
        rad_per_rpm = 2.0 * math.pi / 60.0
        for name, (current, rpm) in PAPER_TABLE2.items():
            self.table.add_entry(name, profiles[name].unit_power,
                                 rpm * rad_per_rpm, current)
        self.rows = {(entry.omega, entry.current): entry.label
                     for entry in self.table.entries}

    def trace(self, inp) -> PowerTrace:
        """The phase-hopping power trace: one sample per 50 ms step."""
        rows = []
        for phase in inp["phases"]:
            row = [phase["unit_power"].get(unit, 0.0)
                   for unit in self.unit_names]
            rows.extend([row] * phase["steps"])
        rows.append(rows[-1])  # the sample closing the last step
        times = np.arange(len(rows)) * DT
        return PowerTrace("phase-hop", self.unit_names, times,
                          np.array(rows))

    def run(self, inp, recorder):
        trace = self.trace(inp)
        policy = lut_policy(self.table)
        started = [False]

        def timed_policy(observed):
            # One latency unit per control interval: decision to next
            # decision (the last one to the end of the loop).
            if started[0]:
                self.clock.unit_done()
            else:
                self.clock.start()
                started[0] = True
            return policy(observed)

        result, wall = self.timed(
            recorder, run_online_controller, self.template, trace,
            timed_policy, control_interval=CONTROL_INTERVAL, dt=DT)
        self.clock.unit_done()
        steps = sum(phase["steps"] for phase in inp["phases"])
        return Item(wall, self.clock.latencies(), result,
                    {"online_steps": steps})

    def check(self, item):
        result = item.outcome
        problems = []
        steps = len(result.times)
        intervals = math.ceil(steps * DT / CONTROL_INTERVAL - 1e-9)
        if len(result.decisions) != intervals:
            problems.append(f"{len(result.decisions)} decisions for "
                            f"{steps} steps")
        if any((d.omega, d.current) not in self.rows
               for d in result.decisions):
            problems.append("a decision is not a lookup-table row")
        temperature = result.max_chip_temperature
        if not np.all(np.isfinite(temperature)):
            problems.append("non-finite chip temperature")
        elif not temperature.max() > self.template.model.config.ambient:
            problems.append("the chip never rose above ambient")
        if not result.cooling_energy > 0.0:
            problems.append(f"cooling energy {result.cooling_energy!r} J")
        return problems

    def record(self, item):
        result = item.outcome
        return {"decisions": [self.rows.get((d.omega, d.current), "?")
                              for d in result.decisions],
                "peak": float(result.peak_temperature),
                "energy": float(result.cooling_energy)}

    def compare(self, item, expected):
        got = self.record(item)
        problems = []
        if got["decisions"] != expected["decisions"]:
            problems.append("LUT decisions differ from the reference")
        for key in ("peak", "energy"):
            if not _rel(got[key], expected[key]) <= REFERENCE_RTOL:
                problems.append(f"{key}={got[key]!r}, reference "
                                f"{expected[key]!r}")
        return problems


class CampaignWorkload(Workload):
    """The Table 2 campaign over ``min(2, nproc)`` worker processes."""

    name = "campaign"
    top_kind = "run_campaign"
    # Attribution stops at the exec unit boundary: the layers run in the
    # workers, and forked workers would inherit the wrappers.
    traced_layers = False

    def __init__(self, size):
        self.size = size
        # A campaign is bracketed by only two calibrations, so each is
        # the median of several readings.
        self.clock = HostClock(samples=5)
        # No more processes than the CPUs this process may run on.
        self.workers = min(2, len(os.sched_getaffinity(0)))
        profile = mibench_profiles()["basicmath"]
        self.tec = build_cooling_problem(profile,
                                         grid_resolution=size["grid"])
        self.base = build_cooling_problem(profile, with_tec=False,
                                          grid_resolution=size["grid"])

    @property
    def operators(self):
        return []

    def run(self, inp, recorder):
        profiles = {name: BenchmarkProfile(name, unit_power)
                    for name, unit_power in inp["profiles"].items()}
        self.clock.start()
        result, wall = self.timed(
            recorder, run_campaign, profiles, self.tec, self.base,
            include_tec_only=True, workers=self.workers)
        self.clock.unit_done()
        units = result.worker_stats.get("units", [])
        busy = sum(unit["wall_seconds"] for unit in units)
        work = {
            "exec_units": len(units),
            "exec_busy_s": busy,
            "exec_capacity_s": wall * self.workers,
            "exec_overhead_s": wall - busy / self.workers,
            "exec_factorizations": sum(unit["factorizations"]
                                       for unit in units),
        }
        return Item(wall, self.clock.latencies(), result, work)

    def check(self, item):
        result = item.outcome
        problems = [f"{failure.benchmark} [{failure.stage}] failed"
                    for failure in result.failures]
        checks = verify_paper_shapes(result)
        problems += [f"paper shape failed: {check.claim}"
                     for check in checks if not check.passed]
        if len(checks) != PAPER_SHAPES:
            problems.append(f"{len(checks)} paper shapes checked, "
                            f"expected {PAPER_SHAPES}")
        return problems

    def record(self, item):
        checks = verify_paper_shapes(item.outcome)
        return {"shapes_passed": sum(check.passed for check in checks)}

    def compare(self, item, expected):
        got = self.record(item)
        if got["shapes_passed"] != expected["shapes_passed"]:
            return [f"{got['shapes_passed']} paper shapes pass, reference "
                    f"{expected['shapes_passed']}"]
        return []


BY_NAME = {workload.name: workload for workload in (
    OftecWorkload, SweepWorkload, OnlineWorkload, CampaignWorkload)}
