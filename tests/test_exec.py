"""The parallel execution engine: scheduler, workers, deterministic merge."""

import hashlib
import json
import multiprocessing.process
import pickle

import pytest

from repro import build_cooling_problem
from repro.analysis import run_campaign, sweep_objective_surfaces
from repro.analysis.heatmap import temperature_fields
from repro.core import Evaluator
from repro.errors import ConfigurationError, WorkerCrashError
from repro.exec import (
    WORKERS_ENV,
    WorkUnit,
    WorkerContext,
    default_chunk,
    resolve_workers,
    solve_fields,
)
from repro.exec import scheduler as exec_scheduler
from repro.exec import workers as exec_workers
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    full_fault_plan,
    run_chaos_campaign,
)
from repro.io import campaign_to_dict
from repro.obs import telemetry_session
from repro.obs.export import span_to_dict


def canonical_digest(campaign):
    """sha256 of the timing-free canonical JSON of a campaign."""
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def field_problem(profiles):
    return build_cooling_problem(profiles["basicmath"],
                                 grid_resolution=4)


def field_context(problem, **extra):
    """A worker context for ``fields`` units on ``problem``."""
    return WorkerContext(field_model=problem.model,
                         field_power=problem.dynamic_cell_power,
                         field_leakage=problem.leakage, **extra)


def assert_same_fields(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, other in zip(ours, theirs):
        assert (mine == other).all()


class TestResolveWorkers:
    def test_default_is_in_process(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(0) == 0
        assert resolve_workers(2) == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    def test_junk_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)

    def test_inside_worker_always_serial(self, monkeypatch):
        """Workers inherit REPRO_WORKERS from the coordinator's env;
        honoring it there would nest pools, so resolution inside an
        installed worker context must always be 0."""
        monkeypatch.setenv(WORKERS_ENV, "3")
        previous = exec_workers.install_runtime(WorkerContext())
        try:
            assert exec_workers.in_worker()
            assert resolve_workers(None) == 0
            assert resolve_workers(4) == 0
        finally:
            exec_workers.restore_runtime(previous)
        assert not exec_workers.in_worker()
        assert resolve_workers(None) == 3


class TestWorkUnit:
    def test_kind_validated(self):
        with pytest.raises(ConfigurationError):
            WorkUnit(index=0, kind="nonsense", name="x")

    def test_index_validated(self):
        with pytest.raises(ConfigurationError):
            WorkUnit(index=-1, kind="benchmark", name="x")

    def test_default_chunk_positive(self):
        assert default_chunk(1, 4) == 1
        assert default_chunk(100, 4) >= 1
        assert default_chunk(100, 1) >= 1


class TestFaultPlanDerive:
    def test_deterministic(self):
        plan = full_fault_plan(seed=11, rate=0.05)
        assert plan.derive("basicmath").seed \
            == plan.derive("basicmath").seed
        assert plan.derive("basicmath").specs == plan.specs

    def test_label_and_seed_dependent(self):
        plan = full_fault_plan(seed=11, rate=0.05)
        other = full_fault_plan(seed=12, rate=0.05)
        assert plan.derive("a").seed != plan.derive("b").seed
        assert plan.derive("a").seed != other.derive("a").seed
        assert plan.derive("a").seed != plan.seed


class TestOperatorPickle:
    def test_factor_cache_dropped_and_clone_solves(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        original = evaluator.evaluate(262.0, 1.0)
        clone = pickle.loads(pickle.dumps(tec_problem))
        stats = clone.model.network.operator.stats
        # The SuperLU factors and counters never cross the boundary.
        assert stats.solves == 0
        assert stats.factorizations == 0
        assert stats.cache_hits == 0
        result = Evaluator(clone).evaluate(262.0, 1.0)
        assert result.max_chip_temperature \
            == original.max_chip_temperature
        assert result.total_power == original.total_power


class TestPointsFanOut:
    """``(omega, I)`` grids: sweeps stay in-process, field batches fan
    out, and neither depends on the worker count."""

    def test_sweep_parity(self, field_problem):
        serial = sweep_objective_surfaces(
            field_problem, omega_points=4, current_points=3, workers=0)
        fanned = sweep_objective_surfaces(
            field_problem, omega_points=4, current_points=3, workers=2)
        assert (serial.temperature == fanned.temperature).all()
        assert (serial.power == fanned.power).all()
        assert (serial.feasible == fanned.feasible).all()

    def test_fields_parity(self, tec_problem):
        points = [(200.0, 0.0), (200.0, 1.0), (260.0, 1.0),
                  (260.0, 2.0)]
        serial = temperature_fields(
            tec_problem.model, points, tec_problem.dynamic_cell_power,
            leakage=None, workers=0)
        fanned = temperature_fields(
            tec_problem.model, points, tec_problem.dynamic_cell_power,
            leakage=None, workers=2)
        assert len(serial) == len(fanned)
        for ours, theirs in zip(fanned, serial):
            assert (ours == theirs).all()


class TestPoolFallback:
    POINTS = [(200.0, 0.5), (240.0, 1.5), (280.0, 2.5)]

    def test_falls_back_to_in_process(self, monkeypatch, field_problem):
        """Workers that cannot be spawned open the supervisor's circuit
        breaker; the units still run, in-process."""
        def failing_start(self):
            raise OSError("no processes for you")

        args = (field_problem.model, self.POINTS,
                field_problem.dynamic_cell_power, field_problem.leakage)
        serial = solve_fields(*args, 0)
        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", failing_start)
        fanned = solve_fields(*args, 2, chunk=1)
        assert_same_fields(fanned, serial)

    def test_unpicklable_context_falls_back(self, monkeypatch,
                                            field_problem):
        """A context that cannot pickle must degrade to the serial
        executor (with the original object), not raise — env-driven
        fan-out engages on previously-working serial call sites."""
        def exploding_start(self):
            raise AssertionError("no worker process may start")

        serial = solve_fields(field_problem.model, self.POINTS,
                              field_problem.dynamic_cell_power,
                              field_problem.leakage, 0)
        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", exploding_start)
        context = field_context(field_problem, policy=lambda: None)
        with pytest.raises(Exception):
            pickle.dumps(context)
        units = exec_scheduler._chunk_units(self.POINTS, "fields", 2)
        results = exec_scheduler.run_units(context, units, 2)
        fanned = [field for result in results for field in result.value]
        assert_same_fields(fanned, serial)


class TestSingleRuntime:
    """Every fan-out runs on the supervisor's managed workers."""

    POINTS = [(200.0, 0.5), (220.0, 1.0), (240.0, 1.5), (260.0, 2.0)]

    @staticmethod
    def _kill_context(problem, max_fires):
        plan = FaultPlan(seed=3, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0,
            max_fires=max_fires),))
        return field_context(problem, fault_plan=plan)

    def test_killed_workers_retry_bit_identically(self, field_problem):
        context = self._kill_context(field_problem, 1)
        units = exec_scheduler._chunk_units(self.POINTS, "fields", 2)
        fanned = exec_scheduler.run_units(context, units, 2)
        serial = exec_scheduler.run_units(context, units, 0)
        assert [result.name for result in fanned] \
            == [unit.name for unit in units]
        for ours, theirs in zip(fanned, serial):
            assert_same_fields(ours.value, theirs.value)

    def test_always_dying_unit_raises_worker_crash(self, field_problem):
        context = self._kill_context(field_problem, None)
        units = exec_scheduler._chunk_units(self.POINTS, "fields", 2)
        with pytest.raises(WorkerCrashError) as excinfo:
            exec_scheduler.run_units(context, units, 2)
        assert sorted(excinfo.value.units) == [
            (unit.name, 3) for unit in units]
        assert all("exit code" in report
                   for report in excinfo.value.reports)


class TestNestedFanOut:
    """The worker-side guard: units that internally reach decomposed
    entry points must stay serial instead of re-entering the engine."""

    def test_serial_executor_is_reentrant(self, field_problem):
        """A nested run_units must restore the enclosing runtime, not
        wipe it to None."""
        outer = WorkerContext()
        previous = exec_workers.install_runtime(outer)
        try:
            units = exec_scheduler._chunk_units(
                [(200.0, 0.5), (240.0, 1.5)], "fields", 1)
            results = exec_scheduler.run_units(
                field_context(field_problem), units, 1)
            assert all(result.ok for result in results)
            assert exec_workers._RUNTIME is not None
            assert exec_workers._RUNTIME.context is outer
        finally:
            exec_workers.restore_runtime(previous)

    def test_env_workers_sweep_parity(self, monkeypatch, field_problem):
        """REPRO_WORKERS=1 leaves a sweep in-process and identical to
        workers=0."""
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = sweep_objective_surfaces(
            field_problem, omega_points=4, current_points=3, workers=0)
        monkeypatch.setenv(WORKERS_ENV, "1")
        fanned = sweep_objective_surfaces(
            field_problem, omega_points=4, current_points=3)
        assert (serial.temperature == fanned.temperature).all()
        assert (serial.power == fanned.power).all()
        assert (serial.feasible == fanned.feasible).all()


class TestTelemetryMerge:
    def test_adopt_records_reparents_and_shifts(self):
        with telemetry_session() as (tracer, _metrics):
            parent = tracer.start_span("benchmark", "basicmath")
            child = tracer.start_span("stage", "oftec")
            tracer.event("fault.injected", kind="demo")
            tracer.end_span(child)
            tracer.end_span(parent)
            # finished is in finish order: children before parents —
            # the exact shape adopt_records must remap correctly.
            records = [span_to_dict(s) for s in tracer.finished]

        with telemetry_session() as (tracer, _metrics):
            host = tracer.start_span("unit", "basicmath")
            tracer.end_span(host)
            adopted = tracer.adopt_records(records, parent=host,
                                           time_offset=100.0)
            assert adopted == 2
            spans = {s.kind: s for s in tracer.finished}
            assert spans["stage"].parent_id \
                == spans["benchmark"].span_id
            assert spans["benchmark"].parent_id == host.span_id
            assert spans["stage"].events[0].name == "fault.injected"
            assert spans["benchmark"].start_s >= 100.0

    def test_merge_snapshot_accumulates(self):
        with telemetry_session() as (_tracer, metrics):
            metrics.counter("exec.test.count").inc(2)
            metrics.gauge("exec.test.gauge").set(5.0)
            histogram = metrics.histogram("exec.test.hist", (1.0, 2.0))
            histogram.observe(0.5)
            metrics.merge_snapshot(metrics.snapshot())
            merged = metrics.snapshot()
            assert merged["counters"]["exec.test.count"] == 4
            assert merged["gauges"]["exec.test.gauge"] == 5.0
            assert merged["histograms"]["exec.test.hist"]["count"] == 2

    def test_merge_snapshot_bound_mismatch_rejected(self):
        with telemetry_session() as (_tracer, metrics):
            metrics.histogram("exec.test.hist", (1.0, 2.0))
            foreign = {"histograms": {"exec.test.hist": {
                "buckets": [(5.0, 1)], "overflow": 0,
                "count": 1, "sum": 0.1, "min": 0.1, "max": 0.1}}}
            with pytest.raises(ConfigurationError):
                metrics.merge_snapshot(foreign)


@pytest.fixture(scope="module")
def identity_problems(profiles):
    tec = build_cooling_problem(profiles["basicmath"],
                                grid_resolution=6)
    base = build_cooling_problem(profiles["basicmath"], with_tec=False,
                                 grid_resolution=6)
    return tec, base


class TestCampaignBitIdentity:
    def test_all_benchmarks_digest_equality(self, profiles,
                                            identity_problems):
        """The headline contract: `--workers N` output is bit-identical
        to serial over the full eight-benchmark campaign."""
        tec, base = identity_problems
        serial = run_campaign(profiles, tec, base,
                              include_tec_only=True, workers=0)
        parallel = run_campaign(profiles, tec, base,
                                include_tec_only=True, workers=2)
        assert canonical_digest(parallel) == canonical_digest(serial)
        per_worker = parallel.worker_stats["per_worker"]
        assert per_worker
        # A genuine pool ran: distinct worker pids with live caches.
        assert len({row["pid"] for row in per_worker}) == 2
        for row in per_worker:
            assert row["solves"] > 0
            assert row["factorizations"] > 0

    def test_in_process_executor_digest(self, profiles,
                                        identity_problems):
        tec, base = identity_problems
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        serial = run_campaign(subset, tec, base, workers=0)
        in_process = run_campaign(subset, tec, base, workers=1)
        assert canonical_digest(in_process) == canonical_digest(serial)

    def test_env_workers_campaign_digest(self, monkeypatch, profiles,
                                         identity_problems):
        """The env-driven path the CLI gate misses: workers resolved
        from REPRO_WORKERS, which pool workers then inherit — their
        in-worker guard must keep unit bodies serial."""
        tec, base = identity_problems
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = run_campaign(subset, tec, base, workers=0)
        monkeypatch.setenv(WORKERS_ENV, "2")
        enved = run_campaign(subset, tec, base)
        assert canonical_digest(enved) == canonical_digest(serial)

    def test_unhandled_lists_every_entry(self, monkeypatch, profiles,
                                         identity_problems):
        tec, base = identity_problems
        subset = {"basicmath": profiles["basicmath"]}

        def fake_units(*args, **kwargs):
            from repro.exec import CampaignMerge
            return CampaignMerge(
                unhandled=["ValueError: first", "KeyError: second"])

        import repro.exec
        monkeypatch.setattr(repro.exec, "run_campaign_units",
                            fake_units)
        with pytest.raises(WorkerCrashError) as excinfo:
            run_campaign(subset, tec, base, workers=2)
        message = str(excinfo.value)
        assert "2 unhandled" in message
        assert "ValueError: first" in message
        assert "KeyError: second" in message
        assert excinfo.value.reports == ("ValueError: first",
                                         "KeyError: second")

    def test_workers_exclusive_with_factory(self, profiles,
                                            identity_problems):
        tec, base = identity_problems
        subset = {"basicmath": profiles["basicmath"]}
        with pytest.raises(ConfigurationError):
            run_campaign(subset, tec, base, workers=2,
                         evaluator_factory=Evaluator)


class TestChaosUnderParallelism:
    def test_fault_events_land_on_worker_spans(self, profiles):
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        subset = {name: profiles[name]
                  for name in ("basicmath", "bitcount")}
        plan = full_fault_plan(seed=11, rate=0.05)
        with telemetry_session() as (tracer, metrics):
            report = run_chaos_campaign(subset, tec, base, plan=plan,
                                        workers=2)
            spans = list(tracer.finished)
            snapshot = metrics.snapshot()
        assert report.ok, report.unhandled
        assert sum(report.fired.values()) > 0
        # Worker metrics merged home.
        assert any(name.startswith("faults.injected")
                   for name in snapshot["counters"])
        by_id = {span.span_id: span for span in spans}
        fault_spans = [
            span for span in spans
            if any(event.name == "fault.injected"
                   for event in span.events)]
        assert fault_spans
        for span in fault_spans:
            benchmark = None
            unit = None
            cursor = span
            while cursor is not None:
                if cursor.kind == "benchmark" and benchmark is None:
                    benchmark = cursor.name
                if cursor.kind == "unit":
                    unit = cursor.name
                cursor = by_id.get(cursor.parent_id)
            # Every injected fault re-parents under the unit span of
            # the benchmark it actually hit.
            assert unit is not None
            assert benchmark == unit
            assert unit in subset


class TestChunking:
    """Balanced slicing: no runt chunks, exact multiples untouched."""

    def test_remainder_spread_not_stranded(self):
        from repro.exec import chunk_sizes
        # The motivating case: 17 points at chunk 8 used to schedule
        # [8, 8, 1] and leave two workers idle behind the runt.
        assert chunk_sizes(17, 8) == [6, 6, 5]
        assert chunk_sizes(17, 2) == [2] * 8 + [1]

    def test_exact_multiples_untouched(self):
        from repro.exec import chunk_sizes
        assert chunk_sizes(16, 8) == [8, 8]
        assert chunk_sizes(9, 3) == [3, 3, 3]

    def test_conservation_and_balance(self):
        from repro.exec import chunk_sizes
        for count in (1, 5, 17, 25, 100, 101):
            for chunk in (1, 2, 7, 8, 64):
                sizes = chunk_sizes(count, chunk)
                assert sum(sizes) == count
                assert max(sizes) - min(sizes) <= 1
                assert len(sizes) == -(-count // chunk)

    def test_empty_and_invalid(self):
        from repro.exec import chunk_sizes
        assert chunk_sizes(0, 8) == []
        assert chunk_sizes(-3, 8) == []
        with pytest.raises(ConfigurationError):
            chunk_sizes(5, 0)

    def test_default_chunk_balances_17_by_3(self):
        from repro.exec import chunk_sizes
        # 17 points on 3 workers: every unit within one point of its
        # neighbors, and more units than workers so the deque
        # scheduler can rebalance.
        chunk = default_chunk(17, 3)
        sizes = chunk_sizes(17, chunk)
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) >= 3

