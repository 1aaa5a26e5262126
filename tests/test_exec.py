"""The parallel execution engine: scheduler, workers, deterministic merge."""

import hashlib
import json
import multiprocessing.process
import pickle
from dataclasses import fields

import pytest

from repro import build_cooling_problem
from repro.analysis import run_campaign, sweep_objective_surfaces
from repro.analysis.campaign import CampaignResult
from repro.core import Evaluator
from repro.errors import ConfigurationError, WorkerCrashError
from repro.exec import (
    SupervisionPolicy,
    WorkUnit,
    WorkerContext,
    resolve_workers,
    run_campaign_units,
)
from repro.exec import supervisor as exec_supervisor
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
from repro.thermal import OperatorStats


def canonical_digest(campaign):
    """sha256 of the timing-free canonical JSON of a campaign."""
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def field_problem(profiles):
    return build_cooling_problem(profiles["basicmath"],
                                 grid_resolution=4)


@pytest.fixture(scope="module")
def unit_problems(profiles):
    """Res-4 templates for benchmark units."""
    tec = build_cooling_problem(profiles["basicmath"],
                                grid_resolution=4)
    base = build_cooling_problem(profiles["basicmath"], with_tec=False,
                                 grid_resolution=4)
    return tec, base


@pytest.fixture(scope="module")
def two_profiles(profiles):
    return dict(list(profiles.items())[:2])


def campaign_units(problems, profiles, workers, **extra):
    """One run_campaign_units call with the campaign defaults."""
    tec, base = problems
    options = dict(method="slsqp", include_tec_only=False,
                   fault_plan=None)
    options.update(extra)
    return run_campaign_units(profiles, tec, base, workers=workers,
                              **options)


def comparisons_digest(problems, comparisons):
    """Canonical digest of a list of benchmark comparisons."""
    return canonical_digest(CampaignResult(
        comparisons=list(comparisons),
        t_max=problems[0].limits.t_max))


class TestResolveWorkers:
    def test_default_is_in_process(self):
        assert resolve_workers(None) == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)

    def test_inside_worker_always_serial(self):
        """Resolution inside an installed worker context is always 0,
        so a unit body never nests pools."""
        previous = exec_workers.install_runtime(WorkerContext())
        try:
            assert exec_workers.in_worker()
            assert resolve_workers(None) == 0
            assert resolve_workers(4) == 0
        finally:
            exec_workers.restore_runtime(previous)
        assert not exec_workers.in_worker()
        assert resolve_workers(3) == 3


class TestWorkUnit:
    def test_index_validated(self):
        with pytest.raises(ConfigurationError):
            WorkUnit(index=-1, name="x")


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
    """``(omega, I)`` sweeps stay in-process whatever the worker
    count."""

    def test_sweep_parity(self, field_problem):
        serial = sweep_objective_surfaces(
            field_problem, omega_points=4, current_points=3, workers=0)
        fanned = sweep_objective_surfaces(
            field_problem, omega_points=4, current_points=3, workers=2)
        assert (serial.temperature == fanned.temperature).all()
        assert (serial.power == fanned.power).all()
        assert (serial.feasible == fanned.feasible).all()


class TestPoolFallback:
    def test_falls_back_to_in_process(self, monkeypatch, unit_problems,
                                      two_profiles):
        """Workers that cannot be spawned open the supervisor's circuit
        breaker; the units still run, in-process."""
        def failing_start(self):
            raise OSError("no processes for you")

        serial = campaign_units(unit_problems, two_profiles, 0)
        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", failing_start)
        fanned = campaign_units(unit_problems, two_profiles, 2)
        assert fanned.worker_stats["supervision"]["circuit_opened"]
        assert comparisons_digest(unit_problems, fanned.comparisons) \
            == comparisons_digest(unit_problems, serial.comparisons)

    def test_unpicklable_context_falls_back(self, monkeypatch,
                                            unit_problems, two_profiles):
        """A context that cannot pickle (here: a caller-supplied
        profile map holding a closure no unit reads) must degrade to
        the serial path (with the original object), not raise."""
        def exploding_start(self):
            raise AssertionError("no worker process may start")

        serial = campaign_units(unit_problems, two_profiles, 0)
        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", exploding_start)
        tec, base = unit_problems
        context = WorkerContext(
            tec_template=tec, baseline_template=base,
            profiles={**two_profiles, "unpicklable": lambda: None})
        with pytest.raises(Exception):
            pickle.dumps(context)
        units = [WorkUnit(index=index, name=name)
                 for index, name in enumerate(two_profiles)]
        outcome = exec_supervisor._Supervisor(
            context, units, 2, SupervisionPolicy(), None, None).run()
        assert [result.name for result in outcome.completed] \
            == list(two_profiles)
        assert comparisons_digest(
            unit_problems,
            [result.value for result in outcome.completed]) \
            == comparisons_digest(unit_problems, serial.comparisons)


class TestSingleRuntime:
    """Every fan-out runs on the supervisor's managed workers."""

    def test_killed_workers_retry_bit_identically(self, unit_problems,
                                                  two_profiles):
        plan = FaultPlan(seed=3, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0, max_fires=1),))
        fanned = campaign_units(unit_problems, two_profiles, 2,
                           fault_plan=plan)
        serial = campaign_units(unit_problems, two_profiles, 1,
                           fault_plan=plan)
        assert fanned.fired.get("worker-kill") == 2
        assert fanned.worker_stats["supervision"]["retries"] == 2
        assert [c.name for c in fanned.comparisons] \
            == list(two_profiles)
        assert comparisons_digest(unit_problems, fanned.comparisons) \
            == comparisons_digest(unit_problems, serial.comparisons)


class TestNestedFanOut:
    """The worker-side guard: units that internally reach the engine
    must stay serial instead of re-entering it."""

    def test_serial_executor_is_reentrant(self, unit_problems,
                                          two_profiles):
        """A nested run must restore the enclosing runtime, not wipe
        it to None."""
        outer = WorkerContext()
        previous = exec_workers.install_runtime(outer)
        try:
            merge = campaign_units(unit_problems, two_profiles, 2)
            assert [c.name for c in merge.comparisons] \
                == list(two_profiles)
            assert exec_workers._RUNTIME is not None
            assert exec_workers._RUNTIME.context is outer
        finally:
            exec_workers.restore_runtime(previous)

    def test_unit_body_campaign_call_runs_in_process(
            self, monkeypatch, unit_problems, two_profiles):
        """A unit body that calls a campaign entry point with
        ``workers=2`` resolves to 0 workers and starts no process."""
        def exploding_start(self):
            raise AssertionError("no worker process may start")

        import repro.exec
        tec, base = unit_problems
        real_units = repro.exec.run_campaign_units
        real_body = exec_workers._execute_benchmark
        resolved, inner = [], {}

        def spy_units(*args, **kwargs):
            resolved.append(kwargs["workers"])
            return real_units(*args, **kwargs)

        def nesting_body(context, unit, result):
            # Only the outer unit nests; the inner units run as usual.
            if "entered" not in inner:
                inner["entered"] = True
                inner["campaign"] = run_campaign(
                    two_profiles, tec, base, workers=2)
            real_body(context, unit, result)

        monkeypatch.setattr(multiprocessing.process.BaseProcess,
                            "start", exploding_start)
        monkeypatch.setattr(repro.exec, "run_campaign_units", spy_units)
        monkeypatch.setattr(exec_workers, "_execute_benchmark",
                            nesting_body)
        outer = campaign_units(
            unit_problems, dict(list(two_profiles.items())[:1]), 0)
        assert outer.unhandled == []
        assert resolved == [0]
        assert [c.name for c in inner["campaign"].comparisons] \
            == list(two_profiles)


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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_campaign_counters_equal_unit_stats(self, profiles,
                                                unit_problems, workers):
        """Every operator count reaches the campaign's telemetry block
        exactly once, whichever process ran the unit."""
        tec, base = unit_problems
        subset = dict(list(profiles.items())[:3])
        with telemetry_session() as (_tracer, metrics):
            campaign = run_campaign(subset, tec, base,
                                    include_tec_only=True,
                                    workers=workers)
        snapshot = metrics.snapshot()
        units = campaign.worker_stats["units"]
        assert len(units) == 3
        for stat in fields(OperatorStats):
            if stat.name.endswith("_seconds"):
                continue
            total = sum(unit[stat.name] for unit in units)
            assert snapshot["counters"].get(f"operator.{stat.name}", 0) \
                == total, stat.name
        assert snapshot["counters"]["operator.solves"] > 0
        assert not any(name.startswith("operator.stats.")
                       for name in snapshot["gauges"])

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
            # Each unit factors a few times and solves the rest of its
            # systems by PCG on its solve contexts' held factors.
            assert row["krylov_solves"] > row["fresh_factorizations"] > 0
            assert row["krylov_iterations"] >= row["krylov_solves"]

    def test_in_process_executor_digest(self, profiles,
                                        identity_problems):
        tec, base = identity_problems
        subset = {name: profiles[name]
                  for name in ("basicmath", "crc32")}
        serial = run_campaign(subset, tec, base, workers=0)
        in_process = run_campaign(subset, tec, base, workers=1)
        assert canonical_digest(in_process) == canonical_digest(serial)

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


class TestChaosUnderParallelism:
    def test_report_identical_at_every_worker_count(self, profiles,
                                                    unit_problems):
        """Every run derives one fault stream per benchmark, so a chaos
        report does not depend on the worker count."""
        tec, base = unit_problems
        plan = full_fault_plan(seed=11, rate=0.05)

        def signature(report):
            assert report.ok, report.unhandled
            return (
                report.fired,
                [(failure.benchmark, failure.stage, failure.error_type)
                 for failure in report.campaign.failures],
                json.dumps(campaign_to_dict(report.campaign,
                                            canonical=True),
                           indent=2, sort_keys=True))

        serial = signature(run_chaos_campaign(profiles, tec, base,
                                              plan=plan, workers=0))
        assert sum(serial[0].values()) > 0
        assert serial[1], "seed 11 should inject failures"
        for workers in (1, 2):
            assert signature(run_chaos_campaign(
                profiles, tec, base, plan=plan,
                workers=workers)) == serial

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
