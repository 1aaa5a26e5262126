"""Supervised executor: policy, process faults, retries, quarantine."""

import hashlib
import json

import pytest

from repro import build_cooling_problem
from repro.analysis import run_campaign
from repro.errors import ConfigurationError, WorkerCrashError
from repro.exec import CampaignMerge, SupervisionPolicy
from repro.exec import supervisor as exec_supervisor
from repro.faults import (
    EVALUATOR_FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    format_chaos_report,
    full_fault_plan,
    process_fault_decision,
    process_fault_plan,
    run_chaos_campaign,
)
from repro.io import campaign_to_dict
from repro.obs.clock import Deadline


def canonical_digest(campaign):
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def small_problems(profiles):
    tec = build_cooling_problem(profiles["basicmath"],
                                grid_resolution=4)
    base = build_cooling_problem(profiles["basicmath"], with_tec=False,
                                 grid_resolution=4)
    return tec, base


@pytest.fixture(scope="module")
def two_profiles(profiles):
    return dict(list(profiles.items())[:2])


class TestSupervisionPolicy:
    @pytest.mark.parametrize("overrides", [
        {"unit_deadline_seconds": 0.0},
        {"heartbeat_interval_seconds": -1.0},
        {"heartbeat_timeout_seconds": 0.1,
         "heartbeat_interval_seconds": 0.1},
        {"max_attempts": 0},
        {"backoff_base_seconds": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_max_seconds": 0.01, "backoff_base_seconds": 0.05},
        {"backoff_jitter": 1.0},
        {"circuit_breaker_failures": 0},
        {"poll_interval_seconds": 0.0},
    ])
    def test_invalid_knobs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(**overrides)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = SupervisionPolicy(backoff_base_seconds=0.1,
                                   backoff_factor=2.0,
                                   backoff_max_seconds=1.0,
                                   backoff_jitter=0.25)
        for attempt in (1, 2, 3, 7):
            first = policy.backoff_seconds("basicmath", attempt)
            assert first == policy.backoff_seconds("basicmath",
                                                   attempt)
            nominal = min(0.1 * 2.0 ** (attempt - 1), 1.0)
            assert 0.75 * nominal <= first <= 1.25 * nominal
        # Jitter decorrelates units.
        assert policy.backoff_seconds("basicmath", 1) \
            != policy.backoff_seconds("bitcount", 1)

    def test_zero_jitter_is_exact_exponential(self):
        policy = SupervisionPolicy(backoff_base_seconds=0.1,
                                   backoff_factor=3.0,
                                   backoff_max_seconds=10.0,
                                   backoff_jitter=0.0)
        assert policy.backoff_seconds("x", 1) == pytest.approx(0.1)
        assert policy.backoff_seconds("x", 3) == pytest.approx(0.9)


class TestDeadline:
    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)

    def test_lifecycle(self):
        deadline = Deadline(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0
        assert deadline.elapsed() >= 0.0
        deadline.restart()
        assert not deadline.expired


class TestProcessFaultPlan:
    def test_rejects_evaluator_kinds(self):
        with pytest.raises(ConfigurationError):
            process_fault_plan(kinds=(FaultKind.NAN_POWER,))

    def test_process_kinds_property(self):
        plan = process_fault_plan(rate=0.5)
        assert set(plan.process_kinds) == set(PROCESS_FAULT_KINDS)
        assert full_fault_plan().process_kinds == ()

    def test_full_plan_stays_evaluator_only(self):
        kinds = {spec.kind for spec in full_fault_plan().specs}
        assert kinds == set(EVALUATOR_FAULT_KINDS)

    def test_decision_is_deterministic(self):
        plan = process_fault_plan(seed=3, rate=0.5, max_fires=None)
        draws = [process_fault_decision(plan, "basicmath", attempt)
                 for attempt in range(1, 20)]
        again = [process_fault_decision(plan, "basicmath", attempt)
                 for attempt in range(1, 20)]
        assert draws == again
        assert any(d is not None for d in draws)
        assert any(d is None for d in draws)

    def test_decision_edge_cases(self):
        plan = process_fault_plan(rate=1.0)
        assert process_fault_decision(None, "x", 1) is None
        assert process_fault_decision(plan, "x", 0) is None

    def test_start_call_immunizes_early_attempts(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0, start_call=2),))
        assert process_fault_decision(plan, "x", 1) is None
        assert process_fault_decision(plan, "x", 2) is None
        assert process_fault_decision(plan, "x", 3) \
            is FaultKind.WORKER_KILL

    def test_max_fires_caps_strikable_attempts(self):
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0, max_fires=1),))
        assert process_fault_decision(plan, "x", 1) \
            is FaultKind.WORKER_KILL
        # Attempts beyond start_call + max_fires can never fire, so a
        # retried unit is guaranteed to complete.
        assert process_fault_decision(plan, "x", 2) is None

    def test_evaluator_kinds_never_fire_as_process_faults(self):
        assert process_fault_decision(full_fault_plan(rate=1.0),
                                      "x", 1) is None


class TestSupervisedBitIdentity:
    def test_supervised_matches_serial(self, two_profiles,
                                       small_problems):
        tec, base = small_problems
        serial = run_campaign(two_profiles, tec, base, workers=0)
        supervised = run_campaign(two_profiles, tec, base, workers=2,
                                  supervision=SupervisionPolicy())
        assert canonical_digest(supervised) == canonical_digest(serial)
        stats = supervised.worker_stats["supervision"]
        assert stats["retries"] == 0
        assert stats["quarantined"] == 0
        assert not stats["circuit_opened"]

    def test_in_process_run_leaves_templates_cold(self, two_profiles,
                                                  small_problems):
        """The serial path runs on an unpickled copy of the context,
        so the caller's templates never solve (and never warm)."""
        tec, base = small_problems
        operators = (tec.model.network.operator,
                     base.model.network.operator)
        for operator in operators:
            operator.reset_stats()
        run_campaign(two_profiles, tec, base, workers=1)
        for operator in operators:
            assert operator.stats.solves == 0
            assert operator.stats.factorizations == 0
            assert operator.stats.adjoint_solves == 0


class TestTelemetryAdoption:
    """Worker telemetry is adopted once, when a result is accepted."""

    def test_pool_run_adopts_one_unit_span_per_unit(self, two_profiles,
                                                    small_problems):
        import os

        from repro.obs import telemetry_session
        tec, base = small_problems
        with telemetry_session() as (tracer, _metrics):
            run_campaign(two_profiles, tec, base, workers=2)
            spans = list(tracer.finished)
        units = [span for span in spans if span.kind == "unit"]
        assert sorted(span.name for span in units) == sorted(two_profiles)
        for unit in units:
            pid = unit.attributes.get("worker_pid")
            assert pid and pid != os.getpid()
            children = [span for span in spans
                        if span.parent_id == unit.span_id]
            assert ("benchmark", unit.name) in {
                (child.kind, child.name) for child in children}

    def test_journal_records_carry_no_telemetry(self, tmp_path,
                                                two_profiles,
                                                small_problems):
        from repro.exec import read_journal
        from repro.obs import telemetry_session
        tec, base = small_problems
        path = str(tmp_path / "run.journal")
        with telemetry_session() as (tracer, _metrics):
            run_campaign(two_profiles, tec, base, workers=2,
                         journal_path=path)
            units = [span for span in tracer.finished
                     if span.kind == "unit"]
        assert len(units) == len(two_profiles)
        results = read_journal(path).results.values()
        assert sorted(result.name for result in results) \
            == sorted(two_profiles)
        for result in results:
            assert result.spans is None
            assert result.metrics is None


class TestOrphanGuard:
    """A worker exits once its coordinator (parent) is gone."""

    @staticmethod
    def drive(monkeypatch, parents, silenced_from_start):
        import multiprocessing
        import threading
        pids = iter(parents)
        monkeypatch.setattr(exec_supervisor.os, "getppid",
                            lambda: next(pids, 1))
        exits = []

        def fake_exit(code):
            exits.append(code)
            raise SystemExit(code)

        monkeypatch.setattr(exec_supervisor.os, "_exit", fake_exit)
        beats = multiprocessing.Array("d", 1)
        silenced = threading.Event()
        if silenced_from_start:
            silenced.set()
        # A loop that never watches its parent would run until
        # silenced; end it so such a loop fails instead of hanging.
        timer = threading.Timer(2.0, silenced.set)
        timer.start()
        try:
            with pytest.raises(SystemExit):
                exec_supervisor._heartbeat_loop(0, beats, 0.01, silenced)
        finally:
            timer.cancel()
        return exits, beats[0]

    def test_heartbeat_exits_when_parent_changes(self, monkeypatch):
        exits, beats = self.drive(monkeypatch, [4242, 4242, 4242],
                                  silenced_from_start=False)
        assert exits == [1]
        assert beats == 2.0

    def test_silenced_heartbeat_still_watches_parent(self, monkeypatch):
        """An injected hang silences the beats, not the parent watch."""
        exits, beats = self.drive(monkeypatch, [4242, 4242],
                                  silenced_from_start=True)
        assert exits == [1]
        assert beats == 0.0


class TestKillRecovery:
    def test_killed_workers_are_replaced_and_units_retried(
            self, two_profiles, small_problems):
        tec, base = small_problems
        plan = FaultPlan(seed=1, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0, max_fires=1),))
        report = run_chaos_campaign(
            two_profiles, tec, base, plan=plan, workers=2,
            supervision=SupervisionPolicy(
                unit_deadline_seconds=120.0,
                backoff_base_seconds=0.01))
        assert report.ok, report.unhandled
        assert report.fired.get("worker-kill") == 2
        assert len(report.campaign.comparisons) == 2
        stats = report.campaign.worker_stats["supervision"]
        assert stats["retries"] == 2
        assert stats["replacements"] >= 2
        assert stats["quarantined"] == 0

    def test_chaos_auto_engages_supervision(self, two_profiles,
                                            small_problems):
        tec, base = small_problems
        plan = FaultPlan(seed=1, specs=(FaultSpec(
            kind=FaultKind.WORKER_SLOW, rate=1.0, max_fires=1),))
        report = run_chaos_campaign(two_profiles, tec, base, plan=plan,
                                    workers=2)
        assert report.ok
        assert report.fired.get("worker-slow") == 2
        assert "supervision" in report.campaign.worker_stats

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_process_faults_need_two_workers(self, two_profiles,
                                             small_problems, workers):
        """Below two workers nothing can fire a process-level fault,
        so the run is refused instead of passing vacuously."""
        tec, base = small_problems
        plan = FaultPlan(seed=1, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0, max_fires=1),))
        with pytest.raises(ConfigurationError, match="workers >= 2"):
            run_chaos_campaign(two_profiles, tec, base, plan=plan,
                               workers=workers)


class TestHangRecovery:
    def test_silent_workers_are_killed_by_heartbeat(
            self, two_profiles, small_problems):
        tec, base = small_problems
        plan = FaultPlan(seed=1, specs=(FaultSpec(
            kind=FaultKind.WORKER_HANG, rate=1.0, max_fires=1),))
        policy = SupervisionPolicy(
            unit_deadline_seconds=120.0,
            heartbeat_interval_seconds=0.05,
            heartbeat_timeout_seconds=1.0,
            backoff_base_seconds=0.01)
        report = run_chaos_campaign(two_profiles, tec, base, plan=plan,
                                    workers=2, supervision=policy)
        assert report.ok, report.unhandled
        assert report.fired.get("worker-hang") == 2
        assert len(report.campaign.comparisons) == 2
        stats = report.campaign.worker_stats["supervision"]
        assert stats["retries"] == 2
        assert stats["replacements"] >= 2


class TestQuarantine:
    def test_poison_units_quarantine_and_campaign_completes(
            self, two_profiles, small_problems):
        tec, base = small_problems
        plan = FaultPlan(seed=2, specs=(FaultSpec(
            kind=FaultKind.WORKER_KILL, rate=1.0),))
        policy = SupervisionPolicy(unit_deadline_seconds=120.0,
                                   max_attempts=2,
                                   backoff_base_seconds=0.01)
        report = run_chaos_campaign(two_profiles, tec, base, plan=plan,
                                    workers=2, supervision=policy)
        assert report.ok, report.unhandled
        quarantined = report.campaign.quarantined
        assert len(quarantined) == 2
        assert report.campaign.comparisons == []
        for entry in quarantined:
            assert entry.attempts == 2
            assert len(entry.errors) == 2
            assert "exit code 113" in entry.errors[-1]

        payload = campaign_to_dict(report.campaign)
        assert [q["unit"] for q in payload["quarantined"]] \
            == sorted(two_profiles)
        text = format_chaos_report(report)
        assert "quarantined units: 2" in text


class TestCircuitBreaker:
    def test_spawn_failures_degrade_to_serial(self, monkeypatch,
                                              two_profiles,
                                              small_problems):
        tec, base = small_problems

        def failing_spawn(self, handle, *args, **kwargs):
            handle.process = None
            self._spawn_failures += 1
            self.outcome.replacements += 1

        monkeypatch.setattr(exec_supervisor._Supervisor, "_spawn",
                            failing_spawn)
        serial = run_campaign(two_profiles, tec, base, workers=0)
        supervised = run_campaign(two_profiles, tec, base, workers=2,
                                  supervision=SupervisionPolicy())
        assert canonical_digest(supervised) == canonical_digest(serial)
        stats = supervised.worker_stats["supervision"]
        assert stats["circuit_opened"]


class TestWorkerCrashAttribution:
    def test_error_carries_unit_labels_and_attempts(self):
        error = WorkerCrashError("boom", reports=["ValueError: x"],
                                 units=[("basicmath", 3)])
        assert error.units == (("basicmath", 3),)
        assert WorkerCrashError("boom").units == ()

    def test_campaign_raise_names_failing_units(self, monkeypatch,
                                                two_profiles,
                                                small_problems):
        tec, base = small_problems

        def fake_units(*args, **kwargs):
            return CampaignMerge(
                unhandled=["ValueError: boom"],
                crashed=[("basicmath", 2, "ValueError: boom")])

        import repro.exec
        monkeypatch.setattr(repro.exec, "run_campaign_units",
                            fake_units)
        with pytest.raises(WorkerCrashError) as excinfo:
            run_campaign(two_profiles, tec, base, workers=2)
        assert excinfo.value.units == (("basicmath", 2),)
        assert "basicmath (attempt 2)" in str(excinfo.value)

    def test_fan_out_reports_escaped_exception(self, monkeypatch,
                                               two_profiles,
                                               small_problems):
        """A non-library exception inside a worker process is reported
        like the serial path reports it, not retried into quarantine —
        under an explicit policy too."""
        from repro.exec import workers as exec_workers
        tec, base = small_problems
        victim = next(iter(two_profiles))
        real_benchmark = exec_workers._run_benchmark

        def escaping_benchmark(name, *args, **kwargs):
            if name == victim:
                raise RuntimeError("escaped")
            return real_benchmark(name, *args, **kwargs)

        # Forked workers inherit the patched module.
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        monkeypatch.setattr(exec_workers, "_run_benchmark",
                            escaping_benchmark)
        for workers, supervision in ((1, None), (2, None),
                                     (2, SupervisionPolicy())):
            with pytest.raises(WorkerCrashError) as excinfo:
                run_campaign(two_profiles, tec, base, workers=workers,
                             supervision=supervision)
            assert excinfo.value.units == ((victim, 1),)
            assert "RuntimeError: escaped" in str(excinfo.value)

    def test_parallel_chaos_fails_on_escaped_exception(
            self, monkeypatch, two_profiles, small_problems):
        from repro.exec import workers as exec_workers
        tec, base = small_problems
        victim = next(iter(two_profiles))
        real_benchmark = exec_workers._run_benchmark

        def escaping_benchmark(name, *args, **kwargs):
            if name == victim:
                raise RuntimeError("escaped")
            return real_benchmark(name, *args, **kwargs)

        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        monkeypatch.setattr(exec_workers, "_run_benchmark",
                            escaping_benchmark)
        report = run_chaos_campaign(two_profiles, tec, base,
                                    plan=full_fault_plan(rate=0.0),
                                    workers=2)
        assert not report.ok
        assert report.unhandled == ["RuntimeError: escaped"]
        assert report.campaign.quarantined == []
        assert "chaos campaign FAILED" in format_chaos_report(report)


class TestSupervisedStreaming:
    def test_monitor_hooks_fire_and_digest_stays_identical(
            self, two_profiles, small_problems):
        """A traced, monitored, supervised campaign, serial or
        parallel, produces the same canonical digest as an untraced
        serial run, while the monitor sees the full unit lifecycle,
        the session adopts the workers' spans and metrics, and every
        metrics feed is the session's running totals."""
        from repro.obs import telemetry_session

        tec, base = small_problems
        serial = run_campaign(two_profiles, tec, base, workers=0)

        events = []

        class Recorder:
            def begin(self, total, label=None):
                events.append(("begin", total))

            def unit_running(self, name, attempt=1):
                events.append(("running", name))

            def unit_retrying(self, name, attempt, reason=None):
                events.append(("retrying", name))

            def unit_quarantined(self, name, attempts=0):
                events.append(("quarantined", name))

            def unit_done(self, name, wall_seconds=0.0, ok=True):
                events.append(("done", name, ok))

            def live_metrics(self, snapshot):
                events.append(("live", snapshot["counters"]))

            def finish(self):
                events.append(("finish",))

        for workers in (0, 2):
            events.clear()
            with telemetry_session() as (tracer, metrics):
                supervised = run_campaign(
                    two_profiles, tec, base, workers=workers,
                    supervision=SupervisionPolicy(),
                    progress=Recorder())
                unit_spans = [span for span in tracer.finished
                              if span.kind == "unit"]
                totals = metrics.snapshot()["counters"]

            assert canonical_digest(supervised) == \
                canonical_digest(serial)
            kinds = [event[0] for event in events]
            assert kinds.count("begin") >= 1
            assert kinds.count("running") == 2
            done = sorted(event for event in events
                          if event[0] == "done")
            assert done == sorted(("done", name, True)
                                  for name in two_profiles)
            assert "retrying" not in kinds
            assert "quarantined" not in kinds
            # The workers' telemetry was adopted into the parent
            # session: one unit span per benchmark carrying the worker
            # pid, and the worker counters folded into the registry.
            assert sorted(span.name for span in unit_spans) == \
                sorted(two_profiles)
            assert all(span.attributes.get("worker_pid")
                       for span in unit_spans)
            assert totals["operator.solves"] > 0
            # One feed per unit, each the session's running totals,
            # so the last one is the campaign's, not its unit's.
            feeds = [event[1] for event in events if event[0] == "live"]
            assert len(feeds) == len(two_profiles)
            assert 0 < feeds[0]["operator.krylov_solves"] \
                < totals["operator.krylov_solves"]
            assert feeds[-1] == totals

    def test_monitor_without_session_still_reports(
            self, two_profiles, small_problems):
        """--progress without --trace: no telemetry session anywhere,
        but the lifecycle hooks still drive the board."""
        tec, base = small_problems
        events = []

        class Recorder:
            def begin(self, total, label=None):
                events.append("begin")

            def unit_running(self, name, attempt=1):
                events.append("running")

            def unit_done(self, name, wall_seconds=0.0, ok=True):
                events.append("done")

            def unit_retrying(self, name, attempt, reason=None):
                events.append("retrying")

            def unit_quarantined(self, name, attempts=0):
                events.append("quarantined")

            def live_metrics(self, snapshot):
                events.append("live")

            def finish(self):
                events.append("finish")

        campaign = run_campaign(two_profiles, tec, base, workers=2,
                                supervision=SupervisionPolicy(),
                                progress=Recorder())
        assert len(campaign.comparisons) == 2
        assert events.count("running") == 2
        assert events.count("done") == 2


class TestSupervisedProgress:
    """The board hears each unit once, with the scheduler's ok rule."""

    class Recorder:
        def __init__(self):
            self.events = []

        def begin(self, total, label=None):
            self.events.append(("begin", total))

        def unit_running(self, name, attempt=1):
            self.events.append(("running", name))

        def unit_retrying(self, name, attempt, reason=None):
            self.events.append(("retrying", name))

        def unit_quarantined(self, name, attempts=0):
            self.events.append(("quarantined", name))

        def unit_done(self, name, wall_seconds=0.0, ok=True):
            self.events.append(("done", name, ok))

        def live_metrics(self, snapshot):
            pass

    def test_serial_path_marks_unhandled_units_failed(
            self, monkeypatch, two_profiles, small_problems):
        from repro.exec import UnitResult, run_campaign_units
        from repro.exec import workers as exec_workers

        def crashing_unit(unit):
            result = UnitResult(index=unit.index, name=unit.name)
            result.unhandled.append("RuntimeError: boom")
            return result

        monkeypatch.setattr(exec_workers, "run_unit", crashing_unit)
        tec, base = small_problems
        recorder = self.Recorder()
        merge = run_campaign_units(
            two_profiles, tec, base, method="slsqp",
            include_tec_only=False, fault_plan=None, workers=1,
            progress=recorder)
        assert merge.unhandled == ["RuntimeError: boom"] * 2
        expected = [("begin", 2)]
        for name in two_profiles:
            expected += [("running", name), ("done", name, False)]
        assert recorder.events == expected

    def test_fan_out_begins_once(self, two_profiles, small_problems):
        from repro.exec import run_campaign_units
        tec, base = small_problems
        recorder = self.Recorder()
        merge = run_campaign_units(
            two_profiles, tec, base, method="slsqp",
            include_tec_only=False, fault_plan=None, workers=2,
            progress=recorder)
        assert len(merge.comparisons) == len(two_profiles)
        kinds = [event[0] for event in recorder.events]
        assert kinds.count("begin") == 1
        assert kinds[0] == "begin"
        assert sorted(event for event in recorder.events
                      if event[0] == "done") \
            == sorted(("done", name, True) for name in two_profiles)
