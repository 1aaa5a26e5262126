"""Tests for repro.obs: tracing, metrics, export, pipeline telemetry."""

import json
import os

import pytest

from repro import build_cooling_problem, run_oftec
from repro.analysis import run_campaign
from repro.errors import ConfigurationError, SolverError
from repro.faults import full_fault_plan, run_chaos_campaign
from repro.io import campaign_to_dict
from repro.obs import (
    Counter,
    DEFAULT_COUNT_BUCKETS,
    Gauge,
    Histogram,
    JsonlTraceSink,
    MetricsRegistry,
    NullMetrics,
    TRACE_FORMAT_VERSION,
    TelemetryStream,
    Tracer,
    format_trace_summary,
    is_enabled,
    load_trace,
    read_trace_jsonl,
    stopwatch,
    summarize_spans,
    telemetry_session,
    traced,
)
from repro.obs import runtime as obs_runtime
from repro.obs.tracing import NOOP_SPAN, NOOP_TRACER, NULL_SPAN_CONTEXT


class TestClock:
    def test_stopwatch_runs_from_construction(self):
        watch = stopwatch()
        assert watch.running
        first = watch.elapsed
        second = watch.elapsed
        assert second >= first >= 0.0

    def test_stop_freezes_elapsed(self):
        watch = stopwatch()
        frozen = watch.stop()
        assert not watch.running
        assert watch.elapsed == frozen

    def test_restart(self):
        watch = stopwatch()
        watch.stop()
        watch.restart()
        assert watch.running

    def test_context_manager_observes_metric_when_enabled(self):
        with telemetry_session() as (_tracer, metrics):
            with stopwatch("test.wall_seconds"):
                pass
        histogram = metrics.histogram("test.wall_seconds")
        assert histogram.count == 1
        assert histogram.total >= 0.0

    def test_context_manager_silent_when_disabled(self):
        registry = MetricsRegistry()
        with stopwatch("test.wall_seconds"):
            pass
        assert registry.names() == []


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("hits").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram("iters", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 3.0, 99.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.bucket_counts == [2, 0, 1, 1]
        assert histogram.min == 0.5
        assert histogram.max == 99.0
        assert histogram.mean == pytest.approx(103.5 / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("empty", buckets=())

    def test_registry_reuses_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_registry_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_snapshot_layout(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7.0)
        registry.histogram("h", buckets=DEFAULT_COUNT_BUCKETS) \
            .observe(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 7.0}
        entry = snapshot["histograms"]["h"]
        assert entry["count"] == 1
        assert entry["sum"] == 3.0
        assert entry["min"] == entry["max"] == 3.0
        assert [1.0, 0] in entry["buckets"]
        json.dumps(snapshot)  # must be JSON-friendly

    def test_empty_histogram_snapshot_omits_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        entry = registry.snapshot()["histograms"]["h"]
        assert "min" not in entry and "max" not in entry

    def test_null_metrics_shared_and_empty(self):
        null = NullMetrics()
        assert null.counter("a") is null.counter("b")
        null.counter("a").inc()
        null.gauge("g").set(1)
        null.histogram("h").observe(2)
        assert null.snapshot() == {}


class TestTracer:
    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current_span is outer
        assert tracer.current_span is None
        assert [s.kind for s in tracer.finished] == ["inner", "outer"]

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(SolverError):
            with tracer.span("attempt") as span:
                raise SolverError("injected")
        assert span.status == "error"
        assert "SolverError: injected" in span.error
        assert span.finished

    def test_event_attaches_to_current_span(self):
        tracer = Tracer()
        with tracer.span("solve") as span:
            tracer.event("fault.injected", kind="nan-power")
        assert [e.name for e in span.events] == ["fault.injected"]
        assert span.events[0].attributes == {"kind": "nan-power"}

    def test_event_without_span_is_orphaned(self):
        tracer = Tracer()
        tracer.event("startup")
        assert [e.name for e in tracer.orphan_events] == ["startup"]

    def test_end_span_closes_deeper_spans(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        tracer.end_span(outer)
        assert tracer.open_span_count == 0
        assert all(s.finished for s in tracer.finished)

    def test_max_spans_drops_oldest(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            with tracer.span("s", str(index)):
                pass
        assert len(tracer.finished) == 3
        assert tracer.dropped_spans == 2
        assert [s.name for s in tracer.finished] == ["2", "3", "4"]

    def test_max_spans_validated(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_spans=0)

    def test_spans_of_kind_and_excerpt(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b", "named"):
            pass
        assert len(tracer.spans_of_kind("a")) == 1
        excerpt = tracer.excerpt(limit=1)
        assert len(excerpt) == 1
        assert excerpt[0].startswith("b:named")
        assert tracer.excerpt(limit=0) == []

    def test_noop_tracer_constant(self):
        assert NOOP_TRACER.span("x") is NULL_SPAN_CONTEXT
        assert NOOP_TRACER.start_span("x") is NOOP_SPAN
        with NOOP_TRACER.span("x") as span:
            span.add_event("e")
            span.set_attribute("k", 1)
        NOOP_TRACER.event("e")
        assert NOOP_TRACER.finished == []
        assert NOOP_TRACER.excerpt() == []


class TestRuntime:
    def test_disabled_by_default(self):
        assert not is_enabled()
        assert obs_runtime.span("x") is NULL_SPAN_CONTEXT

    def test_session_installs_and_restores(self):
        with telemetry_session() as (tracer, metrics):
            assert is_enabled()
            assert obs_runtime.get_tracer() is tracer
            assert obs_runtime.get_metrics() is metrics
        assert not is_enabled()
        assert obs_runtime.get_tracer() is NOOP_TRACER

    def test_session_restores_after_failure(self):
        with pytest.raises(SolverError):
            with telemetry_session():
                raise SolverError("boom")
        assert not is_enabled()

    def test_sessions_nest(self):
        with telemetry_session() as (outer_tracer, _):
            with telemetry_session() as (inner_tracer, _):
                assert obs_runtime.get_tracer() is inner_tracer
            assert obs_runtime.get_tracer() is outer_tracer
        assert not is_enabled()

    def test_span_and_event_helpers(self):
        with telemetry_session() as (tracer, _):
            with obs_runtime.span("stage", "opt1") as span:
                obs_runtime.event("checkpoint", step=2)
            assert span.kind == "stage"
        assert [s.kind for s in tracer.finished] == ["stage"]
        assert tracer.finished[0].events[0].name == "checkpoint"

    def test_traced_decorator(self):
        @traced("helper")
        def double(value):
            return 2 * value

        assert double(3) == 6  # disabled: plain passthrough
        with telemetry_session() as (tracer, _):
            assert double(4) == 8
        assert [s.kind for s in tracer.finished] == ["helper"]
        assert tracer.finished[0].name == "double"

    def test_session_streams_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry_session(sinks=[JsonlTraceSink(str(path))]) \
                as (tracer, _):
            # The header is on disk as soon as the session opens.
            assert [json.loads(line)["record"] for line
                    in path.read_text().splitlines()] == ["meta"]
            with tracer.span("unit", "a"):
                pass
            obs_runtime.pump()
            assert [r["name"] for r in load_trace(str(path))] == ["a"]
            with tracer.span("unit", "b"):
                pass
        # Closing the session did the final pump and the end record.
        assert obs_runtime.STATE.stream is None
        assert [r["name"] for r in load_trace(str(path))] == ["a", "b"]
        last = json.loads(path.read_text().splitlines()[-1])
        assert last == {"record": "end", "spans": 2,
                        "dropped_spans": 0, "open_spans": 0}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork")
    def test_forked_child_drops_the_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry_session(sinks=[JsonlTraceSink(str(path))]):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    dropped = obs_runtime.STATE.stream is None
                    obs_runtime.pump()  # a no-op without a stream
                    code = 0 if dropped and not is_enabled() else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The child neither wrote to nor closed the parent's file.
        records = [json.loads(line)["record"]
                   for line in path.read_text().splitlines()]
        assert records == ["meta", "metrics", "end"]


class TestExport:
    def _sample_tracer(self):
        tracer = Tracer()
        tracer.event("orphan.start")
        with tracer.span("campaign"):
            with tracer.span("benchmark", "basicmath", omega=262.0):
                tracer.event("fault.injected", kind="nan-power")
            with pytest.raises(SolverError):
                with tracer.span("benchmark", "fft"):
                    raise SolverError("bad")
        return tracer

    @staticmethod
    def _write(tracer, path):
        """Stream ``tracer`` to a trace file and close it."""
        stream = TelemetryStream(tracer, MetricsRegistry(),
                                 [JsonlTraceSink(str(path))])
        stream.close()
        return stream

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        self._write(tracer, path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["record"] == "meta"
        assert lines[0]["format"] == TRACE_FORMAT_VERSION
        assert lines[-1] == {"record": "end", "spans": 3,
                             "dropped_spans": 0, "open_spans": 0}
        records = load_trace(str(path))
        # three real spans + the virtual root (orphan events), which
        # closes the file
        assert len(records) == 4
        root = records[-1]
        assert root["span_id"] == 0 and root["kind"] == "trace"
        assert root["events"][0]["name"] == "orphan.start"
        by_kind = {}
        for record in records[:-1]:
            by_kind.setdefault(record["kind"], []).append(record)
        assert len(by_kind["benchmark"]) == 2
        failed = [r for r in by_kind["benchmark"]
                  if r["status"] == "error"]
        assert len(failed) == 1
        assert "SolverError" in failed[0]["error"]

    def test_writer_returns_span_count(self, tmp_path):
        tracer = self._sample_tracer()
        stream = self._write(tracer, tmp_path / "trace.jsonl")
        assert stream.spans_streamed == 3

    @pytest.mark.parametrize("line,fragment", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"record": "mystery"}', "unknown record type"),
        ('{"record": "span"}', "missing kind/span_id"),
    ])
    def test_malformed_lines_rejected(self, line, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            read_trace_jsonl([line])

    def test_blank_lines_and_meta_skipped(self):
        lines = ['{"record": "meta", "format": 2}', "",
                 '{"record": "span", "kind": "x", "span_id": 1}',
                 '{"record": "metrics", "seq": 1, "snapshot": {}}',
                 '{"record": "end", "spans": 1}']
        assert len(read_trace_jsonl(lines)) == 1

    def test_load_trace_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_trace(str(tmp_path / "absent.jsonl"))

    def test_summarize_percentiles_and_parents(self):
        spans = [{"record": "span", "span_id": 1, "parent_id": None,
                  "kind": "run", "duration_s": 1.0}]
        spans += [{"record": "span", "span_id": 10 + i, "parent_id": 1,
                   "kind": "solve", "duration_s": float(i + 1) / 10,
                   "status": "error" if i == 0 else "ok",
                   "events": [{"name": "e", "time_s": 0.0,
                               "attributes": {}}] if i < 2 else []}
                  for i in range(10)]
        summary = summarize_spans(spans)
        solve = summary["solve"]
        assert solve["count"] == 10
        assert solve["errors"] == 1
        assert solve["events"] == 2
        assert solve["p50_s"] == pytest.approx(0.5)
        assert solve["p95_s"] == pytest.approx(1.0)
        assert solve["parent_kind"] == "run"
        assert summary["run"]["parent_kind"] is None

    def test_format_summary_tree(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        self._write(tracer, path)
        text = format_trace_summary(load_trace(str(path)))
        lines = text.splitlines()
        assert lines[0].startswith("trace: 4 spans")
        body = "\n".join(lines[1:])
        assert "campaign" in body
        assert "  benchmark" in body  # nested under campaign
        assert "n=2" in body
        assert "errors=1" in body
        assert "events=1" in body
        for column in ("total=", "p50=", "p95="):
            assert column in body

    def test_format_summary_empty(self):
        assert format_trace_summary([]) == "trace: no spans"


@pytest.fixture(scope="module")
def small_problems(profiles):
    tec = build_cooling_problem(profiles["basicmath"],
                                grid_resolution=4)
    base = build_cooling_problem(profiles["basicmath"],
                                 with_tec=False, grid_resolution=4)
    return tec, base


class TestTracedPipeline:
    def test_oftec_produces_span_tree(self, small_problems):
        tec, _ = small_problems
        operator = tec.model.network.operator
        before = operator.stats
        with telemetry_session() as (tracer, metrics):
            result = run_oftec(tec)
        assert result.feasible
        kinds = {span.kind for span in tracer.finished}
        assert {"oftec", "evaluate"} <= kinds
        counters = metrics.snapshot()["counters"]
        assert counters["evaluator.cache.misses"] > 0
        assert counters["operator.solves"] \
            == operator.stats.solves - before.solves > 0
        assert counters["operator.solve_seconds"] > 0.0

    def test_traced_chaos_attaches_fault_events(self, profiles,
                                                small_problems,
                                                tmp_path):
        tec, base = small_problems
        few = dict(list(profiles.items())[:2])
        plan = full_fault_plan(seed=7, rate=0.05)
        path = tmp_path / "chaos.jsonl"
        with telemetry_session(sinks=[JsonlTraceSink(str(path))]) \
                as (tracer, metrics):
            report = run_chaos_campaign(few, tec, base, plan=plan)
        # Chaos contract holds under tracing: nothing escapes.
        assert report.ok, report.unhandled
        assert sum(report.fired.values()) > 0

        # Every injected fault appears as an event on the span of the
        # solve it perturbed.
        events = [(span, event)
                  for span in tracer.finished
                  for event in span.events
                  if event.name == "fault.injected"]
        assert len(events) == sum(report.fired.values())
        # Forward solves and adjoint solves both take faults.
        assert {span.kind for span, _ in events} == {"evaluate",
                                                     "gradient"}
        by_kind = {}
        for _, event in events:
            kind = event.attributes["kind"]
            by_kind[kind] = by_kind.get(kind, 0) + 1
        assert by_kind == {kind: count
                           for kind, count in report.fired.items()
                           if count}

        # Counters and gauges agree with the injector's own counts.
        snapshot = metrics.snapshot()
        for kind, count in report.fired.items():
            if count:
                assert snapshot["counters"][
                    f"faults.injected.{kind}"] == count
            assert snapshot["gauges"][f"chaos.fired.{kind}"] == count

        # The session streamed the trace as parseable JSONL.
        records = load_trace(str(path))
        assert len(records) == len(tracer.finished)
        assert format_trace_summary(records)

    def test_failure_reports_carry_trace_excerpt(self, profiles,
                                                 small_problems):
        tec, base = small_problems
        few = dict(list(profiles.items())[:2])
        plan = full_fault_plan(seed=7, rate=0.05)
        with telemetry_session():
            report = run_chaos_campaign(few, tec, base, plan=plan)
        assert report.campaign.failures, "seed 7 should inject failures"
        for failure in report.campaign.failures:
            assert failure.trace_excerpt
            assert any("attempt" in line or "ladder" in line
                       for line in failure.trace_excerpt)


def _strip_timing(payload):
    """Drop wall-clock fields, which legitimately differ run to run."""
    timing_keys = {"runtime_ms", "wall_seconds",
                   "average_oftec_runtime_ms"}
    if isinstance(payload, dict):
        return {key: _strip_timing(value)
                for key, value in payload.items()
                if key not in timing_keys}
    if isinstance(payload, list):
        return [_strip_timing(item) for item in payload]
    return payload


class TestBitIdentity:
    def test_tracing_does_not_change_campaign_results(self, profiles,
                                                      small_problems):
        tec, base = small_problems
        plain = run_campaign(profiles, tec, base)
        with telemetry_session():
            traced_run = run_campaign(profiles, tec, base)
        assert not is_enabled()
        plain_dict = _strip_timing(campaign_to_dict(plain))
        traced_dict = _strip_timing(campaign_to_dict(traced_run))
        # Bit-identical modulo wall-clock: tracing is read-only.
        assert plain_dict == traced_dict
