"""Tests for the streaming telemetry plane.

Covers the sinks and the telemetry stream (``repro.obs.live``), span
analytics (``repro.obs.analyze``), the progress board
(``repro.obs.progress``), snapshot merging and streamed span adoption
edge cases, and the perf-regression gate script.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    JsonlTraceSink,
    OpenMetricsSink,
    ProgressBoard,
    TelemetryStream,
    Tracer,
    critical_path,
    folded_stacks,
    format_critical_path,
    format_folded,
    metrics_to_openmetrics,
    span_to_dict,
    telemetry_session,
)
from repro.obs import runtime as obs_runtime

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestJsonlTraceSink:
    def test_writes_json_lines(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "trace.jsonl"))
        sink.write({"record": "span", "name": "a"})
        sink.write({"record": "metrics", "seq": 1})
        sink.close()
        records = read_jsonl(tmp_path / "trace.jsonl")
        assert [r["record"] for r in records] == ["span", "metrics"]

    def test_unserializable_record_degrades(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "trace.jsonl"))
        sink.write({"record": "span", "bad": {1, 2}})
        sink.close()
        # default=str handles it; the line must parse back.
        records = read_jsonl(tmp_path / "trace.jsonl")
        assert len(records) == 1

    def test_write_after_close_is_noop(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "trace.jsonl"))
        sink.close()
        sink.write({"record": "span"})
        sink.close()
        assert read_jsonl(tmp_path / "trace.jsonl") == []


class TestOpenMetricsSink:
    def test_renders_counters_gauges_histograms(self):
        with telemetry_session() as (_tracer, metrics):
            metrics.counter("operator.solves").inc(3)
            metrics.gauge("evaluator.cache.size").set(7.0)
            metrics.histogram("solve.seconds", (0.1, 1.0)).observe(0.5)
            text = metrics_to_openmetrics(metrics.snapshot())
        assert "repro_operator_solves_total 3" in text
        assert "# TYPE repro_evaluator_cache_size gauge" in text
        assert "repro_evaluator_cache_size 7" in text
        assert 'repro_solve_seconds_bucket{le="1"} 1' in text
        assert 'le="+Inf"' in text
        assert text.endswith("# EOF\n")

    def test_atomic_snapshot_file(self, tmp_path):
        path = tmp_path / "metrics.om"
        sink = OpenMetricsSink(str(path))
        with telemetry_session() as (_tracer, metrics):
            metrics.counter("operator.solves").inc()
            sink.write({"record": "metrics", "seq": 1,
                        "snapshot": metrics.snapshot()})
            sink.flush()
            first = path.read_text()
            metrics.counter("operator.solves").inc()
            sink.write({"record": "metrics", "seq": 2,
                        "snapshot": metrics.snapshot()})
            sink.flush()
            second = path.read_text()
        sink.close()
        assert "repro_operator_solves_total 1" in first
        assert "repro_operator_solves_total 2" in second
        # No temp-file litter left beside the snapshot.
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.om"]

    def test_ignores_span_records(self, tmp_path):
        path = tmp_path / "metrics.om"
        sink = OpenMetricsSink(str(path))
        sink.write({"record": "span", "name": "x"})
        sink.flush()
        sink.close()
        assert not path.exists()


class TestTelemetryStream:
    def test_pumps_spans_once(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "live.jsonl"))
        with telemetry_session() as (tracer, metrics):
            stream = TelemetryStream(tracer, metrics, [sink])
            with tracer.span("unit", "a"):
                pass
            stream.pump()
            with tracer.span("unit", "b"):
                pass
            stream.pump()
            stream.pump()  # nothing new: no duplicate records
            stream.close()
        names = [r.get("name") for r in
                 read_jsonl(tmp_path / "live.jsonl")
                 if r["record"] == "span"]
        assert names == ["a", "b"]
        assert stream.spans_streamed == 2

    def test_snapshot_on_every_pump(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "live.jsonl"))
        with telemetry_session() as (tracer, metrics):
            stream = TelemetryStream(tracer, metrics, [sink])
            counts = []
            for _ in range(3):
                metrics.counter("units").inc()
                counts.append(stream.pump())
            stream.close()
        metric_records = [r for r in
                          read_jsonl(tmp_path / "live.jsonl")
                          if r["record"] == "metrics"]
        # No spans were finished, so each pump wrote exactly its own
        # snapshot, taken at pump time; close pumped once more.
        assert counts == [1, 1, 1]
        assert [r["seq"] for r in metric_records] == [1, 2, 3, 4]
        assert [r["snapshot"]["counters"]["units"]
                for r in metric_records] == [1, 2, 3, 3]

    def test_pumped_records_are_on_disk_before_close(self, tmp_path):
        live = tmp_path / "live.jsonl"
        om = tmp_path / "metrics.om"
        with telemetry_session() as (tracer, metrics):
            stream = TelemetryStream(
                tracer, metrics,
                [JsonlTraceSink(str(live)), OpenMetricsSink(str(om))])
            for name in ("a", "b", "c"):
                with tracer.span("unit", name):
                    metrics.counter("units").inc()
            written = stream.pump()
            # No close yet: a run that dies here keeps all of it.
            records = read_jsonl(live)
            assert om.exists()
            assert "repro_units_total 3" in om.read_text()
            stream.close()
        assert written == 4
        assert [r.get("name") for r in records
                if r["record"] == "span"] == ["a", "b", "c"]
        [snapshot] = [r for r in records if r["record"] == "metrics"]
        assert snapshot["snapshot"]["counters"]["units"] == 3

    def test_failing_sink_is_quarantined(self, tmp_path):
        class ExplodingSink:
            closed = False

            def write(self, record):
                raise RuntimeError("disk on fire")

            def flush(self):
                pass

            def close(self):
                self.closed = True

        bad = ExplodingSink()
        healthy = JsonlTraceSink(str(tmp_path / "ok.jsonl"))
        with telemetry_session() as (tracer, metrics):
            stream = TelemetryStream(tracer, metrics, [bad, healthy])
            for name in ("a", "b", "c"):
                with tracer.span("unit", name):
                    pass
                stream.pump()
            stream.close()
            stream.close()  # idempotent
        # The healthy sink got every record; the bad one was dropped
        # after its first failure (the header) instead of failing the
        # run, and still closed at the end.
        records = read_jsonl(tmp_path / "ok.jsonl")
        assert records[0]["record"] == "meta"
        assert records[-1]["record"] == "end"
        assert [r.get("name") for r in records
                if r["record"] == "span"] == ["a", "b", "c"]
        assert [r["seq"] for r in records
                if r["record"] == "metrics"] == [1, 2, 3, 4]
        assert stream.sink_errors == 1
        assert bad.closed


    @pytest.mark.parametrize("pump_between", [True, False])
    def test_spans_past_the_tracer_cap(self, tmp_path, pump_between):
        # The tracer keeps its newest two spans.  Spans pumped before
        # they leave its memory are all in the file; spans it dropped
        # before any pump are counted as dropped in the end record.
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(max_spans=2)
        with telemetry_session(tracer,
                               sinks=[JsonlTraceSink(str(path))]):
            for name in "abcde":
                with tracer.span("unit", name):
                    pass
                if pump_between:
                    obs_runtime.pump()
        records = read_jsonl(path)
        names = [r["name"] for r in records if r["record"] == "span"]
        assert names == (list("abcde") if pump_between else ["d", "e"])
        assert records[-1]["dropped_spans"] == len("abcde") - len(names)


def _span(span_id, parent_id, kind, name, start_s, end_s):
    return {"span_id": span_id, "parent_id": parent_id, "kind": kind,
            "name": name, "start_s": start_s, "end_s": end_s,
            "duration_s": end_s - start_s, "status": "ok",
            "attributes": {}, "events": []}


class TestSpanAnalytics:
    def tree(self):
        # root [0, 10]; child A [0, 4]; child B [4, 9];
        # grandchild under B [5, 8].
        return [
            _span(1, None, "campaign", None, 0.0, 10.0),
            _span(2, 1, "unit", "a", 0.0, 4.0),
            _span(3, 1, "unit", "b", 4.0, 9.0),
            _span(4, 3, "evaluate", None, 5.0, 8.0),
        ]

    def test_folded_self_time(self):
        stacks = folded_stacks(self.tree())
        assert stacks["campaign"] == 1_000_000          # 10 - 4 - 5
        assert stacks["campaign;unit:a"] == 4_000_000
        assert stacks["campaign;unit:b"] == 2_000_000   # 5 - 3
        assert stacks["campaign;unit:b;evaluate"] == 3_000_000
        # Total self time reconstructs the root's wall time.
        assert sum(stacks.values()) == 10_000_000

    def test_folded_scrubs_reserved_characters(self):
        spans = [_span(1, None, "unit", "a;b c", 0.0, 1.0)]
        stacks = folded_stacks(spans)
        assert list(stacks) == ["unit:a,b_c"]

    def test_format_folded_deterministic(self):
        text = format_folded(folded_stacks(self.tree()))
        assert text.splitlines() == sorted(text.splitlines())
        assert text.endswith("\n")
        assert format_folded({}) == ""

    def test_critical_path_follows_latest_finisher(self):
        path = critical_path(self.tree())
        assert [p["label"] for p in path] == \
            ["campaign", "unit:b", "evaluate"]
        assert path[0]["fraction"] == 1.0
        assert path[1]["self_s"] == pytest.approx(2.0)  # 5 - 3
        assert path[2]["self_s"] == pytest.approx(3.0)

    def test_critical_path_empty(self):
        assert critical_path([]) == []
        assert format_critical_path([]) == "trace: no spans"

    def test_round_trip_with_real_tracer(self):
        with telemetry_session() as (tracer, _metrics):
            with tracer.span("campaign"):
                with tracer.span("unit", "x"):
                    pass
        records = [span_to_dict(span) for span in tracer.finished]
        stacks = folded_stacks(records)
        assert any(key.startswith("campaign") for key in stacks)
        path = critical_path(records)
        assert path[0]["label"] == "campaign"


class TestProgressBoard:
    def test_non_tty_logs_lifecycle(self):
        out = io.StringIO()
        board = ProgressBoard(out, interval_s=0.001, label="campaign")
        board.begin(3)
        board.unit_running("a")
        board.unit_done("a", 0.5)
        board.unit_running("b")
        board.unit_retrying("b", attempt=1, reason="deadline")
        board.unit_running("b", attempt=2)
        board.unit_done("b", 0.7)
        board.unit_running("c")
        board.unit_quarantined("c", attempts=3)
        board.finish()
        text = out.getvalue()
        assert "campaign: 0/3" in text
        assert "1 retried" in text
        assert "1 quarantined" in text
        assert "\r" not in text  # log lines, not TTY rewrites
        assert board.done == 2
        assert board.retries == 1
        assert board.quarantined == 1

    def test_cache_rates_from_live_metrics(self):
        out = io.StringIO()
        board = ProgressBoard(out, total=2, interval_s=0.001)
        board.live_metrics({"counters": {
            "evaluator.cache.hits": 3, "evaluator.cache.misses": 1,
            "operator.cache_hits": 1, "operator.factorizations": 3,
            "operator.fresh_factorizations": 1}})
        line = board.status_line()
        assert "eval cache 75%" in line
        # Reuse over warm systems, as OperatorStats.reuse_ratio: one
        # exact hit against one fresh factor (cold factors are not
        # warm systems and do not count).
        assert "factor cache 50%" in line
        assert "krylov" not in line

    def test_krylov_work_from_live_counters(self):
        out = io.StringIO()
        board = ProgressBoard(out, total=2, interval_s=0.001)
        board.live_metrics({"counters": {
            "operator.krylov_solves": 40,
            "operator.krylov_iterations": 300,
            "operator.fresh_factorizations": 2}})
        line = board.status_line()
        assert "krylov 40 solves 7.5 it/solve 2 fresh factors" in line
        # PCG on the held factor counts as reuse: 40 of 42 warm systems.
        assert "factor cache 95%" in line

    def test_eta_appears_after_first_completion(self):
        out = io.StringIO()
        board = ProgressBoard(out, total=4, interval_s=0.001)
        board.begin(4)
        assert board.eta_s() is None
        board.unit_running("a")
        board.unit_done("a", 0.1)
        assert board.eta_s() is not None
        assert board.throughput() > 0.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            ProgressBoard(io.StringIO(), interval_s=0.0)


class TestMergeSnapshotOrdering:
    def snap_a(self):
        return {"counters": {"operator.solves": 3},
                "gauges": {"evaluator.cache.size": 5.0},
                "histograms": {"solve.seconds": {
                    "buckets": [[0.1, 1], [1.0, 0]], "overflow": 0,
                    "count": 1, "sum": 0.05, "min": 0.05,
                    "max": 0.05}}}

    def snap_b(self):
        return {"counters": {"operator.solves": 2,
                             "journal.records": 4},
                "gauges": {"evaluator.cache.size": 9.0},
                "histograms": {"solve.seconds": {
                    "buckets": [[0.1, 0], [1.0, 2]], "overflow": 1,
                    "count": 3, "sum": 4.5, "min": 0.4,
                    "max": 3.0}}}

    def merged(self, *snaps):
        with telemetry_session() as (_tracer, metrics):
            for snap in snaps:
                metrics.merge_snapshot(snap)
            return metrics.snapshot()

    def test_out_of_order_counters_and_histograms_commute(self):
        ab = self.merged(self.snap_a(), self.snap_b())
        ba = self.merged(self.snap_b(), self.snap_a())
        assert ab["counters"] == ba["counters"]
        assert ab["counters"]["operator.solves"] == 5
        hist_ab = ab["histograms"]["solve.seconds"]
        hist_ba = ba["histograms"]["solve.seconds"]
        for key in ("count", "sum", "min", "max", "buckets",
                    "overflow"):
            assert hist_ab[key] == hist_ba[key]
        assert hist_ab["count"] == 4
        assert hist_ab["min"] == 0.05
        assert hist_ab["max"] == 3.0

    def test_gauges_last_write_wins(self):
        ab = self.merged(self.snap_a(), self.snap_b())
        ba = self.merged(self.snap_b(), self.snap_a())
        assert ab["gauges"]["evaluator.cache.size"] == 9.0
        assert ba["gauges"]["evaluator.cache.size"] == 5.0

    def test_duplicate_live_then_final_snapshot_double_counts(self):
        # Documented hazard: merge_snapshot folds *absolute* snapshots,
        # so callers must merge each worker's totals exactly once.
        # The supervisor guarantees this by adopting each unit's
        # result payload once, when it accepts the result.
        twice = self.merged(self.snap_a(), self.snap_a())
        assert twice["counters"]["operator.solves"] == 6

    def test_empty_snapshot_is_identity(self):
        merged = self.merged(self.snap_a(), {})
        assert merged["counters"]["operator.solves"] == 3


class TestAdoptRecordsStreamed:
    def source_records(self):
        with telemetry_session() as (tracer, _metrics):
            with tracer.span("unit", "w"):
                with tracer.span("stage", "s1"):
                    with tracer.span("evaluate"):
                        pass
                with tracer.span("stage", "s2"):
                    pass
        return [span_to_dict(span) for span in tracer.finished]

    def adopt(self, batches):
        with telemetry_session() as (tracer, _metrics):
            with tracer.span("campaign"):
                for batch in batches:
                    tracer.adopt_records(batch)
            return [span_to_dict(span) for span in tracer.finished]

    @staticmethod
    def shape(adopted):
        by_id = {r["span_id"]: r for r in adopted}

        def chain(record):
            parent = by_id.get(record.get("parent_id"))
            if parent is None:
                return (record["kind"], record.get("name"))
            return chain(parent) + (record["kind"],)

        return sorted(chain(r) for r in adopted)

    def test_without_persistent_map_cross_batch_parents_reroot(self):
        records = self.source_records()
        unit = [r for r in records if r["kind"] == "unit"]
        rest = [r for r in records if r["kind"] != "unit"]
        adopted = self.adopt([unit, rest])  # ids map per batch
        # Stage spans lost their unit parent: they re-rooted under the
        # adoption parent (the campaign span) instead of cross-linking.
        chains = self.shape(adopted)
        assert ("campaign", None, "stage") in chains

    def test_per_batch_map_falls_back_to_parent(self):
        records = self.source_records()
        # Ids map per batch, so a batch whose parents finished in an
        # earlier batch re-roots under the adoption parent instead of
        # crashing or cross-linking.
        adopted = self.adopt([records[:2], records[2:]])
        campaign = [r for r in adopted if r["kind"] == "campaign"]
        assert len(campaign) == 1
        root_id = campaign[0]["span_id"]
        units = [r for r in adopted
                 if r["kind"] == "unit" and r["parent_id"] == root_id]
        assert units  # the unit span re-rooted under the campaign


class TestBenchGate:
    def run_gate(self, argv):
        sys.path.insert(0, str(SCRIPTS))
        try:
            import bench_gate
        finally:
            sys.path.pop(0)
        return bench_gate.main(argv)

    def seed_artifacts(self, directory, **overrides):
        docs = {
            "BENCH_3.json": {
                "grid_resolution": 12,
                "repeated_solve": {"speedup": 38.0},
                "table2_campaign": {
                    "factorizations_per_solve": 0.9}},
            "BENCH_4.json": {
                "grid_resolution": 12,
                "oftec": {"overhead_pct": 2.0},
                "warm_solve": {"overhead_pct": 3.0},
                "streaming": {"overhead_pct": 2.2}},
            "BENCH_5.json": {
                "benchmarks": 2,
                "canonical_digest": "ab" * 32,
                "parallel": {"workers_2": {"per_worker": [
                    {"units": 1}, {"units": 1}]}}},
        }
        docs.update(overrides)
        for name, doc in docs.items():
            if doc is None:
                continue
            (directory / name).write_text(json.dumps(doc))

    def test_healthy_artifacts_pass(self, tmp_path, capsys):
        self.seed_artifacts(tmp_path)
        assert self.run_gate(["--dir", str(tmp_path),
                              "--require-all"]) == 0
        out = capsys.readouterr().out
        assert "bench_gate: ok" in out

    def test_committed_artifacts_pass(self, capsys):
        repo = str(Path(__file__).resolve().parents[1])
        assert self.run_gate(["--dir", repo, "--require-all"]) == 0

    def test_broken_factor_cache_fails(self, tmp_path, capsys):
        self.seed_artifacts(tmp_path, **{"BENCH_3.json": {
            "grid_resolution": 12,
            "repeated_solve": {"speedup": 1.1},
            "table2_campaign": {"factorizations_per_solve": 2.5}}})
        assert self.run_gate(["--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  BENCH_3" in out

    def test_streaming_budget_fails(self, tmp_path):
        self.seed_artifacts(tmp_path, **{"BENCH_4.json": {
            "grid_resolution": 12,
            "oftec": {"overhead_pct": 2.0},
            "warm_solve": {"overhead_pct": 3.0},
            "streaming": {"overhead_pct": 9.0}}})
        assert self.run_gate(["--dir", str(tmp_path)]) == 1

    def test_smoke_resolution_skips_resolution_gated_budgets(
            self, tmp_path, capsys):
        self.seed_artifacts(tmp_path, **{"BENCH_4.json": {
            "grid_resolution": 6,
            "oftec": {"overhead_pct": 2.0},
            "warm_solve": {"overhead_pct": 40.0},
            "streaming": {"overhead_pct": 40.0}}})
        assert self.run_gate(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "SKIP  BENCH_4 warm-solve" in out
        assert "SKIP  BENCH_4 streaming" in out

    def test_missing_artifact_skips_unless_required(self, tmp_path):
        self.seed_artifacts(tmp_path, **{"BENCH_5.json": None})
        assert self.run_gate(["--dir", str(tmp_path)]) == 0
        assert self.run_gate(["--dir", str(tmp_path),
                              "--require-all"]) == 1

    def test_drift_warns_then_strict_fails(self, tmp_path, capsys):
        current = tmp_path / "current"
        baseline = tmp_path / "baseline"
        current.mkdir()
        baseline.mkdir()
        self.seed_artifacts(baseline)
        self.seed_artifacts(current, **{"BENCH_3.json": {
            "grid_resolution": 12,
            "repeated_solve": {"speedup": 5.0},  # big regression
            "table2_campaign": {"factorizations_per_solve": 0.9}}})
        assert self.run_gate(["--dir", str(current),
                              "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "DRIFT BENCH_3.json repeated-solve speedup" in out
        assert self.run_gate(["--dir", str(current),
                              "--baseline", str(baseline),
                              "--strict-drift"]) == 1

    def test_overhead_drift_in_points(self, tmp_path, capsys):
        # Overhead percentages sit near zero: 0.30% -> 1.57% is noise
        # (+1.27 points), not +127% drift; 4.5% is +4.20 points.
        current = tmp_path / "current"
        baseline = tmp_path / "baseline"
        current.mkdir()
        baseline.mkdir()
        bench4 = {"grid_resolution": 12,
                  "oftec": {"overhead_pct": 0.30},
                  "warm_solve": {"overhead_pct": 0.5},
                  "streaming": {"overhead_pct": 0.30}}
        self.seed_artifacts(baseline, **{"BENCH_4.json": bench4})
        bench4 = dict(bench4, oftec={"overhead_pct": 1.57})
        self.seed_artifacts(current, **{"BENCH_4.json": bench4})
        argv = ["--dir", str(current), "--baseline", str(baseline),
                "--strict-drift"]
        assert self.run_gate(argv) == 0
        assert "DRIFT" not in capsys.readouterr().out
        bench4 = dict(bench4, streaming={"overhead_pct": 4.5})
        self.seed_artifacts(current, **{"BENCH_4.json": bench4})
        assert self.run_gate(argv) == 1
        out = capsys.readouterr().out
        assert "DRIFT BENCH_4.json streaming overhead pct: " \
            "0.30% -> 4.50%: +4.20 pts vs tolerance 3.00 pts" in out
        assert "oftec telemetry overhead pct" not in out

    def test_krylov_iterations_drift_warns(self, tmp_path, capsys):
        # Re-tightening the leakage loop's Newton solves shows up as
        # more CG iterations per Krylov solve.
        current = tmp_path / "current"
        baseline = tmp_path / "baseline"
        current.mkdir()
        baseline.mkdir()
        bench3 = {"grid_resolution": 12,
                  "repeated_solve": {"speedup": 38.0},
                  "table2_campaign": {"factorizations_per_solve": 0.9,
                                      "krylov_iterations_per_solve": 3.9}}
        self.seed_artifacts(baseline, **{"BENCH_3.json": bench3})
        self.seed_artifacts(current, **{"BENCH_3.json": bench3})
        assert self.run_gate(["--dir", str(current), "--baseline",
                              str(baseline), "--strict-drift"]) == 0
        capsys.readouterr()
        bench3["table2_campaign"]["krylov_iterations_per_solve"] = 7.1
        self.seed_artifacts(current, **{"BENCH_3.json": bench3})
        assert self.run_gate(["--dir", str(current), "--baseline",
                              str(baseline), "--strict-drift"]) == 1
        assert "DRIFT BENCH_3.json CG iterations per Krylov solve" \
            in capsys.readouterr().out

    def test_sweep_factorizations_drift_warns(self, tmp_path, capsys):
        # A sweep that factors fresh at most of its points again (every
        # runaway probe, and the point after it) shows up here.
        current = tmp_path / "current"
        baseline = tmp_path / "baseline"
        current.mkdir()
        baseline.mkdir()
        bench3 = {"grid_resolution": 12,
                  "repeated_solve": {"speedup": 38.0},
                  "fig6_sweep": {"factorizations_per_point": 0.004},
                  "table2_campaign": {"factorizations_per_solve": 0.9}}
        self.seed_artifacts(baseline, **{"BENCH_3.json": bench3})
        self.seed_artifacts(current, **{"BENCH_3.json": bench3})
        assert self.run_gate(["--dir", str(current), "--baseline",
                              str(baseline), "--strict-drift"]) == 0
        capsys.readouterr()
        bench3["fig6_sweep"]["factorizations_per_point"] = 0.6
        self.seed_artifacts(current, **{"BENCH_3.json": bench3})
        assert self.run_gate(["--dir", str(current), "--baseline",
                              str(baseline), "--strict-drift"]) == 1
        assert "DRIFT BENCH_3.json Fig. 6 sweep factorizations per point" \
            in capsys.readouterr().out

    def test_bench5_digest_must_match_baseline(self, tmp_path, capsys):
        current = tmp_path / "current"
        baseline = tmp_path / "baseline"
        current.mkdir()
        baseline.mkdir()
        bench5 = {"grid_resolution": 12, "benchmarks": 2,
                  "canonical_digest": "ab" * 32,
                  "parallel": {"workers_2": {"per_worker": [
                      {"units": 1}, {"units": 1}]}}}
        self.seed_artifacts(baseline, **{"BENCH_5.json": bench5})
        changed = dict(bench5, canonical_digest="cd" * 32)
        self.seed_artifacts(current, **{"BENCH_5.json": changed})
        assert self.run_gate(["--dir", str(current),
                              "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  BENCH_5 canonical digest vs baseline" in out
        assert "ab" * 32 in out and "cd" * 32 in out
        # A different grid is a different campaign: no comparison.
        self.seed_artifacts(current, **{"BENCH_5.json": dict(
            changed, grid_resolution=6)})
        assert self.run_gate(["--dir", str(current),
                              "--baseline", str(baseline)]) == 0
        assert "SKIP  BENCH_5 canonical digest vs baseline" \
            in capsys.readouterr().out
        # Same grid, same digest passes.
        self.seed_artifacts(current, **{"BENCH_5.json": bench5})
        assert self.run_gate(["--dir", str(current),
                              "--baseline", str(baseline),
                              "--strict-drift"]) == 0
        assert "PASS  BENCH_5 canonical digest vs baseline" \
            in capsys.readouterr().out

    def test_bad_directories_are_config_errors(self, tmp_path):
        assert self.run_gate(["--dir", str(tmp_path / "nope")]) == 5
        assert self.run_gate(["--dir", str(tmp_path),
                              "--baseline",
                              str(tmp_path / "nope")]) == 5
