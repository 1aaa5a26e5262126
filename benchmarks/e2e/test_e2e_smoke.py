"""Smoke test of the end-to-end benchmark at grid 4 with tiny inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs every workload untraced and traced at ``--size smoke`` (about 40 s
in all) and checks the output contract, trace coverage, seeded input
digests, that a corrupted reference is counted as failures, and the A/B
verdict rules of ``compare.py``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]


def run_bench(tmp_path: Path, name: str, *args: str):
    """Run ``run.py`` at smoke size; ``(last stdout line, --out file)``."""
    out = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke",
         "--seconds", "0.3", "--out", str(out), *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), \
        json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("e2e"), "untraced",
                     "--trace", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("e2e"), "traced",
                     "--trace", "1")


@pytest.mark.parametrize("run, section", [("untraced", "end_to_end"),
                                          ("traced", "per_layer")])
def test_every_metric_is_emitted_finite_with_its_unit(run, section,
                                                       request):
    line, result = request.getfixturevalue(run)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert set(result["workloads"]) == set(WORKLOAD_NAMES)
    for workload, summary in result["workloads"].items():
        emitted = summary["metrics"]
        for spec in BENCHMARK[section]:
            metric = emitted[spec["name"]]
            assert math.isfinite(metric["value"]), (workload, spec)
            assert metric["unit"] == spec["unit"], (workload, spec)


def test_trace_attributes_the_wall_to_layers(traced):
    _, result = traced
    for workload in ("oftec", "sweep", "online"):
        coverage = result["workloads"][workload]["metrics"][
            "trace.coverage"]["value"]
        assert coverage >= 0.95, workload


@pytest.mark.parametrize("workload", ["oftec", "sweep", "online"])
def test_seed_fixes_the_inputs(workload):
    digest = workloads.input_digest(workload, 0, "smoke", 3)
    assert workloads.input_digest(workload, 0, "smoke", 3) == digest
    assert workloads.input_digest(workload, 1, "smoke", 3) != digest


def test_corrupted_reference_counts_failures(tmp_path):
    reference = tmp_path / "reference.json"
    line, _ = run_bench(tmp_path, "write", "--workload", "oftec",
                        "--reference", "", "--write-reference",
                        str(reference))
    assert line["correct"]
    document = json.loads(reference.read_text())
    items = document["oftec"]["items"]
    assert len(items) == 3 * workloads.REFERENCE_ITEMS["oftec"]
    for record in items.values():
        record["power"] *= 1.01
    reference.write_text(json.dumps(document))
    line, result = run_bench(tmp_path, "check", "--workload", "oftec",
                             "--reference", str(reference))
    # A 0.1 s round runs fewer items than the reference holds, so every
    # item is compared and every one fails.
    assert not line["correct"]
    assert line["failed"] == line["attempted"]
    assert all("reference" in failure
               for failure in result["workloads"]["oftec"]["failures"])


def _result(values: dict, failed: int = 0) -> dict:
    return {"workloads": {"oftec": {"failed": failed, "metrics": {
        name: {"value": value, "unit": "x"}
        for name, value in values.items()}}}}


def test_compare_applies_the_gain_and_bound_rules():
    pairs = 10
    parent = [_result({"latency_ms_p50": 100.0 + i % 3,
                       "throughput_per_s": 10.0 + 0.01 * i,
                       "setup_s": 1.0 + i % 2,
                       "peak_rss_mb": 100.0})
              for i in range(pairs)]
    change = [_result({"latency_ms_p50": 90.0 + i % 3,
                       "throughput_per_s": 10.0 + 0.01 * i,
                       "setup_s": 1.0 + (i + 1) % 2,
                       "peak_rss_mb": 120.0})
              for i in range(pairs)]
    rows = compare.compare(parent, change, BENCHMARK)["oftec"]
    assert rows["latency_ms_p50"]["verdict"] == "gain"
    assert rows["latency_ms_p50"]["won"] == pairs
    assert rows["throughput_per_s"]["verdict"] == "within bound"
    assert rows["setup_s"]["verdict"] == "unresolved"
    assert rows["peak_rss_mb"]["verdict"] == "regression"
    failing = [_result({"latency_ms_p50": 90.0 + i % 3}, failed=1)
               for i in range(pairs)]
    rows = compare.compare(parent, failing, BENCHMARK)["oftec"]
    assert rows["latency_ms_p50"]["verdict"].startswith("gain (void")
