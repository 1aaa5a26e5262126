"""One round of one workload in a fresh process (started by ``run.py``).

Reads a JSON spec on stdin, builds the workload (the timed set-up),
prints ``ready``, runs items until the round's budget is spent, and
prints one JSON result line.  BLAS threads are pinned to one and every
``REPRO_*`` setting is dropped before numpy is imported, so the
environment cannot change which code path runs.

Spec keys: ``workload``, ``seed``, ``round``, ``rounds``, ``budget_s``,
``trace`` (bool), ``size`` (``full``/``smoke``), ``reference`` (path or
null) and ``write_reference`` (bool: run exactly the reference items and
return their records).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _pin_environment() -> None:
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in [name for name in os.environ
                 if name.startswith("REPRO_")]:
        del os.environ[name]


def _reference(spec: dict, workloads) -> dict:
    """The reference records that apply to this run ({} for none)."""
    if not spec["reference"]:
        return {}
    data = json.loads(Path(spec["reference"]).read_text())
    if data.get("seed") != spec["seed"] \
            or data.get("size") != spec["size"]:
        return {}
    entry = data.get(spec["workload"], {})
    digest = workloads.input_digest(spec["workload"], spec["seed"],
                                    spec["size"], spec["rounds"])
    if entry.get("digest") != digest:
        # Records of other inputs: every compared item must fail.
        return {key: None for key in entry.get("items", {})}
    return entry.get("items", {})


def run_phase(workload, spec: dict, reference: dict, recorder,
              count=None) -> dict:
    """Run items until the budget is spent, or exactly ``count`` items.

    Items run in whole cycles of ``workload.cycle``; another cycle
    starts only if it is expected to fit the budget.  An item that
    raises or fails a check is counted, not fatal.  ``rss_mb`` is the
    process's peak resident set through set-up and the first item: later
    items only add allocator growth that depends on how many ran.
    """
    from workloads import item_input, item_key
    phase = {"attempted": 0, "completed": 0, "failed": 0, "failures": [],
             "latencies": [], "wall": 0.0, "records": {}, "rss_mb": None}
    cycle = workload.cycle
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if count is not None:
            if index >= count:
                break
        elif index and index % cycle == 0 \
                and elapsed * (index + cycle) / index > spec["budget_s"]:
            break
        key = item_key(spec["round"], index)
        inp = item_input(workload.name, spec["seed"], spec["round"],
                         index, spec["size"])
        phase["attempted"] += 1
        index += 1
        try:
            item = workload.run(inp, recorder)
        except Exception:  # noqa: BLE001 - counted as a failed item
            item = None
            phase["failed"] += 1
            phase["failures"].append(
                f"{key}: {traceback.format_exc(limit=-1).strip()}")
        if phase["rss_mb"] is None:
            # ru_maxrss is in KiB on Linux.
            phase["rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if item is None:
            continue
        phase["completed"] += 1
        phase["latencies"].extend(item.latencies)
        phase["wall"] += item.wall
        if recorder is not None:
            recorder.add(item.work)
        try:
            problems = workload.check(item)
            if key in reference:
                expected = reference[key]
                problems += ["reference was recorded for other inputs"] \
                    if expected is None \
                    else workload.compare(item, expected)
            if spec["write_reference"]:
                phase["records"][key] = workload.record(item)
        except Exception:  # noqa: BLE001 - a check that raises fails
            problems = [traceback.format_exc(limit=-1).strip()]
        if problems:
            phase["failed"] += 1
            phase["failures"].append(f"{key}: " + "; ".join(problems))
    return phase


def main() -> int:
    _pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import repro
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {SRC}")
    import hostclock
    import workloads

    spec = json.loads(sys.stdin.read())
    workload = workloads.BY_NAME[spec["workload"]](
        workloads.SIZES[spec["size"]])
    reference = _reference(spec, workloads)
    print("ready", flush=True)

    result = {
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "repro": repro.__version__},
        "digest": workloads.input_digest(spec["workload"], spec["seed"],
                                         spec["size"], spec["rounds"]),
        # Host speed right after set-up, to rescale the set-up time.
        "setup_scale": workload.clock.scale_now(),
        "layers": None,
    }
    if spec["write_reference"]:
        count = workloads.REFERENCE_ITEMS[spec["workload"]]
        phases = {"untraced": run_phase(workload, spec, reference, None,
                                        count)}
    elif spec["trace"]:
        # Untraced, then the same items traced: the difference of their
        # rescaled latencies is the tracing overhead.  Each phase starts
        # from a cold factor cache so the replay cannot reuse the first
        # pass's factors.  Calibrations get spans of their own, so their
        # time never lands in a program layer.
        import layers
        recorder = layers.Recorder()
        spec = dict(spec, budget_s=spec["budget_s"] / 2.0)
        for operator in workload.operators:
            operator.clear()
        untraced = run_phase(workload, spec, reference, None)
        for operator in workload.operators:
            operator.clear()
        clock = workload.clock
        clock.calibrate = recorder.wrap(layers.CALIBRATION, clock.calibrate)
        traced = run_phase(workload, spec, reference, recorder,
                           untraced["attempted"])
        phases = {"untraced": untraced, "traced": traced}
        result["layers"] = recorder.summary()
    else:
        phases = {"untraced": run_phase(workload, spec, reference, None)}
    result["phases"] = phases
    readings = workload.clock.readings
    result["host_ms"] = 1e3 * statistics.median(readings) \
        if readings else None
    result["reference_ms"] = 1e3 * hostclock.REFERENCE_S
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
