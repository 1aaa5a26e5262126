"""Parallel execution engine: serial vs 2 supervised worker processes.

Not a paper figure — this bench guards the ``repro.exec`` engine with
two arms of the Table 2 campaign (TEC-only included): the supervisor's
in-process serial path (``workers=0``) and a ``workers=2`` fan-out
over the same benchmark units on the supervisor's managed workers.
The parallel arm must reproduce the serial canonical digest bit for
bit and execute every benchmark unit exactly once.  The speedup is
recorded, not asserted: it depends on the host's core count, which
the artifact records under ``machine``.
"""

import hashlib
import json

from _common import emit_bench_json
from repro.analysis import run_campaign
from repro.io import campaign_to_dict


def _canonical_digest(campaign):
    """sha256 of the timing-free canonical JSON of a campaign."""
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_parallel_campaign_and_emit(profiles, tec_problem,
                                    baseline_problem, resolution):
    """Serial vs 2-worker campaign; emits BENCH_5.json."""
    serial = run_campaign(profiles, tec_problem, baseline_problem,
                          include_tec_only=True, workers=0)
    serial_digest = _canonical_digest(serial)
    expected_units = len(profiles)
    print(f"\nserial: {serial.wall_seconds:.1f} s wall, "
          f"{len(serial.comparisons)} benchmarks")

    parallel = run_campaign(profiles, tec_problem, baseline_problem,
                            include_tec_only=True, workers=2)
    assert _canonical_digest(parallel) == serial_digest
    per_worker = parallel.worker_stats["per_worker"]
    speedup = serial.wall_seconds / parallel.wall_seconds
    print(f"workers=2: {parallel.wall_seconds:.1f} s ({speedup:.2f}x), "
          f"{len(per_worker)} worker(s)")

    payload = {
        "bench": "parallel_campaign",
        "grid_resolution": resolution,
        "benchmarks": len(serial.comparisons),
        "expected_units": expected_units,
        "canonical_digest": serial_digest,
        "serial": {"wall_seconds": serial.wall_seconds},
        "parallel": {"workers_2": {
            "workers": 2,
            "wall_seconds": parallel.wall_seconds,
            "speedup": speedup,
            "per_worker": per_worker,
            "supervision": parallel.worker_stats["supervision"],
        }},
    }
    emit_bench_json("BENCH_5.json", payload)

    assert len(serial.comparisons) == len(profiles)
    # Real worker processes with live factor caches ran every
    # benchmark unit exactly once.
    assert sum(row["units"] for row in per_worker) == expected_units
    for row in per_worker:
        assert row["solves"] > 0
        assert row["factorizations"] > 0
