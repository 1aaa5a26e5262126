"""Supervised executor: overhead of an explicit policy on a fault-free run.

Not a paper figure — this bench guards the ``repro.exec.supervisor``
failure-domain machinery.  Every fan-out runs on the supervisor's
managed workers; the same campaign is run twice at the same worker
count:

* **stage grain** — the default fan-out: one unit per pipeline stage
  per benchmark, under the stock policy;
* **supervised** — an explicit :class:`SupervisionPolicy`, which keeps
  benchmarks whole (the grain journals and retry bookkeeping are keyed
  to), no faults injected.

The canonical JSON digests are required to match bit-for-bit —
supervision must never perturb the physics — and the per-pair median
overhead of the explicit policy is written to ``BENCH_6.json`` at the
repository root.

The overhead bar is deliberately loose (50% on a reduced grid, where
fixed per-unit costs dominate): the bench exists to catch accidental
serialization (e.g. a coordinator poll loop starving dispatch), not to
shave milliseconds.
"""

import hashlib
import json

from _common import emit_bench_json, paired_overhead_pct
from repro.analysis import run_campaign
from repro.exec import SupervisionPolicy
from repro.io import campaign_to_dict

WORKERS = 2
REPEATS = 3


def _canonical_digest(campaign):
    """sha256 of the timing-free canonical JSON of a campaign."""
    payload = campaign_to_dict(campaign, canonical=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_supervision_overhead_and_emit(profiles, tec_problem,
                                       baseline_problem, resolution):
    """Stage-grain vs explicit-policy wall time and bit-identity;
    emits BENCH_6.json."""
    digests = {"stage_grain": set(), "supervised": set()}

    def sample_stage_grain():
        campaign = run_campaign(profiles, tec_problem,
                                baseline_problem, workers=WORKERS)
        digests["stage_grain"].add(_canonical_digest(campaign))
        return campaign.wall_seconds

    def sample_supervised():
        campaign = run_campaign(profiles, tec_problem,
                                baseline_problem, workers=WORKERS,
                                supervision=SupervisionPolicy())
        stats = campaign.worker_stats["supervision"]
        # Fault-free: nothing retried, nothing quarantined, circuit
        # closed — the workers ran the same units once each.
        assert stats["retries"] == 0
        assert stats["quarantined"] == 0
        assert not stats["circuit_opened"]
        digests["supervised"].add(_canonical_digest(campaign))
        return campaign.wall_seconds

    stage_s, supervised_s, overhead_pct = paired_overhead_pct(
        sample_stage_grain, sample_supervised, repeats=REPEATS)

    # Supervision must never perturb the physics: every run, either
    # grain, produced the same canonical document.
    assert len(digests["stage_grain"] | digests["supervised"]) == 1
    digest = next(iter(digests["stage_grain"]))

    print(f"\nstage grain: {stage_s:.2f} s wall @ {WORKERS} workers")
    print(f"supervised:  {supervised_s:.2f} s wall @ {WORKERS} workers "
          f"({overhead_pct:+.1f}%)")

    emit_bench_json("BENCH_6.json", {
        "bench": "supervisor_overhead",
        "grid_resolution": resolution,
        "workers": WORKERS,
        "repeats": REPEATS,
        "benchmarks": len(profiles),
        "canonical_digest": digest,
        "stage_grain": {"wall_seconds": stage_s},
        "supervised": {"wall_seconds": supervised_s},
        "overhead_pct": overhead_pct,
    })

    assert overhead_pct <= 50.0
