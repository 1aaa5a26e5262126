"""Observability overhead: the telemetry plane must be near-free.

Two claims are measured and written to ``BENCH_4.json`` at the
repository root:

* **disabled**: with no telemetry session installed, the instrumented
  seams cost one attribute check — warm-solve throughput stays at the
  BENCH_3.json level;
* **enabled**: a full tracing + metrics session adds bounded overhead
  (budget: <5% on warm solves at realistic grids, where a sparse
  back-substitution costs hundreds of microseconds; tiny smoke grids
  amortize the fixed per-seam cost over less work, so the hard gate
  only applies at resolution >= 8);
* **streaming**: attaching the session's sinks (the JSONL trace file
  + OpenMetrics, written and flushed by the per-unit pump the exec
  supervisor does) keeps a campaign-shaped batch within the same <5%
  budget at realistic grids (resolution >= 12, where a unit's solves
  dominate the ~1 ms of per-unit export CPU).  This arm is timed in
  process CPU seconds over :data:`_STREAMING_PAIRS` pairs (see there).

The warm-solve arm is timed in process CPU seconds too, over
:data:`_WARM_SOLVE_PAIRS` pairs (see there).
"""

import os
import tempfile
import time

import numpy as np

from _common import emit_bench_json, paired_overhead_pct
from repro import run_oftec
from repro.core import Evaluator
from repro.obs import JsonlTraceSink, OpenMetricsSink, telemetry_session
from repro.obs import runtime as obs_runtime
from repro.thermal import KrylovState


def _solve_sample(network, overlay, rhs, rounds, warm):
    """Mean CPU seconds per warm ``network.solve`` over one batch (each
    a back-substitution against the factor ``warm`` holds)."""
    start = time.process_time()
    for _ in range(rounds):
        network.solve(overlay, rhs, warm)
    return (time.process_time() - start) / rounds


#: Paired batches behind the warm-solve overhead.  A batch is 200 warm
#: solves, ~70 ms at grid 12, so the arm measures a few microseconds
#: of per-solve telemetry against host noise, and reads process CPU
#: time.  On a shared 2-vCPU host at grid 12, 15 runs of 7 wall-clock
#: pairs read -11.2% to +10.0%; five back-to-back runs of the arm
#: alone spanned 2.6 points over 61 CPU-time pairs and 0.6 over 101.
_WARM_SOLVE_PAIRS = 101


def _paired_warm_solve_seconds(network, overlay, rhs, rounds, warm,
                               repeats=_WARM_SOLVE_PAIRS):
    """Median (disabled, enabled, overhead pct) CPU s per warm solve."""
    network.solve(overlay, rhs, warm)  # prime the held factor

    def enabled_sample():
        with telemetry_session():
            return _solve_sample(network, overlay, rhs, rounds, warm)

    return paired_overhead_pct(
        lambda: _solve_sample(network, overlay, rhs, rounds, warm),
        enabled_sample, repeats=repeats)


def _oftec_sample(problem):
    """Wall seconds of one cold Algorithm 1 run."""
    evaluator = Evaluator(problem)
    start = time.perf_counter()
    run_oftec(problem, evaluator=evaluator)
    return time.perf_counter() - start


#: Paired Algorithm 1 runs behind the oftec overhead.  Each run is
#: cold (its own evaluator and solve context), so one sample is tens
#: (reduced grids) to a few hundred (grid 12) milliseconds.  On a
#: 2-vCPU host the median of 15 pairs swung from -1% to +13% across
#: runs of one tree at grid 12, while 60-pair medians stay within about
#: 2%; 60 pairs keep the 5% gate above host noise.
_OFTEC_PAIRS = 60


def _paired_oftec_seconds(problem, repeats=_OFTEC_PAIRS):
    """Median (disabled, enabled, overhead pct) wall seconds."""
    def enabled_sample():
        with telemetry_session():
            return _oftec_sample(problem)

    return paired_overhead_pct(lambda: _oftec_sample(problem),
                               enabled_sample, repeats=repeats)


#: Campaign units per streaming sample.  The session, stream and sinks
#: are set up once per campaign in real use, so the bench amortizes
#: that fixed cost over a campaign-shaped batch of units rather than
#: charging it to a single run.
_STREAMING_UNITS = 3

#: Paired batches behind the streaming overhead.  Streaming is
#: synchronous — every pump writes and flushes its sinks on the
#: caller's thread, with no fsync — so its whole cost is process CPU
#: time, and the arm reads that clock: wall time adds the scheduling
#: noise of whatever else shares the host.  On a shared 2-vCPU host at
#: grid 12, five back-to-back medians spanned 3.6 points over 7
#: wall-clock pairs, 2.9 over 31, 2.7 over 41 CPU-time pairs run in
#: one order, and 1.2 over 61 CPU-time pairs in alternating order.
_STREAMING_PAIRS = 61


def _campaign_unit(profile, resolution):
    """One campaign-shaped unit: build the problem, run Algorithm 1.

    A real campaign unit assembles its own thermal model and pays its
    own cold factorizations (parallel workers share nothing), so the
    streaming comparison must too — reusing one warm operator would
    measure export CPU against units 20-60x lighter than reality.
    """
    from repro import build_cooling_problem
    problem = build_cooling_problem(profile,
                                    grid_resolution=resolution)
    run_oftec(problem, evaluator=Evaluator(problem))


def _plain_batch_sample(profile, resolution):
    """CPU seconds of a batch of campaign units, no telemetry."""
    start = time.process_time()
    for _ in range(_STREAMING_UNITS):
        _campaign_unit(profile, resolution)
    return time.process_time() - start


def _streaming_batch_sample(profile, resolution, directory):
    """CPU seconds of the same batch with the session's sinks attached.

    This is the full streaming path the CLI wires for ``--trace`` /
    ``--openmetrics``: a telemetry session owning a TelemetryStream
    that writes the JSONL trace file and an OpenMetrics snapshot.  The
    stream is pumped after every unit (exactly what the exec supervisor
    does when it accepts a unit) and closed with the session, each pump
    writing the new spans and a metrics snapshot before the clock stops
    — the measured time includes exporting every span and metrics
    record, not just producing them.
    """
    start = time.process_time()
    sinks = [JsonlTraceSink(os.path.join(directory, "trace.jsonl")),
             OpenMetricsSink(os.path.join(directory, "metrics.om"))]
    with telemetry_session(sinks=sinks):
        for _ in range(_STREAMING_UNITS):
            _campaign_unit(profile, resolution)
            obs_runtime.pump()
    return time.process_time() - start


def _paired_streaming_seconds(profile, resolution,
                              repeats=_STREAMING_PAIRS):
    """Median (disabled, streaming, overhead pct) CPU seconds."""
    with tempfile.TemporaryDirectory() as directory:
        return paired_overhead_pct(
            lambda: _plain_batch_sample(profile, resolution),
            lambda: _streaming_batch_sample(profile, resolution,
                                            directory),
            repeats=repeats)


def test_obs_overhead_and_emit(tec_problem, profiles, resolution):
    """Warm-solve and whole-algorithm overhead of an enabled session;
    emits BENCH_4.json."""
    model = tec_problem.model
    zeros = np.zeros(model.grid.cell_count)
    diag, rhs = model.overlays(262.0, 1.0,
                               tec_problem.dynamic_cell_power,
                               zeros, zeros, sink_heat=2.0)
    diag, rhs = diag.copy(), rhs.copy()
    network = model.network
    rounds = 200
    warm = KrylovState()

    # Untimed warmup: ramp CPU frequency and fault in scipy pages so
    # the first timed batch is not penalized by cold-start.
    _solve_sample(network, diag, rhs, rounds, warm)

    with telemetry_session() as (_tracer, metrics):
        network.solve(diag, rhs, warm)
        solve_count = \
            metrics.snapshot()["counters"]["operator.solves"]
    disabled, enabled, solve_overhead_pct = \
        _paired_warm_solve_seconds(network, diag, rhs, rounds, warm)

    with telemetry_session() as (tracer, _metrics):
        _oftec_sample(tec_problem)
        spans = len(tracer.finished)
    oftec_disabled, oftec_enabled, oftec_overhead_pct = \
        _paired_oftec_seconds(tec_problem)
    stream_disabled, stream_enabled, stream_overhead_pct = \
        _paired_streaming_seconds(profiles["basicmath"], resolution)

    print(f"\nwarm solve: disabled {1.0 / disabled:.0f}/s, enabled "
          f"{1.0 / enabled:.0f}/s ({solve_overhead_pct:+.2f}%)")
    print(f"oftec: disabled {oftec_disabled:.3f} s, enabled "
          f"{oftec_enabled:.3f} s ({oftec_overhead_pct:+.2f}%), "
          f"{spans} spans")
    print(f"streaming ({_STREAMING_UNITS} units, CPU s): disabled "
          f"{stream_disabled:.3f} s, trace + OpenMetrics "
          f"{stream_enabled:.3f} s ({stream_overhead_pct:+.2f}%)")

    payload = {
        "bench": "obs_overhead",
        "grid_resolution": resolution,
        "warm_solve": {
            "rounds": rounds,
            "disabled_solves_per_sec": 1.0 / disabled,
            "enabled_solves_per_sec": 1.0 / enabled,
            "overhead_pct": solve_overhead_pct,
            "pairs": _WARM_SOLVE_PAIRS,
            "clock": "process_time",
        },
        "oftec": {
            "disabled_seconds": oftec_disabled,
            "enabled_seconds": oftec_enabled,
            "overhead_pct": oftec_overhead_pct,
            "pairs": _OFTEC_PAIRS,
            "spans": spans,
        },
        "streaming": {
            "disabled_seconds": stream_disabled,
            "enabled_seconds": stream_enabled,
            "overhead_pct": stream_overhead_pct,
            "units_per_sample": _STREAMING_UNITS,
            "pairs": _STREAMING_PAIRS,
            "clock": "process_time",
        },
    }
    emit_bench_json("BENCH_4.json", payload)

    # The session actually instrumented the solves it covered.
    assert solve_count >= 1
    assert spans > 0
    # Whole-algorithm overhead is dominated by the solves themselves;
    # it must stay within the 5% budget at any resolution.
    assert oftec_overhead_pct < 5.0
    if resolution >= 12:
        # Live export costs ~1 ms of CPU per unit (a few dozen span
        # records plus an OpenMetrics rewrite), paid on the caller's
        # thread inside each pump, regardless of grid size.  At
        # realistic grids a unit is tens to hundreds of milliseconds
        # and the budget binds; smoke grids would measure export CPU
        # against near-zero work.
        assert stream_overhead_pct < 5.0
    if resolution >= 8:
        # Per-solve budget only binds where a solve does real work.
        assert solve_overhead_pct < 5.0
