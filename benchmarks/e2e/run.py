"""End-to-end OFTEC benchmark: four workloads, one command.

    python3 benchmarks/e2e/run.py --seed 0                 # all four
    python3 benchmarks/e2e/run.py --workload oftec --seed 3 --seconds 25
    python3 benchmarks/e2e/run.py --seed 0 --trace         # per-layer

Each workload runs in 3 rounds, each round in a fresh child process
(``child.py``), so set-up is timed 3 times and factor caches never leak
between workloads.  With every workload selected the rounds go
round-robin, so host drift hits all of them alike.  ``--seconds`` is the
measured time per workload, split evenly over the rounds.  Times are
rescaled to a reference host speed (``hostclock.py``).

The untraced run prints the end-to-end metrics; ``--trace 1`` prints the
per-layer ones instead (each round times its items untraced, then
replays them traced).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also writes the full result, which ``compare.py`` reads.
Standard library only: the children import the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("oftec", "sweep", "online", "campaign")
ROUNDS = 3
#: Wall-clock cap per selected workload, s; children still running at
#: the cap are killed and the run fails.
DEADLINE_S = 170.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--size", choices=("full", "smoke"),
                        default="full",
                        help="smoke: grid 4 and tiny inputs (tests)")
    parser.add_argument("--reference",
                        default=str(HERE / "reference_seed0.json"),
                        help="expected outputs; applied when its seed "
                             "and size match the run")
    parser.add_argument("--write-reference", metavar="FILE",
                        help="run exactly the reference items and write "
                             "their outputs to FILE")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--short", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(spec: dict, deadline: float) -> dict:
    """One round in a fresh process; adds the parent-side ``setup_s``.

    Set-up is spawn to ``ready``: interpreter start, imports, problem
    templates and the warm-up evaluation.  The child pins its own
    environment before importing numpy.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], cwd=str(ROOT),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    timeout = max(deadline - time.monotonic(), 1.0)
    watchdog = threading.Timer(timeout, _kill_group, (process,))
    watchdog.start()
    try:
        try:
            process.stdin.write(json.dumps(spec))
            process.stdin.close()
        except BrokenPipeError:  # the child died first; reported below
            pass
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - started
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            _kill_group(process)
        process.wait()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(
            f"{spec['workload']} round {spec['round']} failed (exit "
            f"{code}, timeout {timeout:.0f} s); see its standard error")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, 9)
    except ProcessLookupError:
        pass


def summarize(workload: str, rounds: List[dict], trace: bool) -> dict:
    """Metrics, counts and failures of one workload's rounds."""
    phases = [phase for result in rounds
              for phase in result["phases"].values()]
    completed = sum(result["phases"]["untraced"]["completed"]
                    for result in rounds)
    summary = {
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "failures": [f for phase in phases for f in phase["failures"]],
        "digest": rounds[0]["digest"],
        "missing_layers": rounds[0]["layers"]["missing"]
        if trace else [],
    }
    if not completed:
        summary["metrics"] = {}
        return summary
    if trace:
        values = metrics.per_layer(workload, rounds)
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(rounds)
        units = metrics.END_TO_END
        latencies = metrics.latency_samples(rounds)
        p75 = metrics.percentile(latencies, 0.75)
        summary["samples"] = len(latencies)
        summary["samples_above_p75"] = sum(x > p75 for x in latencies)
        summary["host_ms"] = statistics.median(
            result["host_ms"] for result in rounds)
        summary["reference_ms"] = rounds[0]["reference_ms"]
        summary["setup_wall_s"] = statistics.median(
            result["setup_s"] for result in rounds)
    summary["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in units}
    return summary


def print_workload(workload: str, summary: dict) -> None:
    print(f"[{workload}] attempted {summary['attempted']}, failed "
          f"{summary['failed']}, inputs sha256:{summary['digest']}")
    if "samples" in summary:
        print(f"  latency samples {summary['samples']}, "
              f"{summary['samples_above_p75']} above p75; host "
              f"calibration {summary['host_ms']:.2f} ms (times below are "
              f"rescaled to {summary['reference_ms']:g} ms); set-up "
              f"wall {summary['setup_wall_s']:.3f} s")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    for layer in summary["missing_layers"]:
        print(f"  not wrapped (absent): {layer}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")


def write_reference(path: str, args, rounds: Dict[str, List[dict]]
                    ) -> None:
    document = {"seed": args.seed, "size": args.size}
    for workload, results in rounds.items():
        items = {}
        for result in results:
            items.update(result["phases"]["untraced"]["records"])
        document[workload] = {"digest": results[0]["digest"],
                              "items": items}
    Path(path).write_text(json.dumps(document, indent=1, sort_keys=True)
                          + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    header = {
        "seed": args.seed, "seconds": args.seconds, "rounds": ROUNDS,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": git_commit(),
        "load_start": os.getloadavg(),
    }
    print(f"# e2e benchmark: workloads {','.join(names)}, seed "
          f"{args.seed}, {args.seconds:g} s each over {ROUNDS} rounds, "
          f"trace {args.trace}, size {args.size}")
    print(f"# host: nproc {header['nproc']}, {header['platform']}, "
          f"commit {header['commit']}, load "
          f"{' '.join(f'{x:.2f}' for x in header['load_start'])}",
          flush=True)

    deadline = time.monotonic() + DEADLINE_S * len(names)
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    try:
        for round_index in range(ROUNDS):
            for name in names:
                spec = {
                    "workload": name, "seed": args.seed,
                    "round": round_index, "rounds": ROUNDS,
                    "budget_s": args.seconds / ROUNDS,
                    "trace": bool(args.trace), "size": args.size,
                    "reference": args.reference,
                    "write_reference": bool(args.write_reference),
                }
                rounds[name].append(run_child(spec, deadline))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header["load_end"] = os.getloadavg()
    header["versions"] = rounds[names[0]][0]["versions"]
    print("# versions: " + ", ".join(
        f"{k} {v}" for k, v in header["versions"].items())
        + f"; load at end "
        f"{' '.join(f'{x:.2f}' for x in header['load_end'])}")

    if args.write_reference:
        write_reference(args.write_reference, args, rounds)
        print(f"# reference written to {args.write_reference}")

    summaries = {name: summarize(name, rounds[name], bool(args.trace))
                 for name in names}
    for name in names:
        print_workload(name, summaries[name])
    if any(not summary["metrics"] for summary in summaries.values()):
        print("error: a workload completed no item", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"header": header, "workloads": summaries}, indent=1) + "\n")

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        line_metrics = summaries[names[0]]["metrics"]
    else:
        line_metrics = {f"{name}.{metric}": value
                        for name in names
                        for metric, value in
                        summaries[name]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
