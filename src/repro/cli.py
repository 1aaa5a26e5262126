"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

* ``oftec`` — run Algorithm 1 on one benchmark and print the operating
  point (optionally as JSON).
* ``campaign`` — the full three-method comparison over the eight
  benchmarks (Figures 6(c)-(f) tables + Table 2); ``--journal`` /
  ``--resume`` give crash-consistent checkpointing through the
  supervised executor.
* ``sweep`` — the Figure 6(a)/(b) objective surfaces for one benchmark.
* ``profiles`` — list the built-in benchmark power profiles.
* ``chaos`` — run the campaign under deterministic fault injection and
  verify every fault is contained.
* ``trace`` — inspect a JSONL span trace recorded with ``--trace``.
* ``lint`` — run :mod:`repro.devtools.physlint` over the tree.

``oftec``, ``campaign``, and ``chaos`` accept ``--trace FILE`` to record
a telemetry session (hierarchical spans + metrics) while they run.

Exit codes discriminate the failure mode so shell pipelines and CI can
react: 0 success, 1 generic failure (failed shape checks, lint
findings), 3 thermally infeasible instance, 4 solver failure, 5
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from . import __version__, build_cooling_problem, mibench_profiles, \
    run_oftec
from .analysis import (
    format_comparison_table,
    format_surface,
    format_table2,
    run_campaign,
    sweep_objective_surfaces,
)
from .errors import ConfigurationError, SolverError
from .power import MIBENCH_NAMES
from .units import kelvin_to_celsius, rad_s_to_rpm, s_to_ms

#: Exit code for a thermally infeasible problem instance.
EXIT_INFEASIBLE = 3
#: Exit code for a solver failure (breakdown, budget, chaos escape).
EXIT_SOLVER_FAILURE = 4
#: Exit code for invalid configuration or arguments.
EXIT_CONFIG_ERROR = 5


def _add_resolution(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resolution", type=int, default=12, metavar="N",
        help="thermal grid cells per die edge (default 12)")


def _add_benchmark(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmark", default="basicmath", choices=MIBENCH_NAMES,
        help="workload profile (default basicmath)")


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a telemetry session and write the span trace "
             "here as JSONL while the run goes, one completed unit at "
             "a time (inspect with `repro trace summarize`)")
    parser.add_argument(
        "--openmetrics", metavar="FILE", default=None,
        help="keep an OpenMetrics text snapshot of the live metrics "
             "at this path, atomically rewritten as the run "
             "progresses (engages a telemetry session)")


def _add_progress(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="render live progress to stderr: per-unit state, "
             "throughput, cache hit rates, ETA (single rewritten "
             "line on a TTY, periodic log lines otherwise)")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the parallel engine (default: "
             "in-process; 0 and 1 run in-process; output is "
             "bit-identical across worker counts)")


def _add_supervision(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--unit-deadline", type=float, default=None, metavar="SECONDS",
        dest="unit_deadline",
        help="supervised executor: kill and retry any work unit "
             "running longer than this (engages supervision)")
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        dest="max_attempts",
        help="supervised executor: quarantine a unit after N failed "
             "attempts (engages supervision)")


def _supervision_from_args(args: argparse.Namespace):
    """A SupervisionPolicy when any supervision flag was given."""
    if args.unit_deadline is None and args.max_attempts is None:
        return None
    from .exec import SupervisionPolicy
    overrides = {}
    if args.unit_deadline is not None:
        overrides["unit_deadline_seconds"] = args.unit_deadline
    if args.max_attempts is not None:
        overrides["max_attempts"] = args.max_attempts
    return SupervisionPolicy(**overrides)


@contextmanager
def _traced(path: Optional[str],
            openmetrics_path: Optional[str] = None,
            progress: bool = False,
            ) -> Iterator[Optional[dict]]:
    """Run the body under a telemetry session when any sink is given,
    or a sinkless one for ``progress`` (its metrics feed the board).

    Yields None (no sink) or a holder dict that gains a ``"telemetry"``
    metrics snapshot on exit.  The
    session's stream writes the span trace to ``path`` and the
    OpenMetrics snapshot to ``openmetrics_path`` while the run
    progresses — a campaign's files hold each unit once it completes —
    and closes them even when the body fails, so a crashed run still
    leaves its trace behind.
    """
    if not (path or openmetrics_path or progress):
        yield None
        return
    from .obs import JsonlTraceSink, OpenMetricsSink, telemetry_session
    sinks = []
    if path:
        sinks.append(JsonlTraceSink(path))
    if openmetrics_path:
        sinks.append(OpenMetricsSink(openmetrics_path))
    holder: dict = {}
    with telemetry_session(sinks=sinks) as (tracer, metrics):
        try:
            yield holder if sinks else None
        finally:
            holder["telemetry"] = metrics.snapshot()
            if path:
                print(f"trace written to {path} "
                      f"({len(tracer.finished)} spans)",
                      file=sys.stderr)
            if openmetrics_path:
                print(f"telemetry streamed to {openmetrics_path}",
                      file=sys.stderr)


def _progress_board(args: argparse.Namespace, label: str):
    """A ProgressBoard on stderr when ``--progress`` was given."""
    if not getattr(args, "progress", False):
        return None
    from .obs import ProgressBoard
    return ProgressBoard(sys.stderr, label=label)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OFTEC (DAC 2014) reproduction command line")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    oftec = commands.add_parser(
        "oftec", help="run Algorithm 1 on one benchmark")
    _add_benchmark(oftec)
    _add_resolution(oftec)
    oftec.add_argument("--json", action="store_true",
                       help="emit the result as JSON")
    oftec.add_argument("--method", default="slsqp",
                       choices=("slsqp", "trust-constr", "grid"),
                       help="solver backend (default slsqp)")
    _add_trace(oftec)

    campaign = commands.add_parser(
        "campaign",
        help="three-method comparison over all eight benchmarks")
    _add_resolution(campaign)
    campaign.add_argument("--tec-only", action="store_true",
                          help="also sweep the fan-less TEC-only system")
    campaign.add_argument("--json", metavar="PATH", default=None,
                          help="also save the campaign as JSON")
    campaign.add_argument("--verify", action="store_true",
                          help="run the paper-shape verification and "
                               "exit nonzero on any failed shape")
    campaign.add_argument("--canonical", action="store_true",
                          help="write --json in canonical form: "
                               "timing fields zeroed and telemetry "
                               "dropped, so runs diff cleanly")
    campaign.add_argument("--benchmarks", type=int, default=0,
                          metavar="N",
                          help="limit to the first N benchmarks "
                               "(0 = all)")
    campaign.add_argument("--journal", metavar="PATH", default=None,
                          help="write a crash-consistent journal of "
                               "completed units here (engages the "
                               "supervised executor)")
    campaign.add_argument("--resume", metavar="PATH", default=None,
                          help="resume an interrupted campaign from "
                               "its journal; completed units are "
                               "replayed, the rest run fresh")
    _add_supervision(campaign)
    _add_workers(campaign)
    _add_trace(campaign)
    _add_progress(campaign)

    spice = commands.add_parser(
        "spice",
        help="export the thermal network as a SPICE .op netlist")
    _add_benchmark(spice)
    _add_resolution(spice)
    spice.add_argument("--omega", type=float, default=262.0,
                       help="fan speed, rad/s (default 262)")
    spice.add_argument("--current", type=float, default=1.0,
                       help="TEC current, A (default 1.0)")
    spice.add_argument("--output", metavar="PATH", default=None,
                       help="write the netlist here (default stdout)")

    sweep = commands.add_parser(
        "sweep", help="objective surfaces over the (omega, I) plane")
    _add_benchmark(sweep)
    _add_resolution(sweep)
    sweep.add_argument("--omega-points", type=int, default=12)
    sweep.add_argument("--current-points", type=int, default=9)

    commands.add_parser("profiles",
                        help="list the built-in benchmark profiles")

    chaos = commands.add_parser(
        "chaos",
        help="run the campaign under deterministic fault injection")
    _add_resolution(chaos)
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (default 0)")
    chaos.add_argument("--rate", type=float, default=0.05,
                       help="per-solve fault probability (default 0.05)")
    chaos.add_argument("--faults", default="all", metavar="KINDS",
                       help="comma-separated fault kinds (default: "
                            "all evaluator-level kinds; process-level "
                            "kinds like worker-kill must be named "
                            "explicitly and need --workers >= 2)")
    chaos.add_argument("--max-fires", type=int, default=None,
                       metavar="N",
                       help="cap fires per fault kind in each benchmark "
                            "(default: none)")
    chaos.add_argument("--benchmarks", type=int, default=0, metavar="N",
                       help="limit to the first N benchmarks (0 = all)")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="save the (partial) campaign as JSON")
    _add_supervision(chaos)
    _add_workers(chaos)
    _add_trace(chaos)
    _add_progress(chaos)

    trace = commands.add_parser(
        "trace", help="inspect a recorded telemetry trace")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    summarize = trace_commands.add_parser(
        "summarize",
        help="per-span-kind count/total/p50/p95 summary tree")
    summarize.add_argument("file", metavar="FILE",
                           help="JSONL trace written by --trace")
    flame = trace_commands.add_parser(
        "flame",
        help="self-time folded stacks (flamegraph renderer input)")
    flame.add_argument("file", metavar="FILE",
                       help="JSONL trace written by --trace")
    flame.add_argument("--output", metavar="FILE", default=None,
                       help="write the folded stacks here "
                            "(default stdout)")
    critical = trace_commands.add_parser(
        "critical-path",
        help="the span chain that determined the trace's wall time")
    critical.add_argument("file", metavar="FILE",
                          help="JSONL trace written by --trace")

    lint = commands.add_parser(
        "lint",
        help="run physlint, the domain-aware static analyzer")
    lint.add_argument("paths", nargs="*", default=["src"],
                      metavar="PATH",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", dest="lint_format",
                      help="report format (default text)")
    lint.add_argument("--select", default="", metavar="CODES",
                      help="comma-separated code prefixes to run")
    lint.add_argument("--ignore", default="", metavar="CODES",
                      help="comma-separated code prefixes to skip")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      dest="lint_baseline",
                      help="suppress findings recorded in FILE")
    lint.add_argument("--update-baseline", default=None,
                      metavar="FILE", dest="lint_update_baseline",
                      help="write current findings to FILE and exit 0")
    lint.add_argument("--explain", default=None, metavar="CODE",
                      dest="lint_explain",
                      help="explain one rule (rationale + examples)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    return parser


def _cmd_oftec(args: argparse.Namespace) -> int:
    profile = mibench_profiles()[args.benchmark]
    problem = build_cooling_problem(profile,
                                    grid_resolution=args.resolution)
    with _traced(args.trace, args.openmetrics):
        result = run_oftec(problem, method=args.method)
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "feasible": result.feasible,
            "omega_rad_s": result.omega_star,
            "omega_rpm": rad_s_to_rpm(result.omega_star),
            "i_tec_a": result.current_star,
            "max_temperature_c": kelvin_to_celsius(
                result.max_chip_temperature),
            "total_power_w": result.total_power,
            "leakage_power_w": result.evaluation.leakage_power,
            "tec_power_w": result.evaluation.tec_power,
            "fan_power_w": result.evaluation.fan_power,
            "runtime_ms": s_to_ms(result.runtime_seconds),
            "thermal_solves": result.thermal_solves,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    status = "meets" if result.feasible else "MISSES"
    print(f"{args.benchmark}: omega* = "
          f"{rad_s_to_rpm(result.omega_star):.0f} RPM, "
          f"I* = {result.current_star:.2f} A")
    print(f"  T = {kelvin_to_celsius(result.max_chip_temperature):.1f} C "
          f"({status} T_max), P = {result.total_power:.2f} W "
          f"(leak {result.evaluation.leakage_power:.2f} + "
          f"TEC {result.evaluation.tec_power:.2f} + "
          f"fan {result.evaluation.fan_power:.2f})")
    print(f"  runtime {s_to_ms(result.runtime_seconds):.0f} ms, "
          f"{result.thermal_solves} thermal solves")
    return 0 if result.feasible else EXIT_INFEASIBLE


def _cmd_campaign(args: argparse.Namespace) -> int:
    profiles = mibench_profiles()
    if args.benchmarks:
        profiles = dict(list(profiles.items())[:args.benchmarks])
    template = mibench_profiles()["basicmath"]
    tec_problem = build_cooling_problem(
        template, grid_resolution=args.resolution)
    baseline_problem = build_cooling_problem(
        template, with_tec=False, grid_resolution=args.resolution)
    with _traced(args.trace, args.openmetrics, args.progress) as session:
        board = _progress_board(args, "campaign")
        campaign = run_campaign(profiles, tec_problem, baseline_problem,
                                include_tec_only=args.tec_only,
                                workers=args.workers,
                                supervision=_supervision_from_args(args),
                                journal_path=args.journal,
                                resume_from=args.resume,
                                progress=board)
        if board is not None:
            board.finish()
    print(format_comparison_table(campaign, "opt2"))
    print()
    print(format_comparison_table(campaign, "opt1"))
    print()
    print(format_table2(campaign))
    if args.tec_only:
        print("\nTEC-only (fan off) outcomes:")
        for comparison in campaign.comparisons:
            status = "thermal runaway" if comparison.tec_only.runaway \
                else "bounded"
            print(f"  {comparison.name:<14} {status}")
    if campaign.quarantined:
        print(f"\nquarantined units: {len(campaign.quarantined)}")
        for entry in campaign.quarantined:
            last = entry.errors[-1] if entry.errors else "?"
            print(f"  {entry.name} after {entry.attempts} "
                  f"attempt(s): {last}")
    if args.json:
        from .io import save_campaign
        telemetry = session.get("telemetry") if session else None
        save_campaign(campaign, args.json, telemetry=telemetry,
                      canonical=args.canonical)
        print(f"\ncampaign saved to {args.json}")
    if args.verify:
        from .analysis import format_shape_checks, verify_paper_shapes
        checks = verify_paper_shapes(campaign)
        print()
        print(format_shape_checks(checks))
        if not all(check.passed for check in checks):
            return 1
    return 0


def _cmd_spice(args: argparse.Namespace) -> int:
    from .thermal import export_spice_netlist
    profile = mibench_profiles()[args.benchmark]
    problem = build_cooling_problem(profile,
                                    grid_resolution=args.resolution)
    netlist = export_spice_netlist(
        problem.model, args.omega, args.current,
        problem.dynamic_cell_power,
        title=f"OFTEC {args.benchmark} at omega={args.omega} rad/s, "
              f"I={args.current} A")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(netlist)
        print(f"netlist written to {args.output} "
              f"({len(netlist.splitlines())} lines)")
    else:
        print(netlist, end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    profile = mibench_profiles()[args.benchmark]
    problem = build_cooling_problem(profile,
                                    grid_resolution=args.resolution)
    sweep = sweep_objective_surfaces(
        problem, omega_points=args.omega_points,
        current_points=args.current_points)
    print(format_surface(sweep, "temperature"))
    print()
    print(format_surface(sweep, "power"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.physlint import main as physlint_main
    forwarded = list(args.paths)
    forwarded += ["--format", args.lint_format]
    if args.select:
        forwarded += ["--select", args.select]
    if args.ignore:
        forwarded += ["--ignore", args.ignore]
    if args.lint_baseline:
        forwarded += ["--baseline", args.lint_baseline]
    if args.lint_update_baseline:
        forwarded += ["--update-baseline", args.lint_update_baseline]
    if args.lint_explain:
        forwarded += ["--explain", args.lint_explain]
    if args.list_rules:
        forwarded.append("--list-rules")
    return physlint_main(forwarded)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import (
        EVALUATOR_FAULT_KINDS,
        FaultKind,
        FaultPlan,
        FaultSpec,
        format_chaos_report,
        run_chaos_campaign,
    )
    if args.faults.strip() == "all":
        kinds = list(EVALUATOR_FAULT_KINDS)
    else:
        by_value = {kind.value: kind for kind in FaultKind}
        kinds = []
        for token in args.faults.split(","):
            token = token.strip().replace("_", "-")
            if token not in by_value:
                raise ConfigurationError(
                    f"unknown fault kind {token!r}; choose from "
                    f"{sorted(by_value)}")
            kinds.append(by_value[token])
    plan = FaultPlan(seed=args.seed, specs=tuple(
        FaultSpec(kind=kind, rate=args.rate, max_fires=args.max_fires)
        for kind in kinds))
    profiles = mibench_profiles()
    if args.benchmarks:
        profiles = dict(list(profiles.items())[:args.benchmarks])
    template = mibench_profiles()["basicmath"]
    tec_problem = build_cooling_problem(
        template, grid_resolution=args.resolution)
    baseline_problem = build_cooling_problem(
        template, with_tec=False, grid_resolution=args.resolution)
    with _traced(args.trace, args.openmetrics, args.progress) as session:
        board = _progress_board(args, "chaos")
        report = run_chaos_campaign(
            profiles, tec_problem, baseline_problem, plan=plan,
            workers=args.workers,
            supervision=_supervision_from_args(args),
            progress=board)
        if board is not None:
            board.finish()
    print(format_chaos_report(report))
    if args.json and report.campaign is not None:
        from .io import save_campaign
        telemetry = session.get("telemetry") if session else None
        save_campaign(report.campaign, args.json, telemetry=telemetry)
        print(f"campaign saved to {args.json}")
    return 0 if report.ok else EXIT_SOLVER_FAILURE


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        critical_path,
        folded_stacks,
        format_critical_path,
        format_folded,
        format_trace_summary,
        load_trace,
    )
    spans = load_trace(args.file)
    if args.trace_command == "flame":
        text = format_folded(folded_stacks(spans))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"folded stacks written to {args.output} "
                  f"({len(text.splitlines())} paths)")
        else:
            print(text, end="")
        return 0
    if args.trace_command == "critical-path":
        print(format_critical_path(critical_path(spans)))
        return 0
    print(format_trace_summary(spans))
    return 0


def _cmd_profiles(_args: argparse.Namespace) -> int:
    print(f"{'benchmark':<14}{'total (W)':>10}  hottest units")
    for name, profile in mibench_profiles().items():
        top = sorted(profile.unit_power.items(),
                     key=lambda kv: -kv[1])[:3]
        top_text = ", ".join(f"{unit} {power:.1f}W"
                             for unit, power in top)
        print(f"{name:<14}{profile.total_power:>10.1f}  {top_text}")
    return 0


_COMMANDS = {
    "oftec": _cmd_oftec,
    "campaign": _cmd_campaign,
    "sweep": _cmd_sweep,
    "profiles": _cmd_profiles,
    "spice": _cmd_spice,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library failures map onto distinct exit codes (module docstring)
    instead of tracebacks, so callers can branch on the failure mode.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
