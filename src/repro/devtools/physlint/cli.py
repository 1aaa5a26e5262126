"""The ``physlint`` command line (also backing ``repro lint``).

Exit codes: 0 clean, 1 findings, 2 usage error.

Every run is one lint pass: the per-file rules plus the cross-module
unit check.  Add ``--baseline`` to gate CI on new findings only, and
``--explain RPRxxx`` to read a rule's rationale with a minimal
fail/pass example.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import textwrap
from typing import List, Optional

from ...errors import ConfigurationError
from .baseline import filter_new, load_baseline, write_baseline
from .core import Rule, available_rules
from .project import lint_paths
from .reporters import format_json, format_sarif, format_text


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro.devtools.physlint``."""
    parser = argparse.ArgumentParser(
        prog="physlint",
        description=("Domain-aware static analysis for the OFTEC "
                     "reproduction: units discipline, exception "
                     "hygiene, numerics conventions, process "
                     "safety, and dimensional flow across "
                     "modules."))
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text)")
    parser.add_argument(
        "--select", default="", metavar="CODES",
        help="comma-separated code prefixes to run (e.g. RPR1,RPR301)")
    parser.add_argument(
        "--ignore", default="", metavar="CODES",
        help="comma-separated code prefixes to skip")
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=("committed baseline of accepted findings; only "
              "findings not in it are reported"))
    parser.add_argument(
        "--update-baseline", default=None, metavar="FILE",
        help="write the current findings to FILE as the new baseline")
    parser.add_argument(
        "--explain", default=None, metavar="CODE",
        help="print a rule's rationale and fail/pass example, then "
             "exit")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def _render_rule_table() -> str:
    lines = ["registered physlint rules:"]
    for code, rule_cls in available_rules().items():
        scope = "file" if issubclass(rule_cls, Rule) else "project"
        lines.append(f"  {code}  {rule_cls.name:<18} [{scope:>7}] "
                     f"{rule_cls.rationale.split('.')[0].strip()}.")
    return "\n".join(lines)


def _render_explanation(code: str) -> Optional[str]:
    rule_cls = available_rules().get(code.upper())
    if rule_cls is None:
        return None
    lines = [f"{rule_cls.code} ({rule_cls.name})", ""]
    lines.extend(textwrap.wrap(rule_cls.rationale, width=72))
    doc = inspect.getdoc(rule_cls)
    if doc:
        lines.extend(["", doc])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        return _run(argv)
    except BrokenPipeError:
        # A downstream pager (`repro lint ... | head`) closed the pipe
        # early; redirect stdout at the fd so the interpreter's exit
        # flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_render_rule_table())
        return 0
    if args.explain is not None:
        explanation = _render_explanation(args.explain)
        if explanation is None:
            print(f"physlint: error: unknown rule code "
                  f"{args.explain!r} (see --list-rules)",
                  file=sys.stderr)
            return 2
        print(explanation)
        return 0
    select = [c for c in args.select.split(",") if c.strip()]
    ignore = [c for c in args.ignore.split(",") if c.strip()]
    try:
        findings = lint_paths(args.paths, select=select, ignore=ignore)
        if args.update_baseline is not None:
            write_baseline(findings, args.update_baseline)
            print(f"physlint: baseline of {len(findings)} finding(s) "
                  f"written to {args.update_baseline}")
            return 0
        if args.baseline is not None:
            findings = filter_new(findings,
                                  load_baseline(args.baseline))
    except ConfigurationError as error:
        print(f"physlint: error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(findings))
    elif args.format == "sarif":
        print(format_sarif(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0
