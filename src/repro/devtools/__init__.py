"""Developer tooling for the OFTEC reproduction.

This subpackage hosts tools that guard the codebase's conventions rather
than model any physics.  The first citizen is :mod:`repro.devtools.physlint`,
a domain-aware static-analysis pass (units discipline, exception hygiene,
numerics conventions, unit flow across module boundaries) runnable as
``repro lint`` or ``python -m repro.devtools.physlint``; :func:`lint_paths`
runs the same single pass as a library call.
"""

from __future__ import annotations

from .physlint import Finding, Rule, available_rules, lint_paths, rule

__all__ = [
    "Finding",
    "Rule",
    "available_rules",
    "lint_paths",
    "rule",
]
