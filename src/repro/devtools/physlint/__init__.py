"""physlint — domain-aware static analysis for the OFTEC reproduction.

Run it as ``repro lint [PATH ...]`` or
``python -m repro.devtools.physlint [PATH ...]``; use
:func:`lint_paths` / :func:`lint_file` / :func:`lint_source` as the
library API.  Each is one pass: the per-file rules, then the
cross-module unit check (RPR703) over the same parse.

See :mod:`repro.devtools.physlint.rules` for the per-file rule
catalogue, :mod:`repro.devtools.physlint.project` for the cross-module
rule, and docs/LINTING.md for the engine guide, suppression syntax,
and baseline/SARIF workflow.
"""

from __future__ import annotations

from .baseline import (
    filter_new,
    fingerprint,
    load_baseline,
    write_baseline,
)
from .cli import build_parser, main
from .core import (
    PARSE_ERROR_CODE,
    Finding,
    LintContext,
    Rule,
    available_rules,
    rule,
)
from .project import (
    ProjectGraph,
    ProjectRule,
    lint_file,
    lint_paths,
    lint_source,
)
from .reporters import (
    findings_to_dict,
    format_json,
    format_sarif,
    format_text,
)

# Importing this module registers the built-in per-file rules (the
# dimensional and cross-module rules register through .project).
from . import rules as _builtin_rules  # noqa: F401  (import for effect)

__all__ = [
    "PARSE_ERROR_CODE",
    "Finding",
    "LintContext",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "available_rules",
    "build_parser",
    "filter_new",
    "findings_to_dict",
    "fingerprint",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "main",
    "rule",
    "write_baseline",
]
