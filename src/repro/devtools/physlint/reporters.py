"""Finding reporters: plain text, machine JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Sequence

from .core import PARSE_ERROR_CODE, Finding, available_rules

#: Bumped when the JSON schema changes shape.
JSON_SCHEMA_VERSION = 1


def format_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a per-code summary footer."""
    if not findings:
        return "physlint: no findings"
    lines = [finding.render() for finding in findings]
    counts = Counter(finding.code for finding in findings)
    summary = ", ".join(f"{code} x{count}"
                        for code, count in sorted(counts.items()))
    lines.append(f"physlint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def findings_to_dict(findings: Sequence[Finding]) -> Dict[str, object]:
    """The JSON-serializable payload (also the library-level API)."""
    counts: Dict[str, int] = dict(
        sorted(Counter(f.code for f in findings).items()))
    items: List[Dict[str, object]] = [
        {
            "code": finding.code,
            "rule": finding.rule,
            "message": finding.message,
            "path": finding.path,
            "line": finding.line,
            "column": finding.column,
        }
        for finding in findings
    ]
    return {
        "tool": "physlint",
        "schema_version": JSON_SCHEMA_VERSION,
        "total": len(items),
        "counts": counts,
        "findings": items,
    }


def format_json(findings: Sequence[Finding]) -> str:
    """Findings as a stable, ``json.loads``-round-trippable document."""
    return json.dumps(findings_to_dict(findings), indent=2,
                      sort_keys=True)


#: The SARIF schema this reporter emits.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def _sarif_rules() -> List[Dict[str, Any]]:
    catalogue: List[Dict[str, Any]] = []
    for code, rule_cls in available_rules().items():
        catalogue.append({
            "id": code,
            "name": rule_cls.name,
            "shortDescription": {
                "text": rule_cls.rationale.split(".")[0].strip() + ".",
            },
            "fullDescription": {"text": rule_cls.rationale},
        })
    return catalogue


def format_sarif(findings: Sequence[Finding]) -> str:
    """Findings as a SARIF 2.1.0 log, for code-scanning upload."""
    results: List[Dict[str, Any]] = []
    for finding in findings:
        results.append({
            "ruleId": finding.code,
            "level": ("error" if finding.code == PARSE_ERROR_CODE
                      else "warning"),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column,
                    },
                },
            }],
        })
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "physlint",
                    "rules": _sarif_rules(),
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
