"""Tests for the physlint cross-module pass and its reporting surface.

Covers the project graph (cross-module unit joins through imports and
re-exports, suppression of cross-module findings), the SARIF reporter,
the baseline gate, and the CLI surface.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.physlint import (
    filter_new,
    format_sarif,
    lint_paths,
    lint_source,
    load_baseline,
    main as physlint_main,
    write_baseline,
)
from repro.errors import ConfigurationError

FIXPROJ = Path(__file__).parent / "fixtures" / "physlint_project"
MINIPLANT = FIXPROJ / "miniplant"

#: The bands the fixture package seeds violations in.
SELECT = ("RPR502", "RPR6", "RPR7")

#: The exact seeded finding set: (file, line, code).
EXPECTED = frozenset({
    ("control.py", 13, "RPR701"),
    ("control.py", 23, "RPR702"),
    ("control.py", 32, "RPR703"),
    ("panel.py", 12, "RPR703"),
    ("tracing.py", 8, "RPR502"),
    ("tracing.py", 16, "RPR502"),
    ("tracing.py", 22, "RPR502"),
})


def _keyed(findings):
    return {(Path(f.path).name, f.line, f.code) for f in findings}


def _lint_miniplant(root=MINIPLANT):
    return lint_paths([str(root)], select=SELECT)


@pytest.fixture()
def project_copy(tmp_path):
    """A mutable copy of the fixture package (module names intact)."""
    copy = tmp_path / "miniplant"
    shutil.copytree(MINIPLANT, copy)
    return copy


class TestSeededFindings:
    def test_exact_finding_set(self):
        assert _keyed(_lint_miniplant()) == EXPECTED

    def test_three_dimensional_mismatch_shapes(self):
        codes = {f.code for f in _lint_miniplant()}
        # Arithmetic, comparison, and cross-module call mismatches
        # are all distinct seeded shapes.
        assert {"RPR701", "RPR702", "RPR703"} <= codes

    def test_reexport_hop_resolves(self):
        # panel.py imports fan_power through the package __init__;
        # the RPR703 there proves one-hop re-export resolution.
        assert ("panel.py", 12, "RPR703") in _keyed(_lint_miniplant())

    def test_callee_docstring_drives_call_findings(self, project_copy):
        # Changing only the callee's docstring must clear the call-site
        # findings in the *other* files of the same pass.
        fan = project_copy / "fan.py"
        fan.write_text(fan.read_text().replace(
            "omega: Fan speed, rad/s.", "omega: Fan speed, RPM."))
        findings = _lint_miniplant(project_copy)
        assert not any(f.code == "RPR703" for f in findings)


class TestParseErrors:
    def test_rpr000_immune_to_suppression(self):
        # broken.py carries `# physlint: disable-file=RPR000`; a file
        # that does not parse cannot be trusted to have meant its own
        # suppressions, so the finding survives.
        findings = lint_paths([str(FIXPROJ / "broken.py")])
        assert [f.code for f in findings] == ["RPR000"]

    def test_rpr000_bypasses_select(self):
        codes = {f.code for f in lint_paths([str(FIXPROJ)],
                                            select=["RPR7"])}
        assert "RPR000" in codes
        assert "RPR703" in codes
        assert "RPR502" not in codes

    def test_rpr000_droppable_by_ignore(self):
        findings = lint_paths([str(FIXPROJ)], select=["RPR7"],
                              ignore=["RPR000"])
        assert not any(f.code == "RPR000" for f in findings)


class TestSuppressionEdgeCases:
    def test_multiple_codes_one_comment(self):
        bad = ("def _f(width_mm):\n"
               "    assert width_mm * 1e-3\n")
        codes = sorted(f.code for f in lint_source(bad, "x.py"))
        assert codes == ["RPR101", "RPR202"]
        both = bad.replace(
            "1e-3", "1e-3  # physlint: disable=RPR101,RPR202")
        assert lint_source(both, "x.py") == []

    def test_one_of_two_codes_suppressed(self):
        one = ("def _f(width_mm):\n"
               "    assert width_mm * 1e-3"
               "  # physlint: disable=RPR202\n")
        assert [f.code for f in lint_source(one, "x.py")] == ["RPR101"]

    def test_same_line_disable_filters_cross_module_finding(
            self, project_copy):
        # A suppression on the call line silences the RPR703 anchored
        # there; the other file's cross-module finding stays.
        panel = project_copy / "panel.py"
        panel.write_text(panel.read_text().replace(
            "# seeded RPR703 via re-export",
            "# physlint: disable=RPR703"))
        keyed = _keyed(_lint_miniplant(project_copy))
        assert ("panel.py", 12, "RPR703") not in keyed
        assert ("control.py", 32, "RPR703") in keyed

    def test_disable_file_times_baseline(self, project_copy,
                                         tmp_path):
        # A disable-file'd finding never reaches the baseline, and
        # removing the suppression later surfaces it as *new*.
        control = project_copy / "control.py"
        original = control.read_text()
        control.write_text(
            "# physlint: disable-file=RPR701\n" + original)
        baseline = str(tmp_path / "baseline.json")
        findings = _lint_miniplant(project_copy)
        assert not any(f.code == "RPR701" for f in findings)
        write_baseline(findings, baseline)
        control.write_text(original)
        fresh = _lint_miniplant(project_copy)
        new = filter_new(fresh, load_baseline(baseline))
        assert [f.code for f in new] == ["RPR701"]


class TestBaseline:
    def test_round_trip_absorbs_everything(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        findings = _lint_miniplant()
        write_baseline(findings, baseline)
        assert filter_new(findings, load_baseline(baseline)) == []

    def test_partial_baseline_reports_the_rest(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        findings = _lint_miniplant()
        write_baseline(findings[1:], baseline)
        new = filter_new(findings, load_baseline(baseline))
        assert new == [findings[0]]

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_baseline(str(path))


class TestSarif:
    def test_round_trips_with_results(self):
        payload = json.loads(format_sarif(_lint_miniplant()))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        results = run["results"]
        assert len(results) == len(EXPECTED)
        rule_ids = {r["id"]
                    for r in run["tool"]["driver"]["rules"]}
        for result in results:
            assert result["ruleId"] in rule_ids
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            assert location["region"]["startLine"] >= 1

    def test_parse_errors_are_sarif_errors(self):
        findings = lint_paths([str(FIXPROJ / "broken.py")])
        payload = json.loads(format_sarif(findings))
        levels = [r["level"]
                  for r in payload["runs"][0]["results"]]
        assert levels == ["error"]


class TestCli:
    SELECT_ARG = "RPR502,RPR6,RPR7"

    def test_exit_one_on_findings(self, capsys):
        code = physlint_main([str(MINIPLANT),
                              "--select", self.SELECT_ARG])
        assert code == 1
        assert "RPR703" in capsys.readouterr().out

    def test_sarif_format(self, capsys):
        code = physlint_main([str(MINIPLANT),
                              "--select", self.SELECT_ARG,
                              "--format", "sarif"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"]

    def test_baseline_gate_flow(self, capsys, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        assert physlint_main([str(MINIPLANT),
                              "--select", self.SELECT_ARG,
                              "--update-baseline", baseline]) == 0
        capsys.readouterr()
        assert physlint_main([str(MINIPLANT),
                              "--select", self.SELECT_ARG,
                              "--baseline", baseline]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, capsys, tmp_path):
        code = physlint_main([str(MINIPLANT), "--baseline",
                              str(tmp_path / "missing.json")])
        assert code == 2

    def test_explain_known_rule(self, capsys):
        assert physlint_main(["--explain", "RPR703"]) == 0
        out = capsys.readouterr().out
        assert "RPR703" in out
        assert "Fail::" in out
        assert "Pass::" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert physlint_main(["--explain", "rpr703"]) == 0
        assert "RPR703" in capsys.readouterr().out

    def test_explain_unknown_rule(self, capsys):
        assert physlint_main(["--explain", "RPR999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_repro_lint_forwards_new_flags(self, capsys, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        code = repro_main(["lint", str(MINIPLANT),
                           "--select", self.SELECT_ARG,
                           "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == len(EXPECTED)
        assert repro_main(["lint", str(MINIPLANT),
                           "--select", self.SELECT_ARG,
                           "--update-baseline", baseline]) == 0
        capsys.readouterr()
        assert repro_main(["lint", str(MINIPLANT),
                           "--select", self.SELECT_ARG,
                           "--baseline", baseline]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_repro_lint_explain(self, capsys):
        assert repro_main(["lint", "--explain", "RPR502"]) == 0
        assert "span" in capsys.readouterr().out
