"""Tests for repro.devtools.physlint: rules, engine, CLI, self-check."""

import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.physlint import (
    PARSE_ERROR_CODE,
    ProjectRule,
    available_rules,
    lint_paths,
    lint_source,
    main as physlint_main,
    rule,
)
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures" / "physlint"
SRC = Path(__file__).resolve().parents[1] / "src"

ALL_CODES = ("RPR101", "RPR201", "RPR202", "RPR204", "RPR301",
             "RPR302", "RPR401", "RPR501", "RPR502",
             "RPR503", "RPR504", "RPR601", "RPR701",
             "RPR702", "RPR703")
PROJECT_CODES = ("RPR703",)

#: A same-line or file-level suppression comment and its code list.
SUPPRESSION = re.compile(
    r"#\s*physlint:\s*disable(?:-file)?=([A-Za-z0-9_, \t]+)")


def codes_in(path):
    return [f.code for f in lint_paths([str(path)])]


class TestRegistry:
    def test_all_rules_registered(self):
        assert tuple(sorted(available_rules())) == ALL_CODES

    def test_project_rules_registered(self):
        """The cross-module rule sits in the one catalogue."""
        project = tuple(code for code, rule_cls in available_rules().items()
                        if issubclass(rule_cls, ProjectRule))
        assert project == PROJECT_CODES

    def test_registries_do_not_overlap(self):
        """Per-file and cross-module rules share one code space."""
        clash = type("Clash", (ProjectRule,),
                     {"code": "RPR101", "name": "clash"})
        with pytest.raises(ConfigurationError):
            rule(clash)
        assert available_rules()["RPR101"] is not clash

    def test_rules_carry_metadata(self):
        for code, rule_cls in available_rules().items():
            assert rule_cls.code == code
            assert rule_cls.name
            assert rule_cls.rationale

    def test_rule_docstrings_carry_examples(self):
        # --explain renders these; every rule must ship a minimal
        # failing and passing example in its docstring.
        for rule_cls in available_rules().values():
            doc = rule_cls.__doc__ or ""
            assert "Fail::" in doc, rule_cls.code
            assert "Pass::" in doc, rule_cls.code


class TestBadFixtures:
    @pytest.mark.parametrize("code,expected", [
        ("rpr101", 7),
        ("rpr201", 5),
        ("rpr202", 2),
        ("rpr204", 4),
        ("rpr301", 3),
        ("rpr302", 5),
        ("rpr401", 2),
        ("rpr501", 3),
        ("rpr503", 5),
        ("rpr504", 2),
        ("rpr601", 18),
    ])
    def test_bad_fixture_findings(self, code, expected):
        found = codes_in(FIXTURES / f"bad_{code}.py")
        assert found == [code.upper()] * expected

    def test_findings_carry_position(self):
        findings = lint_paths([str(FIXTURES / "bad_rpr202.py")])
        assert all(f.line > 0 and f.column > 0 for f in findings)
        assert all(f.path.endswith("bad_rpr202.py") for f in findings)


class TestGoodFixtures:
    @pytest.mark.parametrize("name", [
        "good_rpr101", "good_rpr201", "good_rpr204", "good_rpr301",
        "good_rpr302", "good_rpr401", "good_rpr501",
        "good_rpr503", "good_rpr504", "good_rpr601",
    ])
    def test_good_fixture_clean(self, name):
        assert codes_in(FIXTURES / f"{name}.py") == []


class TestSuppression:
    def test_same_line_disable(self):
        bad = "def _f(width_mm):\n    return width_mm * 1e-3\n"
        assert [f.code for f in lint_source(bad, "x.py")] == ["RPR101"]
        ok = bad.replace("1e-3", "1e-3  # physlint: disable=RPR101")
        assert lint_source(ok, "x.py") == []

    def test_disable_all(self):
        ok = ("def _f(width_mm):\n"
              "    return width_mm * 1e-3  # physlint: disable=all\n")
        assert lint_source(ok, "x.py") == []

    def test_file_level_disable(self):
        src = ("# physlint: disable-file=RPR202\n"
               "def f(x):\n"
               "    assert x > 0\n")
        assert lint_source(src, "x.py") == []

    def test_wrong_code_does_not_suppress(self):
        src = ("def f(x):\n"
               "    assert x > 0  # physlint: disable=RPR101\n")
        assert [f.code for f in lint_source(src, "x.py")] == ["RPR202"]


class TestSolverInLoop:
    def test_while_loop_flags_both_calls(self):
        src = ("from scipy.sparse.linalg import spsolve\n"
               "def f(m, b, n):\n"
               "    while n:\n"
               "        b = spsolve(m.tocsc(), b)\n"
               "        n -= 1\n"
               "    return b\n")
        assert [f.code for f in lint_source(src, "x.py")] \
            == ["RPR302", "RPR302"]

    def test_call_outside_loop_clean(self):
        src = ("from scipy.sparse.linalg import splu\n"
               "def f(m):\n"
               "    return splu(m.tocsc())\n")
        assert lint_source(src, "x.py") == []

    def test_nested_def_resets_loop_context(self):
        # The nested function runs when called, not per iteration.
        src = ("from scipy.sparse.linalg import splu\n"
               "def outer(ms):\n"
               "    for m in ms:\n"
               "        def probe(x):\n"
               "            return splu(x)\n"
               "        yield probe\n")
        assert lint_source(src, "x.py") == []

    def test_dotted_call_flagged(self):
        src = ("import scipy.sparse.linalg as sla\n"
               "def f(ms, b):\n"
               "    return [sla.spsolve(m, b) for m in ms][0]\n")
        # Comprehensions are not for/while statements; only statement
        # loops are flagged.
        assert lint_source(src, "x.py") == []
        loop = ("import scipy.sparse.linalg as sla\n"
                "def f(ms, b):\n"
                "    out = []\n"
                "    for m in ms:\n"
                "        out.append(sla.spsolve(m, b))\n"
                "    return out\n")
        assert [f.code for f in lint_source(loop, "x.py")] == ["RPR302"]


    @pytest.mark.parametrize("call", ["dpbtrf(ab, lower=1)",
                                      "cholesky_banded(ab, lower=True)"])
    def test_banded_cholesky_in_loop_flagged(self, call):
        src = ("from scipy.linalg import cholesky_banded\n"
               "from scipy.linalg.lapack import dpbtrf\n"
               "def f(bands):\n"
               "    out = []\n"
               "    for ab in bands:\n"
               f"        out.append({call})\n"
               "    return out\n")
        assert [f.code for f in lint_source(src, "x.py")] == ["RPR302"]
        hoisted = ("from scipy.linalg.lapack import dpbtrf\n"
                   "def f(ab, loads):\n"
                   "    factor = dpbtrf(ab, lower=1)\n"
                   "    return [factor for _ in loads]\n")
        assert lint_source(hoisted, "x.py") == []


class TestSelectIgnore:
    def test_select_restricts(self):
        findings = lint_paths([str(FIXTURES / "bad_rpr101.py")],
                              select=["RPR2"])
        assert findings == []

    def test_ignore_drops(self):
        findings = lint_paths([str(FIXTURES / "bad_rpr202.py")],
                              ignore=["RPR202"])
        assert findings == []

    def test_prefix_matching(self):
        findings = lint_paths([str(FIXTURES / "bad_rpr202.py")],
                              select=["RPR2"])
        assert {f.code for f in findings} == {"RPR202"}

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            lint_paths([str(FIXTURES)], select=["E501"])

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigurationError):
            lint_paths([str(FIXTURES / "does_not_exist_dir")])


class TestExemptions:
    def test_units_module_exempt_from_rpr101(self):
        src = "ZERO = 273.15\n"
        assert lint_source(src, "src/repro/units.py") == []
        assert [f.code for f in lint_source(src, "src/repro/other.py")] \
            == ["RPR101"]

    def test_cli_and_devtools_exempt_from_rpr501(self):
        src = "def f(x):\n    print(x)\n"
        assert lint_source(src, "src/repro/cli.py") == []
        assert lint_source(src, "src/repro/__main__.py") == []
        assert lint_source(
            src, "src/repro/devtools/physlint/reporters.py") == []
        assert [f.code
                for f in lint_source(src, "src/repro/core/oftec.py")] \
            == ["RPR501"]

    def test_parse_error_reported(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        code = physlint_main([str(FIXTURES / "bad_rpr202.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR202" in out

    def test_exit_zero_on_clean(self, capsys):
        code = physlint_main([str(FIXTURES / "good_rpr201.py")])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_two_on_bad_select(self, capsys):
        code = physlint_main(["--select", "E9", str(FIXTURES)])
        assert code == 2

    def test_json_round_trips(self, capsys):
        code = physlint_main([str(FIXTURES / "bad_rpr301.py"),
                              "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "physlint"
        assert payload["total"] == 3
        assert payload["counts"] == {"RPR301": 3}
        assert all(f["code"] == "RPR301"
                   for f in payload["findings"])

    def test_list_rules(self, capsys):
        assert physlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in out

    def test_repro_lint_subcommand(self, capsys):
        code = repro_main(["lint", str(FIXTURES / "bad_rpr101.py"),
                           "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RPR101": 7}

    def test_python_dash_m_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.physlint",
             str(FIXTURES / "bad_rpr202.py")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert "RPR202" in proc.stdout


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        """Every rule, the cross-module RPR703 included, over src/."""
        findings = lint_paths([str(SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_src_suppressions_name_registered_rules(self):
        """A ``# physlint: disable=`` comment naming a deleted rule
        suppresses nothing and is never reported by the lint pass."""
        registered = set(available_rules())
        stale = []
        for path in sorted(SRC.rglob("*.py")):
            with tokenize.open(path) as handle:
                tokens = list(tokenize.generate_tokens(handle.readline))
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = SUPPRESSION.search(token.string)
                if match is None:
                    continue
                for code in match.group(1).split(","):
                    if code.strip().upper() not in registered:
                        stale.append(f"{path}:{token.start[0]}: "
                                     f"{code.strip()}")
        assert stale == [], "\n".join(stale)
