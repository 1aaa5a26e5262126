"""Command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import load_trace


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["oftec", "--benchmark", "nope"])
        capsys.readouterr()


class TestProfilesCommand:
    def test_lists_all_eight(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("basicmath", "bitcount", "crc32", "djkstra",
                     "fft", "quicksort", "stringsearch", "susan"):
            assert name in out


class TestOftecCommand:
    def test_text_output(self, capsys):
        code = main(["oftec", "--benchmark", "basicmath",
                     "--resolution", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "omega*" in out
        assert "meets T_max" in out

    def test_json_output(self, capsys):
        code = main(["oftec", "--benchmark", "crc32",
                     "--resolution", "6", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "crc32"
        assert payload["feasible"] is True
        assert 0.0 < payload["omega_rpm"] <= 5000.0
        assert 0.0 <= payload["i_tec_a"] <= 5.0
        assert payload["total_power_w"] == pytest.approx(
            payload["leakage_power_w"] + payload["tec_power_w"]
            + payload["fan_power_w"], rel=1e-6)


class TestSpiceCommand:
    def test_netlist_to_stdout(self, capsys):
        code = main(["spice", "--benchmark", "crc32",
                     "--resolution", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("*")
        assert "VAMB amb 0 DC" in out
        assert out.rstrip().endswith(".end")

    def test_netlist_to_file(self, tmp_path, capsys):
        path = tmp_path / "net.sp"
        code = main(["spice", "--benchmark", "crc32",
                     "--resolution", "4", "--output", str(path)])
        assert code == 0
        assert "written" in capsys.readouterr().out
        text = path.read_text()
        assert ".op" in text


class TestSweepCommand:
    def test_surfaces_printed(self, capsys):
        code = main(["sweep", "--benchmark", "basicmath",
                     "--resolution", "6", "--omega-points", "5",
                     "--current-points", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "temperature surface" in out
        assert "power surface" in out
        assert "***" in out  # the runaway row


class TestExitCodes:
    def test_codes_are_distinct_and_reserved(self):
        from repro.cli import (
            EXIT_CONFIG_ERROR,
            EXIT_INFEASIBLE,
            EXIT_SOLVER_FAILURE,
        )
        codes = {EXIT_INFEASIBLE, EXIT_SOLVER_FAILURE,
                 EXIT_CONFIG_ERROR}
        assert codes == {3, 4, 5}
        # 0 = success, 1 = generic failure, 2 = argparse usage error.
        assert not codes & {0, 1, 2}

    def _patched_oftec(self, monkeypatch, error):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_oftec", boom)

    def test_infeasible_maps_to_3(self, monkeypatch, capsys):
        # Algorithm 1 reports an infeasible instance as a result with
        # feasible=False (its best point), never as an exception.
        import types

        import repro.cli as cli
        evaluation = types.SimpleNamespace(
            leakage_power=1.0, tec_power=2.0, fan_power=3.0)
        result = types.SimpleNamespace(
            feasible=False, omega_star=100.0, current_star=1.0,
            max_chip_temperature=400.0, total_power=6.0,
            evaluation=evaluation, runtime_seconds=0.5,
            thermal_solves=7)
        monkeypatch.setattr(cli, "run_oftec",
                            lambda *args, **kwargs: result)
        code = main(["oftec", "--resolution", "4"])
        assert code == 3
        assert "MISSES T_max" in capsys.readouterr().out

    def test_solver_failure_maps_to_4(self, monkeypatch, capsys):
        from repro.errors import SolverError
        self._patched_oftec(monkeypatch, SolverError("broke down"))
        code = main(["oftec", "--resolution", "4"])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err

    def test_solver_subclass_maps_to_4(self, monkeypatch, capsys):
        from repro.errors import SingularNetworkError
        self._patched_oftec(monkeypatch,
                            SingularNetworkError("singular"))
        code = main(["oftec", "--resolution", "4"])
        assert code == 4
        capsys.readouterr()

    def test_config_error_maps_to_5(self, monkeypatch, capsys):
        from repro.errors import ConfigurationError
        self._patched_oftec(monkeypatch, ConfigurationError("bad"))
        code = main(["oftec", "--resolution", "4"])
        assert code == 5
        assert "configuration error" in capsys.readouterr().err


class TestChaosCommand:
    def test_contained_run_exits_zero(self, capsys):
        code = main(["chaos", "--resolution", "4", "--benchmarks", "2",
                     "--seed", "3", "--rate", "0.05",
                     "--max-fires", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos campaign PASSED" in out
        assert "fault fires:" in out
        assert "benchmarks completed:" in out

    def test_selected_fault_kinds(self, capsys):
        code = main(["chaos", "--resolution", "4", "--benchmarks", "1",
                     "--faults", "solve-timeout,nan-power",
                     "--rate", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solve-timeout" in out
        assert "singular-network" not in out

    def test_unknown_fault_kind_maps_to_5(self, capsys):
        code = main(["chaos", "--faults", "cosmic-rays"])
        assert code == 5
        assert "unknown fault kind" in capsys.readouterr().err

    def test_process_faults_below_two_workers_map_to_5(self, capsys):
        code = main(["chaos", "--resolution", "4", "--benchmarks", "1",
                     "--faults", "worker-kill", "--workers", "1"])
        assert code == 5
        assert "workers >= 2" in capsys.readouterr().err

    def test_stderr_carries_no_user_warning(self):
        # The documented seed-0 drive feeds trust-constr repeated
        # gradients; scipy's BFGS warning about them must not reach
        # the user.
        source = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--resolution", "6",
             "--seed", "0", "--rate", "0.03", "--max-fires", "4"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": source})
        assert completed.returncode == 0, completed.stderr
        assert "chaos campaign PASSED" in completed.stdout
        assert "UserWarning" not in completed.stderr

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        code = main(["chaos", "--resolution", "4", "--benchmarks", "1",
                     "--rate", "0.05", "--max-fires", "2",
                     "--json", str(path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        assert "benchmarks" in payload
        assert "feasibility_counts" in payload


class TestStreamingFlags:
    def test_oftec_streams_live_and_openmetrics(self, tmp_path,
                                                capsys):
        live = tmp_path / "live.jsonl"
        om = tmp_path / "metrics.om"
        code = main(["oftec", "--benchmark", "basicmath",
                     "--resolution", "6",
                     "--trace", str(live),
                     "--openmetrics", str(om)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"trace written to {live}" in captured.err
        assert f"telemetry streamed to {om}" in captured.err
        with open(live, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle
                       if line.strip()]
        assert records[0]["record"] == "meta"
        assert records[-1]["record"] == "end"
        assert any(r["record"] == "span" for r in records)
        assert any(r["record"] == "metrics" for r in records)
        text = om.read_text()
        assert text.startswith("# TYPE")
        assert "repro_operator_solves_total" in text
        assert text.endswith("# EOF\n")

    @pytest.mark.parametrize("workers", [0, 2])
    def test_campaign_trace_readable_after_each_unit(
            self, tmp_path, monkeypatch, capsys, workers):
        # No --progress: the trace must still advance per unit.  The
        # probe is the exec layer's monitor, called once a unit is
        # accepted; it reads the file the way `repro trace` does.
        import repro.cli as cli

        path = tmp_path / "trace.jsonl"
        seen = []

        class Probe:
            def unit_done(self, name, wall_seconds=0.0, ok=True):
                units = [r["name"] for r in load_trace(str(path))
                         if r["kind"] == "unit"]
                seen.append((name, units))

            def __getattr__(self, hook):
                return lambda *args, **kwargs: None

        monkeypatch.setattr(cli, "_progress_board",
                            lambda *args: Probe())
        code = main(["campaign", "--resolution", "4", "--benchmarks",
                     "3", "--workers", str(workers),
                     "--trace", str(path)])
        capsys.readouterr()
        assert code == 0
        assert len(seen) == 3
        for done, (name, units) in enumerate(seen, start=1):
            assert name in units
            assert len(units) == done

    def test_campaign_progress_renders_to_stderr(self, tmp_path,
                                                 capsys):
        code = main(["campaign", "--resolution", "4",
                     "--benchmarks", "2", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "campaign: 2/2" in captured.err


class TestTraceAnalytics:
    def record_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(["oftec", "--benchmark", "basicmath",
                     "--resolution", "6", "--trace", str(path)])
        assert code == 0
        return path

    def test_flame_to_stdout(self, tmp_path, capsys):
        path = self.record_trace(tmp_path)
        capsys.readouterr()
        code = main(["trace", "flame", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack
            assert int(count) > 0

    def test_flame_to_file(self, tmp_path, capsys):
        path = self.record_trace(tmp_path)
        output = tmp_path / "flame.folded"
        code = main(["trace", "flame", str(path),
                     "--output", str(output)])
        out = capsys.readouterr().out
        assert code == 0
        assert "folded stacks written to" in out
        assert output.read_text().strip()

    def test_critical_path(self, tmp_path, capsys):
        path = self.record_trace(tmp_path)
        capsys.readouterr()
        code = main(["trace", "critical-path", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("critical path:")
        assert "oftec" in out

    def test_summarize_still_works(self, tmp_path, capsys):
        path = self.record_trace(tmp_path)
        capsys.readouterr()
        code = main(["trace", "summarize", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "spans" in out
