import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ltivp.cli import main
from ltivp.problemfile import emit_problem, load_problem

SWITCH = "problems/input_switch.json"
RAMP = "problems/ramp_input.json"
REST = "problems/step_from_rest.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, data, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data) + "\n")
    return str(path)


class TestSolve:
    def test_switch_golden(self, capsys):
        code, out, err = run(capsys, "solve", SWITCH)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "ode: y'' + 6*y' + 5*y = u'' + 3*u' + 2*u",
            "input (t > 0): t",
            "Y(0+) = [5, -1]   (mapped from previous conditions)",
            "U(0+) = [1, 0]",
            "Y(s) = (-s^3 - s^2 + 3 s + 2) / (s^4 + 6 s^3 + 5 s^2)",
            "y(t) = -0.87*exp(-5*t) - 0.25*exp(-1*t) + 0.12 + 0.4*t",
        ]

    def test_first_form_skips_mapping_lines(self, capsys):
        code, out, err = run(capsys, "solve", RAMP)
        assert code == 0
        assert "mapped from previous" not in out
        assert out.splitlines()[0] == "ode: y'' + 6*y' + 5*y = u' + u"
        assert any(line.startswith("y(t) = ") for line in out.splitlines())

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "solve", SWITCH)
        _, second, _ = run(capsys, "solve", SWITCH)
        assert first == second

    @pytest.mark.parametrize(
        "flags", [["--csv", "x.csv"], ["--grid", "0"], ["--horizon", "-1"]], ids=" ".join
    )
    def test_state_space_flags_are_usage_errors(self, capsys, flags):
        # solve runs the closed form only; --csv, --grid and --horizon are simulate's
        with pytest.raises(SystemExit) as info:
            main(["solve", RAMP, *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMapIC:
    def test_switch_golden(self, capsys):
        code, out, err = run(capsys, "map-ic", SWITCH)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "Y(0-) = [1, 0]",
            "U(0-) = [0, 1]",
            "U(0+) = [1, 0]",
            "delta U = [1, -1]",
            "M = [[1, -3], [0, 1]]",
            "Y(0+) = [5, -1]",
        ]

    def test_requires_previous_form(self, capsys):
        code, out, err = run(capsys, "map-ic", RAMP)
        assert code == 1
        assert "previous-form" in err


class TestRealize:
    def test_ramp_golden(self, capsys):
        code, out, err = run(capsys, "realize", RAMP)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "ode: y'' + 6*y' + 5*y = u' + u",
            "A = [[0, -5], [1, -6]]",
            "B = [1, 1]",
            "C = [0, 1]",
            "D = 0",
            "markov parameters h_0..h_2 = [0, 1, -5]",
            "observability O = [[1, -6], [0, 1]]",
        ]


class TestCheck:
    def test_switch_report(self, capsys):
        code, out, err = run(capsys, "check", SWITCH)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[1] == "ssr: observable canonical, n = 2"
        assert lines[2] == "condition 1, same order: yes"
        assert lines[3].startswith("condition 2, same transfer function: yes")
        assert lines[4].startswith("condition 3, observable: yes")
        assert lines[5] == "equivalent: yes (3/3)"
        assert lines[6] == "continuity at t = 0 (r = 0, m = 2):"
        assert lines[7] == "  y^(0): jump -1 -> discontinuous"
        assert lines[8] == "  y^(1): jump 4 -> discontinuous"
        assert lines[9] == "predicted from the input jump alone: output stack discontinuous"

    def test_partial_continuity(self, capsys):
        _, out, _ = run(capsys, "check", REST)
        lines = out.splitlines()
        assert "  y^(0): jump 0 -> continuous" in lines
        assert "  y^(1): jump 1 -> discontinuous" in lines

    def test_ssr_from_file_can_fail(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "ode": {"a": [6, 5], "b": [0, 1, 1]},
                "input": "step",
                "conditions": {"kind": "first", "y": [0, 0]},
                "ssr": {"A": [[0, -5], [1, -6]], "B": [1, 1], "C": [0, 1], "D": 1},
            },
        )
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert "ssr: from file, n = 2" in out
        assert "equivalent: no (condition 2)" in out

    @pytest.mark.parametrize("command", ["solve", "map-ic", "realize", "check", "simulate"])
    def test_tolerance_env_is_ignored(self, capsys, monkeypatch, command):
        # every threshold is a module constant: a set LTIVP_TOL changes no
        # byte of any subcommand's output
        for problem in (SWITCH, RAMP, REST):
            monkeypatch.delenv("LTIVP_TOL", raising=False)
            plain = run(capsys, command, problem)
            for raw in ("2.0", "banana"):
                monkeypatch.setenv("LTIVP_TOL", raw)
                assert run(capsys, command, problem) == plain, (problem, raw)


class TestSimulate:
    def test_stdout_csv(self, capsys):
        code, out, err = run(capsys, "simulate", RAMP, "--grid", "3", "--horizon", "3")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "t,y,x1,x2"
        assert len(lines) == 4
        assert lines[3].startswith("3,")

    def test_csv_written(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, "simulate", RAMP, "--csv", str(target), "--grid", "10")
        assert code == 0 and err == ""
        assert out == f"wrote 10 rows to {target}\n"
        _, stdout_csv, _ = run(capsys, "simulate", RAMP, "--grid", "10")
        assert target.read_text() == stdout_csv
        assert len(stdout_csv.splitlines()) == 11

    def test_matches_closed_form(self, capsys):
        _, out, _ = run(capsys, "simulate", RAMP, "--grid", "50")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        ts = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        want = ts / 5.0 - (1.0 - np.exp(-5 * ts)) / 25.0 + (np.exp(-ts) - np.exp(-5 * ts)) / 4.0
        assert np.max(np.abs(ys - want)) <= 1e-9

    def test_missing_horizon(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "ode": {"a": [1], "b": [0, 1]},
                "input": "step",
                "conditions": {"kind": "first", "y": [0]},
            },
        )
        code, _, err = run(capsys, "simulate", path)
        assert code == 1
        assert "horizon" in err

    def test_non_finite_horizon(self, capsys):
        for bad in ("inf", "nan"):
            code, out, err = run(capsys, "simulate", RAMP, "--horizon", bad)
            assert code == 1 and out == ""
            assert "--horizon" in err


class TestEcho:
    def test_echo_is_canonical_fixpoint(self, capsys, tmp_path):
        _, out, _ = run(capsys, "solve", SWITCH, "--echo")
        assert out == emit_problem(load_problem(SWITCH))
        path = tmp_path / "echoed.json"
        path.write_text(out)
        _, again, _ = run(capsys, "solve", str(path), "--echo")
        assert again == out

    def test_echo_available_everywhere(self, capsys):
        for command in ("solve", "map-ic", "realize", "check", "simulate"):
            code, out, _ = run(capsys, command, REST, "--echo")
            assert code == 0
            assert out.startswith("{")

    def test_echo_runs_no_subcommand(self, capsys):
        # map-ic refuses first-form conditions, but echo exits before it runs
        code, out, err = run(capsys, "map-ic", RAMP, "--echo")
        assert code == 0 and err == ""
        assert out == emit_problem(load_problem(RAMP))

    def test_file_read_once_through_module_lookup(self, capsys, monkeypatch):
        import ltivp.cli

        calls = []

        def counting(path):
            calls.append(path)
            return load_problem(path)

        monkeypatch.setattr(ltivp.cli, "load_problem", counting)
        for extra in ((), ("--echo",)):
            calls.clear()
            code, _, _ = run(capsys, "realize", REST, *extra)
            assert code == 0 and calls == [REST]


class TestErrors:
    def test_malformed_file_names_field(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "ode": {"a": [6, 5], "b": [1, 1]},
                "input": "step",
                "conditions": {"kind": "first", "y": [0, 0]},
            },
        )
        code, out, err = run(capsys, "solve", path)
        assert code == 1 and out == ""
        assert "ode.b" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "problems/nope.json")
        assert code == 1
        assert "nope.json" in err

    @pytest.mark.parametrize("command", ["simulate"])
    def test_unwritable_csv(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, command, RAMP, "--csv", str(target))
        assert code == 1
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert err == f"error: cannot read {path}: not UTF-8 text\n"

    def test_overflowing_trajectory(self, capsys, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "ode": {"a": [-4, -5], "b": [0, 1, 1]},
                "input": "step",
                "conditions": {"kind": "first", "y": [0, 0]},
                "horizon": 300,
                "grid": 4,
            },
        )
        code, out, err = run(capsys, "simulate", path)
        assert code == 1 and out == ""
        assert err == "error: trajectory overflows: first non-finite sample at t = 150\n"


class TestColdStart:
    def test_scipy_loaded_only_by_simulate(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        script = (
            "import sys\n"
            "import ltivp\n"
            "after_import = 'scipy' in sys.modules\n"
            "from ltivp.cli import main\n"
            f"main(['solve', {REST!r}])\n"
            "print(after_import, 'scipy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False"
