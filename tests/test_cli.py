import gc
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


#: finite data whose closed form overflows: Y(s) = inf / (s^3 + 3 s^2 + 2 s)
OVERFLOW = {
    "ode": {"a": [3, 2], "b": [0, 0, 1e308]},
    "input": {"past": 0, "future": 1e308},
    "conditions": {"kind": "first", "y": [0, 0]},
    "horizon": 1,
}

#: finite data whose realization overflows: b_1 - b_0 a_1 = 1e308 - 3e308
REALIZATION_OVERFLOW = {
    "ode": {"a": [3, 2], "b": [1e308, 1e308, 1e308]},
    "input": {"past": 0, "future": "exp 1e200"},
    "conditions": {"kind": "previous", "y": [0, 0]},
    "horizon": 1,
}

#: finite data whose sampled transfer function B(s)/A(s) overflows: |s| ~ 1.5e200
GAP_OVERFLOW = {
    "ode": {"a": [1e200, 1], "b": [1, 0, 0]},
    "input": "step",
    "conditions": {"kind": "first", "y": [0, 0]},
}

#: finite data whose observability row C A^2 overflows: A holds -1e200
OBSERVABILITY_OVERFLOW = {
    "ode": {"a": [1e200, 1, 1], "b": [0, 0, 0, 1]},
    "input": "step",
    "conditions": {"kind": "previous", "y": [0, 0, 0]},
    "horizon": 1,
}

#: finite data whose input stack U(0+) overflows: u''(0+) = 1e400
STACK_OVERFLOW = {
    "ode": {"a": [6, 11, 6], "b": [0, 0, 0, 1]},
    "input": {"past": 0, "future": "exp 1e200"},
    "conditions": {"kind": "previous", "y": [0, 0, 0]},
    "horizon": 1,
}

#: finite data whose input stack U(0+) overflows: u'(0+) = 2e308 off the
#: pair of rates 1e308 +- i
PAIR_OVERFLOW = {
    "ode": {"a": [6, 5], "b": [1, 3, 2]},
    "input": {
        "past": 0,
        "future": [{"amp": 1, "rate": [1e308, 1]}, {"amp": 1, "rate": [1e308, -1]}],
    },
    "conditions": {"kind": "first", "y": [0, 0]},
    "horizon": 1,
}

#: finite data whose condition mapping overflows: M (U(0+) - U(0-)) + Y(0-)
#: is 1e308 - 3e308 and 1.7e308 + 1e308
JUMP_OVERFLOW = {
    "ode": {"a": [6, 5], "b": [1, 3, 2]},
    "input": {"past": 0, "future": 1e308},
    "conditions": {"kind": "previous", "y": [0, 1.7e308]},
    "horizon": 1,
}


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

    def test_non_finite_gap_is_an_error(self, capsys, tmp_path):
        # the state-space side of OVERFLOW overflows at the sample points:
        # the file's ssr is named, or the ODE when its canonical realization
        # stands in for a missing ssr; nothing is printed before the error
        canonical = {"A": [[0, -2], [1, -3]], "B": [1e308, 0], "C": [0, 1], "D": 0}
        for data, field in ((OVERFLOW, "ode"), ({**OVERFLOW, "ssr": canonical}, "ssr")):
            code, out, err = run(capsys, "check", write_problem(tmp_path, data))
            assert code == 1 and out == ""
            assert err == f"error: {field}: transfer function overflows at a sample point: the sampled gap is not finite\n"

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

    def test_overflowing_closed_form(self, capsys, tmp_path):
        # no line of the solution is printed before the error
        code, out, err = run(capsys, "solve", write_problem(tmp_path, OVERFLOW))
        assert code == 1 and out == ""
        assert err.startswith("error: mode ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, message",
        [
            ("map-ic", "Y(0+) overflows: Y(0-) + M (U(0+) - U(0-)) is not finite"),
            ("realize", "ode: realization overflows: b_k - b_0 a_k is not finite"),
            ("check", "ode: realization overflows: b_k - b_0 a_k is not finite"),
            ("simulate", "ode: realization overflows: b_k - b_0 a_k is not finite"),
        ],
    )
    def test_overflowing_realization(self, capsys, tmp_path, command, message):
        # one error line and nothing printed before it; a RuntimeWarning on
        # the way would fail the test
        code, out, err = run(capsys, command, write_problem(tmp_path, REALIZATION_OVERFLOW))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("solve", JUMP_OVERFLOW, "Y(0+) overflows: Y(0-) + M (U(0+) - U(0-)) is not finite"),
            ("map-ic", JUMP_OVERFLOW, "Y(0+) overflows: Y(0-) + M (U(0+) - U(0-)) is not finite"),
            ("check", JUMP_OVERFLOW, "delta Y overflows: M (U(0+) - U(0-)) is not finite"),
            ("simulate", JUMP_OVERFLOW, "Y(0+) overflows: Y(0-) + M (U(0+) - U(0-)) is not finite"),
            (
                "check",
                {**JUMP_OVERFLOW, "input": {"past": -1e308, "future": 1e308}},
                "input: the jump U(0+) - U(0-) overflows: it is not finite",
            ),
            (
                "simulate",
                {
                    **JUMP_OVERFLOW,
                    "input": {"past": 0, "future": "cos 1e155"},
                    "conditions": {"kind": "first", "y": [0, 0]},
                },
                "input.future: rate 1e+155j overflows: |rate|^2 is not finite",
            ),
            (
                # the root 1.5e308 of A(s) is more than the float range away
                # from the input rates +-1e308 i
                "solve",
                {
                    "ode": {"a": [-1.5e308], "b": [0, 1]},
                    "input": {"past": 0, "future": "cos 1e308"},
                    "conditions": {"kind": "first", "y": [0]},
                },
                "mode t^0*exp(1e+308jt) has non-finite amplitude (nan+nanj)",
            ),
            (
                "realize",
                {**JUMP_OVERFLOW, "ode": {"a": [1e200, 1], "b": [1, 0, 0]}},
                "ode: Markov parameter h_2 overflows: it is not finite",
            ),
            (
                "realize",
                {
                    **JUMP_OVERFLOW,
                    "ode": {"a": [1e200, 1, 1], "b": [0, 0, 0, 1]},
                    "conditions": {"kind": "previous", "y": [0, 0, 0]},
                },
                "ode: observability matrix overflows: a row C A^k is not finite",
            ),
            (
                "check",
                GAP_OVERFLOW,
                "ode: transfer function overflows at a sample point: the sampled gap is not finite",
            ),
            (
                "check",
                OBSERVABILITY_OVERFLOW,
                "ode: transfer function overflows at a sample point: the sampled gap is not finite",
            ),
            ("simulate", OBSERVABILITY_OVERFLOW, "ode: observability matrix overflows: a row C A^k is not finite"),
            ("map-ic", STACK_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            ("simulate", STACK_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            (
                "map-ic",
                {**STACK_OVERFLOW, "input": {"past": "exp 1e200", "future": 0}},
                "input.past: the stack U(0-) overflows: it is not finite",
            ),
            ("solve", PAIR_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            ("simulate", PAIR_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            ("check", STACK_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            (
                "check",
                {**STACK_OVERFLOW, "input": {"past": "exp 1e200", "future": 0}},
                "input.past: the stack U(0-) overflows: it is not finite",
            ),
            ("check", PAIR_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            ("solve", STACK_OVERFLOW, "input.future: the stack U(0+) overflows: it is not finite"),
            ("solve", REALIZATION_OVERFLOW, "Y(0+) overflows: Y(0-) + M (U(0+) - U(0-)) is not finite"),
        ],
    )
    def test_overflow_is_one_error_line(self, capsys, tmp_path, command, data, message):
        # computed before the first line is printed, and no RuntimeWarning
        # (an error under this suite) or other exception on the way
        code, out, err = run(capsys, command, write_problem(tmp_path, data))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    # past the 64-bit address space, and past intp: neither allocates anywhere
    @pytest.mark.parametrize("points", [10**17, 10**19])
    def test_impossible_grid_is_one_error_line(self, capsys, tmp_path, points):
        code, out, err = run(capsys, "simulate", SWITCH, "--grid", str(points))
        assert code == 1 and out == ""
        assert err == f"error: --grid: {points} points do not fit in memory\n"
        data = {**json.loads(Path(SWITCH).read_text()), "grid": points}
        code, out, err = run(capsys, "simulate", write_problem(tmp_path, data))
        assert code == 1 and out == ""
        assert err == f"error: grid: {points} points do not fit in memory\n"


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


class TestEntryPoint:
    """`python -m ltivp.cli` (and the `ltivp` command) go through `run`,
    which freezes the collector after `main`; `main` itself freezes nothing."""

    ROOT = Path(__file__).resolve().parent.parent

    def cli(self, *argv, script=None):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        command = ["-c", script, *argv] if script else ["-m", "ltivp.cli", *argv]
        return subprocess.run(
            [sys.executable, *command], cwd=self.ROOT, env=env, capture_output=True, timeout=120
        )

    def test_main_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["simulate", RAMP, "--grid", "3"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("stem", ["input_switch.solve", "ramp_input.map-ic"])
    def test_module_run_matches_golden(self, stem):
        problem, command = stem.split(".")
        done = self.cli(command, f"problems/{problem}.json")
        golden = self.ROOT / "tests" / "golden"
        assert done.stdout == (golden / f"{stem}.out").read_bytes()
        err_file = golden / f"{stem}.err"
        if err_file.exists():
            assert (done.returncode, done.stderr) == (1, err_file.read_bytes())
        else:
            assert (done.returncode, done.stderr) == (0, b"")

    def test_usage_error_exits_2(self):
        done = self.cli("solve", RAMP, "--grid", "3")
        assert done.returncode == 2
        assert done.stdout == b""
        assert b"unrecognized arguments: --grid 3" in done.stderr

    def test_run_freezes_after_main(self):
        script = (
            "import gc, sys\n"
            "from ltivp.cli import run\n"
            "code = run()\n"
            "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        done = self.cli("solve", REST, script=script)
        assert done.stdout.startswith(b"ode: ")
        assert done.stderr == b"0 True\n"
