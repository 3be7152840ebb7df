"""Byte-for-byte stdout of the text subcommands on every shipped problem.

The goldens under tests/golden/ are named <problem>.<subcommand>.out; a
subcommand that is expected to fail also has a <problem>.<subcommand>.err
holding its stderr.  `simulate` prints a CSV of floats and is pinned by the
route-agreement tests instead.
"""

from pathlib import Path

import pytest

from ltivp.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = ("input_switch", "ramp_input", "step_from_rest")
SUBCOMMANDS = ("solve", "map-ic", "realize", "check")


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_stdout_matches_golden(capsys, problem, command):
    code = main([command, str(ROOT / "problems" / f"{problem}.json")])
    captured = capsys.readouterr()
    stem = f"{problem}.{command}"
    assert captured.out == (GOLDEN / f"{stem}.out").read_bytes().decode()
    err_file = GOLDEN / f"{stem}.err"
    if err_file.exists():
        assert code == 1
        assert captured.err == err_file.read_bytes().decode()
    else:
        assert code == 0 and captured.err == ""
