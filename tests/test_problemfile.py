import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltivp.cli import main
from ltivp.errors import ProblemFileError
from ltivp.problemfile import (
    ParsedProblem,
    emit_problem,
    load_problem,
    parse_problem,
    parse_signal_spec,
)
from ltivp.signal import Signal


def base_data(**overrides):
    data = {
        "ode": {"a": [6, 5], "b": [1, 3, 2]},
        "input": {"past": "cos 1", "future": "ramp"},
        "conditions": {"kind": "previous", "y": [1, 0]},
        "horizon": 3.0,
    }
    data.update(overrides)
    return data


class TestParseSignalSpec:
    def test_number_is_constant(self):
        assert parse_signal_spec(2.5, "x").modes == Signal.constant(2.5).modes

    def test_sugar(self):
        ts = np.linspace(0, 2, 9)
        cases = {
            "zero": Signal.zero(),
            "step": Signal.constant(1.0),
            "ramp": Signal.ramp(),
            "cos 2": Signal.cosine(2.0),
            "sin 0.5": Signal.sine(0.5),
            "exp -1": Signal.exponential(-1.0),
        }
        for spec, want in cases.items():
            got = parse_signal_spec(spec, "x")
            assert_allclose(got(ts), want(ts), atol=1e-15)

    def test_mode_dicts(self):
        got = parse_signal_spec(
            [{"amp": 2.0, "power": 1, "rate": -1.0}], "x"
        )
        assert got(1.0) == pytest.approx(2.0 * np.exp(-1.0))

    def test_mode_dict_complex_pair(self):
        got = parse_signal_spec(
            [
                {"amp": [0.5, 0.0], "rate": [0.0, 2.0]},
                {"amp": [0.5, 0.0], "rate": [0.0, -2.0]},
            ],
            "x",
        )
        assert got.modes == Signal.cosine(2.0).modes

    def test_mode_arrays(self):
        # a mode is an object; [amp, power, rate] and [amp, power, re, im] are refused
        for modes in ([[1.0, 0, -2.0]], [{"amp": 1.0, "rate": -1.0}, [0.5, 0, 0.0, 3.0]]):
            i = len(modes) - 1
            with pytest.raises(ProblemFileError) as info:
                parse_signal_spec(modes, "x")
            assert str(info.value) == f"x[{i}]: expected an object with fields amp, power, rate"

    def test_rejects_garbage(self):
        with pytest.raises(ProblemFileError, match="unknown signal"):
            parse_signal_spec("sawtooth", "input.future")
        with pytest.raises(ProblemFileError, match="cos"):
            parse_signal_spec("cos", "x")
        with pytest.raises(ProblemFileError, match=r"x\[0\]: power"):
            parse_signal_spec([{"amp": 1.0, "power": -1, "rate": 0.0}], "x")
        with pytest.raises(ProblemFileError, match=r"x\[0\].amp"):
            parse_signal_spec([{"power": 0, "rate": 0.0}], "x")
        with pytest.raises(ProblemFileError):
            parse_signal_spec(None, "x")


class TestParseProblem:
    def test_full_example(self):
        parsed = parse_problem(base_data(grid=100))
        p = parsed.problem
        assert p.ode.n == 2
        assert_allclose(p.ode.a, [6, 5])
        assert_allclose(p.ode.b, [1, 3, 2])
        assert p.conditions.kind == "previous"
        assert_allclose(p.conditions.y, [1, 0])
        assert p.input.past.modes == Signal.cosine(1.0).modes
        assert p.input.future.modes == Signal.ramp().modes
        assert p.horizon == 3.0
        assert parsed.grid_points == 100
        assert parsed.ssr is None

    def test_step_input_string(self):
        parsed = parse_problem(base_data(input="step"))
        assert parsed.problem.input.past.modes == Signal.zero().modes
        assert parsed.problem.input.future.modes == Signal.constant(1.0).modes

    def test_first_form_defaults_past_to_zero(self):
        data = base_data(
            input={"future": "ramp"},
            conditions={"kind": "first", "y": [5, -1]},
        )
        parsed = parse_problem(data)
        assert parsed.problem.input.past.modes == Signal.zero().modes
        assert_allclose(parsed.problem.conditions.y, [5, -1])

    def test_previous_form_requires_past(self):
        with pytest.raises(ProblemFileError, match="input.past"):
            parse_problem(base_data(input={"future": "ramp"}))

    def test_ssr_block(self):
        data = base_data(
            ssr={"A": [[0, -5], [1, -6]], "B": [1, 1], "C": [0, 1], "D": 0}
        )
        parsed = parse_problem(data)
        assert parsed.ssr is not None
        assert_allclose(parsed.ssr.A, [[0, -5], [1, -6]])
        assert_allclose(parsed.ssr.B, [1, 1])
        assert parsed.ssr.D == 0.0

    def test_optional_fields_absent(self):
        data = base_data()
        del data["horizon"]
        parsed = parse_problem(data)
        assert parsed.problem.horizon is None
        assert parsed.grid_points is None


class TestFieldErrors:
    def test_unknown_top_level(self):
        with pytest.raises(ProblemFileError, match="unknown top-level fields: tolerance"):
            parse_problem(base_data(tolerance=1e-9))

    def test_missing_ode(self):
        data = base_data()
        del data["ode"]
        with pytest.raises(ProblemFileError, match="ode: missing"):
            parse_problem(data)

    def test_b_length(self):
        with pytest.raises(ProblemFileError, match=r"ode\.b: expected length 3"):
            parse_problem(base_data(ode={"a": [6, 5], "b": [1, 1]}))

    def test_conditions_length(self):
        with pytest.raises(ProblemFileError, match=r"conditions\.y: expected length 2"):
            parse_problem(
                base_data(conditions={"kind": "previous", "y": [1.0]})
            )

    def test_conditions_kind(self):
        with pytest.raises(ProblemFileError, match="conditions.kind"):
            parse_problem(base_data(conditions={"kind": "both", "y": [1, 0]}))

    def test_bad_horizon(self):
        with pytest.raises(ProblemFileError, match="horizon"):
            parse_problem(base_data(horizon=-1.0))

    def test_non_finite_horizon(self, tmp_path):
        for bad in (float("inf"), float("nan"), 10**400):
            with pytest.raises(ProblemFileError, match="horizon"):
                parse_problem(base_data(horizon=bad))
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(base_data(horizon=float("inf"))))
        assert "Infinity" in path.read_text()
        with pytest.raises(ProblemFileError, match="horizon"):
            load_problem(str(path))

    def test_bad_grid(self):
        with pytest.raises(ProblemFileError, match="grid"):
            parse_problem(base_data(grid=0))
        with pytest.raises(ProblemFileError, match="grid"):
            parse_problem(base_data(grid=2.5))

    def test_non_number_coefficient(self):
        with pytest.raises(ProblemFileError, match=r"ode\.a\[1\]"):
            parse_problem(base_data(ode={"a": [6, "5"], "b": [1, 3, 2]}))

    def test_bad_ssr_shape(self):
        with pytest.raises(ProblemFileError, match="ssr"):
            parse_problem(
                base_data(ssr={"A": [[0, -5]], "B": [1, 1], "C": [0, 1], "D": 0})
            )


NAN, INF = float("nan"), float("inf")
SSR = {"A": [[0, -5], [1, -6]], "B": [1, 1], "C": [0, 1], "D": 0}


# field named by the error -> problem-file overrides that put a bad number there
NON_FINITE = {
    "conditions.y[0]": {"conditions": {"kind": "previous", "y": [NAN, 0]}},
    "ode.a[0]": {"ode": {"a": [INF, 5], "b": [1, 3, 2]}},
    "ode.b[0]": {"ode": {"a": [6, 5], "b": [10**400, 3, 2]}},
    "ode.b[1]": {"ode": {"a": [6, 5], "b": [1, -INF, 2]}},
    "input.past": {"input": {"past": "cos nan", "future": "ramp"}},
    "input.future": {"input": {"past": "zero", "future": "exp inf"}},
    "input.past constant": {"input": {"past": NAN, "future": "ramp"}},
    "input.future[0].amp": {"input": {"past": "zero", "future": [{"amp": NAN, "rate": -1}]}},
    "input.future[0].rate[1]": {
        "input": {"past": "zero", "future": [{"amp": 1, "rate": [0, INF]}]}
    },
    "ssr.D": {"ssr": {**SSR, "D": NAN}},
    "ssr.A[1][0]": {"ssr": {**SSR, "A": [[0, -5], [INF, -6]]}},
    "ssr.B[1]": {"ssr": {**SSR, "B": [1, 10**400]}},
    "input.future[0].amp[0]": {"input": {"past": "zero", "future": [{"amp": [-INF, 0], "rate": -1}]}},
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_number_rejected(case, tmp_path, capsys):
    data = base_data(**NON_FINITE[case])
    with pytest.raises(ProblemFileError, match="finite") as info:
        parse_problem(data)
    field = case.split()[0]
    assert str(info.value).startswith(f"{field}: ")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {info.value}\n"


MODE = {"amp": 1, "rate": -1}

# case -> (problem data, `ltivp simulate` flags or none for `ltivp solve`, the one-line error)
REJECTED = {
    "top level not an object": ([base_data()], [], "problem file must contain a JSON object"),
    "empty ode.a": (base_data(ode={"a": [], "b": [1]}), [], "ode.a: expected a nonempty array of numbers"),
    "ode not an object": (base_data(ode=[6, 5]), [], "ode: expected an object with fields a, b"),
    "conditions not an object": (
        base_data(conditions=[1, 0]),
        [],
        "conditions: expected an object with fields kind, y",
    ),
    "input not an object": (base_data(input=["cos 1", "ramp"]), [], "input: expected an object with fields past, future"),
    "ssr not an object": (base_data(ssr=[[0, -5], [1, -6]]), [], "ssr: expected an object with fields A, B, C, D"),
    "all-zero ode.b": (
        base_data(ode={"a": [6, 5], "b": [0, 0, 0]}),
        [],
        "ode: all input coefficients are zero; the input never acts",
    ),
    "sugar argument not a number": (
        base_data(input={"past": "cos x", "future": "ramp"}),
        [],
        "input.past: 'x' is not a number",
    ),
    "unknown mode field": (
        base_data(input={"past": "zero", "future": [{**MODE, "phase": 0}]}),
        [],
        "input.future[0]: unknown fields phase",
    ),
    "mode neither object nor array": (
        base_data(input={"past": "zero", "future": ["exp -1"]}),
        [],
        "input.future[0]: expected an object with fields amp, power, rate",
    ),
    "mode as [amp, power, re, im] array": (
        base_data(input={"past": "zero", "future": [[1, 0, -1, NAN]]}),
        [],
        "input.future[0]: expected an object with fields amp, power, rate",
    ),
    "unpaired complex mode": (
        base_data(input={"past": "zero", "future": [{"amp": 1, "rate": [-1, 2]}]}),
        [],
        "input.future: modes at rate (-1+2j) are not conjugate-closed ((1+0j) vs None)",
    ),
    "modes wrapper": (
        base_data(input={"past": "zero", "future": {"modes": [MODE]}}),
        [],
        "input.future: expected a number, a sugar string, or a mode list, got {'modes': [{'amp': 1, 'rate': -1}]}",
    ),
    "empty ssr.A": (base_data(ssr={**SSR, "A": []}), [], "ssr.A: expected a nonempty array of rows"),
    "bool in ode.b": (
        base_data(ode={"a": [6, 5], "b": [1, True, 2]}),
        [],
        "ode.b[1]: expected a number, got True",
    ),
    "string in ssr.A": (
        base_data(ssr={**SSR, "A": [[0, -5], ["1", -6]]}),
        [],
        "ssr.A[1][0]: expected a number, got '1'",
    ),
    "ragged ssr.A": (base_data(ssr={**SSR, "A": [[1, 2], [3]]}), [], "ssr.A[1]: expected 2 numbers, got 1"),
    "rectangular ssr.A": (
        base_data(ssr={**SSR, "A": [[0, -5, 1], [1, -6, 0]]}),
        [],
        "ssr.A[0]: expected 2 numbers, got 3",
    ),
    "null in a rate pair": (
        base_data(input={"past": "zero", "future": [{"amp": 1, "rate": [None, 0]}]}),
        [],
        "input.future[0].rate[0]: expected a number, got None",
    ),
    "power true": (
        base_data(input={"past": "zero", "future": [{**MODE, "power": True}]}),
        [],
        "input.future[0]: power must be a nonnegative integer",
    ),
    "power -1": (
        base_data(input={"past": "zero", "future": [{**MODE, "power": -1}]}),
        [],
        "input.future[0]: power must be a nonnegative integer",
    ),
    "power 1.5": (
        base_data(input={"past": "zero", "future": [{**MODE, "power": 1.5}]}),
        [],
        "input.future[0]: power must be a nonnegative integer",
    ),
    "3-entry amp": (
        base_data(input={"past": "zero", "future": [{"amp": [1, 0, 0], "rate": -1}]}),
        [],
        "input.future[0].amp: expected a number or [re, im] pair, got [1, 0, 0]",
    ),
    "--grid 0": (base_data(), ["--grid", "0"], "--grid must be at least 1"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejection_is_one_line(case, tmp_path, capsys, monkeypatch):
    data, args, message = REJECTED[case]
    assert "\n" not in message
    if not args:
        with pytest.raises(ProblemFileError) as info:
            parse_problem(data)
        assert str(info.value) == message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(data))
    # the flags are simulate's; a file's own faults show through solve
    command = "simulate" if args else "solve"
    assert main([command, "bad.json", *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_numpy_floats_and_ints_parse_as_floats():
    # the JSON parser makes ints and floats; a dict built in Python may hold
    # numpy scalars, which are numbers too
    as_floats = parse_problem(
        base_data(
            ode={"a": [6.0, 5.0], "b": [1.0, 3.5, 2.0]},
            input={"past": "zero", "future": [{"amp": [2.0, 0.0], "power": 1, "rate": -1.0}]},
            ssr={"A": [[0.0, -5.0], [1.0, -6.0]], "B": [1.0, 1.0], "C": [0.0, 1.0], "D": 0.5},
        )
    )
    mixed = parse_problem(
        base_data(
            ode={"a": [np.float64(6), 5], "b": [1, np.float64(3.5), np.int64(2)]},
            input={"past": "zero", "future": [{"amp": [2, np.float64(0)], "power": 1, "rate": np.float64(-1)}]},
            ssr={"A": [[0, np.float64(-5)], [1, -6]], "B": [1, 1], "C": [0, 1], "D": np.float64(0.5)},
        )
    )
    for got, want in (
        (mixed.problem.ode.a, as_floats.problem.ode.a),
        (mixed.problem.ode.b, as_floats.problem.ode.b),
        (mixed.ssr.A, as_floats.ssr.A),
    ):
        assert got.dtype == float and got.tolist() == want.tolist()
    assert type(mixed.ssr.D) is float and mixed.ssr.D == 0.5
    assert mixed.problem.input.future.modes == as_floats.problem.input.future.modes
    assert emit_problem(mixed) == emit_problem(as_floats)


class TestLoadProblem:
    def test_reads_shipped_examples(self):
        for name in ("ramp_input", "input_switch", "step_from_rest"):
            parsed = load_problem(f"problems/{name}.json")
            assert parsed.problem.horizon == 3.0

    def test_missing_file(self):
        with pytest.raises(ProblemFileError, match="no_such"):
            load_problem("problems/no_such.json")

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ode": }')
        with pytest.raises(ProblemFileError, match="line 1"):
            load_problem(str(bad))


class TestEmit:
    def test_roundtrip_equal(self):
        parsed = parse_problem(
            base_data(
                grid=150,
                ssr={"A": [[0, -5], [1, -6]], "B": [1, 1], "C": [0, 1], "D": 0},
            )
        )
        text = emit_problem(parsed)
        again = parse_problem(json.loads(text))
        assert again.problem.input.past.modes == parsed.problem.input.past.modes
        assert again.problem.input.future.modes == parsed.problem.input.future.modes
        assert_allclose(again.problem.ode.a, parsed.problem.ode.a)
        assert again.problem.conditions.kind == parsed.problem.conditions.kind
        assert again.grid_points == 150
        assert_allclose(again.ssr.A, parsed.ssr.A)

    def test_emission_is_stable(self):
        parsed = parse_problem(base_data())
        once = emit_problem(parsed)
        twice = emit_problem(parse_problem(json.loads(once)))
        assert once == twice

    def test_no_negative_zero(self):
        parsed = parse_problem(base_data(input={"past": "cos 1", "future": "sin 2"}))
        assert "-0.0" not in emit_problem(parsed)

    def test_ends_with_newline(self):
        assert emit_problem(parse_problem(base_data())).endswith("}\n")
