"""Reading and writing problem files.

A problem file is a single JSON object in UTF-8:

    {
      "ode": {"a": [6, 5], "b": [0, 1, 1]},
      "input": {"past": "zero", "future": "ramp"},
      "conditions": {"kind": "previous", "y": [1, 0]},
      "horizon": 3.0,
      "grid": 200,
      "ssr": {"A": [[0, -5], [1, -6]], "B": [1, 1], "C": [0, 1], "D": 0}
    }

Condition stacks are listed highest derivative first.  A signal spec is a
number (constant), one of the sugar strings "zero" / "step" / "ramp" /
"cos W" / "sin W" / "exp A", or an explicit mode list whose every entry is
an object {"amp": ..., "power": k, "rate": ...}, where amp and rate are
numbers or [re, im] pairs and power defaults to 0.  "input" may also be the
single string "step" for the Heaviside input (zero past, unit future).
horizon, grid, and ssr are optional; input.past may be omitted only for
first-form conditions.  Every number must be finite; a bad one gets a
one-line error naming its field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

from .errors import ProblemFileError
from .ic import ConditionPair
from .laplace import IVProblem
from .ode import LinearODE
from .realization import StateSpace
from .signal import PiecewiseInput, Signal


@dataclass(frozen=True, eq=False)
class ParsedProblem:
    problem: IVProblem
    grid_points: int | None
    ssr: StateSpace | None


def load_problem(path: str) -> ParsedProblem:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"cannot read {path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_problem(data)


def parse_problem(data) -> ParsedProblem:
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must contain a JSON object")
    unknown = set(data) - {"ode", "input", "conditions", "horizon", "grid", "ssr"}
    if unknown:
        raise ProblemFileError(f"unknown top-level fields: {', '.join(sorted(unknown))}")

    ode = _parse_ode(_require(data, "ode"))
    conditions = _parse_conditions(_require(data, "conditions"))
    input_ = _parse_input(_require(data, "input"), conditions.kind)

    horizon = data.get("horizon")
    if horizon is not None:
        horizon = _number(horizon, "horizon")
    grid_points = data.get("grid")
    if grid_points is not None:
        if not isinstance(grid_points, int) or isinstance(grid_points, bool) or grid_points < 1:
            raise ProblemFileError("grid: must be a positive integer")
    ssr = _parse_ssr(data["ssr"]) if "ssr" in data else None

    try:
        problem = IVProblem(ode=ode, input=input_, conditions=conditions, horizon=horizon)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return ParsedProblem(problem=problem, grid_points=grid_points, ssr=ssr)


def _require(data: dict, field: str):
    """data[key] for the last component key of the dotted field name."""
    key = field.rsplit(".", 1)[-1]
    if key not in data:
        raise ProblemFileError(f"{field}: missing required field")
    return data[key]


def _number(value, field: str, expected: str = "a number") -> float:
    """A finite JSON number (not a bool) as a float, else an error naming the field."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ProblemFileError(f"{field}: expected {expected}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFileError(f"{field}: expected a finite number, got {x}")
    return x


def _number_list(value, field: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ProblemFileError(f"{field}: expected a nonempty array of numbers")
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _parse_ode(data) -> LinearODE:
    if not isinstance(data, dict):
        raise ProblemFileError("ode: expected an object with fields a, b")
    a = _number_list(_require(data, "ode.a"), "ode.a")
    b = _number_list(_require(data, "ode.b"), "ode.b")
    if len(b) != len(a) + 1:
        raise ProblemFileError(
            f"ode.b: expected length {len(a) + 1} (= n+1 for n = {len(a)}), got {len(b)}"
        )
    try:
        return LinearODE(a, b)
    except ValueError as exc:
        raise ProblemFileError(f"ode: {exc}") from exc


def _parse_conditions(data) -> ConditionPair:
    if not isinstance(data, dict):
        raise ProblemFileError("conditions: expected an object with fields kind, y")
    kind = _require(data, "conditions.kind")
    if kind not in ("previous", "first"):
        raise ProblemFileError(
            f"conditions.kind: expected 'previous' or 'first', got {kind!r}"
        )
    y = _number_list(_require(data, "conditions.y"), "conditions.y")
    return ConditionPair.previous(y) if kind == "previous" else ConditionPair.first(y)


def _parse_input(data, kind: str) -> PiecewiseInput:
    if data == "step":
        return PiecewiseInput.step()
    if not isinstance(data, dict):
        raise ProblemFileError("input: expected an object with fields past, future")
    future = parse_signal_spec(_require(data, "input.future"), "input.future")
    if "past" in data:
        past = parse_signal_spec(data["past"], "input.past")
    elif kind == "first":
        past = Signal.zero()
    else:
        raise ProblemFileError(
            "input.past: required when conditions.kind is 'previous'"
        )
    return PiecewiseInput(past=past, future=future)


_SUGAR_ARITY = {"zero": 0, "step": 0, "ramp": 0, "cos": 1, "sin": 1, "exp": 1}


def parse_signal_spec(spec, field: str) -> Signal:
    """One signal segment: number, sugar string, or explicit mode list."""
    if isinstance(spec, str):
        return _parse_sugar(spec, field)
    if isinstance(spec, list):
        return _parse_modes(spec, field)
    return Signal.constant(_number(spec, field, "a number, a sugar string, or a mode list"))


def _parse_sugar(spec: str, field: str) -> Signal:
    tokens = spec.split()
    if not tokens or tokens[0] not in _SUGAR_ARITY:
        raise ProblemFileError(
            f"{field}: unknown signal {spec!r}; expected one of "
            "zero, step, ramp, 'cos W', 'sin W', 'exp A', or a mode list"
        )
    name = tokens[0]
    arity = _SUGAR_ARITY[name]
    if len(tokens) != 1 + arity:
        want = f"'{name} <number>'" if arity else f"'{name}'"
        raise ProblemFileError(f"{field}: {spec!r} should be {want}")
    if arity:
        try:
            arg = float(tokens[1])
        except ValueError:
            raise ProblemFileError(f"{field}: {tokens[1]!r} is not a number") from None
        arg = _number(arg, field)
    if name == "zero":
        return Signal.zero()
    if name == "step":
        return Signal.constant(1.0)
    if name == "ramp":
        return Signal.ramp()
    if name == "cos":
        return Signal.cosine(arg)
    if name == "sin":
        return Signal.sine(arg)
    return Signal.exponential(arg)


def _parse_modes(entries: list, field: str) -> Signal:
    modes = []
    for i, entry in enumerate(entries):
        label = f"{field}[{i}]"
        if not isinstance(entry, dict):
            raise ProblemFileError(f"{label}: expected an object with fields amp, power, rate")
        extra = set(entry) - {"amp", "power", "rate"}
        if extra:
            raise ProblemFileError(f"{label}: unknown fields {', '.join(sorted(extra))}")
        amp = _complex_entry(_require(entry, f"{label}.amp"), f"{label}.amp")
        rate = _complex_entry(_require(entry, f"{label}.rate"), f"{label}.rate")
        power = entry.get("power", 0)
        if not isinstance(power, int) or isinstance(power, bool) or power < 0:
            raise ProblemFileError(f"{label}: power must be a nonnegative integer")
        modes.append((amp, power, rate))
    try:
        return Signal(modes)
    except ValueError as exc:
        raise ProblemFileError(f"{field}: {exc}") from exc


def _complex_entry(value, field: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], f"{field}[0]"), _number(value[1], f"{field}[1]"))
    return complex(_number(value, field, "a number or [re, im] pair"), 0.0)


def _parse_ssr(data) -> StateSpace:
    if not isinstance(data, dict):
        raise ProblemFileError("ssr: expected an object with fields A, B, C, D")
    A_rows = _require(data, "ssr.A")
    if not isinstance(A_rows, list) or not A_rows:
        raise ProblemFileError("ssr.A: expected a nonempty array of rows")
    A = [_number_list(row, f"ssr.A[{i}]") for i, row in enumerate(A_rows)]
    B = _number_list(_require(data, "ssr.B"), "ssr.B")
    C = _number_list(_require(data, "ssr.C"), "ssr.C")
    D = _number(_require(data, "ssr.D"), "ssr.D")
    try:
        return StateSpace(A, B, C, D)
    except ValueError as exc:
        raise ProblemFileError(f"ssr: {exc}") from exc


def emit_problem(parsed: ParsedProblem) -> str:
    """Canonical JSON for a parsed problem; re-parsing gives the same modes and arrays."""
    problem = parsed.problem
    data: dict = {
        "ode": {"a": problem.ode.a.tolist(), "b": problem.ode.b.tolist()},
        "input": {
            "past": _emit_signal(problem.input.past),
            "future": _emit_signal(problem.input.future),
        },
        "conditions": {"kind": problem.conditions.kind, "y": problem.conditions.y.tolist()},
    }
    if problem.horizon is not None:
        data["horizon"] = problem.horizon
    if parsed.grid_points is not None:
        data["grid"] = parsed.grid_points
    if parsed.ssr is not None:
        data["ssr"] = {
            "A": parsed.ssr.A.tolist(),
            "B": parsed.ssr.B.tolist(),
            "C": parsed.ssr.C.tolist(),
            "D": parsed.ssr.D,
        }
    return json.dumps(data, indent=2) + "\n"


def _emit_signal(signal: Signal) -> list:
    # adding 0.0 turns any -0.0 components into plain zeros
    return [
        {
            "amp": [m.amp.real + 0.0, m.amp.imag + 0.0],
            "power": m.power,
            "rate": [m.rate.real + 0.0, m.rate.imag + 0.0],
        }
        for m in signal.modes
    ]
