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
from numbers import Real

from .errors import ProblemFileError
from .ic import ConditionPair
from .laplace import IVProblem
from .ode import LinearODE
from .realization import StateSpace
from .signal import PiecewiseInput, Signal


class ParsedProblem:
    """A parsed problem file: the IVP, the optional grid size and ssr block."""

    __slots__ = ("problem", "grid_points", "ssr")

    def __init__(self, problem: IVProblem, grid_points: int | None, ssr: StateSpace | None):
        self.problem = problem
        self.grid_points = grid_points
        self.ssr = ssr


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


_TOP_FIELDS = frozenset(("ode", "input", "conditions", "horizon", "grid", "ssr"))
_MODE_FIELDS = frozenset(("amp", "power", "rate"))


def parse_problem(data) -> ParsedProblem:
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must contain a JSON object")
    if not data.keys() <= _TOP_FIELDS:
        unknown = sorted(set(data) - _TOP_FIELDS)
        raise ProblemFileError(f"unknown top-level fields: {', '.join(unknown)}")

    ode = _parse_ode(_require(data, "ode", "ode"))
    conditions = _parse_conditions(_require(data, "conditions", "conditions"))
    input_ = _parse_input(_require(data, "input", "input"), conditions.kind)

    horizon = data.get("horizon")
    if horizon is not None:
        horizon = _number(horizon, "horizon")
    grid_points = data.get("grid")
    if grid_points is not None:
        if type(grid_points) is not int or grid_points < 1:
            raise ProblemFileError("grid: must be a positive integer")
    ssr = _parse_ssr(data["ssr"]) if "ssr" in data else None

    try:
        problem = IVProblem(ode, input_, conditions, horizon)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return ParsedProblem(problem, grid_points, ssr)


# A field is named by a path: a dotted name such as "ode.a", or a tuple of a
# path and the indices and keys below it, such as (("input.future", 0), "rate")
# for input.future[0].rate.  Paths are cheap to build, and `_name` spells one
# out only for an error message.


def _name(path) -> str:
    if isinstance(path, str):
        return path
    name = _name(path[0])
    for part in path[1:]:
        name += f"[{part}]" if isinstance(part, int) else f".{part}"
    return name


def _require(data: dict, key: str, path):
    """data[key], else an error naming the field at `path`."""
    try:
        return data[key]
    except KeyError:
        raise ProblemFileError(f"{_name(path)}: missing required field") from None


def _number(value, path, expected: str = "a number") -> float:
    """A finite JSON number (not a bool) as a float, else an error naming the field.

    A float, what the JSON parser makes of most numbers, is taken as it is;
    an int or any other `numbers.Real` but a bool is converted, an integer
    beyond the float range to inf.
    """
    if type(value) is float:
        x = value
    elif type(value) is int or (isinstance(value, Real) and not isinstance(value, bool)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        raise ProblemFileError(f"{_name(path)}: expected {expected}, got {value!r}")
    if math.isfinite(x):
        return x
    raise ProblemFileError(f"{_name(path)}: expected a finite number, got {x}")


def _number_list(values, path) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ProblemFileError(f"{_name(path)}: expected a nonempty array of numbers")
    return [_number(v, (path, i)) for i, v in enumerate(values)]


def _parse_ode(data) -> LinearODE:
    if not isinstance(data, dict):
        raise ProblemFileError("ode: expected an object with fields a, b")
    a = _number_list(_require(data, "a", "ode.a"), "ode.a")
    b = _number_list(_require(data, "b", "ode.b"), "ode.b")
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
    kind = _require(data, "kind", "conditions.kind")
    if kind not in ("previous", "first"):
        raise ProblemFileError(
            f"conditions.kind: expected 'previous' or 'first', got {kind!r}"
        )
    return ConditionPair(kind, _number_list(_require(data, "y", "conditions.y"), "conditions.y"))


def _parse_input(data, kind: str) -> PiecewiseInput:
    if data == "step":
        return PiecewiseInput.step()
    if not isinstance(data, dict):
        raise ProblemFileError("input: expected an object with fields past, future")
    future = parse_signal_spec(_require(data, "future", "input.future"), "input.future")
    if "past" in data:
        past = parse_signal_spec(data["past"], "input.past")
    elif kind == "first":
        past = Signal.zero()
    else:
        raise ProblemFileError(
            "input.past: required when conditions.kind is 'previous'"
        )
    return PiecewiseInput(past, future)


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
        if not isinstance(entry, dict):
            raise ProblemFileError(f"{field}[{i}]: expected an object with fields amp, power, rate")
        if not entry.keys() <= _MODE_FIELDS:
            extra = sorted(set(entry) - _MODE_FIELDS)
            raise ProblemFileError(f"{field}[{i}]: unknown fields {', '.join(extra)}")
        amp = _complex_entry(entry, "amp", field, i)
        rate = _complex_entry(entry, "rate", field, i)
        power = entry.get("power", 0)
        if type(power) is not int or power < 0:
            raise ProblemFileError(f"{field}[{i}]: power must be a nonnegative integer")
        modes.append((amp, power, rate))
    try:
        return Signal(modes)
    except ValueError as exc:
        raise ProblemFileError(f"{field}: {exc}") from exc


def _complex_entry(entry: dict, key: str, field: str, i: int) -> complex:
    """entry[key], a number or an [re, im] pair, as a complex number."""
    path = ((field, i), key)
    value = _require(entry, key, path)
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], (path, 0)), _number(value[1], (path, 1)))
    return complex(_number(value, path, "a number or [re, im] pair"), 0.0)


def _parse_ssr(data) -> StateSpace:
    if not isinstance(data, dict):
        raise ProblemFileError("ssr: expected an object with fields A, B, C, D")
    A_rows = _require(data, "A", "ssr.A")
    if not isinstance(A_rows, list) or not A_rows:
        raise ProblemFileError("ssr.A: expected a nonempty array of rows")
    A = [_number_list(row, ("ssr.A", i)) for i, row in enumerate(A_rows)]
    for i, row in enumerate(A):
        if len(row) != len(A):
            raise ProblemFileError(f"ssr.A[{i}]: expected {len(A)} numbers, got {len(row)}")
    B = _number_list(_require(data, "B", "ssr.B"), "ssr.B")
    C = _number_list(_require(data, "C", "ssr.C"), "ssr.C")
    D = _number(_require(data, "D", "ssr.D"), "ssr.D")
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
