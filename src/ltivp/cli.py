"""Command-line frontend.

Subcommands: solve, map-ic, realize, check, simulate, echo.  Each takes a
problem file (JSON, see problemfile) and returns its whole report, which
`main` writes to stdout.  `solve` prints the closed form only; `simulate`
is the one subcommand that runs the state-space route, and the only one
with --grid and --horizon; `echo` re-emits the parsed file as canonical
JSON.  Output is deterministic: the same file always prints the same bytes.

`ltivp` and `python -m ltivp.cli` go through `run`, which freezes the
garbage collector after the subcommand.  From Python, call `main(argv)`: it
only returns the exit status and freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import laplace
from .errors import ProblemFileError
from .ic import classify_continuity
from .poly import fmt_number
from .problemfile import ParsedProblem, emit_problem, load_problem
from .realization import (
    check_equivalence,
    markov_matrix,
    markov_parameters,
    observability_matrix,
    observable_canonical,
)
from .signal import format_signal
from .simulate import default_grid, simulate_ivp

#: `check` prints sampled gaps below this as 0: they are rounding noise, and
#: their digits depend on the linear-algebra library rather than the problem.
#: A gap that is not finite is an error (`check_equivalence`), never printed.
GAP_PRINT_FLOOR = 1e-14


def _vec(v) -> str:
    return "[" + ", ".join(fmt_number(float(x)) for x in v) + "]"


def _mat(M) -> str:
    return "[" + ", ".join(_vec(row) for row in M) + "]"


def cmd_solve(parsed: ParsedProblem, args) -> str:
    problem = parsed.problem
    # the mapping runs first, so its overflow is named as map-ic names it
    lines = [f"ode: {problem.ode}", f"input (t > 0): {problem.input.future}"]
    if problem.conditions.kind == "previous":
        y_first, u_first = laplace.first_conditions(problem)
        lines.append(f"Y(0+) = {_vec(y_first)}   (mapped from previous conditions)")
        lines.append(f"U(0+) = {_vec(u_first)}")
    Ys, y = laplace.closed_form(problem)
    if not np.isfinite(Ys.num.coeffs + Ys.den.coeffs).all():
        raise ValueError("Y(s) overflows: a coefficient of its numerator or denominator is not finite")
    lines += [f"Y(s) = {Ys}", f"y(t) = {format_signal(y)}"]
    return "\n".join(lines) + "\n"


def cmd_map_ic(parsed: ParsedProblem, args) -> str:
    problem = parsed.problem
    if problem.conditions.kind != "previous":
        raise ProblemFileError(
            "map-ic requires previous-form conditions (conditions.kind = 'previous')"
        )
    y_prev, u_prev = laplace.stated_conditions(problem)
    y_first, u_first = laplace.first_conditions(problem)
    lines = [
        f"Y(0-) = {_vec(y_prev)}",
        f"U(0-) = {_vec(u_prev)}",
        f"U(0+) = {_vec(u_first)}",
        f"delta U = {_vec(u_first - u_prev)}",
        f"M = {_mat(markov_matrix(problem.ode))}",
        f"Y(0+) = {_vec(y_first)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_realize(parsed: ParsedProblem, args) -> str:
    ode = parsed.problem.ode
    ss = observable_canonical(ode)
    h = markov_parameters(ode, ode.n + 1)
    if not np.isfinite(h).all():
        k = int(np.argmin(np.isfinite(h)))
        raise ValueError(f"ode: Markov parameter h_{k} overflows: it is not finite")
    O = observability_matrix(ss, "ode")
    lines = [
        f"ode: {ode}",
        f"A = {_mat(ss.A)}",
        f"B = {_vec(ss.B)}",
        f"C = {_vec(ss.C)}",
        f"D = {fmt_number(ss.D)}",
        f"markov parameters h_0..h_{ode.n} = {_vec(h)}",
        f"observability O = {_mat(O)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_check(parsed: ParsedProblem, args) -> str:
    problem = parsed.problem
    ode = problem.ode
    if parsed.ssr is not None:
        ss, source, ss_field = parsed.ssr, "from file", "ssr"
    else:
        # the canonical realization is the ODE's own: its overflow is the ODE's
        ss, source, ss_field = observable_canonical(ode), "observable canonical", "ode"
    report = check_equivalence(ode, ss, ss_field)
    # each stack is named by its segment when it overflows, as in map-ic
    u_past = laplace._input_stack(problem, "previous")
    u_future = laplace._input_stack(problem, "first")
    with np.errstate(over="ignore"):
        u_jump = u_future - u_past
    if not np.isfinite(u_jump).all():
        raise ValueError("input: the jump U(0+) - U(0-) overflows: it is not finite")
    creport = classify_continuity(ode, u_jump)

    gap = 0.0 if report.transfer_error < GAP_PRINT_FLOOR else report.transfer_error
    lines = [
        f"ode: {ode}",
        f"ssr: {source}, n = {ss.n}",
        f"condition 1, same order: {'yes' if report.same_order else 'no'}",
        f"condition 2, same transfer function: "
        f"{'yes' if report.transfer_match else 'no'} (sampled gap {gap:.3e})",
        f"condition 3, observable: {'yes' if report.observable else 'no'} "
        f"(exact rank {report.rank}; sigma ratio {report.sigma_ratio:.3e})",
    ]
    if report.equivalent:
        lines.append("equivalent: yes (3/3)")
    else:
        failed = [
            str(i)
            for i, ok in enumerate(
                (report.same_order, report.transfer_match, report.observable), start=1
            )
            if not ok
        ]
        noun = "condition" if len(failed) == 1 else "conditions"
        lines.append(f"equivalent: no ({noun} {', '.join(failed)})")
    lines.append(f"continuity at t = 0 (r = {creport.r}, m = {creport.m}):")
    for entry in creport.entries:
        verdict = "continuous" if entry.continuous else "discontinuous"
        lines.append(f"  y^({entry.order}): jump {fmt_number(entry.jump)} -> {verdict}")
    predicted = "continuous" if creport.predicted_continuous else "discontinuous"
    lines.append(f"predicted from the input jump alone: output stack {predicted}")
    return "\n".join(lines) + "\n"


def cmd_simulate(parsed: ParsedProblem, args) -> str:
    horizon = args.horizon if args.horizon is not None else parsed.problem.horizon
    if horizon is None:
        raise ProblemFileError(
            "no horizon: set \"horizon\" in the file or pass --horizon"
        )
    if not 0.0 < horizon < np.inf:
        raise ProblemFileError("--horizon must be a finite positive number")
    points = args.grid if args.grid is not None else (parsed.grid_points or 200)
    if points < 1:
        raise ProblemFileError("--grid must be at least 1")
    # numpy refuses a count past intp with a ValueError, which default_grid
    # raises for nothing else here, and one past memory with a MemoryError
    too_many = ProblemFileError(
        f"{'--grid' if args.grid is not None else 'grid'}: {points} points do not fit in memory"
    )
    try:
        grid = default_grid(horizon, points)
    except (MemoryError, ValueError):
        raise too_many from None
    try:
        return simulate_ivp(parsed.problem, grid).csv_text()
    except MemoryError:
        raise too_many from None


def cmd_echo(parsed: ParsedProblem, args) -> str:
    return emit_problem(parsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltivp",
        description="Closed-form and state-space solvers for linear constant-"
        "coefficient ODE initial value problems with an input switch at t = 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="problem file (JSON)")
        p.set_defaults(func=func)
        return p

    add("solve", cmd_solve, "closed-form solution via the Laplace transform")
    add("map-ic", cmd_map_ic, "map previous conditions at 0- to first conditions at 0+")
    add("realize", cmd_realize, "observable-canonical state-space realization")
    add("check", cmd_check, "ODE/state-space equivalence and continuity report")
    simulate = add("simulate", cmd_simulate, "state-space trajectory as CSV")
    simulate.add_argument("--grid", type=int, metavar="N", help="number of grid points")
    simulate.add_argument("--horizon", type=float, metavar="T", help="simulation end time")
    add("echo", cmd_echo, "the parsed problem as canonical JSON")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a ValueError is one `error:` line on stderr and
    exit status 1.  Each subcommand returns its whole report and only this
    writes it, so a failure leaves stdout empty."""
    args = build_parser().parse_args(argv)
    try:
        parsed = load_problem(args.file)
        sys.stdout.write(args.func(parsed, args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> int:
    """`main` on sys.argv, then `gc.freeze()`: the `ltivp` command.

    The collection at interpreter exit skips frozen objects, so it no longer
    walks every numpy and scipy object; the rest of the shutdown (atexit
    handlers, the flush of stdout, the exit status) is the normal one.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
