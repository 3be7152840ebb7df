"""Command-line frontend.

Subcommands: solve, map-ic, realize, check, simulate.  All take a problem
file (JSON, see problemfile) and --echo.  `solve` prints the closed form
only; `simulate` is the one subcommand that runs the state-space route, and
the only one with --csv, --grid and --horizon.
Output is deterministic: the same file always prints the same bytes.
"""

from __future__ import annotations

import argparse
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
from .signal import condition_stack, format_signal
from .simulate import default_grid, simulate_ivp

#: `check` prints sampled gaps below this as 0: they are rounding noise, and
#: their digits depend on the linear-algebra library rather than the problem.
GAP_PRINT_FLOOR = 1e-14


def _vec(v) -> str:
    return "[" + ", ".join(fmt_number(float(x)) for x in v) + "]"


def _mat(M) -> str:
    return "[" + ", ".join(_vec(row) for row in M) + "]"


def cmd_solve(parsed: ParsedProblem, args) -> int:
    problem = parsed.problem
    print(f"ode: {problem.ode}")
    print(f"input (t > 0): {problem.input.future}")
    if problem.conditions.kind == "previous":
        y_first, u_first = laplace.first_conditions(problem)
        print(f"Y(0+) = {_vec(y_first)}   (mapped from previous conditions)")
        print(f"U(0+) = {_vec(u_first)}")
    Ys = laplace.solution_transform(problem)
    print(f"Y(s) = {Ys}")
    print(f"y(t) = {format_signal(laplace.invert(problem, Ys))}")
    return 0


def cmd_map_ic(parsed: ParsedProblem, args) -> int:
    problem = parsed.problem
    if problem.conditions.kind != "previous":
        raise ProblemFileError(
            "map-ic requires previous-form conditions (conditions.kind = 'previous')"
        )
    y_prev, u_prev = laplace.stated_conditions(problem)
    y_first, u_first = laplace.first_conditions(problem)
    M = markov_matrix(problem.ode)
    print(f"Y(0-) = {_vec(y_prev)}")
    print(f"U(0-) = {_vec(u_prev)}")
    print(f"U(0+) = {_vec(u_first)}")
    print(f"delta U = {_vec(u_first - u_prev)}")
    print(f"M = {_mat(M)}")
    print(f"Y(0+) = {_vec(y_first)}")
    return 0


def cmd_realize(parsed: ParsedProblem, args) -> int:
    ode = parsed.problem.ode
    ss = observable_canonical(ode)
    print(f"ode: {ode}")
    print(f"A = {_mat(ss.A)}")
    print(f"B = {_vec(ss.B)}")
    print(f"C = {_vec(ss.C)}")
    print(f"D = {fmt_number(ss.D)}")
    print(f"markov parameters h_0..h_{ode.n} = {_vec(markov_parameters(ode, ode.n + 1))}")
    print(f"observability O = {_mat(observability_matrix(ss))}")
    return 0


def cmd_check(parsed: ParsedProblem, args) -> int:
    problem = parsed.problem
    ode = problem.ode
    ss = parsed.ssr if parsed.ssr is not None else observable_canonical(ode)
    source = "from file" if parsed.ssr is not None else "observable canonical"
    report = check_equivalence(ode, ss)
    gap = report.transfer_error if report.transfer_error >= GAP_PRINT_FLOOR else 0.0
    print(f"ode: {ode}")
    print(f"ssr: {source}, n = {ss.n}")
    print(f"condition 1, same order: {'yes' if report.same_order else 'no'}")
    print(
        f"condition 2, same transfer function: "
        f"{'yes' if report.transfer_match else 'no'} "
        f"(sampled gap {gap:.3e})"
    )
    print(
        f"condition 3, observable: {'yes' if report.observable else 'no'} "
        f"(sigma ratio {report.sigma_ratio:.3e})"
    )
    if report.equivalent:
        print("equivalent: yes (3/3)")
    else:
        failed = [
            str(i)
            for i, ok in enumerate(
                (report.same_order, report.transfer_match, report.observable), start=1
            )
            if not ok
        ]
        noun = "condition" if len(failed) == 1 else "conditions"
        print(f"equivalent: no ({noun} {', '.join(failed)})")

    n = ode.n
    u_jump = condition_stack(problem.input.future, n) - condition_stack(problem.input.past, n)
    creport = classify_continuity(ode, u_jump)
    print(f"continuity at t = 0 (r = {creport.r}, m = {creport.m}):")
    for entry in creport.entries:
        verdict = "continuous" if entry.continuous else "discontinuous"
        print(f"  y^({entry.order}): jump {fmt_number(entry.jump)} -> {verdict}")
    predicted = "continuous" if creport.predicted_continuous else "discontinuous"
    print(f"predicted from the input jump alone: output stack {predicted}")
    return 0


def cmd_simulate(parsed: ParsedProblem, args) -> int:
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
    traj = simulate_ivp(parsed.problem, default_grid(horizon, points))
    text = traj.csv_text()
    if args.csv is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.csv, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.csv}: {exc.strerror or exc}") from exc
    print(f"wrote {len(traj.times)} rows to {args.csv}")
    return 0


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
        p.add_argument(
            "--echo",
            action="store_true",
            help="re-emit the parsed problem as canonical JSON and exit",
        )
        p.set_defaults(func=func)
        return p

    add("solve", cmd_solve, "closed-form solution via the Laplace transform")
    add("map-ic", cmd_map_ic, "map previous conditions at 0- to first conditions at 0+")
    add("realize", cmd_realize, "observable-canonical state-space realization")
    add("check", cmd_check, "ODE/state-space equivalence and continuity report")
    simulate = add("simulate", cmd_simulate, "state-space trajectory as CSV")
    simulate.add_argument("--csv", metavar="PATH", help="write trajectory CSV here")
    simulate.add_argument("--grid", type=int, metavar="N", help="number of grid points")
    simulate.add_argument("--horizon", type=float, metavar="T", help="simulation end time")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parsed = load_problem(args.file)
        if args.echo:
            sys.stdout.write(emit_problem(parsed))
            return 0
        return args.func(parsed, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
