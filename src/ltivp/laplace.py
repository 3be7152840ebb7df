"""Closed-form solution of the switched-input IVP in the Laplace domain.

The transform of the full response is assembled in one shot,

    Y(s) = [ B(s) U(s) + v_y . Y_stack - v_u . U_stack ] / A(s),

where the stacks hold one-sided derivative values at t = 0.  Either side of
the switch works: previous-condition stacks (0-) and first-condition stacks
(0+) produce the same Y(s), so no conversion step is needed as long as the
two stacks come from the same side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ic import ConditionPair, map_previous_to_first
from .ode import LinearODE, ic_vectors, transfer_function
from .poly import Polynomial, RationalFunction, partial_fractions
from .signal import PiecewiseInput, Signal, condition_stack, from_partial_fractions, laplace_transform


@dataclass(frozen=True, eq=False)
class IVProblem:
    """An ODE, a piecewise input switching at t = 0, and condition data."""

    ode: LinearODE
    input: PiecewiseInput
    conditions: ConditionPair
    horizon: float | None = None

    def __post_init__(self):
        n = self.ode.n
        for name in ("y_prev", "u_prev", "u_first", "y_first"):
            stack = getattr(self.conditions, name)
            if stack is not None and len(stack) != n:
                raise ValueError(f"{name} must have length {n}, got {len(stack)}")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True, eq=False)
class LaplaceSolution:
    """Y(s) with its pieces kept apart for reporting.

    ic_numerator is the polynomial v_y . Y_stack - v_u . U_stack; the
    zero-state and zero-input parts add up to Ys.
    """

    Ys: RationalFunction
    ic_numerator: Polynomial
    zero_state_part: RationalFunction
    zero_input_part: RationalFunction


def assemble(ode: LinearODE, Us: RationalFunction, y_stack, u_stack) -> LaplaceSolution:
    """Build Y(s) from the input transform and one coherent stack pair."""
    n = ode.n
    y_stack = np.asarray(y_stack, dtype=float).reshape(-1)
    u_stack = np.asarray(u_stack, dtype=float).reshape(-1)
    if len(y_stack) != n or len(u_stack) != n:
        raise ValueError(f"condition stacks must have length {n}")
    v_y, v_u = ic_vectors(ode)
    ic_num = Polynomial.zero()
    for vy, vu, y, u in zip(v_y, v_u, y_stack, u_stack):
        ic_num = ic_num + vy * y - vu * u
    G = transfer_function(ode)
    # single common denominator A(s)·den(U) keeps the degree minimal
    Ys = RationalFunction(
        G.num * Us.num + ic_num * Us.den,
        G.den * Us.den,
    )
    return LaplaceSolution(
        Ys=Ys,
        ic_numerator=ic_num,
        zero_state_part=RationalFunction(G.num * Us.num, G.den * Us.den),
        zero_input_part=RationalFunction(ic_num, G.den),
    )


def invert(Ys: RationalFunction) -> Signal:
    """Inverse transform via partial fractions; strictly proper input only."""
    return from_partial_fractions(partial_fractions(Ys))


def previous_conditions(problem: IVProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Y(0-), U(0-)) for a previous-form problem; U comes from input.past."""
    cond = problem.conditions
    u_prev = cond.u_prev
    if u_prev is None:
        u_prev = condition_stack(problem.input.past, problem.ode.n)
    return cond.y_prev, u_prev


def first_conditions(problem: IVProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Y(0+), U(0+)) for the problem, mapping previous conditions if needed."""
    cond = problem.conditions
    u_first = cond.u_first
    if u_first is None:
        u_first = condition_stack(problem.input.future, problem.ode.n)
    if cond.kind == "first":
        return cond.y_first, u_first
    y_prev, u_prev = previous_conditions(problem)
    return map_previous_to_first(problem.ode, y_prev, u_prev, u_first), u_first


def solve_ivp(problem: IVProblem) -> Signal:
    """Closed-form y(t) for t > 0 as an exponential-polynomial signal."""
    return invert(solution_transform(problem).Ys).trimmed()


def solution_transform(problem: IVProblem) -> LaplaceSolution:
    """The assembled Laplace-domain solution without inverting it.

    Previous-form stacks are fed to assemble as-is; converting them to
    first conditions beforehand would give the same transform, and mixing
    sides is the one thing that does not.
    """
    Us = laplace_transform(problem.input.future)
    if problem.conditions.kind == "first":
        y_stack, u_stack = first_conditions(problem)
    else:
        y_stack, u_stack = previous_conditions(problem)
    return assemble(problem.ode, Us, y_stack, u_stack)
