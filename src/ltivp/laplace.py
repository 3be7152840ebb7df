"""Closed-form solution of the switched-input IVP in the Laplace domain.

The transform of the full response is assembled in one shot,

    Y(s) = [ B(s) U(s) + c(s) ] / A(s),

where c(s) is the polynomial with coefficient vector V_y Y - V_u U (lowest
degree first): Y and U are the output and input derivative stacks at t = 0
and V_y, V_u the stack-weight matrices defined in the ode module docstring.
Either side of the switch works: V_y M = V_u with M the Markov matrix, so
previous-condition stacks (0-) and first-condition stacks (0+) produce the
same Y(s), and no conversion step is needed as long as the two stacks come
from the same side.

Y(s) is inverted by partial fractions over its poles.  Only A(s) is
root-found: the input's poles are known exactly from its signal (a rate
whose highest power is t^k is a pole of multiplicity k + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .ic import ConditionPair, map_previous_to_first
from .ode import LinearODE, require_finite, transfer_function
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
        if len(self.conditions.y) != n:
            raise ValueError(f"conditions.y must have length {n}, got {len(self.conditions.y)}")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be a finite positive number")
        for side, segment in (("past", self.input.past), ("future", self.input.future)):
            require_finite(f"input.{side}", [z for m in segment.modes for z in (m.amp, m.rate)])


def assemble(ode: LinearODE, G: RationalFunction, Us: RationalFunction, y_stack, u_stack) -> RationalFunction:
    """Y(s) from the transfer function G = transfer_function(ode), the input
    transform and one coherent stack pair.

    Strictly proper by construction: deg B <= n and U(s) is strictly
    proper, so deg(B U_num) < n + deg U_den, and deg c <= n - 1.
    """
    n = ode.n
    y = np.asarray(y_stack, dtype=float).reshape(-1).tolist()
    u = np.asarray(u_stack, dtype=float).reshape(-1).tolist()
    if len(y) != n or len(u) != n:
        raise ValueError(f"condition stacks must have length {n}")
    # V_y Y - V_u U over the upper triangle of V_y = T(1, a_1..a_{n-1}) and
    # V_u = T(b_0..b_{n-1}) (see the ode module docstring), one stack entry
    # at a time in column order: not a matrix product, which rounds
    # differently.  Below the diagonal every term is a zero that leaves the
    # +0.0 start unchanged.
    a = [1.0] + ode.a.tolist()
    b = ode.b.tolist()
    ic_num = []
    for i in range(n):
        acc = 0.0
        for j in range(i, n):
            acc += a[j - i] * y[j]
            acc -= b[j - i] * u[j]
        ic_num.append(acc)
    # single common denominator A(s)·den(U) keeps the degree minimal
    return RationalFunction(
        G.num * Us.num + Polynomial(ic_num) * Us.den,
        G.den * Us.den,
    )


def stated_conditions(problem: IVProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Y, U) on the side the conditions are stated: U from that input segment."""
    cond = problem.conditions
    segment = problem.input.past if cond.kind == "previous" else problem.input.future
    return cond.y, condition_stack(segment, problem.ode.n)


def first_conditions(problem: IVProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Y(0+), U(0+)) for the problem, mapping previous conditions if needed."""
    y, u = stated_conditions(problem)
    if problem.conditions.kind == "first":
        return y, u
    u_first = condition_stack(problem.input.future, problem.ode.n)
    return map_previous_to_first(problem.ode, y, u, u_first), u_first


def solution_transform(problem: IVProblem) -> RationalFunction:
    """The assembled transform Y(s) without inverting it.

    Previous-form stacks are fed to assemble as-is; converting them to
    first conditions beforehand would give the same transform, and mixing
    sides is the one thing that does not.
    """
    Us = laplace_transform(problem.input.future)
    return assemble(problem.ode, transfer_function(problem.ode), Us, *stated_conditions(problem))


def invert(problem: IVProblem, Ys: RationalFunction) -> Signal:
    """y(t) for t > 0 from Ys = solution_transform(problem).

    Every term of the expansion is kept as computed, with no threshold, so
    the result is exactly linear in the conditions and the input.
    """
    known = [(rate, max(powers) + 1) for rate, powers in problem.input.future.by_rate().items()]
    poles = poly.poly_roots(transfer_function(problem.ode).den, known)
    return from_partial_fractions(partial_fractions(Ys, poles))


def solve_ivp(problem: IVProblem) -> Signal:
    """Closed-form y(t) for t > 0 as an exponential-polynomial signal."""
    return invert(problem, solution_transform(problem))
