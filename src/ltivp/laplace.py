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

`closed_form` is the one entry: it forms A(s) once and returns both Y(s)
and y(t); `solve_ivp` returns its y(t).  Finite data can overflow on the
way to y(t).  That is not warned about: `closed_form` runs under one
`np.errstate`, and when y(t) is built, `Signal` rejects the non-finite
modes that result with one ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from . import poly
from .ic import ConditionPair, map_previous_to_first
from .ode import LinearODE, transfer_function
from .poly import Polynomial, RationalFunction, partial_fractions
from .signal import PiecewiseInput, Signal, condition_stack, from_partial_fractions, laplace_transform


class IVProblem:
    """An ODE, a piecewise input switching at t = 0, and condition data.

    Each part checks its own data, finiteness included (a `Signal` holds
    finite modes only); here they are checked against each other.
    """

    __slots__ = ("ode", "input", "conditions", "horizon")

    def __init__(
        self,
        ode: LinearODE,
        input: PiecewiseInput,
        conditions: ConditionPair,
        horizon: float | None = None,
    ):
        n, k = ode.n, len(conditions.y)
        if k != n:
            raise ValueError(f"conditions.y: expected length {n} (highest derivative first), got {k}")
        if horizon is not None and not 0.0 < horizon < math.inf:
            raise ValueError("horizon: must be a finite positive number")
        self.ode = ode
        self.input = input
        self.conditions = conditions
        self.horizon = horizon


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


def _input_stack(problem: IVProblem, kind: str) -> np.ndarray:
    """U(0-) off the past segment for kind "previous", else U(0+) off the
    future one; a ValueError naming that segment when the stack overflows."""
    segment, side = ("past", "U(0-)") if kind == "previous" else ("future", "U(0+)")
    u = condition_stack(getattr(problem.input, segment), problem.ode.n)
    if np.count_nonzero(np.isfinite(u)) != len(u):
        raise ValueError(f"input.{segment}: the stack {side} overflows: it is not finite")
    return u


def stated_conditions(problem: IVProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Y, U) on the side the conditions are stated: U from that input segment."""
    return problem.conditions.y, _input_stack(problem, problem.conditions.kind)


def first_conditions(problem: IVProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Y(0+), U(0+)) for the problem, mapping previous conditions if needed."""
    y, u = stated_conditions(problem)
    if problem.conditions.kind == "first":
        return y, u
    u_first = _input_stack(problem, "first")
    return map_previous_to_first(problem.ode, y, u, u_first), u_first


def closed_form(problem: IVProblem) -> tuple[RationalFunction, Signal]:
    """(Y(s), y(t) for t > 0): the transform and its inversion.

    Previous-form stacks are fed to assemble as-is; converting them to
    first conditions beforehand would give the same transform, and mixing
    sides is the one thing that does not.  Every term of the expansion is
    kept as computed, with no threshold, so y is exactly linear in the
    conditions and the input.
    """
    future = problem.input.future
    known = [(rate, max(powers) + 1) for rate, powers in future.by_rate().items()]
    with np.errstate(over="ignore", invalid="ignore"):
        G = transfer_function(problem.ode)
        Ys = assemble(problem.ode, G, laplace_transform(future), *stated_conditions(problem))
        y = from_partial_fractions(partial_fractions(Ys, poly.poly_roots(G.den, known)))
    return Ys, y


def solve_ivp(problem: IVProblem) -> Signal:
    """Closed-form y(t) for t > 0 as an exponential-polynomial signal."""
    return closed_form(problem)[1]
