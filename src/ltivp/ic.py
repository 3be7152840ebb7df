"""Condition bookkeeping across the switching instant t = 0.

Stacks are length-n vectors of derivative values ordered highest first:
Y = [y^(n-1), ..., y', y] and likewise for the input.  The one relation
doing all the work is Y = O x + M U; differencing it across t = 0 (the
state x is continuous) gives the jump mapping, and solving it at a single
instant recovers the state.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotObservable
from .ode import LinearODE, _toeplitz, relative_degree, require_finite
from .realization import (
    OBSERVABILITY_RTOL,
    StateSpace,
    markov_matrix,
    observability_matrix,
    observability_ratio,
    require_finite_markov,
    ss_markov_parameters,
)

#: Continuity verdict: a jump at t = 0 of at most this counts as continuous.
JUMP_TOL = 1e-9


def _stack(x, n: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != n:
        raise ValueError(f"{name} must have length {n}, got {len(x)}")
    require_finite(name, x)
    return x


class ConditionPair:
    """Output conditions stated on one side of the switch.

    kind "previous" holds Y(0-), kind "first" holds Y(0+).  The matching
    input stack is not stored: it is always read off the input's own
    segment on that side (past for 0-, future for 0+).
    """

    __slots__ = ("kind", "y")

    def __init__(self, kind: str, y):
        if kind not in ("previous", "first"):
            raise ValueError(f"kind must be 'previous' or 'first', got {kind!r}")
        y = np.asarray(y, dtype=float).reshape(-1)
        require_finite("y", y)
        self.kind = kind
        self.y = y

    @classmethod
    def previous(cls, y) -> "ConditionPair":
        return cls("previous", y)

    @classmethod
    def first(cls, y) -> "ConditionPair":
        return cls("first", y)


def map_previous_to_first(ode: LinearODE, y_prev, u_prev, u_first) -> np.ndarray:
    """Y(0+) = Y(0-) + M (U(0+) - U(0-)).

    Follows from state continuity: subtract Y = O x + M U written at 0- and
    at 0+; the O x terms cancel and only the input jump remains.  Raises
    ValueError, naming Y(0+), when that is not finite; the overflow is
    reported by that error alone, not warned about.
    """
    n = ode.n
    y_prev = _stack(y_prev, n, "y_prev")
    u_prev = _stack(u_prev, n, "u_prev")
    u_first = _stack(u_first, n, "u_first")
    with np.errstate(over="ignore", invalid="ignore"):
        y_first = y_prev + markov_matrix(ode) @ (u_first - u_prev)
    # a non-finite M always leaves a non-finite entry here, so this covers M
    if not np.isfinite(y_first).all():
        raise ValueError("Y(0+) overflows: Y(0-) + M (U(0+) - U(0-)) is not finite")
    return y_first


def recover_state(ss: StateSpace, y_stack, u_stack) -> np.ndarray:
    """Solve O x = Y - M U for the state at the instant of the stacks.

    `ss` is the realization of an ODE, so a row of O that overflows raises
    a ValueError naming `ode`, before the observability verdict, and so
    do a Markov parameter h_0..h_n and the right side Y - M U that
    overflow, after it.
    """
    n = ss.n
    y_stack = _stack(y_stack, n, "y_stack")
    u_stack = _stack(u_stack, n, "u_stack")
    O = observability_matrix(ss, "ode")
    ratio = observability_ratio(O)
    if not ratio > OBSERVABILITY_RTOL:
        raise NotObservable(
            "observability matrix is singular to working precision "
            f"(sigma_min/sigma_max = {ratio:.3e}); no unique state matches the output stack"
        )
    # h_n is not needed for M, but `realize` prints it: an overflow that
    # first shows there is named as `realize` names it
    with np.errstate(over="ignore", invalid="ignore"):
        h = ss_markov_parameters(ss, n + 1)
        rhs = y_stack - _toeplitz(h[:n]) @ u_stack
    require_finite_markov(h)
    if not all(map(math.isfinite, rhs.tolist())):
        raise ValueError("ode: state recovery overflows: Y - M U is not finite")
    return np.linalg.solve(O, rhs)


class ContinuityEntry(NamedTuple):
    """Jump verdict for one output derivative order."""

    order: int
    jump: float
    continuous: bool


class ContinuityReport:
    """Per-derivative jumps Delta Y = M Delta U plus the structural verdict.

    `predicted_continuous` is decided from the input jump alone: the full
    output stack stays continuous exactly when the bottom m entries of the
    input jump (u, u', ..., u^(m-1)) vanish, where m = n - r.
    """

    __slots__ = ("r", "m", "delta_y", "entries", "fully_continuous", "predicted_continuous")

    def __init__(
        self,
        r: int,
        m: int,
        delta_y: np.ndarray,
        entries: tuple[ContinuityEntry, ...],
        fully_continuous: bool,
        predicted_continuous: bool,
    ):
        self.r = r
        self.m = m
        self.delta_y = delta_y
        self.entries = entries
        self.fully_continuous = fully_continuous
        self.predicted_continuous = predicted_continuous


def classify_continuity(ode: LinearODE, u_jump) -> ContinuityReport:
    """Jumps Delta Y = M Delta U; each is continuous when |jump| <= JUMP_TOL.

    The bound is absolute, on the data's own scale, and applies alike to the
    input-jump entries behind `predicted_continuous`.  Raises ValueError,
    naming delta Y, when that is not finite; the overflow is reported by
    that error alone, not warned about.
    """
    n = ode.n
    u_jump = _stack(u_jump, n, "u_jump")
    with np.errstate(over="ignore", invalid="ignore"):
        delta_y = markov_matrix(ode) @ u_jump
    if not np.isfinite(delta_y).all():
        raise ValueError("delta Y overflows: M (U(0+) - U(0-)) is not finite")
    entries = tuple(
        ContinuityEntry(
            order=j,
            jump=float(delta_y[n - 1 - j]),
            continuous=bool(abs(delta_y[n - 1 - j]) <= JUMP_TOL),
        )
        for j in range(n)
    )
    r, m = relative_degree(ode)
    predicted = bool(np.all(np.abs(u_jump[n - m :]) <= JUMP_TOL)) if m > 0 else True
    return ContinuityReport(
        r=r,
        m=m,
        delta_y=delta_y,
        entries=entries,
        fully_continuous=bool(all(e.continuous for e in entries)),
        predicted_continuous=predicted,
    )
