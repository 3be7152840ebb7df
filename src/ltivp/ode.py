"""Linear constant-coefficient ODE in a single output y driven by one input u:

    y^(n) + a_1 y^(n-1) + ... + a_n y  =  b_0 u^(n) + b_1 u^(n-1) + ... + b_n u

The leading output coefficient is fixed at 1 (a_0 = 1).  Derivative stacks
throughout the package are ordered highest derivative first, and the
polynomial vectors returned by ic_vectors follow that same orientation.
"""

from __future__ import annotations

import numpy as np

from .poly import Polynomial, RationalFunction, fmt_number, signed_sum


class LinearODE:
    """Coefficient container: a = (a_1..a_n), b = (b_0..b_n)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("coefficient arrays must be one-dimensional")
        if len(a) < 1:
            raise ValueError("order must be at least 1")
        if len(b) != len(a) + 1:
            raise ValueError(
                f"need n+1 input coefficients b_0..b_n; got {len(b)} for n = {len(a)}"
            )
        if not np.any(b):
            raise ValueError("all input coefficients are zero; the input never acts")
        self.a = a
        self.b = b

    @property
    def n(self) -> int:
        """Order of the equation."""
        return len(self.a)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearODE)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def __hash__(self) -> int:
        return hash((tuple(self.a), tuple(self.b)))

    def __repr__(self) -> str:
        return f"LinearODE(a={self.a.tolist()!r}, b={self.b.tolist()!r})"

    def __str__(self) -> str:
        lhs = _side_string("y", np.concatenate(([1.0], self.a)))
        rhs = _side_string("u", self.b)
        return f"{lhs} = {rhs or '0'}"


def _deriv_name(var: str, order: int) -> str:
    if order == 0:
        return var
    if order <= 3:
        return var + "'" * order
    return f"{var}^({order})"


def _side_string(var: str, coeffs: np.ndarray) -> str:
    n = len(coeffs) - 1
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        name = _deriv_name(var, n - j)
        terms.append((c, name if abs(c) == 1.0 else f"{fmt_number(abs(c))}*{name}"))
    return signed_sum(terms)


def relative_degree(ode: LinearODE) -> tuple[int, int]:
    """(r, m): r is the index of the first nonzero b coefficient, m = n - r."""
    for j, bj in enumerate(ode.b):
        if bj != 0.0:
            return j, ode.n - j
    raise ValueError("relative degree undefined: all input coefficients are zero")


def transfer_function(ode: LinearODE) -> RationalFunction:
    """B(s)/A(s) with A monic of degree n; common factors are not cancelled."""
    den = Polynomial(np.concatenate(([1.0], ode.a))[::-1])
    num = Polynomial(ode.b[::-1])
    return RationalFunction(num, den)


def ic_vectors(ode: LinearODE) -> tuple[list[Polynomial], list[Polynomial]]:
    """Polynomial vectors v_y, v_u weighting the derivative stacks at t = 0.

    Entry idx multiplies the (n-1-idx)-th derivative, so v_y[0] = 1 pairs
    with y^(n-1)(0) and v_y[n-1] = s^(n-1) + a_1 s^(n-2) + ... + a_{n-1}
    pairs with y(0).  The Laplace-domain numerator contribution of the
    conditions is v_y . Y_stack - v_u . U_stack.
    """
    a_full = np.concatenate(([1.0], ode.a))
    v_y = [Polynomial(a_full[: idx + 1][::-1]) for idx in range(ode.n)]
    v_u = [Polynomial(ode.b[: idx + 1][::-1]) for idx in range(ode.n)]
    return v_y, v_u
