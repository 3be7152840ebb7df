"""Linear constant-coefficient ODE in a single output y driven by one input u:

    y^(n) + a_1 y^(n-1) + ... + a_n y  =  b_0 u^(n) + b_1 u^(n-1) + ... + b_n u

The leading output coefficient is fixed at 1 (a_0 = 1).  Derivative stacks
throughout the package are ordered highest derivative first.

The conditions at t = 0 enter the transform of the equation through two
stack-weight matrices, both upper-triangular Toeplitz:

    V_y = T(1, a_1, ..., a_{n-1}),    V_u = T(b_0, ..., b_{n-1}).

Column j holds the coefficients, lowest degree first, of the polynomial in s
that weights the j-th stack entry (the (n-1-j)-th derivative), so the
condition part of the numerator has coefficients V_y Y - V_u U.  With M the
Markov matrix T(h_0, ..., h_{n-1}), V_y M = V_u.  Stacks obey Y = O x + M U,
so V_y Y - V_u U = V_y O x depends on the state alone, which does not jump
at the switch: stacks from either side give the same transform.
"""

from __future__ import annotations

import numpy as np

from .poly import Polynomial, RationalFunction, fmt_number, signed_sum


def require_finite(field: str, values) -> None:
    """Raise a one-line ValueError naming `field` unless every value is finite."""
    arr = np.asarray(values)
    if not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)].flat[0]
        raise ValueError(f"{field}: expected finite numbers, got {bad}")


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
        require_finite("a", a)
        require_finite("b", b)
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


def _toeplitz(h: np.ndarray) -> np.ndarray:
    """Upper-triangular Toeplitz matrix with first row h."""
    n = len(h)
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i:] = h[: n - i]
    return M


def ic_vectors(ode: LinearODE) -> tuple[np.ndarray, np.ndarray]:
    """The stack-weight matrices (V_y, V_u) = (T(1, a_1..a_{n-1}), T(b_0..b_{n-1})).

    Column j of V_y holds the coefficients, lowest degree first, of
    s^j + a_1 s^(j-1) + ... + a_j, which weights y^(n-1-j)(0); V_u does the
    same with the b coefficients for the input stack.
    """
    a_full = np.concatenate(([1.0], ode.a))
    return _toeplitz(a_full[: ode.n]), _toeplitz(ode.b[: ode.n])
