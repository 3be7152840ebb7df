"""Observable-canonical realizations, Markov parameters, and the
ODE/state-space equivalence check.

Derivative stacks satisfy Y = O x + M U where O is the observability matrix
(rows C A^(n-1) ... C, top to bottom) and M is the upper-triangular Toeplitz
matrix of Markov parameters.  That single relation drives both the
initial-state recovery and the jump mapping in the ic module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ode import LinearODE, _toeplitz, transfer_function
from .poly import Polynomial, RationalFunction

#: Observability verdict: observable when sigma_min / sigma_max > this.
OBSERVABILITY_RTOL = 1e-9


class StateSpace:
    """x' = A x + B u, y = C x + D u with a single input and output.

    B and C are stored as flat length-n vectors; D is a scalar.
    """

    __slots__ = ("A", "B", "C", "D")

    def __init__(self, A, B, C, D):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float).reshape(-1)
        C = np.asarray(C, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if n < 1 or len(B) != n or len(C) != n:
            raise ValueError("B and C must have length matching A")
        self.A = A
        self.B = B
        self.C = C
        self.D = float(D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSpace)
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.B, other.B)
            and np.array_equal(self.C, other.C)
            and self.D == other.D
        )

    def __repr__(self) -> str:
        return (
            f"StateSpace(A={self.A.tolist()!r}, B={self.B.tolist()!r}, "
            f"C={self.C.tolist()!r}, D={self.D!r})"
        )


def markov_parameters(ode: LinearODE, count: int) -> np.ndarray:
    """First `count` impulse-response coefficients h_0, h_1, ....

    Recursion: h_0 = b_0 and h_j = b_j - sum_{i=1..min(j,n)} a_i h_{j-i},
    with b_j = 0 beyond index n.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n = ode.n
    h = np.zeros(count)
    for j in range(count):
        acc = ode.b[j] if j <= n else 0.0
        for i in range(1, min(j, n) + 1):
            acc -= ode.a[i - 1] * h[j - i]
        h[j] = acc
    return h


def markov_matrix(ode: LinearODE) -> np.ndarray:
    """Upper-triangular Toeplitz matrix with first row h_0 ... h_{n-1}."""
    return _toeplitz(markov_parameters(ode, ode.n))


def observable_canonical(ode: LinearODE) -> StateSpace:
    """Realization with the a-coefficients in the last column of A,
    ones on the subdiagonal, C = [0 ... 0 1], and D = b_0.

    B = (b_n - b_0 a_n, ..., b_1 - b_0 a_1): the transfer function is
    b_0 + [B(s) - b_0 A(s)] / A(s), and in this form the k-th entry of B
    is the s^k coefficient of that numerator.  Integer coefficient data
    therefore yields an exact integer B.
    """
    n = ode.n
    A = np.zeros((n, n))
    for i in range(1, n):
        A[i, i - 1] = 1.0
    A[:, n - 1] = -ode.a[::-1]
    C = np.zeros(n)
    C[n - 1] = 1.0
    b0 = ode.b[0]
    return StateSpace(A, (ode.b[1:] - b0 * ode.a)[::-1], C, b0)


def ss_markov_parameters(ss: StateSpace, count: int) -> np.ndarray:
    """h_0 = D and h_i = C A^(i-1) B, directly from the matrices."""
    if count < 1:
        raise ValueError("count must be at least 1")
    h = np.zeros(count)
    h[0] = ss.D
    v = ss.B
    for i in range(1, count):
        h[i] = ss.C @ v
        v = ss.A @ v
    return h


def ss_markov_matrix(ss: StateSpace) -> np.ndarray:
    """Upper-triangular Toeplitz Markov matrix computed from the matrices."""
    return _toeplitz(ss_markov_parameters(ss, ss.n))


def observability_matrix(ss: StateSpace) -> np.ndarray:
    """Rows C A^(n-1), ..., C A, C from top to bottom."""
    n = ss.n
    O = np.zeros((n, n))
    O[n - 1] = ss.C
    for i in range(n - 2, -1, -1):
        O[i] = O[i + 1] @ ss.A
    return O


def observability_ratio(O: np.ndarray) -> float:
    """sigma_min / sigma_max of an observability matrix; 0 when it is zero."""
    sigmas = np.linalg.svd(O, compute_uv=False)
    return float(sigmas[-1] / sigmas[0]) if sigmas[0] > 0.0 else 0.0


def ss_transfer_function(ss: StateSpace) -> RationalFunction:
    """C (sI - A)^(-1) B + D via the Leverrier-Faddeev recursion.

    The denominator is the characteristic polynomial of A; the numerator
    falls out of the same pass as C M_k B plus the D feedthrough.
    """
    n = ss.n
    Mk = np.eye(n)
    den_desc = [1.0]
    num_desc = []
    for k in range(1, n + 1):
        num_desc.append(float(ss.C @ Mk @ ss.B))
        AM = ss.A @ Mk
        ck = -np.trace(AM) / k
        den_desc.append(ck)
        Mk = AM + ck * np.eye(n)
    den = Polynomial(den_desc[::-1])
    num = Polynomial(num_desc[::-1]) + den * ss.D
    return RationalFunction(num, den)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the three-part ODE/state-space comparison."""

    same_order: bool
    transfer_match: bool
    observable: bool
    transfer_error: float
    sigma_ratio: float

    @property
    def equivalent(self) -> bool:
        return self.same_order and self.transfer_match and self.observable


def check_equivalence(ode: LinearODE, ss: StateSpace, tol: float = 1e-9) -> EquivalenceReport:
    """Same order, same transfer function, observable realization.

    The transfer functions are compared by cross-multiplication after the
    monic normalization both already carry, so uncancelled common factors
    do not cause spurious mismatches.
    """
    same_order = ss.n == ode.n
    err = ss_transfer_function(ss).max_cross_error(transfer_function(ode))
    ratio = observability_ratio(observability_matrix(ss))
    return EquivalenceReport(
        same_order=same_order,
        transfer_match=bool(err <= tol),
        observable=ratio > OBSERVABILITY_RTOL,
        transfer_error=float(err),
        sigma_ratio=ratio,
    )
