"""Observable-canonical realizations, Markov parameters, and the
ODE/state-space equivalence check.

Derivative stacks satisfy Y = O x + M U where O is the observability matrix
(rows C A^(n-1) ... C, top to bottom) and M is the upper-triangular Toeplitz
matrix of Markov parameters.  That single relation drives both the
initial-state recovery and the jump mapping in the ic module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ode import LinearODE, _toeplitz, require_finite

#: Observability verdict: observable when sigma_min / sigma_max > this.
OBSERVABILITY_RTOL = 1e-9
#: Transfer-function verdict: a match when the sampled gap is at most this.
TRANSFER_TOL = 1e-9


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
        require_finite("A", A)
        require_finite("B", B)
        require_finite("C", C)
        D = float(D)
        if not math.isfinite(D):
            raise ValueError(f"D: expected finite numbers, got {D}")
        self.A = A
        self.B = B
        self.C = C
        self.D = D

    @property
    def n(self) -> int:
        return self.A.shape[0]

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
    a = ode.a.tolist()
    b = ode.b.tolist()
    h = []
    for j in range(count):
        acc = b[j] if j <= n else 0.0
        for i in range(1, min(j, n) + 1):
            acc -= a[i - 1] * h[j - i]
        h.append(acc)
    return np.array(h)


def markov_matrix(ode: LinearODE) -> np.ndarray:
    """Upper-triangular Toeplitz matrix with first row h_0 ... h_{n-1}."""
    return _toeplitz(markov_parameters(ode, ode.n))


def observable_canonical(ode: LinearODE) -> StateSpace:
    """Realization with the a-coefficients in the last column of A,
    ones on the subdiagonal, C = [0 ... 0 1], and D = b_0.

    B = (b_n - b_0 a_n, ..., b_1 - b_0 a_1): the transfer function is
    b_0 + [B(s) - b_0 A(s)] / A(s), and in this form the k-th entry of B
    is the s^k coefficient of that numerator.  Integer coefficient data
    therefore yields an exact integer B.  Raises ValueError, naming the ODE,
    when an entry of B overflows.
    """
    n = ode.n
    A = np.zeros((n, n))
    for i in range(1, n):
        A[i, i - 1] = 1.0
    A[:, n - 1] = -ode.a[::-1]
    C = np.zeros(n)
    C[n - 1] = 1.0
    # Python floats round as numpy does, but overflow to inf without a warning
    b0, *b = ode.b.tolist()
    B = [bk - b0 * ak for bk, ak in zip(b, ode.a.tolist())]
    if not all(map(math.isfinite, B)):
        raise ValueError("ode: realization overflows: b_k - b_0 a_k is not finite")
    # kept a reversed view: BLAS products with B round by its memory layout,
    # and the states recovered from B are pinned to this layout's bits
    return StateSpace(A, np.array(B)[::-1], C, b0)


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


def observability_matrix(ss: StateSpace, field: str = "ssr") -> np.ndarray:
    """Rows C A^(n-1), ..., C A, C from top to bottom.

    Raises ValueError, naming `field`, when a row overflows; the overflow
    is reported by that error alone, not warned about.
    """
    n = ss.n
    O = np.zeros((n, n))
    O[n - 1] = ss.C
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            O[i] = O[i + 1] @ ss.A
    if np.count_nonzero(np.isfinite(O)) != O.size:
        raise ValueError(f"{field}: observability matrix overflows: a row C A^k is not finite")
    return O


def observability_ratio(O: np.ndarray) -> float:
    """sigma_min / sigma_max of an observability matrix; 0 when it is zero."""
    sigmas = np.linalg.svd(O, compute_uv=False)
    return float(sigmas[-1] / sigmas[0]) if sigmas[0] > 0.0 else 0.0


class EquivalenceReport(NamedTuple):
    """Outcome of the three-part ODE/state-space comparison."""

    same_order: bool
    transfer_match: bool
    observable: bool
    transfer_error: float
    sigma_ratio: float

    @property
    def equivalent(self) -> bool:
        return self.same_order and self.transfer_match and self.observable


def check_equivalence(ode: LinearODE, ss: StateSpace, ss_field: str = "ssr") -> EquivalenceReport:
    """Same order, same transfer function, observable realization.

    The transfer functions are compared by value: C (sI - A)^(-1) B + D
    (one linear solve per point) against B(s)/A(s) at 2N + 2 points on each
    of two circles, where N = max(ss.n, ode.n).  The outer circle,
    |s| = 1.5 (rho + 1) with rho the largest modulus of an eigenvalue of A
    or a root of A(s), encloses both spectra; there the high-order
    coefficients dominate.  The inner one has half the smallest nonzero
    modulus of a root of A(s) (at most 1/2) and lies inside every nonzero
    pole, where the low-order coefficients dominate.  The points sit half a
    step off the real axis, so a real pole is never hit.  The two sides
    differ by a rational function whose numerator has degree at most 2N, so
    agreement at 2N + 1 points is agreement everywhere, and uncancelled
    common factors on either side do not matter.  `transfer_error` is the
    largest |G_ss - G_ode| / (1 + |G_ode|) over the points, and the
    functions match when it is at most TRANSFER_TOL.  The realization is
    observable when its sigma ratio exceeds OBSERVABILITY_RTOL.

    Raises ValueError when the gap or the observability matrix is not
    finite (an equation that overflows at the sample points), naming `ode`
    when B(s)/A(s) does and `ss_field` when the state-space side does; the
    overflow is reported by that error alone, not warned about.
    """
    same_order = ss.n == ode.n
    a_desc = np.concatenate(([1.0], ode.a))
    moduli = np.abs(np.roots(a_desc))
    rho = max(np.max(np.abs(np.linalg.eigvals(ss.A))), np.max(moduli))
    inner = 0.5 * np.min(moduli[moduli > 0.0], initial=1.0)
    count = 2 * max(ss.n, ode.n) + 2
    unit = np.exp(1j * np.pi * (2 * np.arange(count) + 1) / count)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.concatenate((1.5 * (rho + 1.0) * unit, inner * unit))
        rhs = np.broadcast_to(ss.B[:, None], (2 * count, ss.n, 1))
        g_ss = np.linalg.solve(s[:, None, None] * np.eye(ss.n) - ss.A, rhs)[:, :, 0] @ ss.C + ss.D
        g_ode = np.polyval(ode.b, s) / np.polyval(a_desc, s)
        err = np.max(np.abs(g_ss - g_ode) / (1.0 + np.abs(g_ode)))
    if not np.isfinite(err):
        field = "ode" if not np.isfinite(g_ode).all() else ss_field
        raise ValueError(f"{field}: transfer function overflows at a sample point: the sampled gap is not finite")
    ratio = observability_ratio(observability_matrix(ss, ss_field))
    return EquivalenceReport(
        same_order=same_order,
        transfer_match=bool(err <= TRANSFER_TOL),
        observable=ratio > OBSERVABILITY_RTOL,
        transfer_error=float(err),
        sigma_ratio=ratio,
    )
