"""Exact state-space trajectories by matrix-exponential stepping.

The input is not integrated numerically: every exponential-polynomial input
satisfies a small homogeneous LTI system of its own (one Jordan chain per
distinct rate), so the plant state is augmented with that generator and the
whole block advances by expm of the augmented matrix.  Accuracy is then
grid-independent, which is what an oracle for the symbolic path needs.

A uniform grid t_i = t_0 + i h (every `linspace` grid) costs two `expm`
calls: one carries the state from 0 to t_0, one gives the step matrix
S = expm(aug h).  The samples are then filled by doubling: with the first m
samples known, the next m are S^m times them, and S is squared, so a grid of
N points takes ceil(log2 N) block products and no per-sample Python work.
Any other grid is stepped sample by sample, one `expm` per step.  Either
way the input is evaluated once, on the whole grid, for the D u feedthrough.

scipy is imported on the first simulation, not with the package: nothing
else needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ic import recover_state
from .laplace import IVProblem, first_conditions
from .realization import StateSpace, observable_canonical
from .signal import Signal


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times, per-sample states (rows), and outputs."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray

    def csv_text(self) -> str:
        """CSV with header t,y,x1..xn; 17 significant digits round-trip doubles."""
        n = self.states.shape[1]
        lines = ["t,y," + ",".join(f"x{i + 1}" for i in range(n))]
        for t, y, x in zip(self.times, self.outputs, self.states):
            lines.append(",".join(f"{v:.17g}" for v in (t, y, *x)))
        return "\n".join(lines) + "\n"


def _input_generator(u: Signal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, c, z0) with z' = J z, z(0) = z0, u(t) = Re(c . z(t)).

    One Jordan chain per distinct rate: the chain for rate L carries the
    functions t^k e^(Lt) / k!, so c picks mode amplitudes scaled by k!.
    """
    groups = u.by_rate()
    size = sum(max(powers) + 1 for powers in groups.values())
    J = np.zeros((size, size), dtype=complex)
    c = np.zeros(size, dtype=complex)
    z0 = np.zeros(size, dtype=complex)
    at = 0
    for rate, powers in groups.items():
        kmax = max(powers)
        for k in range(kmax + 1):
            J[at + k, at + k] = rate
            if k > 0:
                J[at + k, at + k - 1] = 1.0
            amp = powers.get(k)
            if amp is not None:
                c[at + k] = amp * math.factorial(k)
        z0[at] = 1.0
        at += kmax + 1
    return J, c, z0


# a grid is uniform when every t_i is within this many ulps of t_(N-1) of t_0 + i h
UNIFORM_ULPS = 4


def _uniform_step(grid: np.ndarray) -> float | None:
    """The step h of a uniform grid of two or more samples, else None."""
    if len(grid) < 2:
        return None
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    ideal = grid[0] + h * np.arange(len(grid))
    if np.all(np.abs(grid - ideal) <= UNIFORM_ULPS * np.spacing(grid[-1])):
        return h
    return None


def _plant_states(aug: np.ndarray, w0: np.ndarray, grid: np.ndarray, n: int) -> np.ndarray:
    """Rows Re w(t_i)[:n] of the solution of w' = aug w, w(0) = w0."""
    from scipy.linalg import expm

    W = np.empty((len(grid), len(w0)), dtype=complex)
    W[0] = expm(aug * grid[0]) @ w0
    h = _uniform_step(grid)
    if h is None:
        for i in range(1, len(grid)):
            W[i] = expm(aug * (grid[i] - grid[i - 1])) @ W[i - 1]
    else:
        # rows are samples, so the step acts as its transpose: with rows
        # [0, m) known, rows [m, 2m) are those rows times (S^m)^T
        step_t = expm(aug * h).T
        done = 1
        while done < len(grid):
            take = min(done, len(grid) - done)
            np.matmul(W[:take], step_t, out=W[done:done + take])
            done += take
            if done < len(grid):
                step_t = step_t @ step_t
    return np.ascontiguousarray(W[:, :n].real)


def simulate(ss: StateSpace, x0, input: Signal, grid) -> Trajectory:
    """Advance x' = A x + B u from t = 0 across the given time grid."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if len(grid) == 0:
        raise ValueError("grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid: times must be finite")
    if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing and start at t >= 0")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = ss.n
    if len(x0) != n:
        raise ValueError(f"x0 must have length {n}")

    J, c, z0 = _input_generator(input)
    k = len(z0)
    aug = np.zeros((n + k, n + k), dtype=complex)
    aug[:n, :n] = ss.A
    aug[:n, n:] = np.outer(ss.B, c)
    aug[n:, n:] = J

    states = _plant_states(aug, np.concatenate([x0.astype(complex), z0]), grid, n)
    outputs = states @ ss.C + ss.D * input(grid)
    return Trajectory(times=grid, states=states, outputs=outputs)


def default_grid(t_f: float, points: int = 200) -> np.ndarray:
    """`points` uniform samples over (0, t_f], excluding the switch instant."""
    if not (np.isfinite(t_f) and t_f > 0.0):
        raise ValueError("horizon must be a finite positive number")
    if points < 1:
        raise ValueError("need at least one grid point")
    return np.linspace(t_f / points, t_f, points)


def simulate_ivp(problem: IVProblem, grid=None) -> Trajectory:
    """Solve the IVP on the state-space side: realize, recover x(0+), step.

    This path shares no code with the Laplace pipeline beyond the problem
    types, so agreement between the two is a meaningful check.
    """
    if grid is None:
        if problem.horizon is None:
            raise ValueError("either a grid or a problem horizon is required")
        grid = default_grid(problem.horizon)
    ss = observable_canonical(problem.ode)
    y_first, u_first = first_conditions(problem)
    x0 = recover_state(ss, y_first, u_first)
    return simulate(ss, x0, problem.input.future, grid)
