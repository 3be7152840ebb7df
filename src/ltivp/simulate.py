"""Exact state-space trajectories by matrix-exponential stepping.

The input is not integrated numerically: an exponential-polynomial input u
solves a homogeneous ODE D(d/dt) u = 0 of its own, and its derivative stack
at 0 starts it.  So the plant state is augmented with that stack, advanced
by the companion matrix of D, and the whole real block advances by expm of
the augmented matrix.  Accuracy is then grid-independent, which is what an
oracle for the symbolic path needs.

A uniform grid t_i = t_0 + i h (every `linspace` grid) costs one `expm`
call when t_0 equals the step h bit for bit, as on most `default_grid`
grids: the step matrix S = expm(aug h) then also carries the state from 0
to t_0.  Any other uniform grid costs a second call, expm(aug t_0), for
that first sample.  Samples are columns of one block, filled by doubling:
with the first m known, the next m are S^m times them, and S is squared, so
N points take ceil(log2 N) block products and no per-sample Python work.
Any other grid is stepped sample by sample, one `expm` per step.  Either
way the input is evaluated on the whole grid only when D != 0, for the D u
feedthrough.

scipy is imported on the first simulation, not with the package: nothing
else needs it.
"""

from __future__ import annotations

import numpy as np

from .ic import _stack, recover_state
from .laplace import IVProblem, first_conditions
from .poly import fmt_number
from .realization import StateSpace, observable_canonical
from .signal import Signal, condition_stack


class Trajectory:
    """Sampled solution: times, per-sample states (rows), and outputs."""

    __slots__ = ("times", "states", "outputs")

    def __init__(self, times: np.ndarray, states: np.ndarray, outputs: np.ndarray):
        self.times = times
        self.states = states
        self.outputs = outputs

    def csv_text(self) -> str:
        """CSV with header t,y,x1..xn; 17 significant digits round-trip doubles."""
        n = self.states.shape[1]
        header = "t,y," + ",".join(f"x{i + 1}" for i in range(n))
        # all rows in one `%` call, whose %.17g prints the bytes f"{v:.17g}" does
        row = ",".join(["%.17g"] * (n + 2))
        values = np.column_stack((self.times, self.outputs, self.states)).ravel().tolist()
        return "\n".join([header] + [row] * len(self.times)) % tuple(values) + "\n"


def _input_generator(u: Signal) -> tuple[np.ndarray, np.ndarray]:
    """(J, z0) with z' = J z, z(0) = z0 and u(t) = z(t)[0], all real.

    u solves D(d/dt) u = 0 for D(s) = prod (s - r)^(k+1) over its rates r
    (k the top power at r), and D with the stack (u, u', ..., u^(K-1)) at 0
    fixes u.  So z is that stack and J is the companion matrix of D: ones
    on the superdiagonal, last row -(d_K, ..., d_1).  A conjugate pair
    enters D as one real quadratic.  The zero signal needs no generator.
    Raises ValueError, naming input.future, when |rate|^2 of a pair
    overflows.
    """
    if u.is_zero:
        return np.zeros((0, 0)), np.zeros(0)
    d = np.ones(1)
    for rate, powers in u.by_rate().items():
        if rate.imag >= 0.0:  # the conjugate partner is in the quadratic
            try:
                factor = [1.0, -rate.real] if rate.imag == 0.0 else [1.0, -2.0 * rate.real, abs(rate) ** 2]
            except OverflowError:  # float ** raises rather than return inf
                raise ValueError(f"input.future: rate {rate} overflows: |rate|^2 is not finite") from None
            for _ in range(max(powers) + 1):
                d = np.convolve(d, factor)
    K = len(d) - 1
    J = np.eye(K, k=1)
    J[-1] = -d[:0:-1]
    return J, condition_stack(u, K)[::-1]


# a grid is uniform when every t_i is within this many ulps of t_(N-1) of t_0 + i h
UNIFORM_ULPS = 4


def _uniform_step(grid: np.ndarray) -> float | None:
    """The step h of a uniform grid of two or more samples, else None."""
    if len(grid) < 2:
        return None
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    # |grid - (grid[0] + h i)| with the same roundings, in one buffer
    gap = np.arange(len(grid), dtype=float)
    gap *= h
    gap += grid[0]
    gap -= grid
    np.abs(gap, out=gap)
    if gap.max() <= UNIFORM_ULPS * np.spacing(grid[-1]):
        return h
    return None


def _plant_states(aug: np.ndarray, w0: np.ndarray, grid: np.ndarray, n: int) -> np.ndarray:
    """Rows w(t_i)[:n] of the solution of w' = aug w, w(0) = w0, as a
    column-major (N, n) view of the block whose columns are the w(t_i)."""
    from scipy.linalg import expm

    W = np.empty((len(w0), len(grid)))
    h = _uniform_step(grid)
    if h is None:
        W[:, 0] = expm(aug * grid[0]) @ w0
        for i in range(1, len(grid)):
            W[:, i] = expm(aug * (grid[i] - grid[i - 1])) @ W[:, i - 1]
    else:
        step = expm(aug * h)
        # when t_0 is the step, expm(aug t_0) is the same call on the same
        # array, so S carries the state to t_0 and one expm serves the grid
        W[:, 0] = step @ w0 if grid[0] == h else expm(aug * grid[0]) @ w0
        # with columns [0, m) known, columns [m, 2m) are S^m times them
        done = 1
        while done < len(grid):
            take = min(done, len(grid) - done)
            np.matmul(step, W[:, :take], out=W[:, done:done + take])
            done += take
            if done < len(grid):
                step = step @ step
    return W[:n].T


def simulate(ss: StateSpace, x0, input: Signal, grid) -> Trajectory:
    """Advance x' = A x + B u from t = 0 across the given time grid.

    Raises ValueError, naming the first sample, when a state or the output
    is not finite there (an unstable plant overflowing on a long grid).
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if len(grid) == 0:
        raise ValueError("grid is empty")
    if not np.isfinite(grid).all():
        raise ValueError("grid: times must be finite")
    if grid[0] < 0.0 or (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be strictly increasing and start at t >= 0")
    n = ss.n
    x0 = _stack(x0, n, "x0")

    J, z0 = _input_generator(input)
    k = len(z0)
    aug = np.zeros((n + k, n + k))
    aug[:n, :n] = ss.A
    aug[n:, n:] = J
    if k:
        aug[:n, n] = ss.B  # u = z[0] drives the plant

    # an unstable plant can overflow on a long grid: the overflow is
    # reported once, below, naming where it starts, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        states = _plant_states(aug, np.concatenate([x0, z0]), grid, n)
        outputs = states @ ss.C
        if ss.D != 0.0:
            outputs += ss.D * input(grid)
    if not (np.isfinite(outputs).all() and np.isfinite(states).all()):
        finite = np.isfinite(outputs) & np.isfinite(states).all(axis=1)
        t_bad = fmt_number(grid[np.argmin(finite)])
        raise ValueError(f"trajectory overflows: first non-finite sample at t = {t_bad}")
    return Trajectory(grid, states, outputs)


def default_grid(t_f: float, points: int = 200) -> np.ndarray:
    """`points` uniform samples over (0, t_f], excluding the switch instant."""
    if not (np.isfinite(t_f) and t_f > 0.0):
        raise ValueError("horizon must be a finite positive number")
    if points < 1:
        raise ValueError("need at least one grid point")
    return np.linspace(t_f / points, t_f, points)


def simulate_ivp(problem: IVProblem, grid=None) -> Trajectory:
    """Solve the IVP on the state-space side: realize, recover x(0+), step.

    This path shares no solution code with the Laplace pipeline: only the
    problem types and the condition stacks (`first_conditions`,
    `condition_stack`), which both routes start from.  So agreement
    between the two is a meaningful check.
    """
    if grid is None:
        if problem.horizon is None:
            raise ValueError("either a grid or a problem horizon is required")
        grid = default_grid(problem.horizon)
    ss = observable_canonical(problem.ode)
    y_first, u_first = first_conditions(problem)
    x0 = recover_state(ss, y_first, u_first)
    return simulate(ss, x0, problem.input.future, grid)
