import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from ltivp.ic import ConditionPair
from ltivp.laplace import IVProblem, solve_ivp
from ltivp.ode import LinearODE
from ltivp.realization import StateSpace, observable_canonical
from ltivp.signal import PiecewiseInput, Signal
from ltivp.simulate import Trajectory, _input_generator, _uniform_step, default_grid, simulate, simulate_ivp

from conftest import csv_reference, random_ode, random_signal, signal_sum

EX1 = LinearODE([6.0, 5.0], [0.0, 1.0, 1.0])


def first_order():
    return observable_canonical(LinearODE([1.0], [0.0, 1.0]))


class TestSimulate:
    def test_step_response_first_order(self):
        ts = np.linspace(0.05, 5.0, 100)
        traj = simulate(first_order(), [0.0], Signal.constant(1.0), ts)
        assert_allclose(traj.outputs, 1.0 - np.exp(-ts), atol=1e-12)

    def test_zero_input_is_matrix_exponential(self):
        rng = np.random.default_rng(701)
        for _ in range(20):
            ss = observable_canonical(random_ode(rng, nmax=5))
            x0 = rng.uniform(-2, 2, ss.n)
            ts = np.array([0.3, 0.7, 1.9])
            traj = simulate(ss, x0, Signal.zero(), ts)
            for t, x in zip(ts, traj.states):
                assert_allclose(x, expm(ss.A * t) @ x0, atol=1e-9)

    def test_resonant_input_exact(self):
        # u = e^{-t} driving a pole at -1 from rest gives y = t e^{-t}
        ts = np.linspace(0.1, 4.0, 50)
        traj = simulate(first_order(), [0.0], Signal.exponential(-1.0), ts)
        assert_allclose(traj.outputs, ts * np.exp(-ts), atol=1e-12)

    def test_grid_choice_does_not_change_samples(self):
        rng = np.random.default_rng(702)
        ss = observable_canonical(random_ode(rng, nmax=4))
        x0 = rng.uniform(-1, 1, ss.n)
        u = random_signal(rng)
        coarse = simulate(ss, x0, u, np.array([2.0]))
        fine = simulate(ss, x0, u, np.linspace(0.01, 2.0, 173))
        assert_allclose(fine.states[-1], coarse.states[0], atol=1e-9)
        assert abs(fine.outputs[-1] - coarse.outputs[0]) <= 1e-9

    def test_feedthrough_in_output(self):
        ss = StateSpace(A=[[-1.0]], B=[0.0], C=[1.0], D=2.0)
        traj = simulate(ss, [0.0], Signal.constant(3.0), [1.0])
        assert traj.outputs[0] == pytest.approx(6.0)

    def test_grid_validation(self):
        ss = first_order()
        with pytest.raises(ValueError, match="^grid is empty$"):
            simulate(ss, [0.0], Signal.zero(), [])
        for bad in ([1.0, 1.0], [1.0, 0.5], [0.5, 1.0, 0.75], [-0.5, 1.0]):
            with pytest.raises(ValueError, match="^grid must be strictly increasing and start at t >= 0$"):
                simulate(ss, [0.0], Signal.zero(), bad)
        with pytest.raises(ValueError):
            simulate(ss, [0.0, 0.0], Signal.zero(), [1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^grid: times must be finite$"):
                simulate(ss, [0.0], Signal.zero(), [0.5, bad])
            # named as x0, not reported as an overflowing trajectory
            with pytest.raises(ValueError, match=rf"^x0: expected finite numbers, got {bad}$"):
                simulate(ss, [bad], Signal.ramp(), [0.5, 1.0])


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestUniformGrid:
    def test_matches_stepping_loop(self):
        # nudging one interior sample sends the grid down the per-step loop
        uniform = np.linspace(0.015, 3.0, 200)
        nudged = uniform.copy()
        nudged[87] += 1e-3 * (uniform[1] - uniform[0])
        assert _uniform_step(uniform) is not None and _uniform_step(nudged) is None
        rng = np.random.default_rng(704)
        for _ in range(20):
            ss = observable_canonical(random_ode(rng, nmax=5))
            x0 = rng.uniform(-2, 2, ss.n)
            u = random_signal(rng)
            a = simulate(ss, x0, u, uniform)
            b = simulate(ss, x0, u, nudged)
            keep = np.arange(200) != 87
            for got, want in ((b.states, a.states), (b.outputs, a.outputs)):
                scale = np.max(np.abs(want), axis=0)
                assert np.all(np.abs(got[keep] - want[keep]) <= 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["ramp", "sinusoid"])
    def test_dense_grid_matches_direct_exponential(self, kind):
        # reference: one expm per sample of a hand-built real augmented block,
        # [x; t; 1] for the ramp and [x; cos wt; sin wt] for the sinusoid
        ss = observable_canonical(EX1)
        w = 1.3
        if kind == "ramp":
            u, gen, z0 = Signal.ramp(), [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0]
        else:
            u, gen, z0 = Signal.cosine(w), [[0.0, -w], [w, 0.0]], [1.0, 0.0]
        aug = np.zeros((4, 4))
        aug[:2, :2] = ss.A
        aug[:2, 2] = ss.B
        aug[2:, 2:] = gen
        x0 = np.array([0.7, -1.2])
        w0 = np.concatenate([x0, z0])
        grid = np.linspace(30.0 / 10_000, 30.0, 10_000)
        traj = simulate(ss, x0, u, grid)
        for i in np.linspace(0, len(grid) - 1, 12).astype(int):
            want = expm(aug * grid[i]) @ w0
            assert_allclose(traj.states[i], want[:2], rtol=1e-10, atol=1e-10)
            assert traj.outputs[i] == pytest.approx(ss.C @ want[:2] + ss.D * want[2], rel=1e-10, abs=1e-10)

    def test_input_evaluated_once_and_one_exponential(self, monkeypatch):
        u_calls = _count_calls(monkeypatch, Signal, "__call__")
        expm_calls = _count_calls(monkeypatch, scipy.linalg, "expm")
        ss = observable_canonical(LinearODE([6.0, 5.0], [2.0, 1.0, 1.0]))
        assert ss.D == 2.0
        grid = default_grid(3.0, 1000)
        assert grid[0] == _uniform_step(grid)  # t_0 is the step
        simulate(ss, [0.5, -0.5], signal_sum(Signal.cosine(2.0), Signal.ramp()), grid)
        assert len(u_calls) == 1
        assert len(expm_calls) == 1

    @pytest.mark.parametrize("grid", [np.linspace(0.5, 3.0, 200), default_grid(10.0)], ids=["late-start", "default"])
    def test_first_sample_off_the_step(self, monkeypatch, grid):
        # a uniform grid whose t_0 is not the step takes expm(aug t_0) for the
        # first sample and then doubles with expm(aug h), bit for bit
        h = _uniform_step(grid)
        assert h is not None and grid[0] != h
        ss = observable_canonical(EX1)
        u = Signal.cosine(1.3)
        x0 = np.array([0.7, -1.2])
        J, z0 = _input_generator(u)
        aug = np.zeros((4, 4))
        aug[:2, :2] = ss.A
        aug[:2, 2] = ss.B
        aug[2:, 2:] = J
        W = np.empty((len(grid), 4))
        W[0] = expm(aug * grid[0]) @ np.concatenate([x0, z0])
        step_t = expm(aug * h).T
        done = 1
        while done < len(grid):
            take = min(done, len(grid) - done)
            W[done:done + take] = W[:take] @ step_t
            done += take
            step_t = step_t @ step_t
        expm_calls = _count_calls(monkeypatch, scipy.linalg, "expm")
        traj = simulate(ss, x0, u, grid)
        assert len(expm_calls) == 2
        assert_array_equal(traj.states, W[:, :2])
        assert_array_equal(traj.outputs, W[:, :2] @ ss.C)

    @pytest.mark.parametrize(
        "grid", [default_grid(30.0, 10_000), np.geomspace(1e-3, 30.0, 300)], ids=["default-10k", "geomspace"]
    )
    def test_columns_match_row_reference(self, grid):
        # samples are stepped as columns; a row-layout reference (doubling by
        # the transposed step on the uniform grid, one expm per step on the
        # other) and a contiguous copy of its states give the same bits
        ss = observable_canonical(LinearODE([6.0, 5.0], [2.0, 1.0, 1.0]))
        assert ss.D != 0.0
        u = signal_sum(Signal.cosine(1.3), Signal.ramp())
        x0 = np.array([0.7, -1.2])
        J, z0 = _input_generator(u)
        k = len(z0)
        aug = np.zeros((2 + k, 2 + k))
        aug[:2, :2] = ss.A
        aug[:2, 2] = ss.B
        aug[2:, 2:] = J
        w0 = np.concatenate([x0, z0])
        W = np.empty((len(grid), 2 + k))
        h = _uniform_step(grid)
        if h is None:
            W[0] = expm(aug * grid[0]) @ w0
            for i in range(1, len(grid)):
                W[i] = expm(aug * (grid[i] - grid[i - 1])) @ W[i - 1]
        else:
            assert grid[0] == h
            step = expm(aug * h)
            W[0] = step @ w0
            step_t = step.T
            done = 1
            while done < len(grid):
                take = min(done, len(grid) - done)
                W[done:done + take] = W[:take] @ step_t
                done += take
                step_t = step_t @ step_t
        states = np.ascontiguousarray(W[:, :2])
        outputs = states @ ss.C
        outputs += ss.D * u(grid)
        traj = simulate(ss, x0, u, grid)
        assert_array_equal(traj.states, states)
        assert_array_equal(traj.outputs, outputs)

    def test_states_are_a_view(self):
        ss = observable_canonical(LinearODE([6.0, 5.0], [2.0, 1.0, 1.0]))
        grid = default_grid(3.0, 1000)
        traj = simulate(ss, [0.5, -0.5], signal_sum(Signal.cosine(2.0), Signal.ramp()), grid)
        assert traj.states.shape == (1000, 2)
        assert traj.states.base is not None
        copied = Trajectory(traj.times, np.ascontiguousarray(traj.states), traj.outputs)
        assert traj.csv_text() == copied.csv_text()

    def test_input_not_evaluated_without_feedthrough(self, monkeypatch):
        u = signal_sum(Signal.cosine(2.0), Signal.ramp())
        ss = observable_canonical(EX1)
        assert ss.D == 0.0
        grid = default_grid(3.0, 1000)
        u_calls = _count_calls(monkeypatch, Signal, "__call__")
        traj = simulate(ss, [0.5, -0.5], u, grid)
        assert not u_calls
        # equal as floats to the output with the zero feedthrough added
        assert_array_equal(traj.outputs, traj.states @ ss.C + ss.D * u(grid))


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        g = default_grid(3.0)
        assert len(g) == 200
        assert g[0] == pytest.approx(3.0 / 200.0)
        assert g[-1] == pytest.approx(3.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            default_grid(0.0)
        with pytest.raises(ValueError):
            default_grid(1.0, points=0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="horizon"):
                default_grid(bad)


class TestSimulateIVP:
    def test_matches_closed_form(self):
        problem = IVProblem(
            ode=EX1,
            input=PiecewiseInput(Signal.ramp(), Signal.ramp()),
            conditions=ConditionPair.first([1.0, 0.0]),
            horizon=3.0,
        )
        traj = simulate_ivp(problem)
        ts = traj.times
        want = ts / 5.0 - (1.0 - np.exp(-5 * ts)) / 25.0 + (np.exp(-ts) - np.exp(-5 * ts)) / 4.0
        assert np.max(np.abs(traj.outputs - want)) <= 1e-6

    def test_needs_grid_or_horizon(self):
        problem = IVProblem(
            ode=EX1,
            input=PiecewiseInput(Signal.zero(), Signal.zero()),
            conditions=ConditionPair.first([0.0, 0.0]),
        )
        with pytest.raises(ValueError):
            simulate_ivp(problem)

    def test_overflow_raises_naming_first_time(self, recwarn):
        # y'' - 4y' - 5y = u' + u under a step grows like e^(5t): the stepped
        # state passes the double range between t = 75 and t = 150
        problem = IVProblem(
            ode=LinearODE([-4.0, -5.0], [0.0, 1.0, 1.0]),
            input=PiecewiseInput.step(),
            conditions=ConditionPair.first([0.0, 0.0]),
        )
        with pytest.raises(ValueError, match=r"^trajectory overflows: first non-finite sample at t = 150$"):
            simulate_ivp(problem, default_grid(300.0, 4))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_agrees_with_transform_route(self):
        rng = np.random.default_rng(703)
        worst = 0.0
        for _ in range(40):
            ode = random_ode(rng, nmax=5)
            problem = IVProblem(
                ode=ode,
                input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
                conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
                horizon=3.0,
            )
            traj = simulate_ivp(problem)
            closed = solve_ivp(problem)(traj.times)
            gap = np.abs(traj.outputs - closed) / np.maximum(np.abs(closed), 1.0)
            worst = max(worst, np.max(gap))
        assert worst <= 1e-6


#: inputs whose generator has K >= 3 states, or a fast rate over a long horizon
LONG_INPUTS = {
    "t2_damped_cos": Signal([(0.5, 2, complex(-1.5, 0.5)), (0.5, 2, complex(-1.5, -0.5))]),
    "exp_plus_cubic": signal_sum(Signal.exponential(-8.0), Signal([(0.3, 3, 0.0)])),
    "cos_plus_exp": signal_sum(Signal.cosine(10.0), Signal.exponential(-5.0)),
    "cos50": Signal.cosine(50.0),
}
#: (poles, b): distinct poles, none at an input rate; the second has D != 0
DISTINCT_POLE_ODES = (
    ([-0.7], [0.0, 1.0]),
    ([-0.5, -3.0], [1.0, 0.0, 2.0]),
    ([-1.0, complex(-2.0, 1.0), complex(-2.0, -1.0)], [0.0, 1.0, 2.0, 3.0]),
    ([complex(-0.3, 2.0), complex(-0.3, -2.0), -1.5, -4.0], [0.0, 0.0, 0.0, 0.0, 1.0]),
)


def _long_input_cases():
    for name in LONG_INPUTS:
        for poles, b in DISTINCT_POLE_ODES:
            yield pytest.param(name, poles, b, id=f"{name}-n{len(poles)}")


class TestLongInputs:
    @pytest.mark.parametrize("name", LONG_INPUTS)
    def test_generator_reproduces_input(self, name):
        u = LONG_INPUTS[name]
        J, z0 = _input_generator(u)
        assert J.dtype == z0.dtype == np.float64
        ts = np.linspace(0.0, 10.0, 41)
        got = np.array([(expm(J * t) @ z0)[0] for t in ts])
        want = u(ts)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("name,poles,b", _long_input_cases())
    def test_matches_closed_form(self, name, poles, b):
        ode = LinearODE(np.real(np.poly(poles))[1:], b)
        problem = IVProblem(
            ode=ode,
            input=PiecewiseInput(past=Signal.constant(1.0), future=LONG_INPUTS[name]),
            conditions=ConditionPair.previous(np.linspace(-1.0, 1.0, ode.n)),
            horizon=10.0,
        )
        traj = simulate_ivp(problem)
        closed = solve_ivp(problem)(traj.times)
        assert np.all(np.abs(traj.outputs - closed) <= 1e-8 + 1e-6 * np.abs(closed))


#: values whose %.17g text is easy to get wrong: signed zeros, subnormals,
#: the largest finite doubles, and integers from 1e16 up, where %.17g
#: switches to exponent form
CSV_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e16, -1e16, 1e16 + 2.0, 99999999999999999.0, 123456789012345678.0, 2.0**63,
]
CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(CSV_EDGES),
    st.integers(10**16, 10**20).map(float),
    st.integers(-(10**20), -(10**16)).map(float),
)


@st.composite
def trajectories(draw):
    """A Trajectory of N = 1..50 samples of an order n = 1..6 plant."""
    n = draw(st.integers(1, 6))
    N = draw(st.integers(1, 50))
    values = draw(st.lists(CSV_VALUES, min_size=N * (n + 2), max_size=N * (n + 2)))
    block = np.array(values).reshape(N, n + 2)
    return Trajectory(block[:, 0].copy(), block[:, 2:], block[:, 1].copy())


class TestTrajectoryCSV:
    @given(trajectories())
    @example(Trajectory(np.array(CSV_EDGES), np.array([CSV_EDGES[::-1], CSV_EDGES]).T, -np.array(CSV_EDGES)))
    def test_bytes_match_per_value_formatting(self, traj):
        assert traj.csv_text() == csv_reference(traj.times, traj.outputs, traj.states)

    def test_header_and_roundtrip(self):
        traj = simulate_ivp(
            IVProblem(
                ode=EX1,
                input=PiecewiseInput(Signal.ramp(), Signal.ramp()),
                conditions=ConditionPair.first([1.0, 0.0]),
            ),
            grid=np.linspace(0.1, 1.0, 10),
        )
        text = traj.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,y,x1,x2"
        assert len(lines) == 11
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert_allclose(data[:, 0], traj.times, rtol=0, atol=0)
        assert_allclose(data[:, 1], traj.outputs, rtol=0, atol=0)
        assert_allclose(data[:, 2:], traj.states, rtol=0, atol=0)
