import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltivp.errors import NotStrictlyProper
from ltivp.ic import ConditionPair, map_previous_to_first
from ltivp.laplace import (
    IVProblem,
    assemble,
    first_conditions,
    invert,
    solution_transform,
    solve_ivp,
)
from ltivp.ode import LinearODE
from ltivp.poly import Polynomial, RationalFunction
from ltivp.realization import StateSpace
from ltivp.signal import PiecewiseInput, Signal, condition_stack, laplace_transform
from ltivp.simulate import simulate_ivp

from conftest import random_ode, random_signal

EX1 = LinearODE([6.0, 5.0], [0.0, 1.0, 1.0])
EX2 = LinearODE([6.0, 5.0], [1.0, 3.0, 2.0])

#: transform of the switch example: G(s)/s^2 plus the condition term
#: (-s-2)/A(s), over s^2 A(s)
SWITCH_YS = RationalFunction(
    Polynomial([2.0, 3.0, -1.0, -1.0]), Polynomial([0.0, 0.0, 5.0, 6.0, 1.0])
)

RAMP_US = RationalFunction(Polynomial.one(), Polynomial([0.0, 0.0, 1.0]))


def switch_problem(kind="previous"):
    conditions = (
        ConditionPair.previous([1.0, 0.0])
        if kind == "previous"
        else ConditionPair.first([5.0, -1.0])
    )
    return IVProblem(
        ode=EX2,
        input=PiecewiseInput(past=Signal.cosine(1.0), future=Signal.ramp()),
        conditions=conditions,
        horizon=3.0,
    )


def _problem_with(signal_input=None, horizon=3.0):
    return IVProblem(
        ode=EX2,
        input=signal_input or PiecewiseInput(Signal.cosine(1.0), Signal.ramp()),
        conditions=ConditionPair.previous([1.0, 0.0]),
        horizon=horizon,
    )


NON_FINITE = {
    "a": lambda: LinearODE([6.0, np.nan], [1.0, 3.0, 2.0]),
    "b": lambda: LinearODE([6.0, 5.0], [1.0, np.inf, 2.0]),
    # built in Python, this stack used to reach solve_ivp and come back as NaN
    "y": lambda: ConditionPair.previous([np.nan, 0.0]),
    "A": lambda: StateSpace([[0.0, -np.inf], [1.0, -6.0]], [1.0, 1.0], [0.0, 1.0], 0.0),
    "B": lambda: StateSpace([[0.0, -5.0], [1.0, -6.0]], [np.nan, 1.0], [0.0, 1.0], 0.0),
    "C": lambda: StateSpace([[0.0, -5.0], [1.0, -6.0]], [1.0, 1.0], [0.0, -np.inf], 0.0),
    "D": lambda: StateSpace([[0.0, -5.0], [1.0, -6.0]], [1.0, 1.0], [0.0, 1.0], np.nan),
    "horizon": lambda: _problem_with(horizon=np.inf),
    "input.past": lambda: _problem_with(PiecewiseInput(Signal.cosine(1.0, np.nan), Signal.ramp())),
    "input.future": lambda: _problem_with(
        PiecewiseInput(Signal.cosine(1.0), Signal.exponential(-np.inf))
    ),
}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_data_rejected(field):
    with pytest.raises(ValueError, match=rf"^{field}[: ]") as info:
        NON_FINITE[field]()
    assert "\n" not in str(info.value)


def test_non_finite_frequency_reaches_the_field_check():
    # a NaN rate is neither real nor above nor below the axis: Signal keeps
    # the modes rather than dropping them, so the problem can name the field
    with pytest.raises(ValueError, match=r"^input\.past: "):
        _problem_with(PiecewiseInput(Signal.cosine(np.nan), Signal.ramp()))


class TestAssemble:
    def test_first_form_reproduces_known_transform(self):
        Ys = assemble(EX2, RAMP_US, [5.0, -1.0], [1.0, 0.0])
        assert Ys.max_cross_error(SWITCH_YS) <= 1e-9

    def test_previous_form_same_transform(self):
        Ys = assemble(EX2, RAMP_US, [1.0, 0.0], [0.0, 1.0])
        assert Ys.max_cross_error(SWITCH_YS) <= 1e-9

    def test_zero_everything(self):
        Ys = assemble(EX2, laplace_transform(Signal.zero()), [0.0, 0.0], [0.0, 0.0])
        assert Ys.num.is_zero

    def test_stack_length_validation(self):
        with pytest.raises(ValueError):
            assemble(EX2, RAMP_US, [1.0], [0.0, 1.0])


class TestInvert:
    def test_two_pole_difference(self):
        # 1/((s+1)(s+5)) -> (e^{-t} - e^{-5t})/4
        y = invert(RationalFunction(Polynomial.one(), Polynomial([5.0, 6.0, 1.0])))
        ts = np.linspace(0, 3, 40)
        assert_allclose(y(ts), (np.exp(-ts) - np.exp(-5 * ts)) / 4.0, atol=1e-12)

    def test_double_pole(self):
        y = invert(RationalFunction(Polynomial.one(), Polynomial([0.0, 0.0, 1.0])))
        assert_allclose(y(2.5), 2.5, atol=1e-12)

    def test_condition_term(self):
        # (-s-2)/(s^2+6s+5) -> -(1/4)e^{-t} - (3/4)e^{-5t}
        y = invert(RationalFunction(Polynomial([-2.0, -1.0]), Polynomial([5.0, 6.0, 1.0])))
        ts = np.linspace(0, 3, 40)
        assert_allclose(y(ts), -0.25 * np.exp(-ts) - 0.75 * np.exp(-5 * ts), atol=1e-12)

    def test_improper_raises(self):
        with pytest.raises(NotStrictlyProper):
            invert(RationalFunction(Polynomial([1.0, 1.0]), Polynomial([1.0, 1.0])))


class TestSolveIVP:
    def test_ramp_golden(self):
        problem = IVProblem(
            ode=EX1,
            input=PiecewiseInput.smooth(Signal.ramp()),
            conditions=ConditionPair.first([1.0, 0.0]),
            horizon=3.0,
        )
        y = solve_ivp(problem)
        ts = np.linspace(0.0, 3.0, 100)
        want = ts / 5.0 - (1.0 - np.exp(-5 * ts)) / 25.0 + (np.exp(-ts) - np.exp(-5 * ts)) / 4.0
        assert np.max(np.abs(y(ts) - want)) <= 1e-9

    def test_switch_golden_previous_form(self):
        y = solve_ivp(switch_problem("previous"))
        ts = np.linspace(0.0, 3.0, 100)
        want = 3.0 / 25.0 + 0.4 * ts - (3.0 / 25.0) * np.exp(-5 * ts) - 0.25 * np.exp(-ts) - 0.75 * np.exp(-5 * ts)
        assert np.max(np.abs(y(ts) - want)) <= 1e-9

    def test_switch_same_result_first_form(self):
        ts = np.linspace(0.0, 3.0, 60)
        y_prev = solve_ivp(switch_problem("previous"))
        y_first = solve_ivp(switch_problem("first"))
        assert_allclose(y_prev(ts), y_first(ts), atol=1e-10)

    @pytest.mark.parametrize("n, gap", [(3, 1e-5), (4, 1e-5), (5, 1e-6)])
    def test_near_repeated_pole_matches_state_space(self, n, gap):
        # two poles `gap` apart: the partial-fraction coefficients must come
        # from the root differences, or they lose most of their digits
        rng = np.random.default_rng(5)
        poles = list(np.linspace(-3.0, -0.5, n - 1)) + [-0.5 - gap]
        problem = IVProblem(
            ode=LinearODE(np.real(np.poly(poles))[1:], rng.uniform(-2.0, 2.0, n + 1)),
            input=PiecewiseInput(Signal.cosine(1.0), Signal.ramp()),
            conditions=ConditionPair.previous(rng.uniform(-2.0, 2.0, n)),
            horizon=10.0,
        )
        ts = np.linspace(0.2, 10.0, 50)
        closed = solve_ivp(problem)(ts)
        sim = simulate_ivp(problem, ts).outputs
        assert np.all(np.abs(closed - sim) <= 1e-8 + 1e-6 * np.abs(closed))

    def test_rest_with_zero_input(self):
        problem = IVProblem(
            ode=EX1,
            input=PiecewiseInput.smooth(Signal.zero()),
            conditions=ConditionPair.previous([0.0, 0.0]),
        )
        assert solve_ivp(problem).is_zero

    def test_solution_starts_at_first_conditions(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(50):
            ode = random_ode(rng, nmax=5)
            problem = IVProblem(
                ode=ode,
                input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
                conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
            )
            y = solve_ivp(problem)
            y_first, _ = first_conditions(problem)
            got = condition_stack(y, ode.n)
            worst = max(worst, np.max(np.abs(got - y_first)))
        assert worst <= 1e-8

    def test_superposition(self):
        rng = np.random.default_rng(607)
        ode = EX2
        ts = np.linspace(0.0, 3.0, 30)
        for _ in range(10):
            ya, ua = rng.uniform(-2, 2, 2), random_signal(rng)
            yb, ub = rng.uniform(-2, 2, 2), random_signal(rng)
            pa = IVProblem(ode=ode, input=PiecewiseInput.smooth(ua), conditions=ConditionPair.first(ya))
            pb = IVProblem(ode=ode, input=PiecewiseInput.smooth(ub), conditions=ConditionPair.first(yb))
            pc = IVProblem(
                ode=ode,
                input=PiecewiseInput.smooth(ua + ub),
                conditions=ConditionPair.first(ya + yb),
            )
            assert_allclose(
                solve_ivp(pc)(ts), solve_ivp(pa)(ts) + solve_ivp(pb)(ts), atol=1e-9
            )

    def test_assembled_transform_strictly_proper(self):
        rng = np.random.default_rng(608)
        for _ in range(50):
            ode = random_ode(rng, nmax=5)
            Ys = assemble(
                ode,
                laplace_transform(random_signal(rng)),
                rng.uniform(-2, 2, ode.n),
                rng.uniform(-2, 2, ode.n),
            )
            assert Ys.num.degree < Ys.den.degree


def test_interchangeability_random():
    """Previous-form and first-form stacks assemble the same transform."""
    rng = np.random.default_rng(609)
    worst = 0.0
    for _ in range(60):
        ode = random_ode(rng, nmax=5)
        n = ode.n
        y_prev = rng.uniform(-3, 3, n)
        u_prev = rng.uniform(-3, 3, n)
        u_first = rng.uniform(-3, 3, n)
        Us = laplace_transform(random_signal(rng))
        y_first = map_previous_to_first(ode, y_prev, u_prev, u_first)
        gap = assemble(ode, Us, y_prev, u_prev).max_cross_error(
            assemble(ode, Us, y_first, u_first)
        )
        worst = max(worst, gap)
    assert worst <= 1e-8


def test_solution_satisfies_ode():
    """Substituting y back into the equation reproduces the input side."""
    rng = np.random.default_rng(610)
    ts = np.linspace(3.0 / 50.0, 3.0, 50)
    for _ in range(30):
        ode = random_ode(rng, nmax=4)
        problem = IVProblem(
            ode=ode,
            input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
            conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
        )
        y = solve_ivp(problem)
        lhs = _apply_side(y, np.concatenate(([1.0], ode.a)), ts)
        rhs = _apply_side(problem.input.future, ode.b, ts)
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-6


def _apply_side(signal, coeffs, ts):
    """coeffs[0] x^{(k)} + ... + coeffs[k] x evaluated on the grid."""
    derivs = [signal]
    for _ in range(len(coeffs) - 1):
        derivs.append(derivs[-1].derivative())
    total = np.zeros_like(ts)
    for c, k in zip(coeffs, range(len(coeffs) - 1, -1, -1)):
        if c != 0.0:
            total += c * derivs[k](ts)
    return total


def test_mapped_transform_printable_pieces():
    Ys = solution_transform(switch_problem("previous"))
    assert (Ys.num.coeffs, Ys.den.coeffs) == ((2.0, 3.0, -1.0, -1.0), (0.0, 0.0, 5.0, 6.0, 1.0))
    assert str(Ys) == "(-s^3 - s^2 + 3 s + 2) / (s^4 + 6 s^3 + 5 s^2)"
