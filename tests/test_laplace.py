import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ltivp import poly
from ltivp.cli import main
from ltivp.ic import ConditionPair, map_previous_to_first
from ltivp.laplace import (
    IVProblem,
    assemble,
    closed_form,
    first_conditions,
    solve_ivp,
)
from ltivp.ode import LinearODE, transfer_function
from ltivp.poly import Polynomial, RationalFunction, partial_fractions, poly_roots
from ltivp.problemfile import parse_signal_spec
from ltivp.realization import StateSpace
from ltivp.signal import PiecewiseInput, Signal, condition_stack, from_partial_fractions, laplace_transform
from ltivp.simulate import simulate_ivp

from conftest import apply_side, cross_error, ic_vectors, random_ode, random_signal, signal_scaled, signal_sum

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
    # an input segment is rejected by its Signal, which names the mode; a
    # problem file adds the field
    start = "mode" if field.startswith("input.") else field
    with pytest.raises(ValueError, match=rf"^{start}[: ]") as info:
        NON_FINITE[field]()
    assert "\n" not in str(info.value)


def test_non_finite_frequency_reaches_the_field_check():
    # a NaN frequency never reaches IVProblem: Signal rejects the rate, and a
    # problem file rejects the number first, naming the field
    for build in (Signal.cosine, Signal.sine):
        with pytest.raises(ValueError, match=r"^mode .* has a non-finite rate$"):
            PiecewiseInput(Signal.ramp(), build(np.nan))
    for field, spec in (("input.past", "cos nan"), ("input.future", "sin nan")):
        with pytest.raises(ValueError, match=rf"^{field}: expected a finite number, got nan$"):
            parse_signal_spec(spec, field)


def test_overflowing_closed_form_raises():
    # finite data whose transform overflows: Y(s) = inf / (s^3 + 3 s^2 + 2 s)
    problem = IVProblem(
        LinearODE([3.0, 2.0], [0.0, 0.0, 1e308]),
        PiecewiseInput(Signal.zero(), Signal.constant(1e308)),
        ConditionPair.first([0.0, 0.0]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported once, by Signal, not warned about first
        with pytest.raises(ValueError, match=r"^mode .* has non-finite amplitude"):
            solve_ivp(problem)


def assemble_by_columns(ode, Us, y_stack, u_stack):
    """`assemble` with V_y Y - V_u U summed as whole columns of numpy arrays."""
    V_y, V_u = ic_vectors(ode)
    ic_num = np.zeros(ode.n)
    for j in range(ode.n):
        ic_num += V_y[:, j] * y_stack[j]
        ic_num -= V_u[:, j] * u_stack[j]
    G = transfer_function(ode)
    return RationalFunction(G.num * Us.num + Polynomial(ic_num) * Us.den, G.den * Us.den)


@st.composite
def assemble_inputs(draw):
    n = draw(st.integers(1, 16))
    # signed zeros are common draws: rest conditions and zero coefficients
    value = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0]))
    values = st.lists(value, min_size=n, max_size=n)
    b = draw(st.lists(value, min_size=n + 1, max_size=n + 1).filter(any))
    Us = draw(st.sampled_from([RAMP_US, laplace_transform(Signal.zero()), laplace_transform(Signal.cosine(2.0))]))
    return LinearODE(draw(values), b), Us, draw(values), draw(values)


class TestAssemble:
    @settings(max_examples=300)
    @given(assemble_inputs())
    def test_matches_column_form(self, args):
        ode, Us, y, u = args
        got = assemble(ode, transfer_function(ode), Us, y, u)
        # repr pins every coefficient, the sign of a zero included
        assert repr(got) == repr(assemble_by_columns(ode, Us, y, u))

    def test_first_form_reproduces_known_transform(self):
        Ys = assemble(EX2, transfer_function(EX2), RAMP_US, [5.0, -1.0], [1.0, 0.0])
        assert cross_error(Ys, SWITCH_YS) <= 1e-9

    def test_previous_form_same_transform(self):
        Ys = assemble(EX2, transfer_function(EX2), RAMP_US, [1.0, 0.0], [0.0, 1.0])
        assert cross_error(Ys, SWITCH_YS) <= 1e-9

    def test_zero_everything(self):
        Ys = assemble(EX2, transfer_function(EX2), laplace_transform(Signal.zero()), [0.0, 0.0], [0.0, 0.0])
        assert Ys.num.is_zero

    def test_stack_length_validation(self):
        with pytest.raises(ValueError):
            assemble(EX2, transfer_function(EX2), RAMP_US, [1.0], [0.0, 1.0])


def invert(rf: RationalFunction) -> Signal:
    """Inverse transform over the root-found poles of the whole denominator."""
    return from_partial_fractions(partial_fractions(rf, poly_roots(rf.den)))


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
        with pytest.raises(ValueError, match="polynomial part"):
            invert(RationalFunction(Polynomial([1.0, 1.0]), Polynomial([1.0, 1.0])))


class TestSolveIVP:
    def test_ramp_golden(self):
        problem = IVProblem(
            ode=EX1,
            input=PiecewiseInput(Signal.ramp(), Signal.ramp()),
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

    def test_transfer_function_formed_once(self, monkeypatch, capsys):
        # A(s) is formed once per solve, by the library and by `ltivp solve`
        from ltivp import laplace

        problem = switch_problem("previous")
        calls = []
        monkeypatch.setattr(laplace, "transfer_function", lambda ode: calls.append(ode) or transfer_function(ode))
        solve_ivp(problem)
        assert calls == [problem.ode]
        calls.clear()
        assert main(["solve", "problems/input_switch.json"]) == 0
        assert capsys.readouterr().err == ""
        assert len(calls) == 1

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
            input=PiecewiseInput(Signal.zero(), Signal.zero()),
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
            pa = IVProblem(ode=ode, input=PiecewiseInput(ua, ua), conditions=ConditionPair.first(ya))
            pb = IVProblem(ode=ode, input=PiecewiseInput(ub, ub), conditions=ConditionPair.first(yb))
            uc = signal_sum(ua, ub)
            pc = IVProblem(ode=ode, input=PiecewiseInput(uc, uc), conditions=ConditionPair.first(ya + yb))
            assert_allclose(
                solve_ivp(pc)(ts), solve_ivp(pa)(ts) + solve_ivp(pb)(ts), atol=1e-9
            )

    def test_assembled_transform_strictly_proper(self):
        rng = np.random.default_rng(608)
        for _ in range(50):
            ode = random_ode(rng, nmax=5)
            Ys = assemble(
                ode,
                transfer_function(ode),
                laplace_transform(random_signal(rng)),
                rng.uniform(-2, 2, ode.n),
                rng.uniform(-2, 2, ode.n),
            )
            assert Ys.num.degree < Ys.den.degree


def route_gap(problem: IVProblem, ts) -> float:
    """Largest |closed form - state space| on ts, in units of 1e-8 + 1e-6 |y|."""
    closed = solve_ivp(problem)(ts)
    sim = simulate_ivp(problem, ts).outputs
    return float(np.max(np.abs(closed - sim) / (1e-8 + 1e-6 * np.abs(closed))))


#: a double pole pair at -1 +- i driven by t^2 e^(-1.5t) cos(0.5t), whose
#: transform has a triple pole pair: root-finding the whole degree-10
#: denominator split both into simple roots, 13.5x the route tolerance off
DOUBLE_PAIR = IVProblem(
    ode=LinearODE([4.0, 8.0, 8.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
    input=PiecewiseInput(
        Signal.zero(), Signal([(0.5, 2, complex(-1.5, 0.5)), (0.5, 2, complex(-1.5, -0.5))])
    ),
    conditions=ConditionPair.previous([1.0, -1.0, 1.0, -1.0]),
    horizon=5.0,
)


def from_rest(a, b, future: Signal) -> IVProblem:
    ode = LinearODE(a, b)
    return IVProblem(
        ode=ode,
        input=PiecewiseInput(Signal.zero(), future),
        conditions=ConditionPair.previous(np.zeros(ode.n)),
        horizon=8.0,
    )


class TestInputPoles:
    def test_double_pole_pair_with_triple_input_pair(self):
        assert route_gap(DOUBLE_PAIR, np.linspace(0.05, 5.0, 100)) <= 1.0

    def test_double_pole_pair_on_a_long_grid(self):
        # both routes sum pairs by angle addition on 5,000 uniform samples:
        # the closed form for y, the state-space route for the D u feedthrough
        assert route_gap(DOUBLE_PAIR, np.linspace(0.05, 5.0, 5_000)) <= 1.0

    def test_only_the_ode_denominator_is_root_found(self, monkeypatch):
        # the input's poles come from its signal, so every companion matrix
        # has n rows
        degrees = []
        roots = poly.poly_roots

        def recording(p, *args):
            degrees.append(p.degree)
            return roots(p, *args)

        monkeypatch.setattr(poly, "poly_roots", recording)
        rng = np.random.default_rng(611)
        problems = [DOUBLE_PAIR] + [
            IVProblem(
                ode=ode,
                input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
                conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
            )
            for ode in (random_ode(rng, nmax=5) for _ in range(20))
        ]
        for problem in problems:
            degrees.clear()
            solve_ivp(problem)
            assert degrees == [problem.ode.n]

    @pytest.mark.parametrize(
        "a, b, future, rates",
        [
            # e^-t into y' + y = u: y = t e^-t
            ([1.0], [0.0, 1.0], Signal.exponential(-1.0), {-1.0}),
            # cos t into y'' + y = u: y = t sin(t) / 2
            ([0.0, 1.0], [0.0, 0.0, 1.0], Signal.cosine(1.0), {1j, -1j}),
            # e^-t into a pole at -1 + 1e-8, within the merge radius
            ([1.0 - 1e-8], [0.0, 1.0], Signal.exponential(-1.0), {-1.0}),
        ],
        ids=["exponential", "cosine", "near-resonant"],
    )
    def test_resonance_matches_state_space(self, a, b, future, rates):
        problem = from_rest(a, b, future)
        assert {rate for _, _, rate in solve_ivp(problem).modes} == rates
        assert route_gap(problem, np.linspace(0.08, 8.0, 100)) <= 1.0


def test_pole_zero_cancellation_leaves_a_rounding_sized_mode():
    # B(s) = s + 2 cancels the root at -2 of A(s) = (s + 1)(s + 2)(s + 3);
    # every mode is kept, so one at -2 remains, of the size of the rounding
    # (its digits come from LAPACK, so they are not pinned)
    problem = from_rest([6.0, 11.0, 6.0], [0.0, 0.0, 1.0, 2.0], Signal.constant(1.0))
    y = solve_ivp(problem)
    assert route_gap(problem, np.linspace(0.08, 8.0, 100)) <= 1.0
    total = sum(abs(m.amp) for m in y.modes)
    cancelled = [m.amp for m in y.modes if abs(m.rate + 2.0) <= 1e-6]
    assert all(abs(amp) <= 1e3 * np.finfo(float).eps * total for amp in cancelled)


def test_underflowing_pole_product_raises():
    # the input's double poles at 0 and 1e-170 are distinct, but the squared
    # distance between them is below the smallest double: the closed form
    # raises naming the pole, and the state-space route stays finite
    problem = IVProblem(
        LinearODE([3, 2], [0, 0, 1]),
        PiecewiseInput(Signal.zero(), Signal([(1, 1, 0j), (-1, 1, 1e-170)])),
        ConditionPair.first([0, 0]),
    )
    with pytest.raises(ValueError, match=r"^pole 0j: the product of its distances to the other poles underflows to zero$"):
        solve_ivp(problem)
    traj = simulate_ivp(problem, np.linspace(0.1, 3.0, 30))
    assert np.all(np.isfinite(traj.outputs)) and np.all(np.isfinite(traj.states))


def random_problem(seed: int) -> IVProblem:
    """A `random_ode` with random past and future inputs and previous conditions."""
    rng = np.random.default_rng(seed)
    ode = random_ode(rng, nmax=5)
    return IVProblem(
        ode=ode,
        input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
        conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
        horizon=3.0,
    )


@given(problem=st.integers(0, 2**32 - 1).map(random_problem), k=st.integers(-60, 60))
@example(problem=switch_problem("previous"), k=-40)  # README's example
def test_amplitude_scaling_is_exact(problem, k):
    # both routes are linear in the conditions and the input, and scaling by
    # a power of two rounds nothing, so the results scale bit for bit
    c = 2.0**k
    scaled = IVProblem(
        ode=problem.ode,
        input=PiecewiseInput(signal_scaled(problem.input.past, c), signal_scaled(problem.input.future, c)),
        conditions=ConditionPair(problem.conditions.kind, problem.conditions.y * c),
        horizon=problem.horizon,
    )
    assert solve_ivp(scaled).modes == signal_scaled(solve_ivp(problem), c).modes
    assert np.array_equal(simulate_ivp(scaled).outputs, simulate_ivp(problem).outputs * c)


def time_scaled(problem: IVProblem, w: float) -> IVProblem:
    """The problem in the time unit 1/w, which z(t) = y(w t) solves.

    a_k and b_k gain a factor w^k, the j-th derivative in the conditions
    w^j, and each input mode amp t^p e^(rate t) becomes
    amp w^p t^p e^(w rate t).
    """
    n = problem.ode.n
    gain = np.array([w**k for k in range(n + 1)])

    def stretched(x: Signal) -> Signal:
        return Signal([(amp * w**power, power, w * rate) for amp, power, rate in x.modes])

    return IVProblem(
        ode=LinearODE(gain[1:] * problem.ode.a, gain * problem.ode.b),
        input=PiecewiseInput(stretched(problem.input.past), stretched(problem.input.future)),
        conditions=ConditionPair(problem.conditions.kind, gain[n - 1 :: -1] * problem.conditions.y),
    )


@pytest.mark.parametrize(
    "w",
    [
        1e-2,
        1e2,
        1e4,
        pytest.param(
            1e-4,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the merge radius is relative to 1 + |root|, a floor of 1 that roots "
                "about 1e-4 in size sit far under: distinct roots of A(s) merge, and the "
                "closed form misses or raises",
            ),
        ),
    ],
)
def test_time_scaling(w):
    ts = np.linspace(0.06, 3.0, 50)
    for seed in range(100):
        problem = random_problem(seed)
        y = solve_ivp(problem)(ts)
        z = solve_ivp(time_scaled(problem, w))(ts / w)
        assert np.all(np.abs(z - y) <= 1e-8 + 1e-6 * np.abs(y)), seed


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
        G = transfer_function(ode)
        gap = cross_error(assemble(ode, G, Us, y_prev, u_prev), assemble(ode, G, Us, y_first, u_first))
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
        lhs = apply_side(y, np.concatenate(([1.0], ode.a)), ts)
        rhs = apply_side(problem.input.future, ode.b, ts)
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-6


def test_mapped_transform_printable_pieces():
    Ys, _ = closed_form(switch_problem("previous"))
    assert (Ys.num.coeffs, Ys.den.coeffs) == ((2.0, 3.0, -1.0, -1.0), (0.0, 0.0, 5.0, 6.0, 1.0))
    assert str(Ys) == "(-s^3 - s^2 + 3 s + 2) / (s^4 + 6 s^3 + 5 s^2)"
