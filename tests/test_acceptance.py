"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line with the measured figure next to its
threshold, then asserts.  Run with plain `pytest`; the lines are emitted
outside capture so they show up in the terminal either way.
"""

import time

import numpy as np

from ltivp.ic import (
    ConditionPair,
    classify_continuity,
    map_previous_to_first,
    recover_state,
)
from ltivp.laplace import IVProblem, assemble, solve_ivp
from ltivp.ode import LinearODE, ic_vectors, transfer_function
from ltivp.poly import Polynomial, RationalFunction
from ltivp.realization import (
    check_equivalence,
    markov_matrix,
    markov_parameters,
    observability_matrix,
    observable_canonical,
    ss_markov_parameters,
)
from ltivp.signal import PiecewiseInput, Signal, laplace_transform
from ltivp.simulate import default_grid, simulate_ivp

from conftest import random_ode, random_signal

RAMP_ODE = LinearODE([6.0, 5.0], [0.0, 1.0, 1.0])
SWITCH_ODE = LinearODE([6.0, 5.0], [1.0, 3.0, 2.0])
REST_ODE = LinearODE([5.0, 6.0], [0.0, 1.0, 1.0])

#: G(s)/s^2 plus the condition term (-s-2)/A(s), over s^2 A(s)
SWITCH_YS = RationalFunction(
    Polynomial([2.0, 3.0, -1.0, -1.0]), Polynomial([0.0, 0.0, 5.0, 6.0, 1.0])
)


def report(capfd, number: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)


def ramp_closed_form(ts):
    return ts / 5.0 - (1.0 - np.exp(-5 * ts)) / 25.0 + (np.exp(-ts) - np.exp(-5 * ts)) / 4.0


def test_criterion_1_ramp_example(capfd):
    ts = np.linspace(0.0, 3.0, 100)
    start = time.perf_counter()
    y = solve_ivp(
        IVProblem(
            ode=RAMP_ODE,
            input=PiecewiseInput.smooth(Signal.ramp()),
            conditions=ConditionPair.first([1.0, 0.0]),
        )
    )
    err = float(np.max(np.abs(y(ts) - ramp_closed_form(ts))))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-9 and elapsed < 1.0
    report(
        capfd, 1, ok,
        f"ramp example closed form, max error {err:.2e} (tol 1e-9), {elapsed:.3f} s (limit 1 s)",
    )
    assert ok


def test_criterion_2_condition_mapping(capfd):
    y_first = map_previous_to_first(SWITCH_ODE, [1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    map_err = float(np.max(np.abs(y_first - np.array([5.0, -1.0]))))
    Us = RationalFunction(Polynomial.one(), Polynomial([0.0, 0.0, 1.0]))
    ys_err = assemble(SWITCH_ODE, transfer_function(SWITCH_ODE), Us, y_first, [1.0, 0.0]).max_cross_error(SWITCH_YS)
    ok = map_err <= 1e-12 and ys_err <= 1e-9
    report(
        capfd, 2, ok,
        f"switch example mapping, stack error {map_err:.2e} (tol 1e-12), "
        f"transform error {ys_err:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_3_condition_form_interchangeability(capfd):
    rng = np.random.default_rng(2026)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(300):
        ode = random_ode(rng, nmax=5)
        n = ode.n
        y_prev = rng.uniform(-3, 3, n)
        u_prev = rng.uniform(-3, 3, n)
        u_first = rng.uniform(-3, 3, n)
        Us = laplace_transform(random_signal(rng))
        y_first = map_previous_to_first(ode, y_prev, u_prev, u_first)
        G = transfer_function(ode)
        gap = assemble(ode, G, Us, y_prev, u_prev).max_cross_error(
            assemble(ode, G, Us, y_first, u_first)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        capfd, 3, ok,
        f"both condition forms, 300 systems, worst transform gap {worst:.2e} (tol 1e-8), "
        f"{elapsed:.2f} s (limit 10 s)",
    )
    assert ok


def test_criterion_4_stack_vector_identity(capfd):
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(200):
        ode = random_ode(rng, nmax=8)
        V_y, V_u = ic_vectors(ode)
        worst = max(worst, float(np.max(np.abs(V_y @ markov_matrix(ode) - V_u))))
    ok = worst <= 1e-9
    report(
        capfd, 4, ok,
        f"condition-vector/Markov identity, 200 systems up to n=8, "
        f"worst coefficient gap {worst:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_5_oracle_agreement(capfd):
    rng = np.random.default_rng(2028)
    grid = default_grid(3.0, 200)
    worst = 0.0
    for _ in range(100):
        ode = random_ode(rng, nmax=5)
        problem = IVProblem(
            ode=ode,
            input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
            conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
        )
        closed = solve_ivp(problem)(grid)
        sim = simulate_ivp(problem, grid).outputs
        ratio = np.abs(sim - closed) / (1e-8 + 1e-6 * np.abs(closed))
        worst = max(worst, float(np.max(ratio)))
    ok = worst <= 1.0
    report(
        capfd, 5, ok,
        f"transform route vs state-space oracle, 100 problems x 200 points, "
        f"worst gap / (1e-8 + 1e-6 |y|) {worst:.2e} (must be <= 1)",
    )
    assert ok


def test_criterion_6_realization(capfd):
    ss = observable_canonical(RAMP_ODE)
    exact = (
        np.array_equal(ss.A, [[0.0, -5.0], [1.0, -6.0]])
        and np.array_equal(ss.B, [1.0, 1.0])
        and np.array_equal(ss.C, [0.0, 1.0])
        and ss.D == 0.0
    )
    rng = np.random.default_rng(2029)
    worst_tf = 0.0
    worst_markov = 0.0
    for _ in range(100):
        ode = random_ode(rng, nmax=5)
        ss_r = observable_canonical(ode)
        worst_tf = max(worst_tf, check_equivalence(ode, ss_r).transfer_error)
        worst_markov = max(
            worst_markov,
            float(
                np.max(
                    np.abs(
                        markov_parameters(ode, ode.n + 3)
                        - ss_markov_parameters(ss_r, ode.n + 3)
                    )
                )
            ),
        )
    ok = exact and worst_tf <= 1e-9 and worst_markov <= 1e-9
    report(
        capfd, 6, ok,
        f"canonical realization, example matrices exact: {'yes' if exact else 'no'}, "
        f"worst transfer gap {worst_tf:.2e}, worst Markov gap {worst_markov:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_7_step_jump_propagation(capfd):
    rng = np.random.default_rng(2030)
    worst_bottom = 0.0
    worst_entry = 0.0
    for _ in range(150):
        n = int(rng.integers(1, 6))
        r = int(rng.integers(0, n + 1))
        ode = _ode_with_relative_degree(rng, n, r)
        du = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        jump = np.zeros(n)
        jump[-1] = du
        spread = markov_matrix(ode) @ jump
        if r > 0:
            worst_bottom = max(worst_bottom, float(np.max(np.abs(spread[n - r:]))))
        if r < n:
            h_r = markov_parameters(ode, r + 1)[r]
            worst_entry = max(worst_entry, abs(spread[n - 1 - r] - h_r * du))
    intro = classify_continuity(REST_ODE, [0.0, 1.0])
    spoiler = (
        intro.entries[0].continuous
        and not intro.entries[1].continuous
        and abs(intro.entries[1].jump - 1.0) <= 1e-12
    )
    ok = worst_bottom <= 1e-9 and worst_entry <= 1e-9 and spoiler
    report(
        capfd, 7, ok,
        f"step-jump propagation, bottom-entry residual {worst_bottom:.2e}, "
        f"h_r entry residual {worst_entry:.2e} (tol 1e-9), "
        f"intro spoiler reproduced: {'yes' if spoiler else 'no'}",
    )
    assert ok


def test_criterion_8_state_recovery(capfd):
    ss = observable_canonical(RAMP_ODE)
    x = recover_state(ss, [1.0, 0.0], [1.0, 0.0])
    example_err = float(np.max(np.abs(x - np.array([1.0, 0.0]))))
    rng = np.random.default_rng(2031)
    worst = 0.0
    for _ in range(100):
        ode = random_ode(rng, nmax=5)
        ss_r = observable_canonical(ode)
        x0 = rng.uniform(-3, 3, ode.n)
        u = rng.uniform(-3, 3, ode.n)
        y = observability_matrix(ss_r) @ x0 + markov_matrix(ode) @ u
        worst = max(worst, float(np.max(np.abs(recover_state(ss_r, y, u) - x0))))
    ok = example_err <= 1e-12 and worst <= 1e-9
    report(
        capfd, 8, ok,
        f"state recovery, example error {example_err:.2e} (tol 1e-12), "
        f"round-trip error {worst:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_9_solution_satisfies_equation(capfd):
    rng = np.random.default_rng(2032)
    ts = np.linspace(3.0 / 50.0, 3.0, 50)
    worst = 0.0
    for _ in range(50):
        ode = random_ode(rng, nmax=5)
        problem = IVProblem(
            ode=ode,
            input=PiecewiseInput(past=random_signal(rng), future=random_signal(rng)),
            conditions=ConditionPair.previous(rng.uniform(-2, 2, ode.n)),
        )
        y = solve_ivp(problem)
        lhs = _apply_side(y, np.concatenate(([1.0], ode.a)), ts)
        rhs = _apply_side(problem.input.future, ode.b, ts)
        gap = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)
        worst = max(worst, float(np.max(gap)))
    ok = worst <= 1e-6
    report(
        capfd, 9, ok,
        f"solutions substituted back into the equation, 50 problems x 50 points, "
        f"worst relative residual {worst:.2e} (tol 1e-6)",
    )
    assert ok


def _ode_with_relative_degree(rng, n: int, r: int) -> LinearODE:
    a = np.poly(rng.uniform(-3.0, -0.3, n))[1:]
    b = np.zeros(n + 1)
    b[r:] = rng.uniform(0.5, 3.0, n + 1 - r) * rng.choice([-1.0, 1.0], n + 1 - r)
    return LinearODE(a, b)


def _apply_side(signal, coeffs, ts):
    derivs = [signal]
    for _ in range(len(coeffs) - 1):
        derivs.append(derivs[-1].derivative())
    total = np.zeros_like(ts)
    for c, k in zip(coeffs, range(len(coeffs) - 1, -1, -1)):
        if c != 0.0:
            total += c * derivs[k](ts)
    return total
