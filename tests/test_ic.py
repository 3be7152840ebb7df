import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltivp.errors import NotObservable
from ltivp.ic import (
    JUMP_TOL,
    ConditionPair,
    classify_continuity,
    map_previous_to_first,
    recover_state,
)
from ltivp.ode import LinearODE
from ltivp.realization import (
    StateSpace,
    markov_matrix,
    observability_matrix,
    observable_canonical,
)

from conftest import random_ode

EX1 = LinearODE([6.0, 5.0], [0.0, 1.0, 1.0])
EX2 = LinearODE([6.0, 5.0], [1.0, 3.0, 2.0])
INTRO = LinearODE([5.0, 6.0], [0.0, 1.0, 1.0])


class TestMapping:
    def test_worked_example(self):
        got = map_previous_to_first(EX2, [1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
        assert_allclose(got, [5.0, -1.0], atol=1e-13)

    def test_no_jump_is_identity(self):
        y = [0.3, -1.2, 4.0]
        ode = LinearODE([1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 2.0])
        u = [0.5, 1.5, -2.5]
        assert_allclose(map_previous_to_first(ode, y, u, u), y)

    def test_step_into_intro_example(self):
        # unit step from rest: only y' jumps
        got = map_previous_to_first(INTRO, [0.0, 0.0], [0.0, 0.0], [0.0, 1.0])
        assert_allclose(got, [1.0, 0.0])

    def test_affine_in_jump(self):
        rng = np.random.default_rng(33)
        ode = random_ode(rng, nmax=5)
        n = ode.n
        y = rng.uniform(-2, 2, n)
        u = rng.uniform(-2, 2, n)
        jump = rng.uniform(-2, 2, n)
        for alpha in (0.0, 0.5, 2.0, -3.0):
            got = map_previous_to_first(ode, y, u, u + alpha * jump)
            want = y + alpha * (markov_matrix(ode) @ jump)
            assert_allclose(got, want, atol=1e-12)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            map_previous_to_first(EX2, [1.0], [0.0, 1.0], [1.0, 0.0])

    def test_non_finite_result_raises(self):
        # M = [[1e308, -inf], [0, 1e308]] on finite coefficients
        ode = LinearODE([3.0, 2.0], [1e308, 1e308, 1e308])
        with pytest.raises(ValueError, match=r"^Y\(0\+\) overflows: Y\(0-\) \+ M \(U\(0\+\) - U\(0-\)\) is not finite$"):
            map_previous_to_first(ode, [0.0, 0.0], [0.0, 0.0], [1e200, 1.0])

    def test_overflow_raises_without_warning(self):
        # finite M and stacks: M dU = [1e308 - 3e308, 1e308], then + 1.7e308;
        # a RuntimeWarning on the way would fail the test
        with pytest.raises(ValueError, match=r"^Y\(0\+\) overflows"):
            map_previous_to_first(EX2, [0.0, 1.7e308], [0.0, 0.0], [0.0, 1e308])


class TestRecoverState:
    def test_worked_example(self):
        # ramp input: U(0) = [1, 0], M U = 0, so O x = Y(0)
        ss = observable_canonical(EX1)
        x0 = recover_state(ss, [1.0, 0.0], [1.0, 0.0])
        assert_allclose(x0, [1.0, 0.0], atol=1e-13)

    def test_zero_stacks(self):
        ss = observable_canonical(EX2)
        assert_allclose(recover_state(ss, [0.0, 0.0], [0.0, 0.0]), [0.0, 0.0])

    def test_overflowing_observability_matrix_raises(self):
        # C A^2 of the canonical realization holds 1e400: the ODE is named,
        # before any observability verdict, and no RuntimeWarning is given
        ss = observable_canonical(LinearODE([1e200, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=r"^ode: observability matrix overflows") as info:
            recover_state(ss, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert not isinstance(info.value, NotObservable)

    def test_round_trip_random(self):
        rng = np.random.default_rng(34)
        worst = 0.0
        for _ in range(100):
            ode = random_ode(rng, nmax=6)
            ss = observable_canonical(ode)
            x = rng.uniform(-3, 3, ode.n)
            u = rng.uniform(-3, 3, ode.n)
            y = observability_matrix(ss) @ x + _markov(ss) @ u
            worst = max(worst, np.max(np.abs(recover_state(ss, y, u) - x)))
        assert worst <= 1e-9

    def test_unobservable_raises(self):
        ss = StateSpace([[0.0, -5.0], [1.0, -6.0]], [1.0, 1.0], [0.0, 0.0], 0.0)
        with pytest.raises(NotObservable):
            recover_state(ss, [1.0, 0.0], [0.0, 0.0])

    def test_residual_small(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            ode = random_ode(rng, nmax=5)
            ss = observable_canonical(ode)
            y = rng.uniform(-3, 3, ode.n)
            u = rng.uniform(-3, 3, ode.n)
            x = recover_state(ss, y, u)
            resid = observability_matrix(ss) @ x + _markov(ss) @ u - y
            assert np.max(np.abs(resid)) <= 1e-9


def _markov(ss):
    from ltivp.ode import _toeplitz
    from ltivp.realization import ss_markov_parameters

    return _toeplitz(ss_markov_parameters(ss, ss.n))


class TestContinuity:
    def test_step_into_intro_example(self):
        report = classify_continuity(INTRO, [0.0, 1.0])
        assert report.m == 1
        assert_allclose(report.delta_y, [1.0, 0.0])
        by_order = {e.order: e for e in report.entries}
        assert by_order[0].continuous          # y stays continuous
        assert not by_order[1].continuous      # y' jumps by 1
        assert by_order[1].jump == 1.0
        assert not report.fully_continuous
        assert not report.predicted_continuous

    def test_zero_jump_fully_continuous(self):
        report = classify_continuity(EX2, [0.0, 0.0])
        assert report.fully_continuous
        assert report.predicted_continuous

    def test_switch_example_both_jump(self):
        report = classify_continuity(EX2, [1.0, -1.0])
        assert_allclose(report.delta_y, [4.0, -1.0])
        assert not any(e.continuous for e in report.entries)
        assert not report.predicted_continuous

    def test_jump_above_bottom_entries_keeps_y_continuous(self):
        # m = 1: a jump only in u' (top of stack) leaves the whole Y stack alone
        report = classify_continuity(INTRO, [1.0, 0.0])
        assert report.fully_continuous
        assert report.predicted_continuous

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jump_bound_is_inclusive(self, sign):
        # INTRO has M = [[0, 1], [0, 0]] and m = 1: an input jump [0, x] makes
        # y' jump by exactly x, and x is the one entry behind the prediction
        above = np.nextafter(JUMP_TOL, np.inf)
        for x, continuous in ((JUMP_TOL, True), (above, False)):
            report = classify_continuity(INTRO, [0.0, sign * x])
            y1 = report.entries[1]
            assert y1.order == 1 and y1.jump == sign * x
            assert y1.continuous is continuous
            assert report.entries[0].continuous
            assert report.predicted_continuous is continuous

    def test_non_finite_jump_raises(self):
        # finite M and jump: delta Y = [1e308 - 3e308, 1e308], with no RuntimeWarning
        with pytest.raises(ValueError, match=r"^delta Y overflows: M \(U\(0\+\) - U\(0-\)\) is not finite$"):
            classify_continuity(EX2, [0.0, 1e308])

    def test_prediction_matches_actual_random(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            ode = random_ode(rng, nmax=6)
            n = ode.n
            jump = rng.uniform(-2, 2, n)
            if rng.random() < 0.5:
                jump[n - (n - _r(ode)):] = 0.0  # zero the bottom m entries
            report = classify_continuity(ode, jump)
            assert report.fully_continuous == report.predicted_continuous


def _r(ode):
    from ltivp.ode import relative_degree

    return relative_degree(ode)[0]


class TestConditionPair:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind must be 'previous' or 'first'"):
            ConditionPair("both", np.zeros(2))

    def test_kinds(self):
        assert ConditionPair.previous([1.0, 0.0]).kind == "previous"
        assert ConditionPair.first([1.0, 0.0]).kind == "first"


def test_state_continuity_across_switch():
    """Recovering the state at 0- and at 0+ (after mapping) gives the same x."""
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(100):
        ode = random_ode(rng, nmax=6)
        n = ode.n
        ss = observable_canonical(ode)
        y_prev = rng.uniform(-3, 3, n)
        u_prev = rng.uniform(-3, 3, n)
        u_first = rng.uniform(-3, 3, n)
        y_first = map_previous_to_first(ode, y_prev, u_prev, u_first)
        x_before = recover_state(ss, y_prev, u_prev)
        x_after = recover_state(ss, y_first, u_first)
        worst = max(worst, np.max(np.abs(x_after - x_before)))
    assert worst <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_stacks_rejected(bad):
    ss = observable_canonical(EX2)
    calls = {
        "y_stack": lambda s: recover_state(ss, s, [0.0, 0.0]),
        "u_stack": lambda s: recover_state(ss, [0.0, 0.0], s),
        "y_prev": lambda s: map_previous_to_first(EX2, s, [0.0, 0.0], [0.0, 0.0]),
        "u_prev": lambda s: map_previous_to_first(EX2, [0.0, 0.0], s, [0.0, 0.0]),
        "u_first": lambda s: map_previous_to_first(EX2, [0.0, 0.0], [0.0, 0.0], s),
        "u_jump": lambda s: classify_continuity(EX2, s),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"^{name}: expected finite numbers, got {bad}$"):
            call([bad, 0.0])
