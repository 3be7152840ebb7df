import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ltivp.poly import PartialFractionTerm, Polynomial, RationalFunction, partial_fractions
from ltivp.signal import (
    PiecewiseInput,
    Signal,
    condition_stack,
    format_signal,
    from_partial_fractions,
    laplace_transform,
)


class TestConstruction:
    def test_zero(self):
        z = Signal.zero()
        assert z.is_zero
        assert z(1.7) == 0.0

    def test_merge_same_mode(self):
        s = Signal([(1.0, 0, -2.0), (2.5, 0, -2.0)])
        assert len(s.modes) == 1
        assert s.modes[0].amp == 3.5

    def test_close_rates_stay_distinct(self):
        s = Signal([(1.0, 0, -2.0), (1.0, 0, -2.0 + 1e-12)])
        assert len(s.modes) == 2

    def test_near_conjugate_amplitude_rejected(self):
        amp = complex(0.5, 0.25)
        with pytest.raises(ValueError, match="not conjugate-closed"):
            Signal([(amp, 0, 1j), (amp.conjugate() + 1e-15, 0, -1j)])

    def test_lone_near_real_rate_rejected(self):
        with pytest.raises(ValueError, match="not conjugate-closed"):
            Signal([(1.0, 0, complex(-2.0, 1e-12))])

    def test_non_integral_power_rejected(self):
        with pytest.raises(ValueError, match="^mode powers must be nonnegative integers$"):
            Signal([(1.0, 1.5, 0.0)])

    def test_signed_zeros_share_a_mode(self):
        s = Signal([(1.0, 0, complex(-2.0, -0.0)), (complex(1.0, -0.0), 0, -2.0)])
        assert repr(s) == "Signal([((2+0j), 0, (-2+0j))])"

    def test_nan_rates_share_a_mode(self):
        # NaN never equals itself: only a shared key makes the two halves of
        # the pair one mode, printed once
        s = Signal.cosine(float("nan"))
        assert len(s.modes) == 1
        assert str(s) == "exp(nan*t)"
        # kept where its amplitudes cancel, so the NaN still reaches the
        # checks that name its field
        assert str(Signal.sine(float("nan"))) == "0*exp(nan*t)"

    def test_exact_cancellation_drops_mode(self):
        s = Signal([(1.0, 1, -1.0), (-1.0, 1, -1.0)])
        assert s.is_zero

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Signal([(1.0, -1, 0.0)])

    def test_unpaired_complex_mode_rejected(self):
        with pytest.raises(ValueError, match="conjugate"):
            Signal([(1.0, 0, 1j)])

    def test_complex_amp_on_real_rate_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            Signal([(1j, 0, -1.0)])

    def test_conjugate_pair_accepted(self):
        s = Signal([(0.5, 0, 1j), (0.5, 0, -1j)])
        assert_allclose(s(0.0), 1.0)
        assert_allclose(s(np.pi), -1.0, atol=1e-12)


class TestEvaluation:
    def test_cosine_sine(self):
        w = 2.0
        ts = np.linspace(0, 3, 50)
        assert_allclose(Signal.cosine(w)(ts), np.cos(w * ts), atol=1e-12)
        assert_allclose(Signal.sine(w)(ts), np.sin(w * ts), atol=1e-12)

    def test_damped_oscillation(self):
        s = Signal([(0.5, 1, complex(-1, 3)), (0.5, 1, complex(-1, -3))])
        ts = np.linspace(0, 2, 40)
        assert_allclose(s(ts), ts * np.exp(-ts) * np.cos(3 * ts), atol=1e-12)

    def test_scalar_returns_float(self):
        assert isinstance(Signal.ramp()(2.0), float)

    def test_arithmetic(self):
        s = 2.0 * Signal.ramp() - Signal.constant(3.0)
        assert_allclose(s(2.0), 1.0)
        assert (s - s).is_zero


def mode_sum(x: Signal, t):
    """Reference evaluation: the per-mode complex sum, in mode order."""
    t_arr = np.asarray(t, dtype=float)
    acc = np.zeros(t_arr.shape, dtype=complex)
    for amp, power, rate in x.modes:
        acc += amp * t_arr**power * np.exp(rate * t_arr)
    return acc.real


def mode_sum_bound(x: Signal, t):
    """8 eps sum |amp| |t|^power e^(Re(rate) t), pointwise."""
    t_arr = np.asarray(t, dtype=float)
    total = np.zeros(t_arr.shape)
    for amp, power, rate in x.modes:
        total += abs(amp) * np.abs(t_arr) ** power * np.exp(rate.real * t_arr)
    return 8.0 * np.finfo(float).eps * total


def mixed_signal(rng) -> Signal:
    """Modes at real, zero, complex and purely imaginary rates, powers 0-4,
    several powers per rate and some (power, rate) pairs drawn twice."""
    rates = [
        complex(rng.uniform(-2.0, 2.0), 0.0),
        0j,
        complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 6.0)),
        complex(0.0, rng.uniform(0.1, 6.0)),
    ]
    modes = []
    for rate in rng.permutation(rates)[: rng.integers(1, 5)]:
        for power in rng.integers(0, 5, rng.integers(1, 5)):
            if rate.imag == 0.0:
                modes.append((rng.uniform(-2.0, 2.0), int(power), rate))
            else:
                amp = complex(*rng.uniform(-2.0, 2.0, 2))
                modes += [(amp, int(power), rate), (amp.conjugate(), int(power), rate.conjugate())]
    return Signal(modes)


class TestEvaluationAgainstModeSum:
    def test_arrays_within_bound(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = mixed_signal(rng)
            for t in (
                np.linspace(-3.0, 3.0, 61),
                rng.uniform(-3.0, 3.0, (4, 7)),
                np.array([0.0, -0.0]),
            ):
                got = x(t)
                assert got.shape == t.shape
                assert np.all(np.abs(got - mode_sum(x, t)) <= mode_sum_bound(x, t))

    def test_scalars_within_bound(self):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            x = mixed_signal(rng)
            for t in (0.0, float(rng.uniform(-3.0, 3.0)), np.float64(rng.uniform(-3.0, 3.0))):
                for arg in (t, np.array(t)):
                    got = x(arg)
                    assert type(got) is float
                    assert abs(got - mode_sum(x, t)) <= mode_sum_bound(x, t)

    def test_scalar_overflow_gives_inf_as_arrays_do(self):
        with np.errstate(over="ignore"):
            assert Signal.exponential(1.0)(1000.0) == np.inf
            assert Signal([(1.0, 3, 0.0)])(np.array(1e200)) == np.inf

    def test_empty_grid_and_zero_signal(self):
        assert Signal.cosine(1.0)(np.zeros(0)).shape == (0,)
        assert_array_equal(Signal.zero()(np.ones((2, 3))), np.zeros((2, 3)))

    def test_condition_stack_within_bound_of_derivative_chain(self):
        # oracle: the chain of derivative Signals, each summed at 0 mode by mode;
        # bound: 8 eps sum |amp| j!/(j-p)! |r|^(j-p) over the modes, entry by entry
        rng = np.random.default_rng(2026)
        eps = np.finfo(float).eps
        for _ in range(300):
            x = mixed_signal(rng)
            n = int(rng.integers(1, 17))
            derivs = [x]
            for _ in range(n - 1):
                derivs.append(derivs[-1].derivative())
            want = np.array([mode_sum(d, 0.0) for d in reversed(derivs)])
            scale = np.zeros(n)
            for amp, power, rate in x.modes:
                for j in range(power, n):
                    scale[n - 1 - j] += abs(amp) * math.perm(j, power) * abs(rate) ** (j - power)
            got = condition_stack(x, n)
            assert np.all(np.abs(got - want) <= 8.0 * eps * scale)

    def test_condition_stack_builds_no_signal(self, monkeypatch):
        built = []
        init = Signal.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        x = mixed_signal(np.random.default_rng(7))
        monkeypatch.setattr(Signal, "__init__", counting_init)
        condition_stack(x, 8)
        assert built == []


class TestDerivative:
    def test_polynomial_chain(self):
        # d/dt (t^2 e^{-t}) = 2 t e^{-t} - t^2 e^{-t}
        s = Signal([(1.0, 2, -1.0)])
        d = s.derivative()
        ts = np.linspace(0.1, 2, 17)
        assert_allclose(d(ts), 2 * ts * np.exp(-ts) - ts**2 * np.exp(-ts), atol=1e-12)

    def test_trig_rotation(self):
        d = Signal.sine(3.0).derivative()
        ts = np.linspace(0, 1, 11)
        assert_allclose(d(ts), 3.0 * np.cos(3.0 * ts), atol=1e-12)

    def test_constant_derivative_zero(self):
        assert Signal.constant(4.0).derivative().is_zero


class TestConditionStack:
    def test_stack_order_highest_first(self):
        # x = t: stack over n=2 is [x'(0), x(0)] = [1, 0]
        assert_allclose(condition_stack(Signal.ramp(), 2), [1.0, 0.0])

    def test_cosine_stack(self):
        # cos: derivatives at 0 cycle 1, 0, -1, 0 (low order at the bottom)
        assert_allclose(condition_stack(Signal.cosine(1.0), 4), [0.0, -1.0, 0.0, 1.0])

    def test_zero_signal(self):
        assert_allclose(condition_stack(Signal.zero(), 3), [0.0, 0.0, 0.0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            condition_stack(Signal.zero(), 0)


class TestLaplaceTransform:
    def test_constant(self):
        assert laplace_transform(Signal.constant(1.0)).max_cross_error(
            RationalFunction(Polynomial.one(), Polynomial([0.0, 1.0]))
        ) == 0.0

    def test_ramp(self):
        assert laplace_transform(Signal.ramp()).max_cross_error(
            RationalFunction(Polynomial.one(), Polynomial([0.0, 0.0, 1.0]))
        ) == 0.0

    def test_cosine(self):
        w = 2.0
        got = laplace_transform(Signal.cosine(w))
        want = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([w * w, 0.0, 1.0]))
        assert got.max_cross_error(want) < 1e-12

    def test_resonant_mode(self):
        # t e^{-t} -> 1/(s+1)^2
        got = laplace_transform(Signal([(1.0, 1, -1.0)]))
        want = RationalFunction(Polynomial.one(), Polynomial([1.0, 2.0, 1.0]))
        assert got.max_cross_error(want) < 1e-12

    def test_zero(self):
        assert laplace_transform(Signal.zero()).num.is_zero

    def test_mixed_rates_common_denominator(self):
        s = Signal.constant(2.0) + Signal.exponential(-3.0)
        got = laplace_transform(s)
        want = RationalFunction(Polynomial([6.0, 3.0]), Polynomial([0.0, 3.0, 1.0]))
        assert got.max_cross_error(want) < 1e-12


class TestInverse:
    def test_round_trip(self):
        s = Signal.constant(1.0) + Signal([(2.0, 1, -1.0)]) + Signal.sine(2.0)
        poles = [(0.0, 1), (-1.0, 2), (2j, 1), (-2j, 1)]
        back = from_partial_fractions(partial_fractions(laplace_transform(s), poles))
        ts = np.linspace(0, 3, 60)
        assert_allclose(back(ts), s(ts), atol=1e-9)

    def test_polynomial_part_raises(self):
        # (s + 1) / (s + 1) = 1 is an impulse; it never reaches from_partial_fractions
        rf = RationalFunction(Polynomial([1.0, 1.0]), Polynomial([1.0, 1.0]))
        with pytest.raises(ValueError, match="polynomial part"):
            partial_fractions(rf, [(-1.0, 1)])

    def test_unpaired_complex_pole_rejected(self):
        for terms in (
            [PartialFractionTerm(complex(-1, 2), 1, 1.0 + 0.5j)],
            [PartialFractionTerm(complex(-1, -2), 1, 1.0 + 0.5j)],
            # the mirror pole is there, but not at the same power
            [
                PartialFractionTerm(complex(-1, 2), 1, 1.0 + 0.5j),
                PartialFractionTerm(complex(-1, -2), 2, 1.0 - 0.5j),
            ],
        ):
            with pytest.raises(ValueError, match="not conjugate-closed") as info:
                from_partial_fractions(tuple(terms))
            assert "\n" not in str(info.value)

    def test_mirror_terms_become_an_exact_pair(self):
        # the two amplitudes differ by rounding: the pair gets their mean,
        # and the real pole keeps the real part of its amplitude
        y = from_partial_fractions(
            (
                PartialFractionTerm(complex(-1, 2), 1, complex(1.0, 0.5)),
                PartialFractionTerm(complex(-1, -2), 1, complex(1.0 + 2.0**-51, -0.5 - 2.0**-52)),
                PartialFractionTerm(complex(-3, 0), 1, complex(2.0, 1e-17)),
            )
        )
        mean = complex(1.0 + 2.0**-52, 0.5 + 2.0**-53)
        assert [tuple(m) for m in y.modes] == [
            (complex(2.0, 0.0), 0, complex(-3, 0)),
            (mean.conjugate(), 0, complex(-1, -2)),
            (mean, 0, complex(-1, 2)),
        ]

    def test_factorial_scaling(self):
        # 1/(s+1)^3 -> t^2 e^{-t} / 2
        pfe = partial_fractions(
            RationalFunction(Polynomial.one(), Polynomial([1.0, 3.0, 3.0, 1.0])), [(-1.0, 3)]
        )
        s = from_partial_fractions(pfe)
        ts = np.linspace(0.1, 2, 13)
        assert_allclose(s(ts), ts**2 * np.exp(-ts) / 2.0, atol=1e-10)


class TestPiecewiseInput:
    def test_step(self):
        d = PiecewiseInput.step()
        assert d(-0.5) == 0.0
        assert d(0.5) == 1.0

    def test_smooth(self):
        u = PiecewiseInput.smooth(Signal.ramp())
        assert u(-2.0) == -2.0
        assert u(2.0) == 2.0

    def test_scalar_zero_d_and_array_times(self):
        u = PiecewiseInput(past=Signal.cosine(1.0), future=Signal.ramp(2.0))
        assert u(-1.0) == np.cos(-1.0) and isinstance(u(-1.0), float)
        assert u(np.array(3.0)) == 6.0 and isinstance(u(np.array(3.0)), float)
        ts = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert_allclose(u(ts), [np.cos(-2.0), np.cos(-0.5), 0.0, 1.0, 4.0], atol=1e-15)
        assert_array_equal(PiecewiseInput.step()(np.array([-1.0, 1.0])), [0.0, 1.0])


class TestFormatting:
    def test_zero(self):
        assert format_signal(Signal.zero()) == "0"

    def test_term_order_descending_decay(self):
        s = Signal.constant(-0.04) + Signal.ramp(0.2) + Signal([(0.25, 0, -1.0), (-0.21, 0, -5.0)])
        assert format_signal(s) == "-0.21*exp(-5*t) + 0.25*exp(-1*t) - 0.04 + 0.2*t"

    def test_trig_folding(self):
        s = Signal.cosine(2.0, 3.0) + Signal.sine(2.0, -1.5)
        assert format_signal(s) == "3*cos(2*t) - 1.5*sin(2*t)"

    def test_polynomial_powers(self):
        s = Signal([(0.5, 2, -1.0)])
        assert format_signal(s) == "0.5*t^2*exp(-1*t)"

    def test_unit_coefficient(self):
        assert format_signal(Signal.ramp()) == "t"
        assert format_signal(Signal.constant(1.0)) == "1"
        assert format_signal(Signal.ramp(-1.0)) == "-t"
