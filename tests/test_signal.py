import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ltivp import signal
from ltivp.poly import PartialFractionTerm, Polynomial, RationalFunction, partial_fractions
from ltivp.signal import (
    PiecewiseInput,
    Signal,
    condition_stack,
    format_signal,
    from_partial_fractions,
    laplace_transform,
)

from conftest import cross_error, derivative, signal_sum


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
        for power in (1.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="^mode powers must be nonnegative integers$"):
                Signal([(1.0, power, 0.0)])

    def test_signed_zeros_share_a_mode(self):
        s = Signal([(1.0, 0, complex(-2.0, -0.0)), (complex(1.0, -0.0), 0, -2.0)])
        assert repr(s) == "Signal([((2+0j), 0, (-2+0j))])"

    def test_nan_rates_share_a_mode(self):
        # NaN never equals itself, so the two halves of a NaN-frequency pair
        # are not one mode: whether their amplitudes add (cosine) or cancel
        # (sine), the rate itself is rejected, once, on one line
        for build in (Signal.cosine, Signal.sine):
            with pytest.raises(ValueError) as info:
                build(float("nan"))
            assert str(info.value) == "mode t^0*exp((nan+nanj)t) has a non-finite rate"

    def test_non_finite_modes_rejected(self):
        nan, inf = float("nan"), float("inf")
        cases = [
            (lambda: Signal.cosine(1.0, nan), "non-finite amplitude"),
            (lambda: Signal.exponential(-inf), "a non-finite rate"),
        ]
        for build, part in cases:
            with pytest.raises(ValueError, match=rf"^mode t\^0\*exp\(\S+t\) has {part}"):
                build()

    def test_overflowing_arithmetic_rejected(self):
        # finite amplitudes of one (power, rate) whose merged sum is not finite
        with pytest.raises(ValueError, match=r"^mode t\^0\*exp\(\S+t\) has non-finite amplitude"):
            Signal([(1e308, 0, 0.0), (1e308, 0, 0.0)])

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
                derivs.append(derivative(derivs[-1]))
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


def direct_sum(x: Signal, t):
    """Evaluation with cos and sin at every sample, rate by rate, in the
    order and with the operations `Signal.__call__` used before angle
    addition: the bits the direct path must keep."""
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros(t_arr.shape)
    for rate, powers in x.by_rate().items():
        if rate.imag < 0.0:
            continue
        amps = [powers.get(k, 0j) for k in range(max(powers) + 1)]
        re_part = amps[-1].real
        for a in reversed(amps[:-1]):
            re_part = re_part * t_arr + a.real
        if rate.imag == 0.0:
            term = re_part
        else:
            im_part = amps[-1].imag
            for a in reversed(amps[:-1]):
                im_part = im_part * t_arr + a.imag
            wt = rate.imag * t_arr
            term = 2.0 * (re_part * np.cos(wt) - im_part * np.sin(wt))
        if rate.real != 0.0:
            term = term * np.exp(rate.real * t_arr)
        out += term
    return float(out) if out.ndim == 0 else out


#: two pairs, one with powers up to 2, and two real rates
PAIRS = Signal(
    [(0.5 - 0.25j, 0, complex(-0.3, 4.0)), (0.5 + 0.25j, 0, complex(-0.3, -4.0))]
    + [(a, k, complex(0.1, s * 9.0)) for k, amp in enumerate((1.0 + 1.0j, -0.5j, 0.25 + 0.0j))
       for a, s in ((amp, 1), (amp.conjugate(), -1))]
    + [(1.5, 1, 0.0), (-0.75, 0, -2.0)]
)


class TestAngleAddition:
    """Which path `Signal.__call__` takes; the accuracy of both is in
    test_signal_accuracy.py."""

    N = 10_000

    @pytest.fixture
    def trig_points(self, monkeypatch):
        """Number of points np.cos and np.sin are called on, by name."""
        counts = {"cos": 0, "sin": 0}
        for name in counts:
            original = getattr(np, name)

            def counting(x, *args, _name=name, _original=original, **kwargs):
                counts[_name] += np.size(x)
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        return counts

    def test_uniform_grid_takes_order_sqrt_n_points(self, trig_points):
        t = np.linspace(3.0 / self.N, 3.0, self.N)
        PAIRS(t)
        # two pairs, each at c + ceil(N / c) = 425 points with c = 4 isqrt(N),
        # about 4 sqrt(N): the direct path takes N per pair
        assert trig_points == {"cos": 850, "sin": 850}

    def test_floor_is_the_first_size_taken(self, trig_points):
        floor = signal.ANGLE_MIN_POINTS
        PAIRS(np.linspace(0.5, 3.0, floor))
        assert 0 < trig_points["cos"] < floor
        trig_points["cos"] = 0
        PAIRS(np.linspace(0.5, 3.0, floor - 1))
        assert trig_points["cos"] == 2 * (floor - 1)

    @pytest.mark.parametrize("factor, fast", [(0.5, True), (4.0, False)])
    def test_moved_sample_against_the_tolerance(self, trig_points, factor, fast):
        t = np.linspace(0.0, 3.0, self.N)
        i = 6_001
        t[i] += factor * signal.ANGLE_GRID_EPS * np.finfo(float).eps * (t[i] - t[0])
        got = PAIRS(t)
        assert (trig_points["cos"] < self.N) == fast
        if not fast:
            assert_array_equal(got, direct_sum(PAIRS, t))

    @pytest.mark.parametrize(
        "t",
        [
            np.concatenate([np.linspace(0.0, 3.0, 5_000), [np.nan]]),
            np.concatenate([[np.inf], np.linspace(0.0, 3.0, 5_000)]),
            np.where(np.arange(5_000) == 2_500, -np.inf, np.linspace(0.0, 3.0, 5_000)),
            np.where(np.arange(5_000) == 2_500, np.nan, np.linspace(0.0, 3.0, 5_000)),
            np.linspace(0.0, 3.0, 10_000).reshape(100, 100),
            np.linspace(0.0, 3.0, signal.ANGLE_MIN_POINTS - 1),
            np.geomspace(1e-3, 3.0, 5_000),
        ],
        ids=["nan-last", "inf-first", "inf-inside", "nan-inside", "2-d", "floor-1", "geomspace"],
    )
    def test_direct_path_is_bit_identical(self, t):
        with np.errstate(invalid="ignore", over="ignore"):
            assert_array_equal(PAIRS(t), direct_sum(PAIRS, t))

    def test_scalars_take_the_direct_path(self):
        for t in (0.0, 1.7, -2.5, 1e3):
            assert PAIRS(t) == direct_sum(PAIRS, t)
            assert PAIRS(np.array(t)) == direct_sum(PAIRS, t)

    def test_grid_checked_once_and_only_for_a_pair(self, monkeypatch):
        calls = []
        check = signal._grid_step

        def recording(t):
            calls.append(len(t))
            return check(t)

        monkeypatch.setattr(signal, "_grid_step", recording)
        t = np.linspace(0.0, 3.0, self.N)
        Signal([(1.5, 1, 0.0), (-0.75, 0, -2.0), (2.0, 3, 0.5)])(t)
        assert calls == []
        PAIRS(t)
        assert calls == [self.N]


class TestDerivative:
    def test_polynomial_chain(self):
        # d/dt (t^2 e^{-t}) = 2 t e^{-t} - t^2 e^{-t}
        s = Signal([(1.0, 2, -1.0)])
        d = derivative(s)
        ts = np.linspace(0.1, 2, 17)
        assert_allclose(d(ts), 2 * ts * np.exp(-ts) - ts**2 * np.exp(-ts), atol=1e-12)

    def test_trig_rotation(self):
        d = derivative(Signal.sine(3.0))
        ts = np.linspace(0, 1, 11)
        assert_allclose(d(ts), 3.0 * np.cos(3.0 * ts), atol=1e-12)

    def test_constant_derivative_zero(self):
        assert derivative(Signal.constant(4.0)).is_zero


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
        assert cross_error(
            laplace_transform(Signal.constant(1.0)), RationalFunction(Polynomial.one(), Polynomial([0.0, 1.0]))
        ) == 0.0

    def test_ramp(self):
        assert cross_error(
            laplace_transform(Signal.ramp()), RationalFunction(Polynomial.one(), Polynomial([0.0, 0.0, 1.0]))
        ) == 0.0

    def test_cosine(self):
        w = 2.0
        got = laplace_transform(Signal.cosine(w))
        want = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([w * w, 0.0, 1.0]))
        assert cross_error(got, want) < 1e-12

    def test_resonant_mode(self):
        # t e^{-t} -> 1/(s+1)^2
        got = laplace_transform(Signal([(1.0, 1, -1.0)]))
        want = RationalFunction(Polynomial.one(), Polynomial([1.0, 2.0, 1.0]))
        assert cross_error(got, want) < 1e-12

    def test_zero(self):
        assert laplace_transform(Signal.zero()).num.is_zero

    def test_mixed_rates_common_denominator(self):
        s = signal_sum(Signal.constant(2.0), Signal.exponential(-3.0))
        got = laplace_transform(s)
        want = RationalFunction(Polynomial([6.0, 3.0]), Polynomial([0.0, 3.0, 1.0]))
        assert cross_error(got, want) < 1e-12


class TestInverse:
    def test_round_trip(self):
        s = signal_sum(Signal.constant(1.0), Signal([(2.0, 1, -1.0)]), Signal.sine(2.0))
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
        assert d.past.modes == ()
        assert [tuple(m) for m in d.future.modes] == [(1 + 0j, 0, 0j)]


class TestFormatting:
    def test_zero(self):
        assert format_signal(Signal.zero()) == "0"

    def test_term_order_descending_decay(self):
        s = signal_sum(Signal.constant(-0.04), Signal.ramp(0.2), Signal([(0.25, 0, -1.0), (-0.21, 0, -5.0)]))
        assert format_signal(s) == "-0.21*exp(-5*t) + 0.25*exp(-1*t) - 0.04 + 0.2*t"

    def test_trig_folding(self):
        s = signal_sum(Signal.cosine(2.0, 3.0), Signal.sine(2.0, -1.5))
        assert format_signal(s) == "3*cos(2*t) - 1.5*sin(2*t)"

    def test_polynomial_powers(self):
        s = Signal([(0.5, 2, -1.0)])
        assert format_signal(s) == "0.5*t^2*exp(-1*t)"

    def test_unit_coefficient(self):
        assert format_signal(Signal.ramp()) == "t"
        assert format_signal(Signal.constant(1.0)) == "1"
        assert format_signal(Signal.ramp(-1.0)) == "-t"
