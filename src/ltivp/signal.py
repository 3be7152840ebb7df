"""Exponential-polynomial signals: finite sums of amp * t**power * exp(rate*t).

Such a signal has a rational Laplace transform, which is exactly what the
closed-form solution pipeline needs.  Modes come in exactly conjugate
pairs, so every signal is real-valued on the reals; `Signal` checks this
with no tolerance, and the closed form meets it by construction
(`from_partial_fractions`).  Every amplitude and rate is finite: a mode
that is not raises ValueError.

Evaluation is done in real arithmetic, one distinct rate at a time: the
powers of a rate are summed by Horner's rule, a real rate costs one exp
over the times (a constant or polynomial none), and a conjugate pair
re +- iw one exp plus its cos and sin.  Those are taken at every time,
except on a uniform 1-D grid of at least ANGLE_MIN_POINTS samples: there
they are taken at about 4 sqrt(N) points and the grid is filled by angle
addition (`_pair_by_rows`), which agrees with the per-sample sum to a few
eps of each mode's size times 1 + |rate| |t|.  So a scalar t and the same
t inside such a grid can differ in the last bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .poly import (
    PartialFractionTerm,
    Polynomial,
    RationalFunction,
    add_coeffs,
    fmt_number,
    root_product,
    signed_sum,
)


class Mode(NamedTuple):
    amp: complex
    power: int
    rate: complex


class Signal:
    """Finite sum of modes amp * t**power * exp(rate*t), conjugate-closed.

    Modes are canonicalized on construction: amplitudes of identical
    (power, rate) pairs are summed, zero sums are dropped, and the modes are
    sorted.  The signal must be real-valued on the reals, and that is
    checked exactly, with no tolerance: a mode at a real rate needs a real
    amplitude, and a mode at a complex rate needs the mode at the conjugate
    rate with the same power and the conjugate amplitude.  Rates and
    amplitudes are never snapped or averaged, and each must be finite;
    anything else raises ValueError.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=()):
        merged: dict[tuple[int, complex], complex] = {}
        for amp, power, rate in modes:
            # an int needs no float conversion to show it is an integer
            if not (power >= 0 and (type(power) is int or float(power).is_integer())):
                raise ValueError("mode powers must be nonnegative integers")
            rate = complex(rate)
            if rate.imag == 0.0:
                rate = complex(rate.real, 0.0)  # one key and one repr for +0j and -0j
            key = (int(power), rate)
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(amp)
        self.modes = _real_modes(merged)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Signal":
        return cls(())

    @classmethod
    def constant(cls, value: float) -> "Signal":
        return cls([(value, 0, 0.0)])

    @classmethod
    def ramp(cls, slope: float = 1.0) -> "Signal":
        return cls([(slope, 1, 0.0)])

    @classmethod
    def exponential(cls, rate: float, amp: float = 1.0) -> "Signal":
        return cls([(amp, 0, rate)])

    @classmethod
    def cosine(cls, freq: float, amp: float = 1.0) -> "Signal":
        return cls([(0.5 * amp, 0, 1j * freq), (0.5 * amp, 0, -1j * freq)])

    @classmethod
    def sine(cls, freq: float, amp: float = 1.0) -> "Signal":
        return cls([(-0.5j * amp, 0, 1j * freq), (0.5j * amp, 0, -1j * freq)])

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Value at time t: a float for a scalar or 0-d t, else an array shaped like t.

        Rate by rate, one conjugate pair at a time: P(t) = sum of amp_k t^k
        by Horner's rule on the real and imaginary parts of the amplitudes,
        then 2 (Re P cos(wt) - Im P sin(wt)) e^(re t) for a rate re + iw
        with w > 0, or P(t) e^(re t) for a real rate, with no exponential
        when re = 0.  A pair takes cos and sin at every time, except on a
        1-D grid of at least ANGLE_MIN_POINTS samples that is uniform to
        ANGLE_GRID_EPS: checked once, at the first pair, such a grid takes
        them at about 4 sqrt(N) points and sums each power's term by angle
        addition (`_pair_by_rows`).  The value then differs from the
        per-sample one in the last bits, so a scalar and an array sample of
        the same t can differ there; scalars, other arrays and signals
        with no pair keep the per-sample bits.
        """
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        step = _UNCHECKED  # the grid is checked at the first pair, if there is one
        for rate, powers in self.by_rate().items():
            if rate.imag < 0.0:
                continue  # the conjugate partner carries the pair
            amps = [powers.get(k, 0j) for k in range(max(powers) + 1)]
            if rate.imag != 0.0 and step is _UNCHECKED:
                step = _grid_step(t_arr)
            if rate.imag == 0.0:
                term = _horner([a.real for a in amps], t_arr)
            elif step is None:
                re_part = _horner([a.real for a in amps], t_arr)
                im_part = _horner([a.imag for a in amps], t_arr)
                wt = rate.imag * t_arr
                term = 2.0 * (re_part * np.cos(wt) - im_part * np.sin(wt))
            else:
                term = _pair_by_rows(amps, rate.imag, t_arr, step)
            if rate.real != 0.0:
                term = term * np.exp(rate.real * t_arr)
            out += term
        return float(out) if out.ndim == 0 else out

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def by_rate(self) -> dict[complex, dict[int, complex]]:
        """Modes grouped as {rate: {power: amp}}, both levels in mode order."""
        groups: dict[complex, dict[int, complex]] = {}
        for amp, power, rate in self.modes:
            groups.setdefault(rate, {})[power] = amp
        return groups

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return format_signal(self)

    def __repr__(self) -> str:
        return f"Signal({[tuple(m) for m in self.modes]!r})"


def _real_modes(merged: dict[tuple[int, complex], complex]) -> tuple[Mode, ...]:
    """The nonzero modes, sorted, after the finiteness and exact
    conjugate-closure checks."""
    modes: list[Mode] = []
    for (power, rate), amp in merged.items():
        if not (math.isfinite(rate.real) and math.isfinite(rate.imag)):
            raise ValueError(f"mode t^{power}*exp({rate}t) has a non-finite rate")
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"mode t^{power}*exp({rate}t) has non-finite amplitude {amp}")
        if amp == 0.0:
            continue
        if rate.imag != 0.0:
            partner = merged.get((power, rate.conjugate()))
            if partner is None or partner != amp.conjugate():
                raise ValueError(
                    f"modes at rate {rate} are not conjugate-closed ({amp} vs {partner})"
                )
            if rate.imag > 0.0:
                modes.append(Mode(amp, power, rate))
                modes.append(Mode(amp.conjugate(), power, rate.conjugate()))
        else:
            if amp.imag != 0.0:
                raise ValueError(f"mode t^{power}*exp({rate}t) has non-real amplitude {amp}")
            modes.append(Mode(complex(amp.real, 0.0), power, rate))
    # no two modes share (power, rate), so the order is total
    modes.sort(key=lambda m: (-abs(m.rate.real), m.rate.real, m.rate.imag, m.power))
    return tuple(modes)


def _horner(coeffs: list[float], t: np.ndarray):
    """sum of coeffs[k] * t**k by Horner's rule; the bare constant when there is one coefficient."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


#: A 1-D grid of fewer samples takes cos and sin at every sample; a longer one
#: is checked for uniformity at its first conjugate pair (`_grid_step`).  At
#: about this size the check and the row set-up cost as much as cos and sin
#: at every sample of one pair; above it angle addition is faster.
ANGLE_MIN_POINTS = 1000

#: A grid is uniform, and its pairs are summed by angle addition, when every
#: |t_i - (t_0 + i h)| is at most this many eps of |t_0| + i |h|, with h the
#: mean step (t_(N-1) - t_0) / (N - 1).  `linspace` grids and t_0 + h i
#: grids come within 2.
ANGLE_GRID_EPS = 4

_EPS = float(np.finfo(float).eps)
_UNCHECKED = object()


def _grid_step(t: np.ndarray) -> float | None:
    """The mean step h of t if t is a long enough uniform 1-D grid, else None.

    Kept apart from `simulate`'s own test for a uniform grid, so that one
    wrong predicate cannot make both routes wrong alike.  A non-finite
    sample makes its gap NaN or infinite, which fails the comparison.
    """
    if t.ndim != 1 or len(t) < ANGLE_MIN_POINTS:
        return None
    t0 = float(t[0])
    h = (float(t[-1]) - t0) / (len(t) - 1)
    if not (math.isfinite(t0) and math.isfinite(h)):
        return None
    tol = ANGLE_GRID_EPS * _EPS
    ih = np.arange(len(t), dtype=float)
    ih *= h
    gap = ih + t0
    gap -= t
    np.abs(gap, out=gap)
    # |gap_i| - tol |i h| <= tol |t_0|, in place: i h has the sign of h
    ih *= math.copysign(tol, h)
    gap -= ih
    return h if gap.max() <= tol * abs(t0) else None


def _pair_by_rows(amps: list[complex], w: float, t: np.ndarray, h: float) -> np.ndarray:
    """2 Re(P(t) e^(iwt)) on a uniform grid of step h, P(t) = sum amps[k] t^k.

    The grid is cut into rows of c samples, t_(mc+j) = t_j + mch, so wt is
    a_j + b_m with a_j = w t_j over the first row and b_m = w (mc) h over
    the row starts.  By angle addition, with A + iB = 2 amps[k],

        2 Re(amps[k] e^(i(a + b))) = cos b (A cos a - B sin a) + sin b (-B cos a - A sin a),

    so the grid of each power's term, row by row, is the product of the
    (rows, 2) factor [cos b, sin b] and a (2, c) factor built from
    [cos a; sin a]: cos and sin at c + N/c points instead of N, and one
    pass over the grid per power.  The powers are then summed by Horner's
    rule.  Rows of about 4 sqrt(N) samples keep the row factor short.
    """
    n = len(t)
    cols = 4 * math.isqrt(n)
    rows = -(-n // cols)
    alpha = w * t[:cols]
    first = np.empty((2, cols))
    np.cos(alpha, out=first[0])
    np.sin(alpha, out=first[1])
    beta = w * (np.arange(0, rows * cols, cols, dtype=float) * h)
    starts = np.empty((rows, 2))
    np.cos(beta, out=starts[:, 0])
    np.sin(beta, out=starts[:, 1])
    grids = []
    for amp in amps:
        A, B = 2.0 * amp.real, 2.0 * amp.imag
        grids.append((starts @ (np.array([[A, -B], [-B, -A]]) @ first)).reshape(-1)[:n])
    return _horner(grids, t)


class PiecewiseInput:
    """Input with one analytic expression for t < 0 and another for t > 0.

    The only allowed switching instant is t = 0; the Heaviside step is
    past = 0, future = 1.
    """

    __slots__ = ("past", "future")

    def __init__(self, past: Signal, future: Signal):
        self.past = past
        self.future = future

    @classmethod
    def step(cls) -> "PiecewiseInput":
        return cls(Signal.zero(), Signal.constant(1.0))


def condition_stack(x: Signal, n: int) -> np.ndarray:
    """Derivative stack [x^(n-1)(0), ..., x'(0), x(0)], highest first.

    Values are taken on the analytic extension at t = 0, which is how the
    one-sided limits of a piecewise input's segments are computed.  The j-th
    derivative of amp t^p e^(rt) at 0 is amp j!/(j-p)! r^(j-p) for j >= p
    and 0 below, so entry n-1-j sums the real parts of those terms over the
    modes, with the exact integer j!/(j-p)! and r^(j-p) as a running product.
    """
    if n < 1:
        raise ValueError("stack length must be at least 1")
    stack = [0.0] * n
    for amp, power, rate in x.modes:
        rate_power = 1.0 + 0.0j
        for j in range(power, n):
            stack[n - 1 - j] += (amp * math.perm(j, power) * rate_power).real
            rate_power *= rate
    return np.array(stack)


def laplace_transform(x: Signal) -> RationalFunction:
    """Transform of the signal: sum of amp * power! / (s - rate)^(power+1).

    Terms sharing a rate are combined over (s - rate)^(max power + 1), so
    the resulting denominator has one factor per distinct rate.  The modes
    are conjugate-closed, so both products are real polynomials; their real
    parts are taken as they are.
    """
    if x.is_zero:
        return RationalFunction(Polynomial.zero(), Polynomial.one())
    groups = x.by_rate()
    roots = [rate for rate, powers in groups.items() for _ in range(max(powers) + 1)]
    num = np.zeros(1, dtype=complex)
    for rate, powers in groups.items():
        others = [r for r in roots if r != rate]
        kmax = max(powers)
        for power, amp in powers.items():
            # amp * power! * (s - rate)^(kmax - power) * the other rates' factors
            term = root_product(others + [rate] * (kmax - power), amp * math.factorial(power))
            num = add_coeffs(num, term)
    den = root_product(roots)
    return RationalFunction(Polynomial(num.real), Polynomial(den.real))


def from_partial_fractions(terms: tuple[PartialFractionTerm, ...]) -> Signal:
    """Invert an expansion term-wise: c/(s-p)^k becomes c/(k-1)! * t^(k-1) e^(pt).

    Conjugate closure is made exact here, where it holds by construction:
    the poles come in exact conjugate pairs (see `poly_roots`), so a term at
    a real pole keeps the real part of its amplitude, and the terms at a
    pole p above the real axis and at its mirror conj(p), with the same
    power, become one exactly conjugate pair whose amplitude is the mean of
    the one at p and the conjugate of the one at conj(p).  A term whose
    mirror is missing is passed through unpaired, and `Signal` rejects it.
    """
    amps = {(t.pole, t.order - 1): t.coeff / math.factorial(t.order - 1) for t in terms}
    modes = []
    for (pole, power), amp in amps.items():
        partner = amps.get((pole.conjugate(), power))
        if pole.imag == 0.0:
            modes.append((amp.real, power, pole))
        elif partner is None:
            modes.append((amp, power, pole))
        elif pole.imag > 0.0:
            mean = 0.5 * (amp + partner.conjugate())
            modes += [(mean, power, pole), (mean.conjugate(), power, pole.conjugate())]
    return Signal(modes)


# ---------------------------------------------------------------------------
# printing


def format_signal(x: Signal) -> str:
    """Canonical human-readable form, complex pairs folded into cos/sin."""
    if x.is_zero:
        return "0"
    atoms: list[tuple[float, str]] = []
    for amp, power, rate in x.modes:
        if rate.imag > 0.0:
            c, s = 2.0 * amp.real, -2.0 * amp.imag
            if c != 0.0:
                atoms.append((c, _atom(power, rate.real, ("cos", rate.imag))))
            if s != 0.0:
                atoms.append((s, _atom(power, rate.real, ("sin", rate.imag))))
        elif rate.imag == 0.0:
            atoms.append((amp.real, _atom(power, rate.real, None)))
    terms = []
    for coeff, body in atoms:
        mag = fmt_number(abs(coeff))
        text = body if body and abs(coeff) == 1.0 else "*".join(p for p in (mag, body) if p)
        terms.append((coeff, text))
    return signed_sum(terms)


def _atom(power: int, decay: float, trig) -> str:
    pieces = []
    if power == 1:
        pieces.append("t")
    elif power > 1:
        pieces.append(f"t^{power}")
    if decay != 0.0:
        pieces.append(f"exp({fmt_number(decay)}*t)")
    if trig is not None:
        name, freq = trig
        pieces.append(f"{name}({fmt_number(freq)}*t)")
    return "*".join(pieces)
