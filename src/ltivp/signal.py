"""Exponential-polynomial signals: finite sums of amp * t**power * exp(rate*t).

The class is closed under differentiation and has rational Laplace
transforms, which is exactly what the closed-form solution pipeline needs.
Modes come in exactly conjugate pairs, so every signal is real-valued on
the reals; `Signal` checks this with no tolerance, and the closed form
meets it by construction (`from_partial_fractions`).

Evaluation is done in real arithmetic, one distinct rate at a time: the
powers of a rate are summed by Horner's rule, and a conjugate pair re +- iw
costs one exp, one cos and one sin over the times (a real rate one exp, a
constant or polynomial none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


#: The one rate every rate with a NaN part becomes.
_NAN_RATE = complex(math.nan, math.nan)


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
    amplitudes are never snapped or averaged; anything else raises
    ValueError.  NaN compares as no mismatch, so that non-finite data
    reaches the checks that can name its field: every rate with a NaN part
    is one key, taken as real, and its mode is kept even where its
    amplitudes cancel.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=()):
        merged: dict[tuple[int, complex], complex] = {}
        for amp, power, rate in modes:
            if power < 0 or power != int(power):
                raise ValueError("mode powers must be nonnegative integers")
            rate = complex(rate)
            if rate != rate:
                rate = _NAN_RATE  # NaN never equals itself: one shared key merges such modes
            elif rate.imag == 0.0:
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

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, t):
        """Value at time t: a float for a scalar or 0-d t, else an array shaped like t.

        Scalars and arrays take one path, rate by rate, one conjugate pair
        at a time: P(t) = sum of amp_k t^k by Horner's rule on the real and
        imaginary parts of the amplitudes, then 2 (Re P cos(wt) - Im P
        sin(wt)) e^(re t) for a rate re + iw with w > 0, or P(t) e^(re t)
        for a real rate, with no exponential when re = 0.
        """
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        for rate, powers in self.by_rate().items():
            if rate.imag < 0.0:
                continue  # the conjugate partner carries the pair
            amps = [powers.get(k, 0j) for k in range(max(powers) + 1)]
            re_part = _horner([a.real for a in amps], t_arr)
            if rate.imag == 0.0:
                term = re_part
            else:
                im_part = _horner([a.imag for a in amps], t_arr)
                wt = rate.imag * t_arr
                term = 2.0 * (re_part * np.cos(wt) - im_part * np.sin(wt))
            if rate.real != 0.0:
                term = term * np.exp(rate.real * t_arr)
            out += term
        return float(out) if out.ndim == 0 else out

    def derivative(self) -> "Signal":
        """Term-wise derivative: d/dt[t^k e^(rt)] = k t^(k-1) e^(rt) + r t^k e^(rt)."""
        out = []
        for amp, power, rate in self.modes:
            if power > 0:
                out.append((amp * power, power - 1, rate))
            out.append((amp * rate, power, rate))
        return Signal(out)

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def by_rate(self) -> dict[complex, dict[int, complex]]:
        """Modes grouped as {rate: {power: amp}}, both levels in mode order."""
        groups: dict[complex, dict[int, complex]] = {}
        for amp, power, rate in self.modes:
            groups.setdefault(rate, {})[power] = amp
        return groups

    # -- structural ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Signal) and self.modes == other.modes

    def __hash__(self) -> int:
        return hash(self.modes)

    def __neg__(self) -> "Signal":
        return Signal([(-amp, power, rate) for amp, power, rate in self.modes])

    def __add__(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            return NotImplemented
        return Signal(list(self.modes) + list(other.modes))

    def __sub__(self, other: "Signal") -> "Signal":
        return self + (-other)

    def __mul__(self, scalar) -> "Signal":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return Signal([(amp * scalar, power, rate) for amp, power, rate in self.modes])

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_signal(self)

    def __repr__(self) -> str:
        return f"Signal({[tuple(m) for m in self.modes]!r})"


def _real_modes(merged: dict[tuple[int, complex], complex]) -> tuple[Mode, ...]:
    """The nonzero modes and any at the NaN rate, sorted, after the exact
    conjugate-closure check."""
    out: dict[tuple[int, complex], complex] = {}
    for (power, rate), amp in merged.items():
        if amp == 0.0 and rate is not _NAN_RATE:
            continue
        if rate.imag > 0.0 or rate.imag < 0.0:  # not `!= 0.0`: a NaN rate takes the real branch
            partner = merged.get((power, rate.conjugate()))
            if partner is None or abs(partner - amp.conjugate()) > 0.0:
                raise ValueError(
                    f"modes at rate {rate} are not conjugate-closed ({amp} vs {partner})"
                )
            if rate.imag > 0.0:
                out[(power, rate)] = amp
                out[(power, rate.conjugate())] = amp.conjugate()
        else:
            if abs(amp.imag) > 0.0:
                raise ValueError(f"mode t^{power}*exp({rate}t) has non-real amplitude {amp}")
            out[(power, rate)] = complex(amp.real, 0.0)
    ordered = sorted(
        out.items(),
        key=lambda kv: (-abs(kv[0][1].real), kv[0][1].real, kv[0][1].imag, kv[0][0]),
    )
    return tuple(Mode(amp, power, rate) for (power, rate), amp in ordered)


def _horner(coeffs: list[float], t: np.ndarray):
    """sum of coeffs[k] * t**k by Horner's rule; the bare constant when there is one coefficient."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class PiecewiseInput:
    """Input with one analytic expression for t < 0 and another for t > 0.

    The only allowed switching instant is t = 0; the Heaviside step is
    past = 0, future = 1.
    """

    past: Signal
    future: Signal

    @classmethod
    def step(cls) -> "PiecewiseInput":
        return cls(Signal.zero(), Signal.constant(1.0))

    @classmethod
    def smooth(cls, signal: Signal) -> "PiecewiseInput":
        """An input with no switch: the same expression on both sides."""
        return cls(signal, signal)

    def __call__(self, t):
        """Value at time t, the past expression where t < 0; a scalar or an ndarray."""
        t_arr = np.asarray(t, dtype=float)
        before = t_arr < 0
        out = np.empty(t_arr.shape)
        out[before] = self.past(t_arr[before])
        out[~before] = self.future(t_arr[~before])
        return float(out) if out.ndim == 0 else out


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
        elif not rate.imag < 0.0:
            # a real rate, or the NaN rate, which `_real_modes` also takes as
            # real; a rate below the axis is folded into its conjugate partner
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
