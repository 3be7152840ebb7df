"""Exponential-polynomial signals: finite sums of amp * t**power * exp(rate*t).

The class is closed under differentiation and has rational Laplace
transforms, which is exactly what the closed-form solution pipeline needs.
Modes come in conjugate pairs so every signal is real-valued on the reals.

Evaluation on an array of times is done in real arithmetic, one distinct
rate at a time: the powers of a rate are summed by Horner's rule, and a
conjugate pair re +- iw costs one exp, one cos and one sin over the array
(a real rate one exp, a constant or polynomial none).  A single time is
summed mode by mode with `cmath`, in mode order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .poly import (
    PartialFractionTerm,
    Polynomial,
    RationalFunction,
    add_coeffs,
    as_real_coeffs,
    fmt_number,
    root_product,
    signed_sum,
)

#: Rates closer than this (absolute) are treated as the same mode frequency.
RATE_MERGE_TOL = 1e-9

#: `trimmed` drops amplitudes, and zeroes real or imaginary parts, at or below this.
TRIM_TOL = 1e-12


class Mode(NamedTuple):
    amp: complex
    power: int
    rate: complex


class Signal:
    """Finite sum of modes amp * t**power * exp(rate*t), conjugate-closed.

    Modes are canonicalized on construction: rates within RATE_MERGE_TOL are
    unified, amplitudes of coinciding (power, rate) pairs are merged, and
    conjugate pairs are made exact.  Construction raises ValueError when the
    mode set cannot represent a real-valued signal.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=()):
        entries = [
            (complex(amp), int(power), complex(rate)) for amp, power, rate in modes
        ]
        if any(power < 0 for _, power, _ in entries):
            raise ValueError("mode powers must be nonnegative")
        rates = _canonical_rates([rate for _, _, rate in entries])
        merged: dict[tuple[int, complex], complex] = {}
        for (amp, power, _), rate in zip(entries, rates):
            merged[(power, rate)] = merged.get((power, rate), 0.0 + 0.0j) + amp
        self.modes = _enforce_real(merged)

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

        A scalar sums the modes in mode order with `cmath`, the cheapest
        route for the few values `condition_stack` takes.  An array is
        taken rate by rate, one conjugate pair at a time: P(t) = sum of
        amp_k t^k by Horner's rule on the real and imaginary parts of the
        amplitudes, then 2 (Re P cos(wt) - Im P sin(wt)) e^(re t) for a rate
        re + iw with w > 0, or P(t) e^(re t) for a real rate, with no
        exponential when re = 0.
        """
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            x = float(t_arr)
            acc = 0j
            try:
                for amp, power, rate in self.modes:
                    acc += amp * x**power * cmath.exp(rate * x)
            except OverflowError:  # Python raises where numpy rounds to inf
                return float(self(t_arr.reshape(1))[0])
            return acc.real
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
        return out

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

    def trimmed(self) -> "Signal":
        """Drop modes with negligible amplitude and snap near-zero components."""
        out = []
        for amp, power, rate in self.modes:
            if abs(amp) <= TRIM_TOL:
                continue
            out.append((_snap(amp), power, _snap(rate)))
        return Signal(out)

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


def _canonical_rates(rates: list[complex]) -> list[complex]:
    """The canonical rate of each rate, in input order: a rate within
    RATE_MERGE_TOL of an earlier entry shares its slot, then near-real
    entries snap to real and conjugate pairs of entries are made exact."""
    registry: list[complex] = []
    slots: list[int] = []
    for r in rates:
        slot = next(
            (i for i, e in enumerate(registry) if abs(r - e) <= RATE_MERGE_TOL), len(registry)
        )
        if slot == len(registry):
            registry.append(r)
        slots.append(slot)
    registry = [complex(r.real, 0.0) if abs(r.imag) <= RATE_MERGE_TOL else r for r in registry]
    used = [False] * len(registry)
    for i, r in enumerate(registry):
        if used[i] or r.imag == 0.0:
            continue
        for j in range(i + 1, len(registry)):
            if not used[j] and abs(registry[j] - r.conjugate()) <= 2 * RATE_MERGE_TOL:
                used[j] = True
                avg = 0.5 * (r + registry[j].conjugate())
                registry[i], registry[j] = avg, avg.conjugate()
                break
    return [registry[slot] for slot in slots]


def _enforce_real(merged: dict[tuple[int, complex], complex]) -> tuple[Mode, ...]:
    scale = 1.0 + max((abs(a) for a in merged.values()), default=0.0)
    out: dict[tuple[int, complex], complex] = {}
    for (power, rate), amp in merged.items():
        if amp == 0.0:
            continue
        if rate.imag == 0.0:
            if abs(amp.imag) > RATE_MERGE_TOL * scale:
                raise ValueError(
                    f"mode t^{power}*exp({rate}t) has non-real amplitude {amp}"
                )
            out[(power, rate)] = complex(amp.real, 0.0)
        elif rate.imag > 0.0:
            partner = merged.get((power, rate.conjugate()), 0.0 + 0.0j)
            avg = 0.5 * (amp + partner.conjugate())
            if abs(amp - partner.conjugate()) > 2 * RATE_MERGE_TOL * scale:
                raise ValueError(
                    f"modes at rate {rate} are not conjugate-closed "
                    f"({amp} vs {partner})"
                )
            if avg != 0.0:
                out[(power, rate)] = avg
                out[(power, rate.conjugate())] = avg.conjugate()
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


def _snap(z: complex) -> complex:
    re = 0.0 if abs(z.real) <= TRIM_TOL else z.real
    im = 0.0 if abs(z.imag) <= TRIM_TOL else z.imag
    return complex(re, im)


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
    one-sided limits of a piecewise input's segments are computed.
    """
    if n < 1:
        raise ValueError("stack length must be at least 1")
    derivs = [x]
    for _ in range(n - 1):
        derivs.append(derivs[-1].derivative())
    return np.array([derivs[k](0.0) for k in range(n - 1, -1, -1)])


def laplace_transform(x: Signal) -> RationalFunction:
    """Transform of the signal: sum of amp * power! / (s - rate)^(power+1).

    Terms sharing a rate are combined over (s - rate)^(max power + 1), so
    the resulting denominator has one factor per distinct rate.
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
    return RationalFunction(
        Polynomial(as_real_coeffs(num, what="transform numerator")),
        Polynomial(as_real_coeffs(den, what="transform denominator")),
    )


def from_partial_fractions(terms: tuple[PartialFractionTerm, ...]) -> Signal:
    """Invert an expansion term-wise: c/(s-p)^k becomes c/(k-1)! * t^(k-1) e^(pt)."""
    return Signal(
        [(t.coeff / math.factorial(t.order - 1), t.order - 1, t.pole) for t in terms]
    )


# ---------------------------------------------------------------------------
# printing


def format_signal(x: Signal) -> str:
    """Canonical human-readable form, complex pairs folded into cos/sin."""
    if x.is_zero:
        return "0"
    atoms: list[tuple[float, str]] = []
    for amp, power, rate in x.modes:
        if rate.imag < 0.0:
            continue  # folded into the conjugate partner
        if rate.imag == 0.0:
            atoms.append((amp.real, _atom(power, rate.real, None)))
        else:
            c, s = 2.0 * amp.real, -2.0 * amp.imag
            if c != 0.0:
                atoms.append((c, _atom(power, rate.real, ("cos", rate.imag))))
            if s != 0.0:
                atoms.append((s, _atom(power, rate.real, ("sin", rate.imag))))
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
