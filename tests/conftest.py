"""Shared draw helpers for the randomized suites.

Pole draws enforce a minimum separation so partial-fraction conditioning
stays benign; exact repeats and conjugate pairs are still exercised.

Every hypothesis property runs under one profile: derandomized, so a rerun
draws the same examples, and with no deadline, since a solve's time varies
with the machine.
"""

import numpy as np
from hypothesis import settings

from ltivp import LinearODE, Signal
from ltivp.ode import _deriv_name, _toeplitz
from ltivp.poly import Polynomial, RationalFunction, fmt_number, root_product
from ltivp.signal import _atom

settings.register_profile("ltivp", derandomize=True, deadline=None)
settings.load_profile("ltivp")


def min_separation(points) -> float:
    worst = np.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            worst = min(worst, abs(points[i] - points[j]))
    return worst


def random_poles(rng, count, box=3.0, sep=0.2, allow_repeats=False):
    """`count` conjugate-closed poles with pairwise separation >= sep."""
    while True:
        poles = []
        while len(poles) < count:
            room = count - len(poles)
            kind = rng.random()
            if kind < 0.3 and room >= 2:
                re, im = rng.uniform(-box, box), rng.uniform(0.3, box)
                cand = [complex(re, im), complex(re, -im)]
            elif allow_repeats and kind < 0.45 and room >= 2:
                p = complex(rng.uniform(-box, box), 0.0)
                cand = [p, p]
            else:
                cand = [complex(rng.uniform(-box, box), 0.0)]
            poles.extend(cand)
        if len(poles) == count:
            distinct = sorted(set(poles), key=lambda z: (z.real, z.imag))
            if len(distinct) < 2 or min_separation(distinct) > sep:
                return poles


def poly_from_roots(roots) -> Polynomial:
    """The monic real polynomial with the given conjugate-closed roots
    (the real parts of the product, whose imaginary parts are rounding)."""
    return Polynomial(root_product(roots).real)


def random_ode(rng, nmax=5, box=3.0) -> LinearODE:
    """Random ODE with well-separated characteristic roots and random
    relative degree 0..n."""
    n = int(rng.integers(1, nmax + 1))
    a = np.real(np.poly(random_poles(rng, n, box=box)))[1:]
    b = rng.uniform(-5.0, 5.0, n + 1)
    r = int(rng.integers(0, n + 1))
    b[:r] = 0.0
    if not np.any(b):
        b[-1] = 1.0
    return LinearODE(a, b)


def random_signal(rng) -> Signal:
    """A small exponential-polynomial signal: constant, affine, decaying
    exponential, or a sinusoid."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Signal.constant(rng.uniform(-2.0, 2.0))
    if kind == 1:
        return signal_sum(Signal.ramp(rng.uniform(-2.0, 2.0)), Signal.constant(rng.uniform(-2.0, 2.0)))
    if kind == 2:
        return Signal.exponential(rng.uniform(-2.0, 1.0), rng.uniform(-2.0, 2.0))
    w = rng.uniform(0.5, 3.0)
    return signal_sum(Signal.cosine(w, rng.uniform(-2.0, 2.0)), Signal.sine(w, rng.uniform(-2.0, 2.0)))


def ic_vectors(ode: LinearODE) -> tuple[np.ndarray, np.ndarray]:
    """The stack-weight matrices (V_y, V_u) = (T(1, a_1..a_{n-1}), T(b_0..b_{n-1})).

    Column j of V_y holds the coefficients, lowest degree first, of
    s^j + a_1 s^(j-1) + ... + a_j, which weights y^(n-1-j)(0); V_u does the
    same with the b coefficients for the input stack.
    """
    a_full = np.concatenate(([1.0], ode.a))
    return _toeplitz(a_full[: ode.n]), _toeplitz(ode.b[: ode.n])


def decoupled_realization():
    """(A, B, C) of order 16 with entries +-(1 to 1.79) 10^k, k from -300 to
    0, and state 5 decoupled: row and column 5 of A are zero but
    A[5, 5] = 2, and C[5] = 0.  C cannot see that state, so the exact
    observability rank is at most 15."""
    rng = np.random.default_rng(16)

    def spread(*shape):
        sign = rng.choice([-1.0, 1.0], shape)
        return sign * rng.uniform(1.0, 1.79, shape) * 10.0 ** rng.integers(-300, 1, shape)

    A, B, C = spread(16, 16), spread(16), spread(16)
    A[5, :] = A[:, 5] = 0.0
    A[5, 5] = 2.0
    C[5] = 0.0
    return A, B, C


def signal_sum(*signals: Signal) -> Signal:
    """The sum of the signals: `Signal` merges the modes of equal (power, rate)."""
    return Signal([m for x in signals for m in x.modes])


def signal_scaled(x: Signal, c: float) -> Signal:
    """c times the signal, mode by mode."""
    return Signal([(amp * c, power, rate) for amp, power, rate in x.modes])


def derivative(x: Signal) -> Signal:
    """Term-wise derivative: d/dt[t^k e^(rt)] = k t^(k-1) e^(rt) + r t^k e^(rt).

    The reference the closed form's derivative stacks and substitution
    checks are tested against; the package itself never differentiates a
    signal (`condition_stack` takes the derivatives at 0 in closed form).
    """
    out = []
    for amp, power, rate in x.modes:
        if power > 0:
            out.append((amp * power, power - 1, rate))
        out.append((amp * rate, power, rate))
    return Signal(out)


def apply_side(x: Signal, coeffs, ts) -> np.ndarray:
    """coeffs[0] x^(k) + ... + coeffs[k] x on the grid ts: one side of the ODE."""
    derivs = [x]
    for _ in range(len(coeffs) - 1):
        derivs.append(derivative(derivs[-1]))
    total = np.zeros_like(ts)
    for c, k in zip(coeffs, range(len(coeffs) - 1, -1, -1)):
        if c != 0.0:
            total += c * derivs[k](ts)
    return total


def csv_reference(times, outputs, states) -> str:
    """Trajectory CSV written one value at a time with f"{v:.17g}": the
    reference `Trajectory.csv_text` must match byte for byte."""
    lines = ["t,y," + ",".join(f"x{i + 1}" for i in range(states.shape[1]))]
    for t, y, x in zip(times.tolist(), outputs.tolist(), states.tolist()):
        lines.append(",".join(f"{v:.17g}" for v in (t, y, *x)))
    return "\n".join(lines) + "\n"


def _signed_join(terms) -> str:
    """(coefficient, text) terms joined as "a + b - c"."""
    parts = []
    for c, text in terms:
        if not parts:
            parts.append(f"-{text}" if c < 0 else text)
        else:
            parts.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(parts)


def polynomial_reference(p: Polynomial) -> str:
    """`str(p)` printed term by term, the loop `Polynomial.__str__` must match."""
    if p.is_zero:
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0.0:
            continue
        mag = fmt_number(abs(c))
        if k == 0:
            body = mag
        else:
            var = "s" if k == 1 else f"s^{k}"
            body = var if abs(c) == 1.0 else f"{mag} {var}"
        terms.append((c, body))
    return _signed_join(terms)


def ode_reference(ode: LinearODE) -> str:
    """`str(ode)` printed term by term, the loop `LinearODE.__str__` must match."""

    def side(var, coeffs):
        n = len(coeffs) - 1
        terms = []
        for j, c in enumerate(coeffs):
            if c == 0.0:
                continue
            name = _deriv_name(var, n - j)
            terms.append((c, name if abs(c) == 1.0 else f"{fmt_number(abs(c))}*{name}"))
        return _signed_join(terms)

    rhs = side("u", ode.b)
    return f"{side('y', np.concatenate(([1.0], ode.a)))} = {rhs or '0'}"


def format_signal_reference(x: Signal) -> str:
    """`format_signal(x)` printed term by term, the loop it must match:
    each conjugate pair folded into cos and sin terms."""
    if x.is_zero:
        return "0"
    atoms = []
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
    return _signed_join(terms)


def cross_error(f: RationalFunction, g: RationalFunction) -> float:
    """Largest coefficient of num_f den_g - num_g den_f, relative to the
    largest coefficient of either product (floored at 1).

    Both denominators are monic by construction, so this measures
    coefficient-level disagreement without requiring common factors to have
    been cancelled on either side; the scaling keeps the figure meaningful
    when the coefficients themselves are large.
    """
    left = np.convolve(f.num.coeffs, g.den.coeffs)
    right = np.convolve(g.num.coeffs, f.den.coeffs)
    size = max(len(left), len(right))
    left = np.pad(left, (0, size - len(left)))
    right = np.pad(right, (0, size - len(right)))
    scale = max(1.0, np.max(np.abs(left)), np.max(np.abs(right)))
    return float(np.max(np.abs(left - right)) / scale)
