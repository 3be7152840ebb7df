"""High-precision reference solution for one problem, in mpmath.

The reference works from the problem dict alone (the JSON the program
parses) and shares no code with the package under test.  It takes the
one-sided Laplace transform of the ODE with the condition stacks on the
side the problem gives them,

    A(s) Y(s) = B(s) U(s) + sum_k alpha_k sum_{j<k} s^(k-1-j) y^(j)(0)
                          - sum_k beta_k  sum_{j<k} s^(k-1-j) u^(j)(0),

where U(s) is the transform of the input for t > 0, and inverts it by
residues.  The roots of A(s) are refined by Newton's method at working
precision `DPS` from numpy's double-precision roots (mpmath.polyroots when
that does not give n distinct roots), so the float coefficients are
honoured exactly and near-repeated roots stay apart; input rates keep their
exact multiplicities.  A root of
A(s) that coincides with an input rate (resonance) is rejected, because the
benchmark's draws never produce one.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 40


def signal_modes(spec) -> list[tuple[complex, int, complex]]:
    """(amp, power, rate) modes of a signal spec: a sugar string or a list of mode objects."""
    if isinstance(spec, str):
        name, *args = spec.split()
        w = float(args[0]) if args else 0.0
        return {
            "zero": [],
            "step": [(1 + 0j, 0, 0j)],
            "ramp": [(1 + 0j, 1, 0j)],
            "cos": [(0.5 + 0j, 0, 1j * w), (0.5 + 0j, 0, -1j * w)],
            "sin": [(-0.5j, 0, 1j * w), (0.5j, 0, -1j * w)],
            "exp": [(1 + 0j, 0, complex(w))],
        }[name]
    return [(_complex(m["amp"]), int(m.get("power", 0)), _complex(m["rate"])) for m in spec]


def _complex(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def input_segments(problem: dict) -> tuple[list, list]:
    """(past, future) modes; a first-form problem may omit the past."""
    spec = problem["input"]
    if spec == "step":
        return [], signal_modes("step")
    return signal_modes(spec.get("past", "zero")), signal_modes(spec["future"])


def _derivative_at_zero(modes, j: int):
    """j-th derivative at t = 0 of sum amp t^p e^(rate t), as an mpc."""
    total = mpmath.mpc(0)
    for amp, p, rate in modes:
        if j >= p:
            total += mpmath.mpc(amp) * (math.factorial(j) // math.factorial(j - p)) * mpmath.mpc(rate) ** (j - p)
    return total


def _peval(c, z):
    """Polynomial with ascending coefficients c at z (Horner)."""
    acc = mpmath.mpc(0)
    for coeff in reversed(c):
        acc = acc * z + coeff
    return acc


def _taylor(c, z, count: int):
    """First `count` Taylor coefficients of the polynomial about z."""
    work = list(c)
    out = []
    for _ in range(count):
        acc = mpmath.mpc(0)
        for i in range(len(work) - 1, -1, -1):
            acc = acc * z + work[i]
            work[i] = acc
        out.append(work[0] if work else mpmath.mpc(0))
        work = work[1:]
    return out


def _roots(c):
    """The roots of the monic polynomial with ascending coefficients c."""
    dc = [k * c[k] for k in range(1, len(c))]
    tol = mpmath.mpf(10) ** (8 - DPS)
    roots = []
    for z0 in np.roots([float(x) for x in c[::-1]]):
        z = mpmath.mpc(complex(z0))
        for _ in range(60):
            step = _peval(c, z) / _peval(dc, z)
            z -= step
            if abs(step) <= tol * (1 + abs(z)):
                break
        else:
            break
        roots.append(z)
    distinct = len(roots) == len(c) - 1 and all(
        abs(p - q) > mpmath.mpf(10) ** (-DPS // 2) * (1 + abs(p)) for i, p in enumerate(roots) for q in roots[:i]
    )
    if distinct:
        return roots
    return mpmath.polyroots(c[::-1], maxsteps=400, extraprec=4 * DPS)


class Reference:
    """y(t) for t > 0 as a sum of c t^q e^(rate t) modes at DPS digits."""

    def __init__(self, problem: dict):
        with mpmath.workdps(DPS):
            self.modes = self._expand(problem)

    def _expand(self, problem: dict):
        a = [mpmath.mpf(x) for x in problem["ode"]["a"]]
        b = [mpmath.mpf(x) for x in problem["ode"]["b"]]
        n = len(a)
        alpha = [a[n - 1 - k] for k in range(n)] + [mpmath.mpf(1)]
        beta = [b[n - k] for k in range(n + 1)]
        past, future = input_segments(problem)
        cond = problem["conditions"]
        side = past if cond["kind"] == "previous" else future
        y = [mpmath.mpf(v) for v in cond["y"]]
        y_j = [y[n - 1 - j] for j in range(n)]
        u_j = [_derivative_at_zero(side, j) for j in range(n)]
        ic = [mpmath.mpc(0)] * n
        for k in range(1, n + 1):
            for j in range(k):
                ic[k - 1 - j] += alpha[k] * y_j[j] - beta[k] * u_j[j]

        groups: dict[complex, dict[int, complex]] = {}
        for amp, p, rate in future:
            powers = groups.setdefault(rate, {})
            powers[p] = powers.get(p, 0j) + amp

        def U(s):
            return sum(
                (mpmath.mpc(amp) * math.factorial(p) / (s - mpmath.mpc(r)) ** (p + 1)
                 for r, powers in groups.items() for p, amp in powers.items()),
                mpmath.mpc(0),
            )

        dA = [k * alpha[k] for k in range(1, n + 1)]
        roots = _roots(alpha)
        scale = 1 + max(abs(r) for r in roots)
        modes = []
        for p in roots:
            if any(abs(p - mpmath.mpc(r)) < mpmath.mpf(10) ** (-DPS // 2) * scale for r in groups):
                raise ValueError("input rate coincides with a characteristic root")
            residue = (_peval(beta, p) * U(p) + _peval(ic, p)) / _peval(dA, p)
            modes.append((residue, 0, p))
        for r, powers in groups.items():
            rr = mpmath.mpc(r)
            kmax = max(powers)
            tb, ta = _taylor(beta, rr, kmax + 1), _taylor(alpha, rr, kmax + 1)
            g = []
            for i in range(kmax + 1):
                acc = tb[i] - sum(ta[k] * g[i - k] for k in range(1, i + 1))
                g.append(acc / ta[0])
            for p, amp in powers.items():
                for i in range(p + 1):
                    c = mpmath.mpc(amp) * (math.factorial(p) // math.factorial(p - i)) * g[i]
                    modes.append((c, p - i, rr))
        return modes

    def __call__(self, times) -> list[float]:
        """Reference values at the given times (floats, t > 0)."""
        with mpmath.workdps(DPS):
            out = []
            for t in times:
                tt = mpmath.mpf(float(t))
                acc = mpmath.mpc(0)
                for c, q, rate in self.modes:
                    acc += c * tt**q * mpmath.exp(rate * tt)
                out.append(float(acc.real))
            return out

    def derivatives_at_zero(self, count: int) -> list[float]:
        """[y(0+), y'(0+), ..., y^(count-1)(0+)] from the expansion."""
        with mpmath.workdps(DPS):
            return [float(_derivative_at_zero(self.modes, j).real) for j in range(count)]
