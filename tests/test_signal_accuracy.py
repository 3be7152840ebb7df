"""Both evaluation paths of `Signal.__call__` against a 30-digit reference.

A conjugate pair is evaluated either directly, with cos and sin at every
sample, or, on a long uniform 1-D grid, by angle addition over rows of the
grid (`signal._pair_by_rows`).  Both must meet one bound, at every sample t
of a grid that starts at t_0:

    |y(t) - y_ref(t)| <= C eps sum over modes |amp| |t|^p e^(Re r t) (1 + |r| tau),

with tau = |t_0| + |t - t_0|, which is |t| on a grid with t_0 >= 0.

Derivation of C.  u = eps / 2 is the unit roundoff; cos, sin and exp are
taken to be within 4 ulp (libm is within 1; numpy's SIMD versions are
allowed 4), so a computed cos or sin is off by at most 4u = 2 eps.  Write
M = sum_k |amp_k| |t|^k for one mode of a pair at r = rho + iw, so the pair
holds 2M of the sum above, and K = ANGLE_GRID_EPS.  In units of eps times
2M e^(rho t):

1. The angle.  Angle addition evaluates cos(a_j + b_m) for the sample
   t_i = t_(mc+j), with a_j = fl(w t_j) and b_m = fl(w fl(mc h)): rounding
   adds u|w t_j| + 2u|w mch| <= 1.5 |w| tau eps.  The grid check passes
   only when every t_i is within K eps (|t_0| + i|h|) of t_0 + ih, and its
   own two roundings add eps tau, so t_j + mch is within 2 (K + 1) eps tau
   of t_i.  The angle is off by at most (2K + 3.5) |w| tau eps, and a pair
   term changes by at most 2M e^(rho t) per radian.  (The direct path:
   u |w t| only.)
2. Trig and products.  For each power k, with A + iB = 2 amp_k, the
   (2, c) factor holds A cos a - B sin a and -B cos a - A sin a: off by at
   most sqrt(2) 2 eps |2 amp_k| from the inputs and eps |2 amp_k| from the
   2-term product, 3.83 eps |2 amp_k|.  The grid entry cos b X_0 + sin b X_1
   adds sqrt(2) 2 eps from cos b and sin b, sqrt(2) 3.83 eps from X, and
   eps from its own 2-term product: 9.24 eps |2 amp_k|.  Horner's rule over
   these grids adds gamma_2p = p eps, so (9.24 + p) units.  The direct
   path, 2 (Re P cos - Im P sin), is under that: (3.83 + 1.42 p) units.
3. The exponential.  fl(rho t) is off by u |rho t|, exp by 4 ulp <= 4 eps
   relative, and the product rounds once: 0.5 |rho| tau + 4.5 units.
4. The sum over rates: one rounding of at most u of the whole sum per
   distinct rate, so 1 unit for the two rates of the signals below.

With p <= 3 the constant part is 9.24 + 3 + 4.5 + 1 = 17.74, and the part
proportional to tau is (2K + 3.5) |w| + 0.5 |rho| <= (2K + 4) |r| = 12 |r|
for K = 4.  A real-rate mode has only Horner, exp and the sum, well under
both.  So C = 18 covers every mode.
"""

import math

import mpmath
import numpy as np
import pytest

from ltivp import signal
from ltivp.signal import Signal

EPS = float(np.finfo(float).eps)
C = 18.0


def test_the_constant_covers_the_derivation():
    # C was derived for ANGLE_GRID_EPS = 4; a wider tolerance needs a new C
    assert max(9.24 + 3 + 4.5 + 1.0, 2 * signal.ANGLE_GRID_EPS + 4) <= C


def reference(x: Signal, t: np.ndarray) -> np.ndarray:
    """sum of amp t^p e^(rt) at each double t, in 30 digits, rounded once."""
    out = []
    with mpmath.workdps(30):
        modes = [(mpmath.mpc(a.real, a.imag), p, mpmath.mpc(r.real, r.imag)) for a, p, r in x.modes]
        for ti in t.tolist():
            tm = mpmath.mpf(ti)
            out.append(float(mpmath.re(sum(a * tm**p * mpmath.exp(r * tm) for a, p, r in modes))))
    return np.array(out)


def bound(x: Signal, t: np.ndarray, t0: float) -> np.ndarray:
    tau = abs(t0) + np.abs(t - t0)
    total = np.zeros(len(t))
    for amp, power, rate in x.modes:
        total += abs(amp) * np.abs(t) ** power * np.exp(rate.real * t) * (1.0 + abs(rate) * tau)
    return C * EPS * total


def pair(amps, rate) -> list:
    """The modes of one conjugate pair: amps[k] t^k e^(rate t) and their mirrors."""
    return [m for k, a in enumerate(amps) for m in ((a, k, rate), (a.conjugate(), k, rate.conjugate()))]


FLOOR = signal.ANGLE_MIN_POINTS

CASES = {
    # w = 1e3 over ten seconds: |wt| up to 1e4
    "w1e3": (pair([0.5 - 0.25j], complex(-0.05, 1e3)) + [(0.75, 0, -0.5)], np.linspace(0.0, 10.0, 20_000)),
    "w1e3-late": (pair([1.0 + 0.0j], 1e3j), np.linspace(5.0, 10.0, 4_000)),
    # a grid spanning negative t, and one from t_0 = 0
    "negative-span": (pair([0.3 + 0.7j], complex(0.2, 37.0)) + [(-1.5, 0, 0.1)], np.linspace(-6.0, 4.0, 5_001)),
    "from-zero": (pair([-1.25 + 0.5j], complex(-0.02, 50.0)), np.linspace(0.0, 30.0, 10_000)),
    "all-negative": (pair([0.8 + 0.1j], complex(-0.3, 9.0)), np.linspace(-12.0, -2.0, 3_000)),
    # powers up to 3 on one pair
    "powers": (pair([0.5 + 0.5j, -0.25j, 0.125 + 0.0j, -0.03 + 0.02j], complex(-0.7, 6.0)) + [(2.0, 1, 0.0)],
               np.linspace(0.001, 8.0, 4_000)),
    # either side of the size floor
    "below-floor": (pair([0.5 + 0.0j], complex(-0.1, 20.0)), np.linspace(0.01, 5.0, FLOOR - 1)),
    "at-floor": (pair([0.5 + 0.0j], complex(-0.1, 20.0)), np.linspace(0.01, 5.0, FLOOR)),
}


@pytest.mark.parametrize("name", CASES)
def test_both_paths_within_the_bound(name):
    modes, t = CASES[name]
    x = Signal(modes)
    rng = np.random.default_rng(sum(map(ord, name)))
    cols = 4 * math.isqrt(len(t))
    # both ends, the first row, the first samples of the next rows, and a spread
    idx = np.unique(np.concatenate([
        [0, len(t) - 1],
        np.arange(0, min(cols, len(t)), 37),
        np.arange(cols, len(t), cols),
        rng.choice(len(t), 150, replace=False),
    ]))
    want = reference(x, t[idx])
    limit = bound(x, t[idx], float(t[0]))
    on_grid = x(t)[idx]                    # angle addition at or above the floor
    sampled = x(t[idx])                    # not uniform: cos and sin at each sample
    for got in (on_grid, sampled):
        err = np.abs(got - want)
        assert np.all(err <= limit), f"worst {np.max(err / limit):.3g} of the bound"
