from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ltivp.errors import NotStrictlyProper
from ltivp.poly import (
    Polynomial,
    RationalFunction,
    add_coeffs,
    partial_fractions,
    poly_roots,
)
from ltivp.signal import Signal, from_partial_fractions, laplace_transform

from conftest import poly_from_roots, random_poles


def _first_sites(sites, max_degree=16):
    """The roots of the sites, skipping any site that would pass max_degree."""
    roots = []
    for site in sites:
        if len(roots) + len(site) <= max_degree:
            roots += site
    return roots


_real_site = st.builds(lambda x, m: [x] * m, st.floats(-3, 3), st.integers(1, 4))
_pair_site = st.builds(
    lambda re, im, m: [complex(re, im), complex(re, -im)] * m,
    st.floats(-3, 3),
    st.floats(0, 3, exclude_min=True),
    st.integers(1, 4),
)
#: Conjugate-closed root multisets: real roots and conjugate pairs, each of
#: multiplicity 1-4, degree at most 16.
conjugate_closed_roots = st.lists(st.one_of(_real_site, _pair_site), min_size=1).map(
    _first_sites
)


def coeff_gap(p, q):
    """Largest coefficient difference, padding the shorter list with zeros."""
    a, b = list(p.coeffs), list(q.coeffs)
    width = max(len(a), len(b))
    a += [0.0] * (width - len(a))
    b += [0.0] * (width - len(b))
    return max(abs(x - y) for x, y in zip(a, b))


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial(self):
        z = Polynomial([0.0, 0.0])
        assert z.is_zero
        assert z.degree == -1
        assert Polynomial.zero().coeffs == z.coeffs

    def test_degree_multiplies(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = Polynomial(rng.uniform(-2, 2, rng.integers(1, 6)))
            q = Polynomial(rng.uniform(-2, 2, rng.integers(1, 6)))
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).degree == p.degree + q.degree

    def test_arithmetic(self):
        s = Polynomial([0.0, 1.0])
        p = (s + Polynomial([1.0])) * (s + Polynomial([5.0]))
        assert p.coeffs == (5.0, 6.0, 1.0)
        assert (p - p).is_zero
        assert (s * 2.0).coeffs == (0.0, 2.0)

    def test_add_coeffs_keeps_real_input_real(self):
        real = add_coeffs((1.0, 2.0), (3.0,))
        assert real.dtype == np.float64
        assert real.tolist() == [4.0, 2.0]
        mixed = add_coeffs(np.array([1.0]), np.array([1j, 2.0]))
        assert mixed.dtype == np.complex128
        assert mixed.tolist() == [1 + 1j, 2.0]

    def test_from_roots(self):
        assert poly_from_roots([-1.0, -5.0]).coeffs == (5.0, 6.0, 1.0)

    def test_from_roots_conjugates(self):
        assert poly_from_roots([complex(-1, 2), complex(-1, -2)]).coeffs == (5.0, 2.0, 1.0)

    def test_str(self):
        assert str(Polynomial([5.0, 6.0, 1.0])) == "s^2 + 6 s + 5"
        assert str(Polynomial([0.0, -1.0])) == "-s"
        assert str(Polynomial.zero()) == "0"


class TestRationalFunction:
    def test_monic_normalization(self):
        rf = RationalFunction(Polynomial([2.0]), Polynomial([2.0, 4.0]))
        assert rf.den.coeffs == (0.5, 1.0)
        assert rf.num.coeffs == (0.5,)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial.one(), Polynomial.zero())

    def test_cross_error_detects_common_factors(self):
        # (s+1)/(s^2+6s+5) vs 1/(s+5): same function, different representations
        a = RationalFunction(Polynomial([1.0, 1.0]), Polynomial([5.0, 6.0, 1.0]))
        b = RationalFunction(Polynomial([1.0]), Polynomial([5.0, 1.0]))
        assert a.max_cross_error(b) == 0.0
        c = RationalFunction(Polynomial([1.1]), Polynomial([5.0, 1.0]))
        assert a.max_cross_error(c) > 0.05


class TestRoots:
    def test_distinct_real(self):
        assert poly_roots(Polynomial([5.0, 6.0, 1.0])) == [(-5.0, 1), (-1.0, 1)]

    def test_exact_double_zero(self):
        assert poly_roots(Polynomial([0.0, 0.0, 1.0])) == [(0.0, 2)]

    def test_triple_root(self):
        [(root, mult)] = poly_roots(Polynomial([1.0, 3.0, 3.0, 1.0]))
        assert mult == 3
        assert abs(root - (-1.0)) < 1e-9

    def test_quadruple_root(self):
        # k-fold real roots for k = 2..10 and k-fold conjugate pairs for
        # k = 2..5: from k = 6 on the diameter cap is stricter than single
        # linkage, as k points on a circle of radius r link at neighbour
        # distance 2 r sin(pi / k)
        cases = []
        for k in range(2, 11):
            cases.append((Polynomial([comb(k, j) for j in range(k + 1)]), [-1.0], k))
            cases.append((poly_from_roots([-0.7] * k), [-0.7], k))
        for k in range(2, 6):
            p = Polynomial.one()
            for _ in range(k):
                p = p * Polynomial([5.0, 2.0, 1.0])
            cases.append((p, [complex(-1, -2), complex(-1, 2)], k))
        for p, true, k in cases:
            roots = poly_roots(p)
            assert [m for _, m in roots] == [k] * len(true), (p, roots)
            for (root, _), want in zip(roots, true):
                assert abs(root - want) < 1e-8, (p, roots)

    def test_evenly_spaced_roots_do_not_chain(self):
        # single linkage at the m = 16 radius would chain these into one root
        poles = list(np.linspace(-4.0, -0.5, 16))
        for extra in ([], [0.0, 0.0]):
            roots = poly_roots(poly_from_roots(poles + extra))
            assert sorted(m for _, m in roots) == [1] * 16 + [2] * (len(extra) // 2)
            for root, mult in roots:
                want = 0.0 if mult == 2 else min(poles, key=lambda q: abs(q - root))
                assert abs(root - want) <= 1e-3

    def test_nearby_distinct_roots_stay_separate(self):
        roots = poly_roots(poly_from_roots([-1.0, -1.001]))
        assert [m for _, m in roots] == [1, 1]

    def test_conjugate_closure(self):
        roots = poly_roots(poly_from_roots([complex(-1, 2), complex(-1, -2), -3.0]))
        assert [m for _, m in roots] == [1, 1, 1]
        [lower, upper] = [r for r, _ in roots if r.imag != 0.0]
        assert lower == upper.conjugate()
        assert abs(upper - complex(-1, 2)) <= 1e-12

    @settings(derandomize=True, deadline=None)
    @given(conjugate_closed_roots)
    def test_conjugate_closure_is_exact(self, true_roots):
        p = poly_from_roots(true_roots)
        roots = poly_roots(p)
        # close roots may merge, so only the total multiplicity is pinned
        assert sum(m for _, m in roots) == p.degree
        assert Counter(roots) == Counter((r.conjugate(), m) for r, m in roots)
        for root, _ in roots:
            # a root its own conjugate up to rounding is exactly real
            if abs(root.imag) <= 16 * np.finfo(float).eps * (1.0 + abs(root)):
                assert root.imag == 0.0, roots

    def test_known_factors_are_taken_as_given(self):
        assert poly_roots(Polynomial([5.0, 6.0, 1.0]), [(0.0, 2)]) == [(-5.0, 1), (-1.0, 1), (0.0, 2)]
        assert poly_roots(Polynomial([4.0]), [(-2.0, 3)]) == [(-2.0, 3)]
        # known rates are exact: however close, they never merge
        assert poly_roots(Polynomial.one(), [(-1.0, 1), (-1.0 + 1e-9, 1)]) == [(-1.0, 1), (-1.0 + 1e-9, 1)]
        # 1e-3 from the known rate: outside the merge radius, so distinct
        assert poly_roots(poly_from_roots([-1.001]), [(-1.0, 1)]) == [(-1.001, 1), (-1.0, 1)]

    def test_resonant_root_becomes_the_known_rate(self):
        # a root within the radius for the summed multiplicity of a known
        # rate is that rate, exactly, and a conjugate pair stays one
        assert poly_roots(poly_from_roots([-1.0 + 1e-9]), [(-1.0, 2)]) == [(-1.0, 3)]
        assert poly_roots(poly_from_roots([-1.0, -1.0]), [(-1.0, 1)]) == [(-1.0, 3)]
        assert poly_roots(Polynomial([1.0, 0.0, 1.0]), [(1j, 1), (-1j, 1)]) == [(-1j, 2), (1j, 2)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial.zero())

    def test_constant_has_no_roots(self):
        assert poly_roots(Polynomial([4.0])) == []

    def test_multiplicities_sum_to_degree(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            coeffs = rng.uniform(-5, 5, deg + 1)
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 1.0
            p = Polynomial(coeffs)
            assert sum(m for _, m in poly_roots(p)) == p.degree

    def test_root_residuals_small(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            deg = int(rng.integers(1, 9))
            coeffs = rng.uniform(-5, 5, deg + 1)
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 1.0
            p = Polynomial(coeffs)
            scale = 1.0 + max(abs(c) for c in p.coeffs)
            for root, _ in poly_roots(p):
                assert abs(np.polyval(p.coeffs[::-1], root)) <= 1e-7 * scale


class TestPartialFractions:
    def test_two_simple_poles(self):
        rf = RationalFunction(Polynomial.one(), poly_from_roots([-1.0, -5.0]))
        got = {(t.pole, t.order): t.coeff for t in partial_fractions(rf, poly_roots(rf.den))}
        assert_allclose(got[(-1.0, 1)], 0.25, atol=1e-12)
        assert_allclose(got[(-5.0, 1)], -0.25, atol=1e-12)

    def test_double_pole_at_zero(self):
        # (s+2)/(s^2 (s+5)) = (3/25)/s + (2/5)/s^2 - (3/25)/(s+5)
        rf = RationalFunction(Polynomial([2.0, 1.0]), Polynomial([0.0, 0.0, 5.0, 1.0]))
        got = {(t.pole, t.order): t.coeff for t in partial_fractions(rf, poly_roots(rf.den))}
        assert_allclose(got[(0.0, 1)], 3.0 / 25.0, atol=1e-12)
        assert_allclose(got[(0.0, 2)], 2.0 / 5.0, atol=1e-12)
        assert_allclose(got[(-5.0, 1)], -3.0 / 25.0, atol=1e-12)

    def test_single_term_passthrough(self):
        rf = RationalFunction(Polynomial.one(), Polynomial([0.0, 1.0]))
        [term] = partial_fractions(rf, poly_roots(rf.den))
        assert term.pole == 0.0 and term.order == 1
        assert_allclose(term.coeff, 1.0)

    def test_improper_gets_polynomial_part(self):
        # s^2 / (s + 1) = s - 1 + 1 / (s + 1): the polynomial part is refused
        rf = RationalFunction(Polynomial([0.0, 0.0, 1.0]), Polynomial([1.0, 1.0]))
        with pytest.raises(NotStrictlyProper, match="polynomial part"):
            partial_fractions(rf, poly_roots(rf.den))

    def test_poles_must_cover_the_denominator(self):
        rf = RationalFunction(Polynomial.one(), poly_from_roots([-1.0, -5.0]))
        with pytest.raises(ValueError, match="degree 2"):
            partial_fractions(rf, [(-1.0, 1)])

    def test_conjugate_coefficients(self):
        rf = RationalFunction(Polynomial([1.0, 2.0]), poly_from_roots([complex(-1, 2), complex(-1, -2)]))
        signal = from_partial_fractions(partial_fractions(rf, poly_roots(rf.den)))
        by_rate = {rate: amp for amp, _, rate in signal.modes}
        assert by_rate[complex(-1, 2)] == by_rate[complex(-1, -2)].conjugate()

    @given(conjugate_closed_roots, st.lists(st.floats(-3, 3), min_size=1, max_size=16))
    def test_inversion_is_exactly_conjugate_closed(self, roots, num):
        den = poly_from_roots(roots)
        rf = RationalFunction(Polynomial(num[: den.degree]), den)
        y = from_partial_fractions(partial_fractions(rf, poly_roots(rf.den)))
        assert Signal(y.modes) == y

    def test_recombination_property(self):
        """500 random proper rational functions survive expansion, inversion and
        transformation back, coefficient-wise."""
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(500):
            deg_d = int(rng.integers(1, 7))
            poles = random_poles(rng, deg_d, sep=0.25, allow_repeats=True)
            den = poly_from_roots(poles)
            num = Polynomial(rng.uniform(-3, 3, int(rng.integers(0, deg_d)) + 1))
            rf = RationalFunction(num, den)
            rec = laplace_transform(from_partial_fractions(partial_fractions(rf, poly_roots(rf.den))))
            worst = max(worst, coeff_gap(rec.num, rf.num), coeff_gap(rec.den, rf.den))
        assert worst <= 1e-8
