from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ltivp import poly
from ltivp.poly import (
    PartialFractionTerm,
    Polynomial,
    RationalFunction,
    _centroid,
    _cluster,
    _companion_roots,
    _components,
    _merge_radius,
    add_coeffs,
    partial_fractions,
    poly_roots,
)
from ltivp.signal import Signal, from_partial_fractions, laplace_transform

from conftest import cross_error, poly_from_roots, random_poles


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


_gap = st.floats(-9, -2).map(lambda e: 10.0**e)  # straddles the m = 2 radius, 4.7e-7
_near_pair_site = st.builds(lambda x, g: [x - g / 2, x + g / 2], st.floats(-3, 3), _gap)
_chain_site = st.builds(
    lambda x, step, k: [x + j * step for j in range(k)],
    st.floats(-3, 3),
    st.floats(-4, 0).map(lambda e: 10.0**e),
    st.integers(3, 8),
)
_near_mirror_site = st.builds(
    lambda re, im, g: [complex(re, im), complex(re, -im), complex(re + g, im), complex(re + g, -im)],
    st.floats(-3, 3),
    st.floats(0, 3, exclude_min=True),
    _gap,
)
#: Companion-matrix eigenvalues of polynomials whose roots cluster: m-fold
#: roots and pairs (m <= 4), near pairs, evenly spaced chains and near
#: conjugate mirrors, degree at most 16.
clustered_eigenvalues = (
    st.lists(
        st.one_of(_real_site, _pair_site, _near_pair_site, _chain_site, _near_mirror_site),
        min_size=1,
    )
    .map(_first_sites)
    .map(lambda roots: np.roots(poly_from_roots(roots).coeffs[::-1]))
)


def cluster_every_round(roots):
    """The clustering before merged roots were final, with no screen: every
    round m = N .. 2 relinks the group centroids until nothing merges, and a
    merged group can grow in a later round."""
    groups = [[complex(r)] for r in roots]
    for m in range(len(groups), 1, -1):
        radius = _merge_radius(m)
        while True:
            comps = _centroid_components(groups, radius)
            merge = [
                len(c) > 1
                and sum(len(groups[i]) for i in c) >= m
                and _diameter_within([z for i in c for z in groups[i]], radius)
                for c in comps
            ]
            if not any(merge):
                break
            new_groups = []
            for comp, merging in zip(comps, merge):
                if merging:
                    new_groups.append([z for i in comp for z in groups[i]])
                else:
                    new_groups.extend(groups[i] for i in comp)
            groups = new_groups
    return groups


def _diameter_within(points, radius):
    z = np.array(points)
    diameter = np.abs(z[:, None] - z[None, :]).max()
    return diameter <= 2.0 * radius * (1.0 + np.abs(z).max())


def _centroid_components(groups, radius):
    """Connected components of groups whose centroids sit within radius."""
    centers = [_centroid(g) for g in groups]
    seen = [False] * len(groups)
    comps = []
    for start in range(len(groups)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(len(groups)):
                if seen[j]:
                    continue
                scale = 1.0 + max(abs(centers[i]), abs(centers[j]))
                if abs(centers[i] - centers[j]) <= radius * scale:
                    seen[j] = True
                    comp.append(j)
                    frontier.append(j)
        comps.append(comp)
    return comps


def _by_value(z):
    return (z.real, z.imag)


def grouping(groups):
    """The groups as a multiset of multisets: neither order reaches `poly_roots`."""
    return Counter(tuple(sorted(g, key=_by_value)) for g in groups)


def cluster_roots(groups):
    """The sorted (root, multiplicity) pairs that `poly_roots` takes from the groups."""
    return sorted(((_centroid(g), len(g)) for g in groups), key=lambda rm: (*_by_value(rm[0]), rm[1]))


def root_product_array(roots, lead, count):
    """The lowest `count` coefficients of lead * prod (s - r), as a complex array."""
    acc = [complex(lead)] + [0j] * (count - 1)
    for top, r in enumerate(roots, start=1):
        r = complex(r)
        for k in range(min(top, count - 1), 0, -1):
            acc[k] = acc[k - 1] - r * acc[k]
        acc[0] *= -r
    return np.array(acc)


def taylor_array(coeffs, x0, count):
    """Taylor coefficients about x0 by synthetic division on a complex array."""
    work = np.array(coeffs, dtype=complex)
    out = np.zeros(count, dtype=complex)
    for k in range(min(count, len(work))):
        acc = 0.0 + 0.0j
        for i in range(len(work) - 1, -1, -1):
            acc = acc * x0 + work[i]
            work[i] = acc
        out[k] = acc
        work = work[1:]
    return out


def partial_fractions_array(rf, poles):
    """`partial_fractions` with numpy complex128 arrays for the Taylor
    coefficients and the triangular solve, element by element."""
    num, den = rf.num, rf.den
    terms = []
    for i, (pole, mult) in enumerate(poles):
        others = [q - pole for j, (q, mq) in enumerate(poles) if j != i for _ in range(mq)]
        den_t = root_product_array(others, den.coeffs[-1], mult)
        num_t = taylor_array(num.coeffs, pole, mult)
        ratio = np.zeros(mult, dtype=complex)
        for j in range(mult):
            acc = num_t[j]
            for k in range(1, j + 1):
                acc -= den_t[k] * ratio[j - k]
            ratio[j] = acc / den_t[0]
        terms.extend(PartialFractionTerm(pole, mult - j, ratio[j]) for j in range(mult))
    return tuple(terms)


def _distinct_sites(sites, max_degree=16):
    """(pole, multiplicity) pairs of the sites, each pole once, skipping any
    site that would repeat a pole or pass max_degree."""
    pairs, seen = [], set()
    for site in sites:
        if any(q in seen for q, _ in site) or sum(m for _, m in pairs + site) > max_degree:
            continue
        pairs += site
        seen.update(q for q, _ in site)
    return pairs


_mult = st.integers(1, 4)
# coordinates on a 1e-3 grid: poles that differ are not so close that the
# products of their differences underflow
_coord = st.integers(-3000, 3000).map(lambda k: k / 1000)
_imag = st.integers(1, 3000).map(lambda k: k / 1000)
#: Pole lists as `poly_roots` returns them: distinct complex poles of
#: multiplicity 1-4, real and in conjugate pairs, at 0 and 1e-3 apart.
pole_lists = st.lists(
    st.one_of(
        st.builds(lambda x, m: [(complex(x), m)], _coord, _mult),
        st.builds(
            lambda re, im, m: [(complex(re, im), m), (complex(re, -im), m)], _coord, _imag, _mult
        ),
        st.builds(lambda m: [(0j, m)], _mult),
        st.builds(lambda x, m, k: [(complex(x), m), (complex(x + 1e-3), k)], _coord, _mult, _mult),
    ),
    min_size=1,
).map(_distinct_sites)


def multiple_root_cases():
    """(polynomial, its distinct roots, their common multiplicity k).

    k-fold real roots for k = 2..10 and k-fold conjugate pairs for k = 2..5:
    from k = 6 on the diameter cap is stricter than single linkage, as k
    points on a circle of radius r link at neighbour distance 2 r sin(pi / k).
    """
    cases = []
    for k in range(2, 11):
        cases.append((Polynomial([comb(k, j) for j in range(k + 1)]), [-1.0], k))
        cases.append((poly_from_roots([-0.7] * k), [-0.7], k))
    for k in range(2, 6):
        p = Polynomial.one()
        for _ in range(k):
            p = p * Polynomial([5.0, 2.0, 1.0])
        cases.append((p, [complex(-1, -2), complex(-1, 2)], k))
    return cases


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

    @pytest.mark.parametrize("lead", [49.0, 98.0, 103.0, 239.0])
    def test_denominator_exactly_monic(self, lead):
        # lead * (1 / lead) is 0.9999999999999999 for these; lead / lead is 1
        rf = RationalFunction(Polynomial.one(), Polynomial([1.0, lead]))
        assert rf.den.coeffs[-1] == 1.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial.one(), Polynomial.zero())

    def test_cross_error_detects_common_factors(self):
        # (s+1)/(s^2+6s+5) vs 1/(s+5): same function, different representations
        a = RationalFunction(Polynomial([1.0, 1.0]), Polynomial([5.0, 6.0, 1.0]))
        b = RationalFunction(Polynomial([1.0]), Polynomial([5.0, 1.0]))
        assert cross_error(a, b) == 0.0
        c = RationalFunction(Polynomial([1.1]), Polynomial([5.0, 1.0]))
        assert cross_error(a, c) > 0.05


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
        for p, true, k in multiple_root_cases():
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

    def test_rate_beyond_the_float_range_is_not_near(self):
        # |1.5e308 - 1e308 i| is not a float: the root stays apart from both rates
        got = poly_roots(Polynomial([-1.5e308, 1.0]), [(1e308j, 1), (-1e308j, 1)])
        assert got == [(-1e308j, 1), (1e308j, 1), (1.5e308, 1)]

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


class TestClusterScreen:
    """`_cluster` groups as the every-round clustering does, and runs no round that cannot merge."""

    @settings(max_examples=500)
    @given(clustered_eigenvalues)
    def test_screen_is_exact(self, raw):
        got, want = _cluster(raw), cluster_every_round(raw)
        assert grouping(got) == grouping(want)
        assert cluster_roots(got) == cluster_roots(want)

    @pytest.mark.parametrize("coeffs", [[4.0], [2.0, 1.0]], ids=["N=0", "N=1"])
    def test_fewer_than_two_eigenvalues(self, coeffs):
        raw = np.roots(coeffs[::-1])
        assert _cluster(raw) == cluster_every_round(raw) == [[complex(r)] for r in raw]

    @pytest.fixture
    def link_calls(self, monkeypatch):
        calls = []

        def counting(free, near):
            calls.append(len(free))
            return _components(free, near)

        monkeypatch.setattr(poly, "_components", counting)
        return calls

    @pytest.mark.parametrize(
        "poles",
        [
            list(np.linspace(-4.0, -0.5, 16)),
            [c + s * 0.5e-4 for c in np.linspace(-4.0, -0.5, 8) for s in (-1, 1)],
        ],
        ids=["evenly-spaced", "near-pairs"],
    )
    def test_distinct_roots_run_no_round(self, link_calls, poles):
        roots = poly_roots(poly_from_roots(poles))
        assert [m for _, m in roots] == [1] * 16
        assert link_calls == []

    def test_multiple_roots_still_run_their_round(self, link_calls):
        cases = [(Polynomial([1.0, 3.0, 3.0, 1.0]), [-1.0], 3)] + multiple_root_cases()
        for p, true, k in cases:
            link_calls.clear()
            roots = poly_roots(p)
            assert [m for _, m in roots] == [k] * len(true), (p, roots)
            assert link_calls, p


class TestCompanionRoots:
    """`_companion_roots` is `np.roots` on the reversed coefficients, bit for bit."""

    @staticmethod
    def assert_as_np_roots(coeffs):
        got, want = _companion_roots(tuple(coeffs)), np.roots(np.asarray(coeffs[::-1], dtype=float))
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize(
        "coeffs",
        [
            [4.0],
            [2.0, 1.0],
            [0.0, 3.0],
            [5.0, 6.0, 1.0],
            [5.0, 2.0, 1.0],
            [0.0, 6.0, 5.0, 1.0],
            [0.0, 0.0, 6.0, 5.0, 1.0],
            [0.0, 0.0, 5.0, 2.0, 1.0],
            [0.0, 0.0, 2.0],
        ],
        ids=["constant", "degree-1", "only-zero", "real", "complex", "one-zero", "two-zeros",
             "two-zeros-complex", "zeros-only"],
    )
    def test_cases(self, coeffs):
        self.assert_as_np_roots(coeffs)

    def test_real_spectrum_is_a_float_array(self):
        assert _companion_roots((0.0, 6.0, 5.0, 1.0)).dtype == np.float64
        assert _companion_roots((5.0, 2.0, 1.0)).dtype == np.complex128

    @given(
        st.integers(0, 2),
        st.lists(st.floats(-5, 5), min_size=0, max_size=16),
        # a leading coefficient away from 0 keeps the companion matrix finite
        st.one_of(st.floats(-5, -0.1), st.floats(0.1, 5)),
    )
    def test_random(self, zeros, middle, lead):
        self.assert_as_np_roots([0.0] * zeros + middle + [lead])


class TestPartialFractionsScalar:
    """`partial_fractions` on Python scalars returns the array form's terms, bit for bit."""

    @settings(max_examples=300)
    @given(pole_lists, st.lists(st.floats(-3, 3), min_size=1, max_size=16))
    def test_matches_array_form(self, poles, num):
        den = poly_from_roots([q for q, m in poles for _ in range(m)])
        rf = RationalFunction(Polynomial(num[: den.degree]), den)
        if rf.num.is_zero:
            return
        got, want = partial_fractions(rf, poles), partial_fractions_array(rf, poles)
        assert got == want
        # repr also pins the sign of every zero and the coefficient type
        assert repr(got) == repr(want)

    def test_repeated_pole_rejected(self):
        rf = RationalFunction(Polynomial.one(), poly_from_roots([-1.0, -1.0]))
        with pytest.raises(ValueError, match=r"^pole -1\.0 appears twice"):
            partial_fractions(rf, [(-1.0, 1), (-1.0, 1)])

    @pytest.mark.parametrize(
        "poles",
        [[(1e-170j, 1), (-1e-170j, 1), (1e-160, 1)], [(0.0, 2), (1e-170, 2)]],
        ids=["simple", "multiple"],
    )
    def test_underflowing_pole_product_rejected(self, poles):
        # the distances are nonzero, but their product is below the smallest double
        rf = RationalFunction(Polynomial.one(), Polynomial([0.0] * sum(m for _, m in poles) + [1.0]))
        with pytest.raises(ValueError, match=r"^pole [^\n]*: the product of its distances to the other poles underflows to zero$"):
            partial_fractions(rf, poles)


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
        with pytest.raises(ValueError, match="polynomial part"):
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
        assert Signal(y.modes).modes == y.modes

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
