"""Polynomial and rational-function arithmetic over the transform variable s.

Coefficients are stored lowest degree first.  Rational functions keep their
denominator monic so that coefficient comparisons are meaningful.  Root
finding goes through the companion matrix of the one factor whose roots are
unknown, A(s).  Its eigenvalues are clustered by single linkage on one
matrix of pairwise distances, one round per candidate multiplicity m from
the largest down: a chain of at least m eigenvalues linked within the
radius for m, and at most twice it across, merges into one multiple root,
the mean of its cluster, and a merged root is final.  Factors known
exactly (the input's rates) are added as they are, and partial fraction
expansion takes the pole list.  The roots are closed under conjugation
exactly, by construction and with no tolerance: the real eigensolver
returns complex eigenvalues as exact conjugate pairs, and each mean is
summed in an order that conjugation preserves.  So the poles of an
expansion pair up by exact key, and `signal.from_partial_fractions` makes
the closed form exactly real from them; nothing here casts a complex
result to real by tolerance.

The loops over poles and coefficients (root products, Taylor shifts, the
triangular solve of `partial_fractions`) run on Python floats and complex
numbers: the lists hold one to a few dozen entries, where numpy's
per-element overhead costs more than the arithmetic.  Python's complex `*`,
`+` and `-` round exactly as numpy's do; its `/` does not, so each division
that produces a coefficient stays a numpy complex128 division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)

class Polynomial:
    """Real-coefficient polynomial, coefficients lowest degree first.

    Immutable; arithmetic returns new instances.  The zero polynomial is
    stored as a single zero coefficient and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [float(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not c:
            c = [0.0]
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([0.0])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1.0])

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coeffs) - 1

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(add_coeffs(self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial([other * c for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0.0:
                continue
            mag = fmt_number(abs(c))
            if k == 0:
                body = mag
            else:
                var = "s" if k == 1 else f"s^{k}"
                body = var if abs(c) == 1.0 else f"{mag} {var}"
            terms.append((c, body))
        return signed_sum(terms)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def fmt_number(x: float) -> str:
    """A number as printed everywhere: 12 significant digits, -0.0 as 0."""
    # adding 0.0 turns -0.0 into a plain zero and leaves every other value as is
    return f"{x + 0.0:.12g}"


def signed_sum(terms) -> str:
    """Join (coefficient, body) terms as "a + b - c": only a negative coefficient takes a minus sign."""
    parts = []
    for c, body in terms:
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


class RationalFunction:
    """Ratio of two polynomials in s, stored with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        lead = den.coeffs[-1]
        if lead == 1.0:
            # x / 1 is x: keep the (immutable) polynomials as given
            self.num, self.den = num, den
        else:
            # lead / lead is exactly 1; lead * (1 / lead) need not be
            self.num = Polynomial([c / lead for c in num.coeffs])
            self.den = Polynomial([c / lead for c in den.coeffs])

    def max_cross_error(self, other: "RationalFunction") -> float:
        """Largest coefficient of num1*den2 - num2*den1, relative to the
        largest coefficient of either product (floored at 1).

        Both denominators are monic by construction, so this measures
        coefficient-level disagreement without requiring common factors to
        have been cancelled on either side; the scaling keeps the figure
        meaningful when the coefficients themselves are large.
        """
        left = self.num * other.den
        right = other.num * self.den
        scale = max(
            1.0,
            max((abs(c) for c in left.coeffs), default=0.0),
            max((abs(c) for c in right.coeffs), default=0.0),
        )
        diff = left - right
        return max(abs(c) for c in diff.coeffs) / scale

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# root finding


def _merge_radius(m: int) -> float:
    # Companion-matrix eigenvalues of a multiplicity-m root scatter like
    # eps**(1/m), so the merge radius must grow with the candidate size.
    return (1e3 * _EPS) ** (1.0 / m)


def _cluster(roots: np.ndarray) -> list[list[complex]]:
    """Group companion-matrix eigenvalues into candidate multiple roots.

    The eigenvalues of an exact m-fold root scatter like eps**(1/m), so each
    candidate multiplicity m has its own radius, and the rounds run from the
    largest m down.  A round links two eigenvalues not yet merged when their
    distance is at most the radius times 1 + the larger modulus; a connected
    component of at least m of them becomes one group if its diameter is at
    most twice the radius (times 1 + its largest modulus), since single
    linkage alone chains evenly spaced distinct roots.  A merged group is
    final.  Roots packed more tightly than the radius for their count are
    indistinguishable from a true multiple root in double precision.

    One matrix of pairwise distances serves the links, the diameters and a
    screen: each eigenvalue of a merging component has m - 1 others within
    2 radius (1 + the largest modulus of all), so a round where none has is
    skipped.
    """
    points = roots.astype(complex, copy=False).tolist()
    if len(points) < 2:
        return [[z] for z in points]
    dist = np.abs(roots[:, None] - roots)
    mod = np.abs(roots)
    # reach[k]: the smallest distance from any eigenvalue to its k-th nearest other
    reach = np.sort(dist).min(axis=0).tolist()
    top = float(mod.max())
    groups: list[list[complex]] = []
    free = list(range(len(points)))
    for m in range(len(points), 1, -1):
        radius = _merge_radius(m)
        if reach[m - 1] > 2.0 * radius * (1.0 + top):
            continue
        near = (dist <= radius * (1.0 + np.maximum.outer(mod, mod))).tolist()
        rest: list[int] = []
        for comp in _components(free, near):
            if len(comp) >= m and dist[np.ix_(comp, comp)].max() <= 2.0 * radius * (1.0 + mod[comp].max()):
                groups.append([points[i] for i in comp])
            else:
                rest += comp
        free = rest
    return groups + [[points[i]] for i in free]


def _components(free: list[int], near: list[list[bool]]) -> list[list[int]]:
    """Connected components of the indices `free` under the links near[i][j]."""
    left = set(free)
    comps: list[list[int]] = []
    for start in free:
        if start not in left:
            continue
        left.remove(start)
        comp = [start]
        for i in comp:  # grows as the component is found
            linked = [j for j in left if near[i][j]]
            left.difference_update(linked)
            comp += linked
        comps.append(comp)
    return comps


def _centroid(group: list[complex]) -> complex:
    if len(group) == 1:
        return group[0]
    # Summed in (re, |im|, im) order, which conjugation preserves: a cluster
    # and its mirror image get bit-exact conjugate means, and a cluster that
    # is its own mirror image an exactly real one.
    return sum(sorted(group, key=lambda z: (z.real, abs(z.imag), z.imag))) / len(group)


def _companion_roots(coeffs: tuple[float, ...]) -> np.ndarray:
    """The eigenvalues of the companion matrix, exactly as `np.roots` returns them.

    `coeffs` lowest degree first, the last nonzero.  Zero low-order
    coefficients are stripped and their roots appended as exact zeros; the
    first row is -p[1:] / p[0] of the highest-first coefficients.  The values,
    their order and the dtype (float when every eigenvalue is real) are those
    of `np.roots`, without its generic checks and array reshaping.
    """
    zeros = 0
    while coeffs[zeros] == 0.0:
        zeros += 1
    *rest, lead = coeffs[zeros:]
    if rest:
        A = np.eye(len(rest), k=-1)
        A[0] = [-c / lead for c in reversed(rest)]
        roots = np.linalg.eigvals(A)
    else:
        roots = np.array([])
    return np.concatenate((roots, np.zeros(zeros, roots.dtype))) if zeros else roots


def poly_roots(p: Polynomial, known=()) -> list[tuple[complex, int]]:
    """All roots of p * prod (s - r)^k over the known (r, k) pairs, as
    (root, multiplicity) pairs.

    Only p is root-found, from the eigenvalues of its companion matrix.
    Eigenvalues that agree to within the (multiplicity-aware) cluster radius
    are merged into a single root whose multiplicity is the cluster size.
    The root is the mean of the cluster, which rounding disturbs far less
    than any one of its eigenvalues, so no refinement follows.  Resonance:
    a root of multiplicity m within the radius for m + k of a known r
    (relative to 1 + |r|) becomes r, with multiplicity m + k.  Multiplicities
    sum to the degree of the product, and the pairs come sorted by (real,
    imag) part.  With conjugate-closed known factors
    the set is closed under conjugation exactly, with no tolerance (see
    `_centroid`), and a root that is its own conjugate is exactly real.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    raw = _companion_roots(p.coeffs)
    found = [(_centroid(g), len(g)) for g in _cluster(raw)]
    pairs = []
    for rate, k in known:
        near = [(z, m) for z, m in found if abs(z - rate) <= _merge_radius(m + k) * (1.0 + abs(rate))]
        found = [zm for zm in found if zm not in near]
        pairs.append((complex(rate), k + sum(m for _, m in near)))
    return sorted(found + pairs, key=lambda rm: (rm[0].real, rm[0].imag))


# ---------------------------------------------------------------------------
# partial fractions


@dataclass(frozen=True)
class PartialFractionTerm:
    """One expansion term coeff / (s - pole)**order."""

    pole: complex
    order: int
    coeff: complex


def add_coeffs(a, b) -> np.ndarray:
    """Sum of two coefficient arrays of any lengths; complex only if either is."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) < len(b):
        a, b = b, a
    out = np.array(a, dtype=np.result_type(a, b))
    out[: len(b)] += b
    return out


def root_product(roots, lead: complex = 1.0) -> np.ndarray:
    """Coefficients of lead * prod (s - r) over the roots, lowest degree first.

    Complex, one linear factor at a time in the order given; pass a root k
    times for a factor (s - r)^k.
    """
    return np.array(_root_product([complex(r) for r in roots], complex(lead), len(roots) + 1))


def _root_product(roots: list[complex], lead: complex, count: int) -> list[complex]:
    """The lowest `count` coefficients of lead * prod (s - r), zero-padded past
    the degree: a coefficient never depends on the ones above it, so they
    are those of the full product."""
    acc = [lead] + [0j] * (count - 1)
    for top, r in enumerate(roots, start=1):
        # times (s - r), top down: acc[k] <- acc[k-1] - r acc[k]
        for k in range(min(top, count - 1), 0, -1):
            acc[k] = acc[k - 1] - r * acc[k]
        acc[0] *= -r
    return acc


def _taylor(coeffs: list[complex], x0: complex, count: int) -> list[complex]:
    """First `count` Taylor coefficients of the polynomial about x0."""
    work = list(coeffs)
    out = []
    for k in range(min(count, len(work))):
        # synthetic division by (s - x0) in place: the remainder p(x0) lands
        # in work[k] and is the next coefficient, the quotient in work[k+1:]
        acc = 0j
        for i in range(len(work) - 1, k - 1, -1):
            acc = acc * x0 + work[i]
            work[i] = acc
        out.append(acc)
    return out + [0j] * (count - len(out))


def _underflow(pole) -> ValueError:
    return ValueError(f"pole {pole}: the product of its distances to the other poles underflows to zero")


def partial_fractions(rf: RationalFunction, poles) -> tuple[PartialFractionTerm, ...]:
    """Expand a strictly proper rational function into coeff/(s - pole)**order terms.

    `poles` are the denominator's (pole, multiplicity) pairs, as `poly_roots`
    returns them, each pole once; the denominator is not root-found here.
    Each pole p of multiplicity m contributes terms of order 1..m whose
    coefficients come from the Taylor expansion of num / [den / (s - p)^m]
    at p, so repeated poles need no symbolic differentiation.  The Taylor
    coefficients of den / (s - p)^m are those of lead * prod (sigma - (q - p))
    in sigma = s - p over the other poles q, formed from the pole differences
    rather than by dividing den down, which loses accuracy when poles sit
    close together; at a simple pole that is the one product
    lead * prod (p - q).  Every transform the package assembles is strictly
    proper; any other input would have a polynomial part, whose time-domain
    counterpart is impulsive, and raises ValueError.  Coefficients
    at conjugate poles are returned as computed, which is conjugate only up
    to rounding; `signal.from_partial_fractions` pairs them by exact pole
    and makes them exactly conjugate.

    The per-pole arithmetic runs on Python complex scalars: the lists are a
    few to a few dozen entries long, where numpy's per-element overhead
    costs more than the arithmetic.  Python's complex `*`, `+` and `-` round
    as numpy's do, but its `/` does not (numpy multiplies by a reciprocal),
    so the one division per coefficient stays a numpy complex128 division
    and the coefficients are numpy complex128 scalars.

    Distinct poles can still be so close, or so small, that the product of
    a pole's distances to the others underflows to zero; that raises a
    ValueError naming the pole rather than dividing by it.
    """
    num, den = rf.num, rf.den
    if num.degree >= den.degree:
        raise ValueError(
            "expansion has a polynomial part; the time-domain counterpart "
            "is impulsive and outside the exponential-polynomial class"
        )
    if sum(m for _, m in poles) != den.degree:
        raise ValueError(f"pole multiplicities must sum to the denominator's degree {den.degree}")
    seen = set()
    for pole, _ in poles:
        if pole in seen:
            raise ValueError(f"pole {pole} appears twice in the pole list; give it once with its multiplicity")
        seen.add(pole)
    if num.is_zero:
        return ()
    lead = complex(den.coeffs[-1])
    num_c = [complex(c) for c in num.coeffs]
    flat = [complex(q) for q, mq in poles for _ in range(mq)]
    terms: list[PartialFractionTerm] = []
    start = 0
    for pole, mult in poles:
        p = complex(pole)
        others = [q - p for q in flat[:start]] + [q - p for q in flat[start + mult :]]
        start += mult
        if mult == 1:
            den0 = lead
            for r in others:
                den0 *= -r
            if den0 == 0:
                raise _underflow(pole)
            value = 0j
            for c in reversed(num_c):
                value = value * p + c
            terms.append(PartialFractionTerm(pole, 1, np.complex128(value) / np.complex128(den0)))
            continue
        den_t = _root_product(others, lead, mult)
        num_t = _taylor(num_c, p, mult)
        if den_t[0] == 0:
            raise _underflow(pole)
        den0 = np.complex128(den_t[0])
        ratio: list[complex] = []
        for j in range(mult):
            acc = num_t[j]
            for k in range(1, j + 1):
                acc -= den_t[k] * ratio[j - k]
            coeff = np.complex128(acc) / den0
            terms.append(PartialFractionTerm(pole, mult - j, coeff))
            ratio.append(complex(coeff))
    return tuple(terms)
