"""Polynomial and rational-function arithmetic over the transform variable s.

Coefficients are stored lowest degree first.  Rational functions keep their
denominator monic so that coefficient comparisons are meaningful.  Root
finding goes through the companion matrix of the one factor whose roots are
unknown, A(s); clustered eigenvalues are merged into multiple roots, each
the mean of its cluster.  Factors known exactly (the input's rates) are
added as they are, and partial fraction expansion takes the pole list.  The
roots are closed under conjugation exactly, by construction and with no
tolerance: the real eigensolver returns complex eigenvalues as exact
conjugate pairs, and each mean is summed in an order that conjugation
preserves.  So the poles of an expansion pair up by exact key, and
`signal.from_partial_fractions` makes the closed form exactly real from
them; nothing here casts a complex result to real by tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStrictlyProper

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
        self.num = num * (1.0 / lead)
        self.den = den * (1.0 / lead)

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

    The eigenvalues of an exact multiplicity-m root scatter like eps**(1/m),
    so each candidate multiplicity gets its own radius: working from the
    largest plausible multiplicity downward, connected components (single
    linkage among group centroids) holding at least m eigenvalues merge into
    one group, provided their diameter is at most twice the radius (relative
    to 1 + their largest modulus), since single linkage alone chains evenly
    spaced distinct roots.  Genuinely distinct roots merge only within the
    m = 2 radius of each other; roots packed more tightly than the radius for
    their count are indistinguishable from a true multiple root in double
    precision and are treated as one.

    One pass over the pairwise distances first screens out every round that
    cannot merge.  A merging component holds at least m eigenvalues whose
    diameter is within 2 radius (1 + their largest modulus), so each of them
    has at least m - 1 others within 2 radius (1 + the largest modulus of
    all); where no eigenvalue does, the round's first linkage pass would
    merge nothing and leave the groups as they are.  The distances and
    moduli are computed as `_compact` computes them, so skipping such a
    round is exact: the groups, and their order, are those of running every
    round.
    """
    groups: list[list[complex]] = [[complex(r)] for r in roots]
    if len(groups) < 2:
        return groups
    # reach[k]: the smallest distance from any eigenvalue to its k-th nearest other
    dist = np.abs(roots[:, None] - roots)
    dist.sort()
    reach = dist.min(axis=0).tolist()
    top = float(np.abs(roots).max())
    for m in range(len(groups), 1, -1):
        radius = _merge_radius(m)
        if reach[m - 1] > 2.0 * radius * (1.0 + top):
            continue
        while True:
            comps = _link_components(groups, radius)
            merge = [
                len(c) > 1
                and sum(len(groups[i]) for i in c) >= m
                and _compact([z for i in c for z in groups[i]], radius)
                for c in comps
            ]
            if not any(merge):
                break
            new_groups: list[list[complex]] = []
            for comp, merging in zip(comps, merge):
                if merging:
                    new_groups.append([z for i in comp for z in groups[i]])
                else:
                    new_groups.extend(groups[i] for i in comp)
            groups = new_groups
    return groups


def _compact(points: list[complex], radius: float) -> bool:
    z = np.array(points)
    diameter = np.abs(z[:, None] - z[None, :]).max()
    return diameter <= 2.0 * radius * (1.0 + np.abs(z).max())


def _link_components(groups: list[list[complex]], radius: float) -> list[list[int]]:
    """Connected components of groups whose centroids sit within radius."""
    centers = [_centroid(g) for g in groups]
    seen = [False] * len(groups)
    comps: list[list[int]] = []
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


def _centroid(group: list[complex]) -> complex:
    if len(group) == 1:
        return group[0]
    # Summed in (re, |im|, im) order, which conjugation preserves: a cluster
    # and its mirror image get bit-exact conjugate means, and a cluster that
    # is its own mirror image an exactly real one.
    return sum(sorted(group, key=lambda z: (z.real, abs(z.imag), z.imag))) / len(group)


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
    raw = np.roots(np.asarray(p.coeffs[::-1], dtype=float))
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


def root_product(roots, lead: complex = 1.0, count: int | None = None) -> np.ndarray:
    """Coefficients of lead * prod (s - r) over the roots, lowest degree first.

    Complex, one linear factor at a time in the order given; pass a root k
    times for a factor (s - r)^k.  With `count`, only the lowest `count`
    coefficients are formed (zero-padded past the degree): a coefficient
    never depends on the ones above it, so they are those of the full
    product.
    """
    size = len(roots) + 1 if count is None else count
    acc = [complex(lead)] + [0j] * (size - 1)
    for top, r in enumerate(roots, start=1):
        r = complex(r)
        # times (s - r), top down: acc[k] <- acc[k-1] - r acc[k]
        for k in range(min(top, size - 1), 0, -1):
            acc[k] = acc[k - 1] - r * acc[k]
        acc[0] *= -r
    return np.array(acc)


def _taylor(coeffs, x0: complex, count: int) -> np.ndarray:
    """First `count` Taylor coefficients of the polynomial about x0."""
    work = np.array(coeffs, dtype=complex)
    out = np.zeros(count, dtype=complex)
    for k in range(min(count, len(work))):
        # synthetic division by (s - x0) in place: the remainder p(x0) lands
        # in work[0] and is the next coefficient, the quotient in work[1:]
        acc = 0.0 + 0.0j
        for i in range(len(work) - 1, -1, -1):
            acc = acc * x0 + work[i]
            work[i] = acc
        out[k] = acc
        work = work[1:]
    return out


def partial_fractions(rf: RationalFunction, poles) -> tuple[PartialFractionTerm, ...]:
    """Expand a strictly proper rational function into coeff/(s - pole)**order terms.

    `poles` are the denominator's (pole, multiplicity) pairs, as `poly_roots`
    returns them; the denominator is not root-found here.  Each pole p of
    multiplicity m contributes terms of order 1..m whose coefficients come
    from the Taylor expansion of num / [den / (s - p)^m] at p, so repeated
    poles need no symbolic differentiation.  The Taylor coefficients of
    den / (s - p)^m are those of lead * prod (sigma - (q - p)) in
    sigma = s - p over the other poles q, formed from the pole differences
    rather than by dividing den down, which loses accuracy when poles sit
    close together.  Every transform the package assembles is strictly
    proper; any other input would have a polynomial part, whose time-domain
    counterpart is impulsive, and raises NotStrictlyProper.  Coefficients
    at conjugate poles are returned as computed, which is conjugate only up
    to rounding; `signal.from_partial_fractions` pairs them by exact pole
    and makes them exactly conjugate.
    """
    num, den = rf.num, rf.den
    if num.degree >= den.degree:
        raise NotStrictlyProper(
            "expansion has a polynomial part; the time-domain counterpart "
            "is impulsive and outside the exponential-polynomial class"
        )
    if sum(m for _, m in poles) != den.degree:
        raise ValueError(f"pole multiplicities must sum to the denominator's degree {den.degree}")
    if num.is_zero:
        return ()
    terms: list[PartialFractionTerm] = []
    for i, (pole, mult) in enumerate(poles):
        others = [q - pole for j, (q, mq) in enumerate(poles) if j != i for _ in range(mq)]
        den_t = root_product(others, den.coeffs[-1], mult)
        num_t = _taylor(num.coeffs, pole, mult)
        ratio = np.zeros(mult, dtype=complex)
        for j in range(mult):
            acc = num_t[j]
            for k in range(1, j + 1):
                acc -= den_t[k] * ratio[j - k]
            ratio[j] = acc / den_t[0]
        terms.extend(PartialFractionTerm(pole, mult - j, ratio[j]) for j in range(mult))
    return tuple(terms)
