"""Exact real root isolation and algebraic-number comparison.

Univariate polynomials over Q are isolated with Descartes'-rule bisection on
the square-free part; every real root comes back as an :class:`AlgebraicNumber`
(integer square-free defining polynomial plus an open isolating interval with
rational non-root endpoints).  Rational roots found exactly are stored with the
degenerate linear encoding ``den*v - num``.  Each bisection interval carries
its local polynomial, the working polynomial with the interval mapped onto
(0, 1), and a child's comes from its parent's by scaling with powers of 2
and, for the right half, a Taylor shift by 1; the test itself is one more
shift by 1.  A midpoint that is a root is divided out of every carried local
polynomial.

Root sets are plain tuples, strictly increasing with pairwise-disjoint
intervals.  :func:`isolate_real_roots`, :func:`merge_distinct` and the
lifting stacks all go through one pass, ``_merge_roots``, that sorts by
:func:`compare`, merges equal roots (keeping a rational encoding) and refines
neighbours apart, taking the copies a comparison already refined apart.
Two rational encodings compare by cross-multiplying, and overlapping
rational neighbours are refined apart by the same halving rounds as any
other pair.

Inside this module a univariate polynomial is a dense list of ``int``
coefficients, low to high, with content 1 (a positive rational multiple of the
polynomial it stands for, so roots and signs are unchanged).  The list helpers
(``dense_from_poly``, ``_deriv``, the integer PRS ``_uni_gcd``,
``_div_exact``) live in :mod:`cadlab.dense`, which ``polys`` shares for its
univariate gcds.  Rationals enter once, at ``dense_from_poly``.  Signs of
other polynomials at an algebraic number are taken in :mod:`cadlab.algpoints`.
Interval endpoints and sample values are ``Fraction``, but every midpoint,
refined rational interval and ``from_rational`` endpoint is built from
integer numerators and denominators with one normalization, not from a chain
of ``Fraction`` operations.  A linear input within the rational-root search's
cap is solved at once.  Nothing here floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .dense import _deriv, _div_exact, _uni_gcd, dense_from_poly
from .errors import checkpoint
from .polys import Poly, _as_coeff

__all__ = [
    "AlgebraicNumber",
    "isolate_real_roots",
    "compare",
    "count_distinct_real_roots",
    "merge_distinct",
]


# -- signs, Descartes counts and bounds on primitive integer lists


def _sign_at(c: Sequence[int], x) -> int:
    """Sign of c at the rational x, from den^n * c(num/den) by homogeneous Horner."""
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for k in reversed(c):
        acc = acc * num + k * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _variations(c: Iterable) -> int:
    count = 0
    prev = 0
    for x in c:
        if x == 0:
            continue
        s = 1 if x > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _taylor_shift(c: list, a) -> list:
    """Coefficients of p(x + a), by repeated synthetic division; O(n^2)."""
    out = list(c)
    n = len(out)
    if a == 0:
        return out
    if a == 1:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += out[j + 1]
        return out
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _on_interval(c: Sequence[int], a: Fraction, b: Fraction) -> list[int]:
    """The local polynomial of c on (a, b): integer coefficients of a positive
    multiple of c(a + (b - a) * x), whose roots in (0, 1) are c's in (a, b).

    The endpoints are cleared to a common denominator first, so every step
    (scale, shift, scale) runs over the integers.
    """
    a, b = Fraction(a), Fraction(b)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    u = a.numerator * (den // a.denominator)
    w = b.numerator * (den // b.denominator) - u
    n = len(c) - 1
    # den^n * c(x / den) has integer coefficients; shifting by the integer u
    # then evaluates c on (x + u)/den
    q = _taylor_shift([c[i] * den ** (n - i) for i in range(n + 1)], u)
    scale = 1
    for i in range(1, len(q)):
        scale *= w
        q[i] *= scale  # c((w*x + u)/den)
    return q


def _local_count(local: list[int]) -> int:
    """Sign-variation bound on the number of roots of a local polynomial in
    (0, 1): the variations of (x+1)^n local(1/(x+1)).  Exact for counts 0
    and 1, parity-exact always."""
    return _variations(_taylor_shift(local[::-1], 1))


def _descartes_count(c: Sequence[int], a: Fraction, b: Fraction) -> int:
    """Sign-variation bound on the number of roots of c in the open (a, b)."""
    return _local_count(_on_interval(c, a, b))


def _root_bound(c: Sequence[int]) -> Fraction:
    """Cauchy bound: every real root has absolute value strictly below it."""
    m = max((abs(x) for x in c[:-1]), default=0)
    return Fraction(1 - (-m // abs(c[-1])))  # ceil(1 + m / |lc|)


def _halves(local: list[int]) -> tuple[list[int], list[int]]:
    """The local polynomials of the two halves of local's interval:
    2^n * local(x / 2) and 2^n * local((x + 1) / 2), for n its degree."""
    n = len(local) - 1
    left = [c << (n - i) for i, c in enumerate(local)]
    return left, _taylor_shift(left, 1)


def _local_root(a: Fraction, b: Fraction, m: Fraction) -> list[int]:
    """The primitive linear factor, positive lead, that the root m of a
    polynomial puts into its local polynomial on (a, b): a positive multiple
    of den(m) * (a + (b - a) * x) - num(m)."""
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    mn, md = m.numerator, m.denominator
    c0 = md * an * bd - mn * ad * bd
    c1 = md * (bn * ad - an * bd)
    g = math.gcd(c0, c1)
    return [c0 // g, c1 // g]


_TRIAL_CAP = 20000


def _small_divisors(n: int) -> list[int] | None:
    """Divisors of |n|, or None when trial division would exceed the cap."""
    n = abs(n)
    if n == 0:
        return None
    if n == 1:
        return [1]
    if n > _TRIAL_CAP * _TRIAL_CAP:
        return None
    divs = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.add(d)
            divs.add(n // d)
        d += 1
    return sorted(divs)


def _divides(d: int, n: int) -> bool:
    return n % d == 0 if d else n == 0


def _rational_roots(c: list[int]) -> tuple[list[Fraction], list[int]]:
    """Extract exact rational roots by the rational-root theorem (capped).

    Returns (roots, remaining coefficients): a zero root first, then the
    others ascending, divided out in that order.  A root p/q in lowest terms
    (q > 0) has p dividing c[0] and q dividing c[-1]; by Gauss's lemma
    c = (q*x - p) * g with g integral, so (q - p) divides c(1) and (q + p)
    divides c(-1).  The search runs over the coprime pairs of divisors and
    evaluates only the signed pairs that pass both tests.  With huge extreme
    coefficients the search is skipped; such rational roots then stay
    interval-encoded, which every consumer handles.
    """
    roots: list[Fraction] = []
    if len(c) > 1 and c[0] == 0:
        # square-free input: the zero root is simple
        roots.append(Fraction(0))
        c = c[1:]
    if len(c) <= 1:
        return roots, c
    if len(c) == 2 and max(abs(c[0]), abs(c[1])) <= _TRIAL_CAP * _TRIAL_CAP:
        # the divisor search would find exactly this root
        r = Fraction(-c[0], c[1])
        return roots + [r], _div_exact(c, [-r.numerator, r.denominator])
    nums = _small_divisors(c[0])
    dens = _small_divisors(c[-1])
    if nums is None or dens is None:
        return roots, c
    at_one = sum(c)
    at_minus_one = sum(c[0::2]) - sum(c[1::2])
    found = sorted(
        Fraction(p, q)
        for q in dens
        for a in nums
        if math.gcd(a, q) == 1
        for p in (a, -a)
        if _divides(q - p, at_one) and _divides(q + p, at_minus_one)
        and _sign_at(c, Fraction(p, q)) == 0
    )
    for r in found:
        roots.append(r)
        c = _div_exact(c, [-r.numerator, r.denominator])
    return roots, c


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: square-free integer defining poly + open interval.

    Exactly one real root of ``coeffs`` lies in (lo, hi) and neither endpoint
    is a root.  Rationals use the degenerate linear encoding den*v - num.
    """

    coeffs: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    @classmethod
    def from_rational(cls, q) -> AlgebraicNumber:
        """q (an ``int`` or ``Fraction``; anything else raises the TypeError
        that ``Poly(...)`` raises) in the interval (q - 1, q + 1)."""
        q = _as_coeff(q)
        num, den = q.numerator, q.denominator
        return cls((-num, den), Fraction(num - den, den), Fraction(num + den, den))

    @property
    def is_rational(self) -> bool:
        return len(self.coeffs) == 2

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not in rational encoding")
        return Fraction(-self.coeffs[0], self.coeffs[1])

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_step(self) -> AlgebraicNumber:
        """Halve the isolating interval (exact bisection on the defining poly)."""
        if self.is_rational:
            return _centred(self.coeffs, self)
        mid = _midpoint(self.lo, self.hi)
        sm = _sign_at(self.coeffs, mid)
        if sm == 0:
            return _centred((-mid.numerator, mid.denominator), self)
        if (sm > 0) == (_sign_at(self.coeffs, self.lo) > 0):
            return AlgebraicNumber(self.coeffs, mid, self.hi)
        return AlgebraicNumber(self.coeffs, self.lo, mid)

    def refine(self, width) -> AlgebraicNumber:
        """Same root, interval width at most ``width``."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        a = self
        while a.width() > width:
            a = a.refine_step()
        return a

    def approx(self) -> float:
        a = self.refine(Fraction(1, 1 << 24))
        return float((a.lo + a.hi) / 2)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicNumber({self.rational_value})"
        return f"AlgebraicNumber(~{self.approx():.6g})"


def _num_den(coeffs: tuple[int, ...]) -> tuple[int, int]:
    """(num, den), den > 0, with num/den the root of a rational encoding
    den*v - num; the pair is in lowest terms when the encoding is."""
    c0, c1 = coeffs
    return (-c0, c1) if c1 > 0 else (c0, -c1)


def _midpoint(a: Fraction, b: Fraction) -> Fraction:
    """(a + b) / 2 from the endpoints' integers, normalized once."""
    return Fraction(a.numerator * b.denominator + b.numerator * a.denominator,
                    2 * a.denominator * b.denominator)


def _centred(coeffs: tuple[int, ...], a: AlgebraicNumber) -> AlgebraicNumber:
    """The root q of the linear ``coeffs`` in (q - w/4, q + w/4), for w the
    width of a's interval: one halving of a's interval, centred on q."""
    num, den = _num_den(coeffs)
    lo, hi = a.lo, a.hi
    # w = wn / wd, and w/4 = wn / scale
    wd = lo.denominator * hi.denominator
    wn = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    scale = wd << 2
    return AlgebraicNumber(coeffs, Fraction(num * scale - den * wn, den * scale),
                           Fraction(num * scale + den * wn, den * scale))


def compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """Exact comparison: -1, 0, or +1.

    Equality is decided via gcd of the defining polynomials: the gcd has at
    most one root in the interval overlap, so an odd variation count there
    certifies equality without algebraic-number arithmetic.
    """
    return _compare(a, b)[0]


def _compare(
    a: AlgebraicNumber, b: AlgebraicNumber
) -> tuple[int, AlgebraicNumber, AlgebraicNumber] | tuple[int, None, None]:
    """:func:`compare`, plus a and b after the common ``refine_step`` rounds
    that separated them, when a refinement loop or disjoint intervals
    decided it; (c, None, None) when equality or rational values did."""
    if a.is_rational and b.is_rational:
        (an, ad), (bn, bd) = _num_den(a.coeffs), _num_den(b.coeffs)
        x, y = an * bd, bn * ad
        return (x > y) - (x < y), None, None
    if a.hi <= b.lo:
        return -1, a, b
    if b.hi <= a.lo:
        return 1, a, b
    if a.is_rational:
        q = a.rational_value
        if b.lo < q < b.hi and _sign_at(b.coeffs, q) == 0:
            return 0, None, None
    elif b.is_rational:
        q = b.rational_value
        if a.lo < q < a.hi and _sign_at(a.coeffs, q) == 0:
            return 0, None, None
    else:
        g = list(a.coeffs) if a.coeffs == b.coeffs else _uni_gcd(a.coeffs, b.coeffs)
        if len(g) > 1:
            lo = max(a.lo, b.lo)
            hi = min(a.hi, b.hi)
            if lo < hi and _descartes_count(g, lo, hi) % 2 == 1:
                return 0, None, None
    x, y = a, b
    while True:
        checkpoint()
        if x.hi <= y.lo:
            return -1, x, y
        if y.hi <= x.lo:
            return 1, x, y
        x = x.refine_step()
        y = y.refine_step()


def isolate_real_roots(p: Poly, v: int) -> tuple[AlgebraicNumber, ...]:
    """All distinct real roots of p (via its square-free part), sorted, as a tuple.

    p must be univariate in x_v (else the ValueError of ``dense_from_poly``).
    Raises ValueError on the zero polynomial.
    """
    c = dense_from_poly(p, v)
    if not c:
        raise ValueError("identically zero")
    if len(c) == 1:
        return ()
    c = [-x for x in c] if c[-1] < 0 else c
    if len(c) == 2 and max(-c[0], c[0], c[1]) <= _TRIAL_CAP * _TRIAL_CAP:
        # the divisor search would find exactly this root
        return (AlgebraicNumber.from_rational(Fraction(-c[0], c[1])),)
    g = _uni_gcd(c, _deriv(c))
    if len(g) > 1:
        c = _div_exact(c, g)
    # the divisors below are primitive with positive leads, so the working
    # list stays canonical: it is the defining polynomial of every root found
    rats, poly = _rational_roots(c)
    found = [AlgebraicNumber.from_rational(r) for r in rats]
    if len(poly) > 1:
        bound = _root_bound(poly)
        stack =[(-bound, bound, _on_interval(poly, -bound, bound))]
        while stack:
            checkpoint()
            a, b, local = stack.pop()
            n = _local_count(local)
            if n == 0:
                continue
            if n == 1:
                # bisection endpoints are never roots of the working poly
                found.append(AlgebraicNumber(tuple(poly), a, b))
                continue
            m = _midpoint(a, b)
            left, right = _halves(local)
            if right[0] == 0:
                # exact rational root hit mid-bisection (local(1/2) = 0):
                # divide it out of poly and of every carried local polynomial
                found.append(AlgebraicNumber.from_rational(m))
                poly = _div_exact(poly, [-m.numerator, m.denominator])
                stack = [(lo, hi, _div_exact(q, _local_root(lo, hi, m))) for lo, hi, q in stack]
                left, right = _halves(_div_exact(local, [-1, 2]))
            stack.append((a, m, left))
            stack.append((m, b, right))
    return _merge_roots((r, None) for r in found)[0]


def merge_distinct(roots: Iterable[AlgebraicNumber]) -> tuple[AlgebraicNumber, ...]:
    """Sorted union with exact dedup of equal roots, intervals pairwise disjoint."""
    return _merge_roots((r, None) for r in roots)[0]


def _merge_roots(
    tagged: Iterable[tuple[AlgebraicNumber, object]],
) -> tuple[tuple[AlgebraicNumber, ...], list[set]]:
    """The one path that sorts, dedupes and separates real roots.

    Takes (root, tag) pairs and returns the distinct roots, strictly
    increasing with pairwise-disjoint intervals, plus the set of tags of each.
    Equal roots keep the first rational encoding among them, else the first
    one, in input order.  Every set sorts by :func:`compare` and every pair
    of overlapping neighbours is refined apart by common ``refine_step``
    rounds.  Each pair is compared at most once per call.
    """
    tagged = list(tagged)
    # (i, j) -> compare's answer, and tagged i and j as compare separated them
    known: dict[tuple[int, int], tuple] = {}

    def cmp(i: int, j: int) -> int:
        c = known.get((i, j))
        if c is None:
            c = known[i, j] = _compare(tagged[i][0], tagged[j][0])
            known[j, i] = (-c[0], c[2], c[1])
        return c[0]

    order = sorted(range(len(tagged)), key=cmp_to_key(cmp))
    roots: list[AlgebraicNumber] = []
    tags: list[set] = []
    picked: list[int] = []  # the index in tagged of each root
    for i in order:
        r, tag = tagged[i]
        if roots and cmp(picked[-1], i) == 0:
            tags[-1].add(tag)
            if r.is_rational and not roots[-1].is_rational:
                roots[-1], picked[-1] = r, i
            continue
        roots.append(r)
        tags.append({tag})
        picked.append(i)
    # refine neighbours until their intervals are disjoint; where the dedupe
    # pass compared a pair by refining it apart and the left root is
    # unrefined since, the comparison's copies are taken
    for i in range(len(roots) - 1):
        _, x, y = known.get((picked[i], picked[i + 1]), (0, None, None))
        if x is not None and roots[i] is tagged[picked[i]][0]:
            roots[i], roots[i + 1] = x, y
            continue
        while roots[i].hi > roots[i + 1].lo:
            roots[i] = roots[i].refine_step()
            roots[i + 1] = roots[i + 1].refine_step()
    return tuple(roots), tags


def count_distinct_real_roots(A: Iterable[Poly], v: int) -> int:
    """Number of distinct real roots of the union of a set univariate in x_v."""
    roots: list[AlgebraicNumber] = []
    for p in A:
        if p.is_zero() or p.is_constant():
            continue
        roots.extend(isolate_real_roots(p, v))
    return len(merge_distinct(roots))
