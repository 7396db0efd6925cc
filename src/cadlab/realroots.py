"""Exact real root isolation and algebraic-number comparison.

Univariate polynomials over Q are isolated with Descartes'-rule bisection on
the square-free part; every real root comes back as an :class:`AlgebraicNumber`
(integer square-free defining polynomial plus an open isolating interval with
rational non-root endpoints).  Rational roots found exactly are stored with the
degenerate linear encoding ``den*v - num``.

All arithmetic is exact (``fractions.Fraction``); nothing here floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .errors import checkpoint
from .polys import Poly

__all__ = [
    "AlgebraicNumber",
    "RootList",
    "isolate_real_roots",
    "refine",
    "compare",
    "count_distinct_real_roots",
    "sign_at",
    "merge_distinct",
]


# -- dense univariate helpers (integer or Fraction coefficient lists, low->high)


def dense_from_poly(p: Poly, v: int | None = None) -> list[Fraction]:
    """Dense coefficient list of a univariate polynomial; errors on extra vars."""
    vs = p.variables()
    if len(vs) > 1:
        raise ValueError("not univariate")
    if v is None:
        v = vs[0] if vs else 0
    elif vs and vs[0] != v:
        raise ValueError("not univariate in the requested variable")
    out = [Fraction(0)] * (p.degree(v) + 1)
    for exps, c in p.terms.items():
        out[exps[v]] = c
    return _strip(out)


def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _clear_denoms(c: Sequence[Fraction]) -> list[int]:
    lcm = 1
    for x in c:
        f = Fraction(x)
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    out = [int(Fraction(x) * lcm) for x in c]
    g = 0
    for x in out:
        g = math.gcd(g, abs(x))
    if g > 1:
        out = [x // g for x in out]
    if out and out[-1] < 0:
        out = [-x for x in out]
    return out


def _eval(c: Sequence, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for k in reversed(c):
        acc = acc * x + k
    return acc


def _deriv(c: Sequence) -> list:
    return [c[i] * i for i in range(1, len(c))]


def _uni_gcd(a: Sequence, b: Sequence) -> list[int]:
    """Primitive-PRS gcd over the integers, positive leading coefficient.

    Plain Euclidean remainders over Q suffer catastrophic coefficient growth
    on the big eliminants the lifting phase produces; stripping the integer
    content after every pseudo-remainder keeps the chain tractable.
    """
    fa = _clear_denoms([Fraction(x) for x in a])
    fb = _clear_denoms([Fraction(x) for x in b])
    if not fa:
        return fb
    if not fb:
        return fa
    while fb:
        checkpoint()
        r = _int_prem(fa, fb)
        g = 0
        for x in r:
            g = math.gcd(g, abs(x))
        if g > 1:
            r = [x // g for x in r]
        fa, fb = fb, r
    if fa[-1] < 0:
        fa = [-x for x in fa]
    return fa


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder: lc(b)^k * a mod b, trailing zeros stripped."""
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    while r and len(r) - 1 >= db:
        k = r[-1]
        r = [x * lc for x in r[:-1]]
        shift = len(r) - db
        for i in range(db):
            r[shift + i] -= k * b[i]
        _strip(r)
    return r


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
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _descartes_count(c: Sequence, a: Fraction, b: Fraction) -> int:
    """Sign-variation bound on the number of roots of c in the open (a, b).

    Transforms (a, b) onto (0, oo) via shift, scale, reverse, shift-by-one,
    entirely over the integers (endpoints are cleared to a common denominator
    first).  Exact for counts 0 and 1, parity-exact always.
    """
    a, b = Fraction(a), Fraction(b)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    u = a.numerator * (den // a.denominator)
    v = b.numerator * (den // b.denominator)
    ints = _clear_denoms([Fraction(x) for x in c])
    n = len(ints) - 1
    # den^n * p(x / den) has integer coefficients; shifting by the integer u
    # then evaluates p on (x + u)/den
    q = _taylor_shift([ints[i] * den ** (n - i) for i in range(n + 1)], u)
    w = v - u
    scale = 1
    for i in range(1, len(q)):
        scale *= w
        q[i] *= scale  # p((w*x + u)/den)
    q.reverse()  # x^n p((w/x + u)/den)
    t = _taylor_shift(q, 1)  # (x+1)^n p((u + w/(x+1))/den)
    return _variations(t)


def _root_bound(c: Sequence) -> Fraction:
    """Cauchy bound: every real root has absolute value strictly below it."""
    lc = abs(Fraction(c[-1]))
    m = max((abs(Fraction(x)) for x in c[:-1]), default=Fraction(0))
    bound = 1 + m / lc
    return Fraction(math.ceil(bound))


def _divide_out_root(c: list[Fraction], r: Fraction) -> list[Fraction]:
    # synthetic division by (x - r); remainder must be zero
    out = [Fraction(0)] * (len(c) - 1)
    acc = c[-1]
    for i in range(len(c) - 2, -1, -1):
        out[i] = acc
        acc = c[i] + acc * r
    assert acc == 0, "not a root"
    return _strip(out)


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


def _rational_roots(c: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Extract exact rational roots by the rational-root theorem (capped).

    Returns (roots, remaining coefficients).  With huge extreme coefficients
    the search is skipped; such rational roots then stay interval-encoded,
    which every consumer handles.
    """
    coeffs = [Fraction(x) for x in c]
    roots: list[Fraction] = []
    if len(coeffs) > 1 and coeffs[0] == 0:
        # square-free input: the zero root is simple
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots, coeffs
    nums = _small_divisors(int(coeffs[0]))
    dens = _small_divisors(int(coeffs[-1]))
    if nums is None or dens is None:
        return roots, coeffs
    candidates = sorted({Fraction(s * p, q) for p in nums for q in dens for s in (1, -1)})
    for cand in candidates:
        if len(coeffs) > 1 and _eval(coeffs, cand) == 0:
            roots.append(cand)
            coeffs = _divide_out_root(coeffs, cand)
    return roots, coeffs


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
        q = Fraction(q)
        return cls((-q.numerator, q.denominator), q - 1, q + 1)

    @property
    def is_rational(self) -> bool:
        return len(self.coeffs) == 2

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not in rational encoding")
        return Fraction(-self.coeffs[0], self.coeffs[1])

    def defining_poly(self) -> Poly:
        return Poly(1, {(i,): c for i, c in enumerate(self.coeffs)})

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine_step(self) -> AlgebraicNumber:
        """Halve the isolating interval (exact bisection on the defining poly)."""
        if self.is_rational:
            q = self.rational_value
            w = self.width() / 4
            return AlgebraicNumber(self.coeffs, q - w, q + w)
        mid = (self.lo + self.hi) / 2
        vm = _eval(self.coeffs, mid)
        if vm == 0:
            w = min(mid - self.lo, self.hi - mid) / 2
            return AlgebraicNumber((-mid.numerator, mid.denominator), mid - w, mid + w)
        if (vm > 0) == (_eval(self.coeffs, self.lo) > 0):
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

    def approx(self, width=Fraction(1, 1 << 24)) -> float:
        a = self.refine(width)
        return float((a.lo + a.hi) / 2)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicNumber({self.rational_value})"
        return f"AlgebraicNumber(~{self.approx():.6g})"


def refine(a: AlgebraicNumber, width) -> AlgebraicNumber:
    return a.refine(width)


def sign_at(u: Sequence, alpha: AlgebraicNumber) -> int:
    """Exact sign of the univariate polynomial u at alpha.

    Zero is certified through gcd(defining, u): the gcd has a root in alpha's
    interval iff its sign-variation count there is odd (it has at most one).
    Nonzero signs come from interval refinement.
    """
    u = _strip([Fraction(x) for x in u])
    if not u:
        return 0
    if alpha.is_rational:
        val = _eval(u, alpha.rational_value)
        return (val > 0) - (val < 0)
    if len(u) == 1:
        return 1 if u[0] > 0 else -1
    g = _uni_gcd(alpha.coeffs, u)
    if len(g) > 1:
        va, vb = _eval(g, alpha.lo), _eval(g, alpha.hi)
        if va == 0 or vb == 0:  # pragma: no cover - endpoints are non-roots of defining
            raise AssertionError("invalid isolating interval")
        if (va > 0) != (vb > 0):
            return 0
    a = alpha
    while True:
        checkpoint()
        lo, hi = _interval_eval_dense(u, a.lo, a.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        a = a.refine_step()
        if a.is_rational:
            val = _eval(u, a.rational_value)
            return (val > 0) - (val < 0)


def _interval_eval_dense(u: Sequence[Fraction], lo: Fraction, hi: Fraction):
    rlo, rhi = Fraction(0), Fraction(0)
    for i, c in enumerate(u):
        if c == 0:
            continue
        if i == 0:
            plo, phi = Fraction(1), Fraction(1)
        elif i % 2 == 1 or lo >= 0:
            plo, phi = lo**i, hi**i
        elif hi <= 0:
            plo, phi = hi**i, lo**i
        else:
            plo, phi = Fraction(0), max(lo**i, hi**i)
        if c > 0:
            rlo += c * plo
            rhi += c * phi
        else:
            rlo += c * phi
            rhi += c * plo
    return rlo, rhi


def compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """Exact comparison: -1, 0, or +1.

    Equality is decided via gcd of the defining polynomials: the gcd has at
    most one root in the interval overlap, so an odd variation count there
    certifies equality without algebraic-number arithmetic.
    """
    if a.is_rational and b.is_rational:
        x, y = a.rational_value, b.rational_value
        return (x > y) - (x < y)
    if a.hi <= b.lo:
        return -1
    if b.hi <= a.lo:
        return 1
    if a.is_rational:
        q = a.rational_value
        if b.lo < q < b.hi and _eval([Fraction(x) for x in b.coeffs], q) == 0:
            return 0
    elif b.is_rational:
        q = b.rational_value
        if a.lo < q < a.hi and _eval([Fraction(x) for x in a.coeffs], q) == 0:
            return 0
    else:
        g = list(a.coeffs) if a.coeffs == b.coeffs else _uni_gcd(a.coeffs, b.coeffs)
        if len(g) > 1:
            lo = max(a.lo, b.lo)
            hi = min(a.hi, b.hi)
            if lo < hi and _descartes_count([Fraction(x) for x in g], lo, hi) % 2 == 1:
                return 0
    x, y = a, b
    while True:
        checkpoint()
        if x.hi <= y.lo:
            return -1
        if y.hi <= x.lo:
            return 1
        x = x.refine_step()
        y = y.refine_step()


@dataclass(frozen=True)
class RootList:
    """Strictly increasing real roots with pairwise-disjoint intervals."""

    roots: tuple[AlgebraicNumber, ...]

    @classmethod
    def make(cls, roots: Iterable[AlgebraicNumber]) -> RootList:
        return cls(tuple(_make_disjoint(sorted(roots, key=cmp_to_key(compare)))))

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __getitem__(self, i):
        return self.roots[i]


def _make_disjoint(ordered: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    """Refine neighbours of an increasing root list until their intervals are disjoint."""
    out = list(ordered)
    for i in range(len(out) - 1):
        while out[i].hi > out[i + 1].lo:
            out[i] = out[i].refine_step()
            out[i + 1] = out[i + 1].refine_step()
    return out


def isolate_real_roots(p: Poly | Sequence, v: int | None = None) -> RootList:
    """All distinct real roots of p (via its square-free part), sorted.

    Accepts a univariate Poly or a dense coefficient sequence.  Raises
    ValueError on the zero polynomial.
    """
    if isinstance(p, Poly):
        c = dense_from_poly(p, v)
    else:
        c = _strip([Fraction(x) for x in p])
    if not c:
        raise ValueError("identically zero")
    if len(c) == 1:
        return RootList(())
    ints = _clear_denoms(c)
    g = _uni_gcd(ints, _deriv(ints))
    if len(g) > 1:
        quotient = _exact_div_dense([Fraction(x) for x in ints], [Fraction(x) for x in g])
        ints = _clear_denoms(quotient)
    found: list[AlgebraicNumber] = []
    rats, rest = _rational_roots(ints)
    for r in rats:
        found.append(AlgebraicNumber.from_rational(r))
    work = _clear_denoms(rest)
    if len(work) > 1:
        defining = tuple(work)
        poly = [Fraction(x) for x in work]
        bound = _root_bound(work)
        stack = [(-bound, bound)]
        while stack:
            checkpoint()
            a, b = stack.pop()
            n = _descartes_count(poly, a, b)
            if n == 0:
                continue
            if n == 1:
                # bisection endpoints are never roots of the working poly
                found.append(AlgebraicNumber(defining, a, b))
                continue
            m = (a + b) / 2
            if _eval(poly, m) == 0:
                # exact rational root hit mid-bisection; divide it out
                found.append(AlgebraicNumber.from_rational(m))
                poly = _exact_div_dense(poly, [-m, Fraction(1)])
                defining = tuple(_clear_denoms(poly))
            stack.append((a, m))
            stack.append((m, b))
    return RootList.make(found)


def _exact_div_dense(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    r = list(a)
    for i in range(len(out) - 1, -1, -1):
        k = r[len(b) - 1 + i] / b[-1]
        out[i] = k
        for j in range(len(b)):
            r[i + j] -= k * b[j]
    assert all(x == 0 for x in r), "inexact dense division"
    return out


def merge_distinct(roots: Iterable[AlgebraicNumber]) -> RootList:
    """Sorted union with exact dedup of equal roots."""
    ordered = sorted(roots, key=cmp_to_key(compare))
    out: list[AlgebraicNumber] = []
    for r in ordered:
        if out and compare(out[-1], r) == 0:
            if r.is_rational and not out[-1].is_rational:
                out[-1] = r
            continue
        out.append(r)
    return RootList.make(out)


def count_distinct_real_roots(A: Iterable[Poly], v: int | None = None) -> int:
    """Number of distinct real roots of the union of a univariate set."""
    roots: list[AlgebraicNumber] = []
    for p in A:
        if p.is_zero() or p.is_constant():
            continue
        roots.extend(isolate_real_roots(p, v))
    return len(merge_distinct(roots))
