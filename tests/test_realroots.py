from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlab.algpoints import sign_at_point
from cadlab.polys import Poly
from cadlab.dense import _deriv, _div_exact, _uni_gcd, dense_from_poly
from cadlab.realroots import (
    _TRIAL_CAP,
    AlgebraicNumber,
    _descartes_count,
    _merge_roots,
    _midpoint,
    _rational_roots,
    _root_bound,
    _sign_at,
    _small_divisors,
    compare,
    count_distinct_real_roots,
    isolate_real_roots,
    merge_distinct,
)
from oracles import euclid_gcd_dense, sturm_count_all, sturm_root_count


def U(coeffs) -> Poly:
    return Poly.from_dense(1, 0, coeffs)


SQRT2 = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(2))
MINUS_SQRT2 = AlgebraicNumber((-2, 0, 1), Fraction(-2), Fraction(-1))


class TestIsolate:
    def test_factorable(self):
        roots = isolate_real_roots(U([-1, 0, 1]), 0)  # x^2 - 1
        assert len(roots) == 2
        vals = [r.rational_value for r in roots]
        assert vals == [Fraction(-1), Fraction(1)]

    def test_no_real_roots(self):
        assert len(isolate_real_roots(U([1, 0, 1]), 0)) == 0

    def test_cubic_with_zero_root(self):
        # x^3 - 2x: roots -sqrt2, 0, sqrt2 (signs checked at -2,-1,1,2)
        roots = list(isolate_real_roots(U([0, -2, 0, 1]), 0))
        assert len(roots) == 3
        assert roots[1].is_rational and roots[1].rational_value == 0
        assert roots[0].lo > -2 and roots[0].hi < 0
        assert roots[2].lo > 0 and roots[2].hi < 2
        assert compare(roots[0], AlgebraicNumber.from_rational(-1)) < 0
        assert compare(roots[2], AlgebraicNumber.from_rational(1)) > 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            isolate_real_roots(Poly.zero(1), 0)

    def test_float_coefficient_rejected_like_poly(self):
        # Fraction(0.5) is exact, but a float is no rational coefficient
        with pytest.raises(TypeError, match="coefficient must be rational"):
            isolate_real_roots(U([0.5, 1]), 0)

    def test_multiplicities_collapse(self):
        roots = isolate_real_roots(U([1, -2, 1]), 0)  # (x-1)^2
        assert len(roots) == 1
        assert roots[0].rational_value == 1

    def test_intervals_disjoint_and_sorted(self):
        roots = list(isolate_real_roots(U([0, -2, 0, 1]), 0))
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo

    def test_product_merges(self):
        p = U([-1, 0, 1])  # x^2-1
        q = U([-2, 0, 1])  # x^2-2
        merged = merge_distinct(list(isolate_real_roots(p, 0)) + list(isolate_real_roots(q, 0)))
        prod = isolate_real_roots(p * q, 0)
        assert len(merged) == len(prod) == 4
        for a, b in zip(merged, prod):
            assert compare(a, b) == 0


class TestRefine:
    def test_sqrt2_narrow(self):
        a = SQRT2.refine(Fraction(1, 8))
        assert a.width() <= Fraction(1, 8)
        assert Fraction(11, 8) <= a.lo and a.hi <= Fraction(3, 2)

    def test_rational_stays(self):
        a = AlgebraicNumber.from_rational(Fraction(1, 2))
        b = a.refine(Fraction(1, 1000))
        assert b.lo < Fraction(1, 2) < b.hi
        assert b.width() <= Fraction(1, 1000)

    def test_huge_width_noop_or_narrower(self):
        b = SQRT2.refine(100)
        assert b.width() <= SQRT2.width()
        assert compare(b, SQRT2) == 0

    def test_refine_never_changes_compare(self):
        a = SQRT2
        b = AlgebraicNumber.from_rational(Fraction(3, 2))
        before = compare(a, b)
        assert compare(a.refine(Fraction(1, 1 << 20)), b.refine(Fraction(1, 1 << 20))) == before


class TestFromRational:
    def test_int_and_fraction(self):
        assert AlgebraicNumber.from_rational(3) == AlgebraicNumber((-3, 1), Fraction(2), Fraction(4))
        assert AlgebraicNumber.from_rational(Fraction(-1, 3)) == AlgebraicNumber(
            (1, 3), Fraction(-4, 3), Fraction(2, 3))

    @pytest.mark.parametrize("q", [0.1, "1/3", Decimal("0.5")], ids=["float", "str", "Decimal"])
    def test_anything_else_is_refused_like_poly(self, q):
        with pytest.raises(TypeError, match="rational") as refused:
            AlgebraicNumber.from_rational(q)
        with pytest.raises(TypeError) as by_poly:
            Poly(1, {(0,): q})
        assert str(refused.value) == str(by_poly.value)


def _reference_merge(tagged):
    """Sort by compare, dedupe, and refine neighbours apart one round at a time."""
    by_value = cmp_to_key(compare)
    roots, tags = [], []
    for r, tag in sorted(tagged, key=lambda rt: by_value(rt[0])):
        if roots and compare(roots[-1], r) == 0:
            tags[-1].add(tag)
            if r.is_rational and not roots[-1].is_rational:
                roots[-1] = r
            continue
        roots.append(r)
        tags.append({tag})
    for i in range(len(roots) - 1):
        while roots[i].hi > roots[i + 1].lo:
            roots[i], roots[i + 1] = roots[i].refine_step(), roots[i + 1].refine_step()
    return tuple(roots), tags


class TestRationalRootSets:
    def test_refine_step_of_a_rational_encoding(self):
        rng = random.Random(18)
        for _ in range(200):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            k = rng.choice([1, 2, -1, -3])
            lo, hi = q - Fraction(rng.randint(1, 9), rng.randint(1, 9)), q + rng.randint(1, 3)
            a = AlgebraicNumber((-k * q.numerator, k * q.denominator), lo, hi)
            w = (hi - lo) / 4
            assert a.refine_step() == AlgebraicNumber(a.coeffs, q - w, q + w)
            assert compare(a, AlgebraicNumber.from_rational(q)) == 0

    def test_merge_matches_the_round_by_round_reference(self):
        def encoded(q, k):
            return AlgebraicNumber((-k * q.numerator, k * q.denominator), q - 1, q + 1)

        rng = random.Random(1807)
        # overlapping rational neighbours, given in descending order
        cases = [[(AlgebraicNumber.from_rational(Fraction(1, 10)), "b"),
                  (AlgebraicNumber.from_rational(Fraction(-1, 10)), "a")]]
        for _ in range(300):
            tagged = []
            for tag in range(rng.randint(0, 6)):
                if rng.random() < 0.15:
                    r = SQRT2
                else:
                    q = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7, 1000]))
                    r = encoded(q, rng.choice([1, 1, 2, -1]))
                for _ in range(rng.randint(0, 2)):
                    r = r.refine_step()
                tagged.append((r, tag))
            cases.append(tagged)
        # all-rational sets with mixed encodings k*(den*v - num) and duplicates
        for _ in range(40):
            n = rng.randint(20, 40)
            values = [Fraction(rng.randint(-50, 50), rng.randint(1, 1000))
                      for _ in range(rng.randint(n // 2, n))]
            values += rng.choices(values, k=n - len(values))
            tagged = []
            for tag, q in enumerate(values):
                r = encoded(q, rng.choice([1, 1, 3, -1, -7]))
                for _ in range(rng.randint(0, 2)):
                    r = r.refine_step()
                tagged.append((r, tag))
            cases.append(tagged)
        for tagged in cases:
            roots, tags = _merge_roots(tagged)
            ref_roots, ref_tags = _reference_merge(tagged)
            assert _exact(roots) == _exact(ref_roots) and tags == ref_tags


    def test_separated_neighbours_are_not_refined_twice(self, monkeypatch):
        # sorting compares sqrt(2) with sqrt(2.0001) by refining both apart;
        # the merge takes those copies instead of refining the originals again
        a = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(2))
        b = AlgebraicNumber((-20001, 0, 10000), Fraction(1), Fraction(2))
        expected = _exact(_reference_merge([(b, 1), (a, 0)])[0])
        steps = []
        inner = AlgebraicNumber.refine_step
        monkeypatch.setattr(AlgebraicNumber, "refine_step",
                            lambda self: steps.append(self) or inner(self))
        assert compare(a, b) == -1
        by_compare = len(steps)
        steps.clear()
        roots, tags = _merge_roots([(b, 1), (a, 0)])
        assert _exact(roots) == expected and tags == [{0}, {1}]
        assert len(steps) == by_compare > 0


class TestCompare:
    def test_sqrt2_vs_three_halves(self):
        assert compare(SQRT2, AlgebraicNumber.from_rational(Fraction(3, 2))) < 0

    def test_equal_rationals_different_encodings(self):
        # 1/2 encoded via 2x-1 and via the quadratic (2x-1)(x-3) -> 2x^2-7x+3
        degenerate = AlgebraicNumber.from_rational(Fraction(1, 2))
        fat = AlgebraicNumber((3, -7, 2), Fraction(0), Fraction(1))
        assert compare(degenerate, fat) == 0
        assert compare(fat, degenerate) == 0

    def test_equal_rationals_two_quadratic_encodings(self):
        # 1/2 via (2x-1)(x-3) and via (2x-1)(x+5): gcd certifies equality
        a = AlgebraicNumber((3, -7, 2), Fraction(0), Fraction(1))
        b = AlgebraicNumber((-5, 9, 2), Fraction(0), Fraction(1))
        assert compare(a, b) == 0

    def test_sign(self):
        neg = AlgebraicNumber((-2, 0, 1), Fraction(-2), Fraction(-1))
        assert compare(neg, SQRT2) < 0

    def test_equal_irrationals(self):
        other = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(3, 2))
        assert compare(SQRT2, other) == 0

    def test_shared_defining_distinct_roots(self):
        neg = AlgebraicNumber((-2, 0, 1), Fraction(-2), Fraction(-1))
        assert compare(neg, neg.refine_step()) == 0

    def test_total_order_transitive_random(self):
        rng = random.Random(3)
        pool = []
        for _ in range(12):
            c = [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))]
            if all(x == 0 for x in c):
                continue
            try:
                pool.extend(isolate_real_roots(U(c), 0))
            except ValueError:
                pass
        for _ in range(200):
            a, b, c = (rng.choice(pool) for _ in range(3))
            if compare(a, b) <= 0 and compare(b, c) <= 0:
                assert compare(a, c) <= 0


def _exact(roots):
    return [(r.coeffs, r.lo, r.hi) for r in roots]


M = 400000001
F = Fraction

# (coeffs low->high, isolation as (defining coeffs, lo, hi)).  Sector samples
# in EC mode depend on these exact intervals, so any change here moves cell
# counts and must come with re-recorded benchmark references.
PINNED = [
    # x^2 - 1: both roots found by the rational-root pre-pass
    ([-1, 0, 1], [((1, 1), F(-2), F(0)), ((-1, 1), F(0), F(2))]),
    # x^3 - 2x: the zero root plus an irrational pair
    ([0, -2, 0, 1], [((-2, 0, 1), F(-3, 2), F(-3, 4)), ((0, 1), F(-1, 16), F(1, 16)),
                     ((-2, 0, 1), F(3, 4), F(3, 2))]),
    # (x - 1)(M x^2 - 2M x + M - 1): leading coefficient past the trial cap,
    # so the root 1 is a mid-bisection hit
    ([-(M - 1), 3 * M - 1, -3 * M, M],
     [((M - 1, -2 * M, M), F(16383, 16384), F(32767, 32768)),
      ((-1, 1), F(1073741823, 1073741824), F(1073741825, 1073741824)),
      ((M - 1, -2 * M, M), F(32769, 32768), F(16385, 16384))]),
    # (x - 1)(x - 400000009): constant term past the trial cap, so both
    # rational roots stay interval-encoded
    ([400000009, -400000010, 1],
     [((400000009, -400000010, 1), F(0), F(400000011, 2)),
      ((400000009, -400000010, 1), F(400000011, 2), F(400000011))]),
    # x^2/2 - 1/3 and (x - 1/2)(x - 2/3) with Fraction coefficients
    ([F(-1, 3), 0, F(1, 2)], [((-2, 0, 3), F(-2), F(0)), ((-2, 0, 3), F(0), F(2))]),
    ([F(1, 3), F(-7, 6), 1], [((-1, 2), F(7, 16), F(9, 16)), ((-2, 3), F(29, 48), F(35, 48))]),
    # negative leading coefficients
    ([3, 0, -1], [((-3, 0, 1), F(-4), F(0)), ((-3, 0, 1), F(0), F(4))]),
    ([-2, 1, 2, -1], [((1, 1), F(-2), F(0)), ((-1, 1), F(1, 2), F(3, 2)),
                      ((-2, 1), F(3, 2), F(5, 2))]),
]


class TestPinnedIsolation:
    @pytest.mark.parametrize("coeffs, expected", PINNED)
    def test_intervals_are_pinned(self, coeffs, expected):
        assert _exact(isolate_real_roots(U(coeffs), 0)) == expected

    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=7).filter(lambda c: c[-1] != 0),
        st.fractions().filter(lambda s: s != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_multiples_isolate_alike(self, c, s):
        roots = isolate_real_roots(U(c), 0)
        scaled = [s * x for x in c]
        assert _exact(isolate_real_roots(U(scaled), 0)) == _exact(roots)
        sign_s = 1 if s > 0 else -1
        for alpha in [*roots, SQRT2, AlgebraicNumber.from_rational(F(-1, 3))]:
            assert _sign(scaled, alpha) == sign_s * _sign(c, alpha)


# linear inputs are solved directly up to _TRIAL_CAP**2 and bisected past it,
# exactly as the rational-root divisor search did
LINEAR = [
    ([-400000000, 1], [((-400000000, 1), F(399999999), F(400000001))]),
    ([-M, 1], [((-M, 1), F(-400000002), F(400000002))]),
    ([-3, M], [((-3, M), F(-2), F(2))]),
    # the zero root first, then the linear cofactor 2x - 3
    ([0, -6, 4], [((0, 1), F(-1, 2), F(1, 2)), ((-3, 2), F(1), F(2))]),
]


@pytest.mark.parametrize("coeffs, expected", LINEAR)
def test_linear_factors_and_the_trial_cap(coeffs, expected):
    assert _exact(isolate_real_roots(U(coeffs), 0)) == expected


def test_sympy_oracle_agreement_seeded():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(7)
    for _ in range(120):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
        for _ in range(rng.randint(0, 3)):
            # plant a rational root num/den
            num, den = rng.randint(-6, 6), rng.randint(1, 4)
            c = [a * den - b * num for a, b in zip([0] + c, c + [0])]
        ours = list(isolate_real_roots(U(c), 0))
        theirs = sympy.real_roots(sympy.Poly(list(reversed(c)), x))
        distinct = list(dict.fromkeys(theirs))
        assert len(ours) == len(distinct), c
        for r in distinct:
            inside = [a for a in ours if sympy.Rational(a.lo) < r < sympy.Rational(a.hi)]
            assert len(inside) == 1, (c, r)
            if r.is_Rational:
                # every coefficient here is far inside the rational-root trial cap
                assert inside[0].is_rational and inside[0].rational_value == F(r.p, r.q), (c, r)


def _reference_rational_roots(c):
    """The rational-root search as a sorted set of ``Fraction`` candidates,
    each evaluated in turn and divided out when it is a root."""
    roots = []
    if len(c) > 1 and c[0] == 0:
        roots.append(F(0))
        c = c[1:]
    if len(c) <= 1:
        return roots, c
    if len(c) == 2 and max(abs(c[0]), abs(c[1])) <= _TRIAL_CAP * _TRIAL_CAP:
        r = F(-c[0], c[1])
        return roots + [r], _div_exact(c, [-r.numerator, r.denominator])
    nums = _small_divisors(c[0])
    dens = _small_divisors(c[-1])
    if nums is None or dens is None:
        return roots, c
    for cand in sorted({F(s * p, q) for p in nums for q in dens for s in (1, -1)}):
        if len(c) > 1 and _sign_at(c, cand) == 0:
            roots.append(cand)
            c = _div_exact(c, [-cand.numerator, cand.denominator])
    return roots, c


def _typed_search(result):
    roots, remaining = result
    return [(type(r), r) for r in roots], [(type(x), x) for x in remaining]


def _planted(roots, cofactor):
    """cofactor * prod (q*x - p) over the planted roots p/q, low to high."""
    c = list(cofactor)
    for r in roots:
        r = F(r)
        c = [a * r.denominator - b * r.numerator for a, b in zip([0] + c, c + [0])]
    return c


class TestRationalRootSearch:
    """The divisor-pair search against the ``Fraction``-set enumeration."""

    @pytest.mark.parametrize("roots, cofactor", [
        # numerators and denominators with many divisors
        ([F(360, 7), F(7, 720), F(-11, 360), F(-720, 1)], [720, 0, 360]),
        ([F(-360, 719), F(1, 2), F(5, 12)], [1, 1, 720]),
        # the roots 1 and -1, where q - p or q + p is 0
        ([F(1), F(-1)], [360, -1, 2]),
        ([F(1)], [-3, 0, 0, 5]),
        ([F(-1), F(2, 3)], [7, 2, 720]),
        # a zero root, alone and with others
        ([F(0)], [6, -5, 1]),
        ([F(0), F(-2), F(3, 4)], [5, 0, 3]),
        # no rational root at all
        ([], [720, 0, 0, 0, 360]),
        # a leading coefficient past _TRIAL_CAP**2: the search is skipped
        ([F(1, 400000009), F(2)], [1, 1]),
        ([F(0), F(3)], [_TRIAL_CAP * _TRIAL_CAP + 1, 0, 1]),
    ])
    def test_pinned_inputs_match_the_reference(self, roots, cofactor):
        c = _planted(roots, cofactor)
        assert _typed_search(_rational_roots(c)) == _typed_search(_reference_rational_roots(c))

    def test_past_the_trial_cap_nothing_is_found(self):
        c = _planted([F(2)], [_TRIAL_CAP * _TRIAL_CAP + 1, 0, 1])
        assert _rational_roots(c) == ([], c)

    def test_seeded_planted_roots_match_the_reference(self):
        rng = random.Random(909)
        for _ in range(300):
            roots = {F(rng.choice([-1, 1]) * rng.choice([0, 1, 2, 3, 5, 8, 12, 45, 360, 720]),
                       rng.choice([1, 2, 3, 7, 16, 360, 720]))
                     for _ in range(rng.randint(0, 4))}
            cofactor = [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 9)]
            if cofactor[0] == 0 and len(cofactor) > 1:
                cofactor[0] = 1
            c = _planted(sorted(roots), cofactor)
            assert _typed_search(_rational_roots(c)) == _typed_search(_reference_rational_roots(c)), c


def _reference_isolate(c):
    """isolate_real_roots on the list c, with each interval's Descartes test
    rebuilt from its endpoints: the (coeffs, lo, hi) of every root, and how
    many bisection midpoints were exact roots."""
    c = dense_from_poly(U(c), 0)
    c = [-x for x in c] if c[-1] < 0 else c
    g = _uni_gcd(c, _deriv(c))
    if len(g) > 1:
        c = _div_exact(c, g)
    rats, poly = _rational_roots(c)
    found = [AlgebraicNumber.from_rational(r) for r in rats]
    hits = 0
    if len(poly) > 1:
        bound = _root_bound(poly)
        stack = [(-bound, bound)]
        while stack:
            a, b = stack.pop()
            n = _descartes_count(poly, a, b)
            if n == 1:
                found.append(AlgebraicNumber(tuple(poly), a, b))
            if n < 2:
                continue
            m = _midpoint(a, b)
            if _sign_at(poly, m) == 0:
                hits += 1
                found.append(AlgebraicNumber.from_rational(m))
                poly = _div_exact(poly, [-m.numerator, m.denominator])
            stack += [(a, m), (m, b)]
    return _exact(merge_distinct(found)), hits


# the rational-root search is skipped (a coefficient past _TRIAL_CAP**2), and
# the bisection meets dyadic roots as midpoints of intervals holding two roots
DYADIC = [
    _planted([1, F(3, 2)], [1, 0, 400000009]),
    _planted([1, F(3, 2), F(5, 4)], [1, 0, 400000009]),
    _planted([F(-1, 2), F(1, 2), 1], [3, 0, 400000009]),
    # here the children of the hit interval bisect on: their local polynomials
    # must lose the root too
    _planted([-2, F(-1, 4), 0, 3], [21, 12, 400000009]),
    # and so must those of the intervals still on the stack: near the pair
    # (-17 +- 36i)/64, the count on one of them changes with the factor
    _planted([F(-25, 32), F(1, 2), F(13, 22)],
             [1585 * 400000009, 2176 * 400000009 - 1585, 5681 * 400000009 - 2176,
              2176 * 400000009 - 4096, 4096 * 400000009]),
]
# close irrational roots: sqrt(2) and sqrt(2 + 10^-6); Mignotte's x^8 - 2(50x - 1)^2;
# and the roots 1/1000 .. 5/1000 past the capped search
CLUSTERED = [
    [4000002, 0, -4000001, 0, 1000000],
    [-2, 200, -5000, 0, 0, 0, 0, 0, 1],
    _planted([F(k, 1000) for k in range(1, 6)], [400000009]),
]
# a degree-18 eliminant with 103-bit coefficients, from lifting at an
# algebraic sample (task 22 of the ec3d benchmark corpus)
ELIMINANT = [
    -216887262927712224940300298472, 1329416483364015725107884316248,
    -8043591801518956072020908323620, -3220873793016973934487031321371,
    -1242296425267726950310030568208, -217749383592343467727490208252,
    -59081530420792261264873054743, -10073902848643949649080405652,
    -1984385282322720071517754500, -33673564240195912156190682, 27015308116458776198195580,
    7568266404278444062598316, 475813830934963168094286, 13955091159153091615500,
    200708324638330592664, 1553602442125216133, 6666091594814148, 14996046018912, 13841287201,
]


class TestCarriedBisection:
    """Each interval's local polynomial comes from its parent's; the roots and
    intervals are those of rebuilding each test from the interval's endpoints."""

    @pytest.mark.parametrize("c", DYADIC)
    def test_dyadic_midpoint_roots(self, c):
        expected, hits = _reference_isolate(c)
        assert hits >= 1
        roots = isolate_real_roots(U(c), 0)
        assert _exact(roots) == expected
        assert sum(r.is_rational for r in roots) >= hits

    @pytest.mark.parametrize("c", CLUSTERED)
    def test_clustered_roots(self, c):
        expected, _ = _reference_isolate(c)
        assert len(expected) >= 2
        assert _exact(isolate_real_roots(U(c), 0)) == expected

    def test_big_coefficient_eliminant(self):
        expected, _ = _reference_isolate(ELIMINANT)
        assert len(expected) == 2
        assert _exact(isolate_real_roots(U(ELIMINANT), 0)) == expected

    def test_seeded_random_inputs(self):
        rng = random.Random(2830)
        for _ in range(150):
            c = [rng.randint(-40, 40) for _ in range(rng.randint(3, 12))]
            if rng.random() < 0.3:
                c = _planted([F(rng.randint(-9, 9), rng.choice([1, 2, 4, 8]))], c)
            if not any(c[1:]):
                continue
            assert _exact(isolate_real_roots(U(c), 0)) == _reference_isolate(c)[0], c


class TestCount:
    def test_union(self):
        assert count_distinct_real_roots([U([-1, 0, 1]), U([0, 1])], 0) == 3

    def test_shared_root(self):
        assert count_distinct_real_roots([U([-1, 0, 1]), U([-1, 1])], 0) == 2

    def test_no_roots(self):
        assert count_distinct_real_roots([U([1, 0, 1])], 0) == 0

    def test_not_univariate(self):
        with pytest.raises(ValueError, match="univariate"):
            count_distinct_real_roots([Poly(2, {(1, 1): 1})], 0)

    def test_roots_on_two_axes_refused(self):
        # x0 - 1 and x1 - 1 are univariate, but not in the same variable
        with pytest.raises(ValueError, match="univariate"):
            count_distinct_real_roots([Poly(2, {(1, 0): 1, (0, 0): -1}),
                                       Poly(2, {(0, 1): 1, (0, 0): -1})], 0)


def _sign(u, alpha) -> int:
    """The sign of u (coefficients low to high) at alpha, through the one sign loop."""
    return sign_at_point(Poly.from_dense(1, 0, u), (alpha,))


def _horner(c, x):
    v = F(0)
    for k in reversed(c):
        v = v * x + k
    return v


def _oracle_sign(u, alpha) -> int:
    """u's sign at alpha from the oracles alone: zero iff the Euclid gcd of u
    and alpha's defining polynomial has a root in alpha's interval (Sturm);
    otherwise bisect on the defining polynomial until u has no root left in
    the closed interval, and read u's sign at its left end."""
    d = [F(x) for x in alpha.coeffs]
    lo, hi = alpha.lo, alpha.hi
    g = euclid_gcd_dense(d, [F(x) for x in u])
    if len(g) > 1 and sturm_root_count(g, lo, hi) > 0:
        return 0
    while sturm_root_count(u, lo, hi) > 0 or _horner(u, lo) == 0:
        mid = (lo + hi) / 2
        dm = _horner(d, mid)
        if dm == 0:
            lo = hi = mid
            break
        if (dm > 0) == (_horner(d, lo) > 0):
            lo = mid
        else:
            hi = mid
    value = _horner(u, lo)
    return (value > 0) - (value < 0)


class TestSignAt:
    """Signs at one live algebraic coordinate: the enclosure, then the gcd
    certificate for zero, then refinement, all in ``algpoints._refined_sign``."""

    def test_zero_via_gcd(self):
        assert _sign((-2, 0, 1), SQRT2) == 0

    def test_nonzero(self):
        assert _sign((-3, 0, 2), SQRT2) > 0  # 2x^2-3 at sqrt2 -> 1
        assert _sign((1, -2), SQRT2) < 0  # 1-2x at sqrt2 < 0

    def test_rational_point(self):
        a = AlgebraicNumber.from_rational(Fraction(1, 2))
        assert _sign((-1, 2), a) == 0
        assert _sign((1, 2), a) > 0

    def test_enclosure_decides_before_the_gcd(self, monkeypatch):
        from cadlab import algpoints

        gcds = []
        inner = algpoints._uni_gcd

        def counting(a, b):
            gcds.append((a, b))
            return inner(a, b)

        monkeypatch.setattr(algpoints, "_uni_gcd", counting)
        assert _sign((1, -2), SQRT2) == -1  # 1 - 2x < 0 on all of (1, 2)
        assert gcds == []
        assert _sign((-2, 0, 1), SQRT2) == 0  # zero is still certified by the gcd
        assert len(gcds) == 1

    def test_seeded_against_the_euclid_gcd_and_sturm_count(self):
        rng = random.Random(2323)
        # defining polynomials with known factors: x^2 - 2, x^2 - 3, x^3 - x - 1
        # and their products, so a u can vanish at the roots of one factor only
        factors = [[-2, 0, 1], [-3, 0, 1], [-1, -1, 0, 1]]
        checked = zeros = 0
        for _ in range(60):
            chosen = rng.sample(factors, rng.randint(1, 2))
            d = [1]
            for f in chosen:
                d = _mul(d, f)
            for alpha in isolate_real_roots(U(d), 0):
                us = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))],
                      # planted: a multiple of the defining polynomial
                      _mul(list(alpha.coeffs), [rng.randint(1, 5), rng.randint(-3, 3)]),
                      # planted: a multiple of one factor of it
                      _mul(rng.choice(chosen), [rng.randint(-4, 4), rng.randint(1, 4)])]
                for u in us:
                    u = _trim(u)
                    if not u:
                        continue
                    expected = _oracle_sign(u, alpha)
                    assert _sign(u, alpha) == expected, (u, alpha)
                    checked += 1
                    zeros += expected == 0
        assert checked > 200 and zeros > 50

    def test_seeded_with_a_coordinate_turning_rational(self):
        # x0 is 1/2 encoded as a root of (2x - 1)(x^2 - 2) in (0, 1): its first
        # refinement step lands on 1/2, and one live coordinate x1 is left
        half = AlgebraicNumber((2, -4, -1, 2), F(0), F(1))
        rng = random.Random(2324)
        for _ in range(40):
            u = _trim([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]) or [1]
            if rng.random() < 0.3:
                u = _mul([-2, 0, 1], u)  # zero at both roots of x^2 - 2
            for alpha in (SQRT2, MINUS_SQRT2):
                # (2 x0 - 1) x1^3 + u(x1): its enclosure straddles 0 until x0 is 1/2
                q = Poly(2, {(1, 3): 2, (0, 3): -1}) + Poly.from_dense(2, 1, u)
                assert sign_at_point(q, (half, alpha)) == _oracle_sign(u, alpha), (u, alpha)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def test_sturm_oracle_agreement_seeded():
    # acceptance criterion: 500 random degree <= 6 integer polynomials
    rng = random.Random(42)
    done = 0
    while done < 500:
        deg = rng.randint(1, 6)
        c = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        if c[-1] == 0 or all(x == 0 for x in c):
            continue
        ours = len(isolate_real_roots(U(c), 0))
        assert ours == sturm_count_all(c), f"mismatch on {c}"
        done += 1
