from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadlab.polys import (
    DegreeStats,
    Poly,
    content_in,
    degree_stats,
    discriminant,
    divexact,
    poly_gcd,
    resultant,
    squarefree_part,
    squarefree_primitive_basis,
)
from oracles import euclid_gcd_dense, fraction_substitute, sylvester_resultant

X = Poly.var(2, 0)
Y = Poly.var(2, 1)


def P(terms):
    return Poly(2, terms)


CIRCLE = P({(2, 0): 1, (0, 2): 1, (0, 0): -1})
CIRCLE2 = P({(2, 0): 1, (1, 0): -2, (0, 2): 1})


class TestArith:
    def test_additive_inverse(self):
        assert (X + -X).is_zero()

    def test_multiplicative_identity(self):
        assert CIRCLE * Poly.one(2) == CIRCLE

    def test_circle_difference(self):
        # f1 - f2 for the two unit circles expands to 2x - 1
        assert CIRCLE - CIRCLE2 == P({(1, 0): 2, (0, 0): -1})

    def test_neg(self):
        assert -X == P({(1, 0): -1})

    def test_pow(self):
        assert (X + Y) ** 2 == P({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_mismatched_nvars(self):
        with pytest.raises(ValueError):
            X + Poly.var(3, 0)


def _random_poly(rng: random.Random, nvars=2, max_deg=2, max_terms=3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = rng.randint(-4, 4)
    return Poly(nvars, terms)


def test_ring_distributivity_random():
    rng = random.Random(7)
    for _ in range(150):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r


class TestResultant:
    def test_two_circles(self):
        # 4x4 Sylvester determinant gives (2x-1)^2
        expected = P({(2, 0): 4, (1, 0): -4, (0, 0): 1})
        assert resultant(CIRCLE, CIRCLE2, 1) == expected
        assert sylvester_resultant(CIRCLE, CIRCLE2, 1) == expected

    def test_linear(self):
        # res(v-a, v-b, v) = a - b under the Sylvester determinant convention
        nv = 3  # v=x0, a=x1, b=x2
        v, a, b = (Poly.var(nv, i) for i in range(3))
        assert resultant(v - a, v - b, 0) == a - b

    def test_common_factor_is_zero(self):
        assert resultant(CIRCLE, CIRCLE, 1).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="not a polynomial in v"):
            resultant(CIRCLE, X, 1)

    def test_matches_sylvester_random(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            p = _random_poly(rng, max_deg=2)
            q = _random_poly(rng, max_deg=2)
            if not (p.contains_var(1) and q.contains_var(1)):
                continue
            assert resultant(p, q, 1) == sylvester_resultant(p, q, 1)
            checked += 1

    def test_swap_sign_rule(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            p = _random_poly(rng, max_deg=3)
            q = _random_poly(rng, max_deg=3)
            if not (p.contains_var(1) and q.contains_var(1)):
                continue
            sign = -1 if (p.degree(1) * q.degree(1)) % 2 == 1 else 1
            assert resultant(p, q, 1) == resultant(q, p, 1) * sign
            checked += 1

    def test_zero_iff_gcd_nonconstant_univariate(self):
        # independent cross-check with a plain Euclid gcd on degree <= 4 cases
        rng = random.Random(17)
        checked = 0
        while checked < 80:
            a = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(2, 5))]
            b = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(2, 5))]
            if rng.random() < 0.5:
                # force a common factor
                common = [Fraction(rng.randint(-2, 2)), Fraction(1)]
                a = _mul(a, common)
                b = _mul(b, common)
            pa = Poly(1, {(i,): c for i, c in enumerate(a)})
            pb = Poly(1, {(i,): c for i, c in enumerate(b)})
            if pa.degree(0) < 1 or pb.degree(0) < 1:
                continue
            res = resultant(pa, pb, 0)
            g = euclid_gcd_dense(a, b)
            assert res.is_zero() == (len(g) > 1)
            checked += 1


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestDiscriminant:
    def test_circle(self):
        # b^2 - 4ac with a=1, b=0, c=x^2-1, under the fixed normalization
        assert discriminant(CIRCLE, 1) == P({(2, 0): -4, (0, 0): 4})

    def test_no_real_roots_constant(self):
        p = P({(0, 2): 1, (0, 0): 1})
        assert discriminant(p, 1) == Poly.const(2, -4)

    def test_repeated_root_zero(self):
        p = (Y - Poly.one(2)) ** 2
        assert discriminant(p, 1).is_zero()

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            discriminant(Y, 1)


class TestGcd:
    def test_gcd_with_multiple(self):
        f = CIRCLE
        g = CIRCLE * P({(1, 0): 3, (0, 1): 1})
        assert poly_gcd(f, g) == CIRCLE.normalized()

    def test_coprime(self):
        assert poly_gcd(CIRCLE, CIRCLE2) == Poly.one(2)

    def test_squarefree_part(self):
        p = (Y - Poly.one(2)) ** 2 * X
        assert squarefree_part(p, 1).normalized() == (X * (Y - Poly.one(2))).normalized()


def U(coeffs, nvars=1, v=0):
    """The polynomial in variable v of nvars with coefficients low to high."""
    return Poly.from_dense(nvars, v, coeffs)


def _typed(p):
    """Terms with their coefficient types: an int and an equal Fraction differ here."""
    return {e: (type(c).__name__, c) for e, c in p.terms.items()}


def _ints(terms):
    return {e: ("int", c) for e, c in terms.items()}


F = Fraction
# univariate gcds run on dense integer lists; these terms, types included, were
# recorded with the generic primitive PRS: (p, q, poly_gcd(p, q),
# squarefree_part(p * q) in p's variable)
UNIVARIATE_PINS = {
    "constant_gcd": (
        U([1, 0, 1]), U([-3, 1]),
        _ints({(0,): 1}),
        _ints({(0,): -3, (1,): 1, (2,): -3, (3,): 1}),
    ),
    "fraction_coefficients": (
        U([F(-1, 2), 0, F(1, 2)]), U([F(2, 3), F(2, 3)]),
        _ints({(0,): 1, (1,): 1}),
        {(0,): ("Fraction", F(-1, 3)), (2,): ("Fraction", F(1, 3))},
    ),
    "negative_leading_coefficients": (
        U([6, 3, -3]), U([8, 0, -2]),
        _ints({(0,): -2, (1,): 1}),
        _ints({(0,): -24, (1,): -24, (2,): 6, (3,): 6}),
    ),
    "variable_2_of_3": (
        U([-2, 3, 0, -1], 3, 2), U([-5, 4, 1], 3, 2),
        _ints({(0, 0, 0): -1, (0, 0, 1): 1}),
        _ints({(0, 0, 0): 10, (0, 0, 1): -3, (0, 0, 2): -6, (0, 0, 3): -1}),
    ),
    "larger_coefficients": (
        U([-5, 0, 3]) * U([-11, 2, 0, 7]), U([-5, 0, 3]) * U([-9, 4]) ** 2,
        _ints({(0,): -5, (2,): 3}),
        _ints({(0,): -495, (1,): 310, (2,): 257, (3,): 129, (4,): -116, (5,): -189, (6,): 84}),
    ),
    "fractions_in_variable_1_of_2": (
        U([F(-4, 3), 0, F(1, 3)], 2, 1) * U([F(1, 2), -1], 2, 1),
        U([F(-2, 5), 0, 0, F(1, 10)], 2, 1),
        _ints({(0, 0): 1}),
        {(0, k): ("Fraction", c) for k, c in enumerate(
            [F(4, 15), F(-8, 15), F(-1, 15), F(1, 15), F(2, 15), F(1, 60), F(-1, 30)])},
    ),
}


class TestUnivariateGcdPins:
    @pytest.mark.parametrize("name", sorted(UNIVARIATE_PINS))
    def test_gcd_terms_and_types(self, name):
        p, q, gcd, _ = UNIVARIATE_PINS[name]
        assert _typed(poly_gcd(p, q)) == gcd
        assert _typed(poly_gcd(q, p)) == gcd

    @pytest.mark.parametrize("name", sorted(UNIVARIATE_PINS))
    def test_squarefree_part_terms_and_types(self, name):
        p, q, _, sqf = UNIVARIATE_PINS[name]
        assert _typed(squarefree_part(p * q, p.variables()[0])) == sqf

    @pytest.mark.parametrize("name", sorted(UNIVARIATE_PINS))
    def test_content_in_own_and_other_variable(self, name):
        p = UNIVARIATE_PINS[name][0]
        v = p.variables()[0]
        assert _typed(content_in(p, v)) == _ints({(0,) * p.nvars: 1})
        if p.nvars > 1:
            # free of the variable: the content is p itself, normalized
            assert _typed(content_in(p, (v + 1) % p.nvars)) == _typed(p.normalized())

    def test_content_with_univariate_inner_gcds(self):
        one = Poly.one(2)
        p = (X * X - one * 4) * Y * Y * 3 + (X - one * 2) * (X + one * 5) * Y * F(1, 2) \
            - (X - one * 2) * 6
        assert _typed(content_in(p, 1)) == _ints({(0, 0): -2, (1, 0): 1})
        q = (X + one) * Y * (-2) + (X * X - one) * F(2, 3)
        assert _typed(content_in(q, 1)) == _ints({(0, 0): 1, (1, 0): 1})


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_gcd_sympy_oracle_seeded(nvars):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{nvars}")

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
                    for exps, c in p.terms.items()), sympy.Integer(0))

    def from_sympy(expr):
        return Poly(nvars, {exps: Fraction(int(c.p), int(c.q))
                            for exps, c in sympy.Poly(expr, *xs).terms()})

    rng = random.Random(2024 + nvars)
    done = 0
    while done < 40:
        # planted common factor c, with a rational scale on one side
        a, b, c = (_random_poly(rng, nvars, 3 - nvars // 2, 3) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        p = a * c * Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
        q = b * c
        ours = poly_gcd(p, q)
        assert ours == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).normalized(), (p, q)
        assert not divexact(p, ours).is_zero() and not divexact(q, ours).is_zero()
        done += 1


@pytest.mark.parametrize("nvars", [2, 3])
def test_gcd_sympy_oracle_contents_and_equal_degrees(nvars):
    """Planted gcds with a nonconstant content in the top variable, and pairs
    of equal degree in it, against sympy in both argument orders."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{nvars}")
    v = nvars - 1

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
                    for exps, c in p.terms.items()), sympy.Integer(0))

    def from_sympy(expr):
        return Poly(nvars, {exps: Fraction(int(c.p), int(c.q))
                            for exps, c in sympy.Poly(expr, *xs).terms()})

    def in_v(deg):
        # degree deg in v; x0 or a constant in every coefficient
        while True:
            p = Poly(nvars, {tuple(rng.randint(0, 1) if i != v else k for i in range(nvars)):
                             rng.choice([-3, -2, -1, 1, 2, 3]) for k in range(deg + 1)})
            if p.degree(v) == deg:
                return p

    rng = random.Random(4040 + nvars)
    x0, one = Poly.var(nvars, 0), Poly.one(nvars)
    contents = equal = 0
    for _ in range(30):
        f = in_v(rng.randint(1, 2))
        da = rng.randint(0, 2)
        a, b = in_v(da), in_v(da if rng.random() < 0.7 else rng.randint(0, 2))
        # a content in v shared by both sides, and one on a single side
        shared = x0 + one * rng.choice([-2, -1, 1, 3])
        p = a * f * shared * Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))
        q = b * f * (shared if rng.random() < 0.5 else shared * (x0 - one * 5))
        contents += not content_in(p, v).is_constant()
        equal += p.degree(v) == q.degree(v)
        expected = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).normalized()
        for args in ((p, q), (q, p)):
            ours = poly_gcd(*args)
            assert ours == expected, args
            assert not divexact(p, ours).is_zero() and not divexact(q, ours).is_zero()
    assert contents >= 20 and equal >= 15


class TestBasis:
    def test_factor_extraction(self):
        p = (Y - Poly.one(2)) ** 2 * X
        basis, contents = squarefree_primitive_basis([p], 1)
        assert basis == [(Y - Poly.one(2)).normalized()]
        assert contents == [X]

    def test_already_primitive(self):
        basis, contents = squarefree_primitive_basis([CIRCLE], 1)
        assert basis == [CIRCLE]
        assert contents == []

    def test_gcd_cascade(self):
        f = CIRCLE
        g = P({(1, 1): 1, (0, 0): -1})  # xy - 1, coprime to f, square-free
        basis, contents = squarefree_primitive_basis([f, f * g], 1)
        assert sorted(b.to_string() for b in basis) == sorted(
            [f.normalized().to_string(), g.normalized().to_string()]
        )
        assert contents == []

    def test_pairwise_coprime_and_squarefree(self):
        rng = random.Random(23)
        for _ in range(30):
            polys = [_random_poly(rng, max_deg=2, max_terms=3) for _ in range(2)]
            polys = [p for p in polys if p.contains_var(1)]
            basis, _ = squarefree_primitive_basis(polys, 1)
            for i, b in enumerate(basis):
                if b.degree(1) >= 2:
                    assert not discriminant(b, 1).is_zero()
                assert poly_gcd(b, b.derivative(1)).is_constant()
                for c in basis[i + 1 :]:
                    assert poly_gcd(b, c).is_constant()


class TestDegreeStats:
    def test_blowup_poly(self):
        f = P({(1, 2): 1, (1, 0): 1, (0, 2): -1, (0, 0): -2})
        sx, sy = degree_stats([f], 2)
        assert sx == DegreeStats(1, 3, 2)
        assert sy == DegreeStats(2, 3, 2)

    def test_circle_symmetric(self):
        sx, sy = degree_stats([CIRCLE], 2)
        assert sx == DegreeStats(2, 2, 1)
        assert sy == DegreeStats(2, 2, 1)

    def test_empty(self):
        assert degree_stats([], 2) == [DegreeStats(0, 0, 0)] * 2

    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_invariance(self, scale, rnd):
        rng = random.Random(rnd.randint(0, 10**6))
        polys = [_random_poly(rng) for _ in range(3)]
        base = degree_stats(polys, 2)
        assert degree_stats(list(reversed(polys)), 2) == base
        assert degree_stats([p * Fraction(scale, 3) for p in polys], 2) == base


COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), COEFFS, max_size=4
)


def _assert_canonical(r: Poly):
    """r holds what the validating constructor would store for its terms."""
    assert _typed(r) == _typed(Poly(r.nvars, r.terms))
    assert all(c != 0 for c in r.terms.values())


class TestInternalResultsAreCanonical:
    """Results built without re-validation keep the public constructor's invariant."""

    @given(TERMS, TERMS, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(max_examples=150, deadline=None)
    def test_operations(self, a, b, value):
        p, q = Poly(3, a), Poly(3, b)
        results = [p + q, p - q, p - p, p * q, -p, p * value, p.derivative(0), p.derivative(2),
                   p.scaled_substitute({0: value.as_integer_ratio()}),
                   p.scaled_substitute({1: value.as_integer_ratio(), 2: (-value).as_integer_ratio()}),
                   *p.coeffs_in(1), p.coeff_of_power(0, 1), p.normalized(),
                   p.permute_vars((2, 0, 1)), Poly.const(3, value), Poly.zero(3)]
        if not q.is_zero():
            results.append(divexact(p * q, q))
            assert divexact(p * q, q) == p
        for r in results:
            _assert_canonical(r)

    def test_integral_fraction_product_is_stored_as_int(self):
        product = P({(1, 0): Fraction(2, 3)}) * P({(0, 1): Fraction(3, 2)})
        assert _typed(product) == {(1, 1): ("int", 1)}


class TestSubstitute:
    """Poly.scaled_substitute, the one integer substitution loop, against the
    Fraction-chain oracle: the oracle's terms times one integer scale >= 1."""

    def test_seeded_against_the_fraction_chain(self):
        rng = random.Random(2207)
        cases = [(Poly.zero(3), {0: Fraction(1, 2)}),
                 # x0*x1 - 2*x1 at x0 = 2: the only term cancels
                 (Poly(3, {(1, 1, 0): 1, (0, 1, 0): -2}), {0: 2}),
                 # 2/3*x0^2*x2 - 3/2*x2 + x1 at x0 = 3/2: the x2 terms cancel
                 (Poly(3, {(2, 0, 1): Fraction(2, 3), (0, 0, 1): Fraction(-3, 2), (0, 1, 0): 1}),
                  {0: Fraction(3, 2)})]
        for _ in range(300):
            terms = {tuple(rng.randint(0, 3) for _ in range(3)):
                     Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
                     for _ in range(rng.randint(0, 6))}
            assign = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for i in range(3) if rng.random() < 0.5}
            cases.append((Poly(3, terms), assign))
        got = []
        for p, assign in cases:
            scaled = p.scaled_substitute({i: Fraction(x).as_integer_ratio() for i, x in assign.items()})
            _assert_canonical(scaled)
            exact = fraction_substitute(p, assign)
            assert scaled.terms.keys() == exact.terms.keys(), (p, assign)
            assert all(type(c) is int for c in scaled.terms.values())
            scales = {Fraction(scaled.terms[e]) / exact.terms[e] for e in exact.terms}
            assert len(scales) <= 1, (p, assign)
            if scales:
                (scale,) = scales
                assert scale.denominator == 1 and scale >= 1, (p, assign)
            got.append(scaled)
        assert got[0].is_zero() and got[1].is_zero()
        # x1 alone survives, times the scale lcm(3, 2) * 2**2
        assert got[2] == Poly.var(3, 1) * 24


class TestNormalization:
    def test_integer_primitive_positive_lead(self):
        p = P({(2, 0): Fraction(-2, 3), (0, 0): Fraction(4, 3)})
        n, sign = p.normalized_with_sign()
        assert sign == -1
        assert n == P({(2, 0): 1, (0, 0): -2})

    def test_divexact_roundtrip(self):
        q = CIRCLE * CIRCLE2
        assert divexact(q, CIRCLE) == CIRCLE2

    def test_content(self):
        p = X * Y**2 + X
        assert content_in(p, 1) == X


def _fraction_interval_eval(p: Poly, box) -> tuple:
    """The rational interval arithmetic ``Poly.interval_eval`` must reproduce."""

    def mul(alo, ahi, blo, bhi):
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(products), max(products)

    def power(lo, hi, e):
        if e % 2 == 1 or lo >= 0:
            return lo**e, hi**e
        if hi <= 0:
            return hi**e, lo**e
        return 0, max(lo**e, hi**e)

    lo = hi = Fraction(0)
    for exps, c in p.terms.items():
        tlo, thi = Fraction(1), Fraction(1)
        for i, e in enumerate(exps):
            if e:
                tlo, thi = mul(tlo, thi, *power(*box[i], e))
        if c >= 0:
            tlo, thi = tlo * c, thi * c
        else:
            tlo, thi = thi * c, tlo * c
        lo += tlo
        hi += thi
    return lo, hi


def _enclosure(p: Poly, box) -> tuple:
    """``Poly.interval_eval``'s integer bounds divided by its scale."""
    lo, hi, scale = p.interval_eval(box)
    assert all(type(x) is int for x in (lo, hi, scale)) and scale >= 1
    return Fraction(lo, scale), Fraction(hi, scale)


class TestIntegerEnclosure:
    def test_matches_rational_interval_arithmetic_seeded(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            nvars = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randint(0, 4) for _ in range(nvars))
                if rng.random() < 0.5:
                    terms[exps] = rng.randint(-9, 9)
                else:
                    terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            p = Poly(nvars, terms)
            box = {}
            for i in range(nvars):
                lo = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 8, 1024]))
                # a fifth of the boxes are degenerate; the rest often straddle 0
                width = 0 if rng.random() < 0.2 else Fraction(rng.randint(0, 20), rng.choice([1, 2, 5, 16]))
                box[i] = (lo, lo + width)
            assert _enclosure(p, box) == _fraction_interval_eval(p, box), (p, box)

    @pytest.mark.parametrize("box,expected", [
        ((Fraction(-3, 2), Fraction(1, 2)), (Fraction(-47, 8), Fraction(73, 16))),  # straddles 0
        ((Fraction(-3, 2), Fraction(-1, 2)), (Fraction(-93, 16), Fraction(51, 16))),  # all negative
        ((Fraction(2, 3), Fraction(2, 3)), (Fraction(-65, 81), Fraction(-65, 81))),  # degenerate
    ])
    def test_even_powers_over_pinned_boxes(self, box, expected):
        p = Poly(1, {(4,): 1, (2,): Fraction(-3, 2), (1,): 1, (0,): -1})  # x^4 - 3/2 x^2 + x - 1
        assert _enclosure(p, {0: box}) == _fraction_interval_eval(p, {0: box}) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            max_size=5,
        ),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=64), min_size=4, max_size=4),
    )
    def test_matches_rational_interval_arithmetic(self, terms, ends):
        p = Poly(2, terms)
        box = {0: tuple(sorted(ends[:2])), 1: tuple(sorted(ends[2:]))}
        assert _enclosure(p, box) == _fraction_interval_eval(p, box)


# -- kernel shortcuts: terms and types recorded before the shortcuts existed ------

# p -> the variable whose content is taken; each has a nonzero constant coefficient
CONSTANT_COEFFICIENT = {
    "low": (X * Y**2 * 2 + (X * X - Poly.one(2)) * Y + Poly.const(2, 5), 1),
    "middle": ((X + Poly.one(2)) * Y**2 * 3 + Y * Fraction(-7, 2) + X * X, 1),
    "lead": (Y**3 * 4 + X * Y - X * 2, 1),
    "three_vars": (Poly(3, {(1, 0, 2): 2, (0, 0, 1): 6, (2, 1, 0): 1}), 2),
}


class TestKernelShortcutPins:
    @pytest.mark.parametrize("name", sorted(CONSTANT_COEFFICIENT))
    def test_content_in_with_a_constant_coefficient(self, name):
        p, v = CONSTANT_COEFFICIENT[name]
        assert _typed(content_in(p, v)) == _ints({(0,) * p.nvars: 1})

    def test_squarefree_part_univariate_fractions(self):
        x = Poly.var(1, 0)
        # (x - 1)^2 (3/2 + x/3) (1/2 + x^2) * (-5/4): repeated factor, negative lead
        p = (x - Poly.one(1)) ** 2 * U([F(3, 2), F(1, 3)]) * U([F(1, 2), 0, 1]) * F(-5, 4)
        assert _typed(p)[(5,)] == ("Fraction", F(-5, 12))
        assert _typed(squarefree_part(p, 0)) == {
            (0,): ("Fraction", F(15, 16)), (1,): ("Fraction", F(-35, 48)),
            (2,): ("Fraction", F(5, 3)), (3,): ("Fraction", F(-35, 24)),
            (4,): ("Fraction", F(-5, 12)),
        }
        # already square-free: p itself, in a 3-variable ring
        q = U([F(-2, 3), 0, F(4, 3)], 3, 2) * U([1, 1], 3, 2)
        assert squarefree_part(q, 2) is q
        assert _typed(q) == {(0, 0, 0): ("Fraction", F(-2, 3)), (0, 0, 1): ("Fraction", F(-2, 3)),
                             (0, 0, 2): ("Fraction", F(4, 3)), (0, 0, 3): ("Fraction", F(4, 3))}

    def test_normalized_canonical_and_not(self):
        canonical = P({(2, 0): 3, (1, 1): -2, (0, 0): 7})
        expected = _ints({(2, 0): 3, (1, 1): -2, (0, 0): 7})
        assert _typed(canonical.normalized()) == expected
        assert canonical.normalized_with_sign()[1] == 1
        scaled = P({(2, 0): F(-3, 4), (1, 1): F(1, 2), (0, 0): F(-7, 4)})
        assert _typed(scaled.normalized()) == expected
        assert scaled.normalized_with_sign()[1] == -1
        # integral but not primitive
        assert _typed(P({(2, 0): 6, (0, 1): -4}).normalized()) == _ints({(2, 0): 3, (0, 1): -2})

    def test_is_constant(self):
        assert Poly.zero(2).is_constant()
        assert Poly.const(2, F(-3, 2)).is_constant()
        assert Poly.const(0, 5).is_constant()
        assert not X.is_constant()
        assert not (X * Y).is_constant()
        assert not (X + Poly.one(2)).is_constant()
        assert not P({(0, 3): 2}).is_constant()


def _to_sympy(sympy, xs, p: Poly):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**e for x, e in zip(xs, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _from_sympy(sympy, xs, expr) -> Poly:
    return Poly(len(xs), {exps: Fraction(int(c.p), int(c.q))
                          for exps, c in sympy.Poly(expr, *xs).terms()})


def _with_var(rng: random.Random, nvars: int, v: int, max_deg: int) -> Poly:
    """A random polynomial of positive degree in v."""
    while True:
        p = _random_poly(rng, nvars, max_deg, 3)
        if p.contains_var(v):
            return p


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_resultant_sympy_oracle_seeded(nvars):
    # planted common factors make every other pair's resultant 0, the case a
    # zero coprimality certificate rests on.  The oracle is the determinant of
    # sympy's Sylvester matrix: sympy.resultant (1.14) returns the wrong sign
    # for some pairs, e.g. 44 for res_x(3x + 2, x^3 + 2x) = 27 * q(-2/3) = -44.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester

    xs = sympy.symbols(f"x0:{nvars}")
    rng = random.Random(4100 + nvars)
    v = nvars - 1
    nonzero = 0
    for k in range(40):
        max_deg = 3 if nvars < 3 else 2
        p, q = _with_var(rng, nvars, v, max_deg), _with_var(rng, nvars, v, max_deg)
        if k % 2:
            c = _with_var(rng, nvars, v, 1)
            p, q = p * c * Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3)), q * c
        ours = resultant(p, q, v)
        matrix = sylvester(_to_sympy(sympy, xs, p), _to_sympy(sympy, xs, q), xs[v], 1)
        dm = DomainMatrix.from_Matrix(matrix)
        assert ours == _from_sympy(sympy, xs, dm.domain.to_sympy(dm.det())), (p, q)
        if k % 2:
            assert ours.is_zero(), (p, q)
        nonzero += not ours.is_zero()
    assert nonzero >= 10


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_discriminant_sympy_oracle_seeded(nvars):
    # planted squares make every other discriminant 0, the case a zero
    # square-freeness certificate rests on
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{nvars}")
    rng = random.Random(4200 + nvars)
    v = nvars - 1
    done = 0
    while done < 40:
        p = _with_var(rng, nvars, v, 3 if nvars < 3 else 2)
        if done % 2:
            c = _with_var(rng, nvars, v, 1)
            p = p * c * c * Fraction(rng.choice([-3, 1, 2]), rng.randint(1, 4))
        if p.degree(v) < 2:
            continue
        ours = discriminant(p, v)
        assert ours == _from_sympy(sympy, xs, sympy.discriminant(_to_sympy(sympy, xs, p), xs[v])), p
        if done % 2:
            assert ours.is_zero(), p
        done += 1
