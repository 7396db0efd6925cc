from __future__ import annotations

from fractions import Fraction

import pytest

from cadlab.algpoints import Nullified, roots_above, sign_at_point
from cadlab.polys import Poly
from cadlab.realroots import AlgebraicNumber, compare

SQRT2 = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(2))
SQRT3 = AlgebraicNumber((-3, 0, 1), Fraction(1), Fraction(2))


def rat(x):
    return AlgebraicNumber.from_rational(Fraction(x))


class TestSignAtPoint:
    def test_rational_point(self):
        p = Poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        assert sign_at_point(p, (rat(0), rat(0))) == -1
        assert sign_at_point(p, (rat(1), rat(0))) == 0
        assert sign_at_point(p, (rat(2), rat(0))) == 1

    def test_single_algebraic_coordinate(self):
        p = Poly(2, {(2, 0): 1, (0, 1): -1})  # x^2 - y
        assert sign_at_point(p, (SQRT2, rat(2))) == 0
        assert sign_at_point(p, (SQRT2, rat(3))) == -1

    def test_two_algebraic_coordinates_zero_certificate(self):
        # x^2 y^2 - 6 vanishes exactly at (sqrt2, sqrt3): the interval loop
        # cannot decide this, so the resultant-elimination fallback must
        pt = (SQRT2, SQRT3)
        assert sign_at_point(Poly(2, {(2, 2): 1, (0, 0): -6}), pt) == 0
        assert sign_at_point(Poly(2, {(2, 2): 1, (0, 0): -5}), pt) == 1
        assert sign_at_point(Poly(2, {(2, 2): 1, (0, 0): -7}), pt) == -1

    def test_mixed_rational_algebraic(self):
        p = Poly(3, {(1, 1, 1): 1, (0, 0, 0): -6})  # x*y*z - 6
        assert sign_at_point(p, (SQRT2, rat(3), SQRT2)) == 0

    def test_variable_beyond_the_point_is_rejected(self):
        # x0 - 5*x1 at a one-coordinate point has no sign; its x1 term must
        # not be folded into the constant term of a univariate in x0
        p = Poly(2, {(1, 0): 1, (0, 1): -5})
        with pytest.raises(ValueError):
            sign_at_point(p, (SQRT2,))
        with pytest.raises(ValueError):
            sign_at_point(p, (rat(1),))
        # the same check holds with two live algebraic coordinates
        x0x1_minus_x2 = Poly(3, {(1, 1, 0): 1, (0, 0, 1): -1})
        with pytest.raises(ValueError):
            sign_at_point(x0x1_minus_x2, (SQRT2, SQRT3))

    def test_coordinate_turning_rational_during_refinement(self):
        # the root 1/2 of (2x - 1)(x^2 - 2), isolated in (0, 1): the first
        # bisection hits 1/2 exactly, so the refinement loop substitutes it
        # and decides the rest with one algebraic coordinate
        half = AlgebraicNumber((2, -4, -1, 2), Fraction(0), Fraction(1))
        assert not half.is_rational and half.refine_step().is_rational
        pt = (half, SQRT2)
        assert sign_at_point(Poly(2, {(1, 2): 1, (0, 0): -1}), pt) == 0  # x0*x1^2 - 1
        assert sign_at_point(Poly(2, {(1, 2): 1, (0, 0): -2}), pt) == -1  # x0*x1^2 - 2


class TestRootsAbove:
    def test_rational_base(self):
        p = Poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        roots = roots_above(p, (rat(0),), 1)
        assert [r.rational_value for r in roots] == [Fraction(-1), Fraction(1)]

    def test_algebraic_base(self):
        p = Poly(2, {(0, 2): 1, (1, 0): -1})  # y^2 - x over x = sqrt2
        roots = roots_above(p, (SQRT2,), 1)
        assert len(roots) == 2
        fourth_root = roots[1]
        # (2^(1/4))^4 == 2
        assert sign_at_point(Poly.from_dense(1, 0, (-2, 0, 0, 0, 1)), (fourth_root,)) == 0

    def test_no_real_roots_above(self):
        p = Poly(2, {(0, 2): 1, (1, 0): 1})  # y^2 + x over x = sqrt2
        assert roots_above(p, (SQRT2,), 1) == []

    def test_variable_beyond_the_lift_variable_is_rejected(self):
        p = Poly(3, {(0, 1, 0): 1, (0, 0, 1): 1})  # y + z over a rational x
        with pytest.raises(ValueError):
            roots_above(p, (rat(1),), 1)

    def test_nullification_detected(self):
        p = Poly(2, {(1, 1): 1, (0, 1): -1})  # (x-1) * y
        with pytest.raises(Nullified):
            roots_above(p, (rat(1),), 1)

    def test_double_root_over_zero_dim_base(self):
        # y^2 - 2x + 2 sqrt2-ish: construct q with a double root above sqrt2:
        # (y^2 - x)^2 has the same roots as y^2 - x; the square-free pass
        # inside roots_above must collapse it
        base = Poly(2, {(0, 2): 1, (1, 0): -1})
        squared = base * base
        roots_sq = roots_above(squared, (SQRT2,), 1)
        roots_plain = roots_above(base, (SQRT2,), 1)
        assert len(roots_sq) == len(roots_plain) == 2
        for a, b in zip(roots_sq, roots_plain):
            assert compare(a, b) == 0


X = Poly.var(2, 0)
Y = Poly.var(2, 1)
ONE = Poly.one(2)
TWO = (rat(2),)


def _exact(roots):
    return [(r.coeffs, r.lo, r.hi) for r in roots]


class TestRationalSample:
    """With no algebraic coordinate live, the substituted polynomial goes to
    root isolation as it is; the results below were recorded when it was
    made square-free first."""

    def test_repeated_factor_gives_each_root_once(self):
        p = (Y - X) ** 2 * (Y + ONE)  # (y - 2)^2 (y + 1) at x = 2
        assert _exact(roots_above(p, TWO, 1)) == [
            ((1, 1), Fraction(-2), Fraction(0)),
            ((-2, 1), Fraction(1), Fraction(3)),
        ]

    def test_identically_vanishing_is_nullified(self):
        with pytest.raises(Nullified):
            roots_above((X - ONE * 2) * Y, TWO, 1)

    def test_free_of_the_lift_variable(self):
        assert roots_above(X * X + ONE, TWO, 1) == []

    def test_linear_factor_past_the_trial_cap_stays_interval_encoded(self):
        # 800000002*y - 3: the denominator exceeds _TRIAL_CAP**2, so the
        # root comes from bisection over the root bound, not from_rational
        p = X * Y * 400000001 - ONE * 3
        assert _exact(roots_above(p, TWO, 1)) == [
            ((-3, 800000002), Fraction(-2), Fraction(2)),
        ]

    def test_linear_factor_at_the_trial_cap_is_solved(self):
        p = Y * 400000000 - ONE * 7
        assert _exact(roots_above(p, TWO, 1)) == [
            ((-7, 400000000), Fraction(-399999993, 400000000),
             Fraction(400000007, 400000000)),
        ]


class TestThreeVarBuild:
    def test_two_algebraic_base_coordinates(self):
        from cadlab.cadbuild import build_cad
        from cadlab.ordering import VarOrdering

        A = [
            Poly(3, {(2, 0, 0): 1, (0, 0, 0): -2}),  # x^2 - 2
            Poly(3, {(0, 2, 0): 1, (0, 0, 0): -3}),  # y^2 - 3
            Poly(3, {(0, 0, 2): 1, (1, 1, 0): -1}),  # z^2 - x*y
        ]
        tree = build_cad(A, VarOrdering((0, 1, 2)))
        # level-1 set {x^2-2, x}: 7 cells; level 2 adds roots of y^2-3 and x*y
        # (x*y nullifies over the 0-dimensional base x=0): 7*6+5 = 47
        assert tree.counts == (7, 47, 141)
        zeros = [
            sum(1 for leaf in tree.leaves() if tree.leaf_signs(leaf)[i] == 0) for i in range(3)
        ]
        # x^2-2 vanishes on every leaf above x = +-sqrt2; z^2 = xy has two
        # sections wherever xy > 0 and one at xy = 0
        assert zeros[0] == 42
        assert zeros[1] == 42
        assert zeros[2] == 47


F = Fraction

# the level-2 cells above the conjugate base cells x0 = -sqrt2 (index 4) and
# x0 = sqrt2 (index 6) of the build in TestConjugateSharing, recorded before
# eliminations were shared: (index, x1's coeffs, lo, hi, zero_polys)
CONJUGATE_STACKS = [
    ((4, 1), (3, 1), F(-4, 1), F(-2, 1), set()),
    ((4, 2), (1, 0, -4, 0, 1), F(-5, 2), F(-5, 4), {2}),
    ((4, 3), (3, 4), F(-7, 4), F(1, 4), set()),
    ((4, 4), (0, 1), F(-1, 4), F(1, 4), {1}),
    ((4, 5), (-9, 32), F(-23, 32), F(41, 32), set()),
    ((4, 6), (1, 0, -4, 0, 1), F(5, 16), F(5, 8), {2}),
    ((4, 7), (-1, 1), F(0, 1), F(2, 1), set()),
    ((6, 1), (1, 1), F(-2, 1), F(0, 1), set()),
    ((6, 2), (1, 0, -4, 0, 1), F(-5, 8), F(-5, 16), {2}),
    ((6, 3), (9, 32), F(-41, 32), F(23, 32), set()),
    ((6, 4), (0, 1), F(-1, 4), F(1, 4), {1}),
    ((6, 5), (-3, 4), F(-1, 4), F(7, 4), set()),
    ((6, 6), (1, 0, -4, 0, 1), F(5, 4), F(5, 2), {2}),
    ((6, 7), (-3, 1), F(2, 1), F(4, 1), set()),
]


@pytest.fixture
def eliminations(monkeypatch):
    """Records every (g, v, defining polynomial) that _eliminate_coordinate gets."""
    from cadlab import algpoints

    calls = []
    inner = algpoints._eliminate_coordinate

    def recording(g, v, alpha):
        calls.append((g, v, alpha.coeffs))
        return inner(g, v, alpha)

    monkeypatch.setattr(algpoints, "_eliminate_coordinate", recording)
    return calls


class TestOneChainPerElimination:
    """_eliminate_coordinate runs no gcd in the eliminated variable: the
    resultant's own chain holds any factor shared with the defining polynomial."""

    @pytest.fixture
    def gcds_in_x0(self, monkeypatch):
        from cadlab import algpoints, polys

        calls = []
        inner = polys.poly_gcd

        def recording(p, q):
            calls.append((p, q))
            return inner(p, q)

        monkeypatch.setattr(polys, "poly_gcd", recording)
        monkeypatch.setattr(algpoints, "poly_gcd", recording, raising=False)
        return lambda: [c for c in calls if any(p.contains_var(0) for p in c)]

    def test_coprime_carrier(self, gcds_in_x0):
        from cadlab.algpoints import _eliminate_coordinate, _resultant_any

        g = Poly(3, {(0, 0, 1): 1, (2, 0, 0): -1, (1, 1, 0): -1})  # z - x0^2 - x0*x1
        res, split = _eliminate_coordinate(g, 0, SQRT2)
        assert not split and gcds_in_x0() == []
        assert res == _resultant_any(Poly.from_dense(3, 0, SQRT2.coeffs), g, 0)

    def test_split_elimination(self, gcds_in_x0):
        from cadlab.algpoints import _eliminate_coordinate

        # the case of TestConjugateSharing::test_split_elimination_is_computed_again:
        # -sqrt3 as a root of (x0^2 - 2)(x0^2 - 3) against (x0^2 - 2)(x1 - 1)
        alpha = AlgebraicNumber((6, 0, -5, 0, 1), F(-2), F(-3, 2))
        res, split = _eliminate_coordinate((X * X - ONE * 2) * (Y - ONE), 0, alpha)
        assert split and gcds_in_x0() == []
        # x0^2 - 2 is split off the defining polynomial: res(x0^2 - 3, ...)
        assert res == ((Y - ONE) ** 2)


class TestConjugateSharing:
    def test_conjugate_base_cells_eliminate_once(self, eliminations):
        from cadlab.cadbuild import build_cad
        from cadlab.ordering import VarOrdering

        # x0^2 - 2 makes +-sqrt2 base cells; x1^2 - x0^2 + 2 has a double
        # root at x1 = 0 above both (the exact-zero path), and
        # x1^2 - x0*x1 - 1 is square-free above both (the endpoint-sign path)
        A = [X * X - ONE * 2, Y * Y - X * X + ONE * 2, Y * Y - X * Y - ONE]
        tree = build_cad(A, VarOrdering((0, 1)))
        base = {c.index: c.sample[0] for c in tree.levels[0]}
        assert [(base[i].coeffs, base[i].lo, base[i].hi) for i in [(4,), (6,)]] == [
            ((-2, 0, 1), F(-93, 64), F(-45, 32)),
            ((-2, 0, 1), F(45, 32), F(93, 64)),
        ]
        # at one call per base cell there were 8 calls, each key twice
        assert len(eliminations) == 4
        assert len(set(eliminations)) == 4
        got = [
            (c.index, c.sample[1].coeffs, c.sample[1].lo, c.sample[1].hi, set(c.zero_polys))
            for c in tree.levels[1] if c.index[0] in (4, 6)
        ]
        assert got == CONJUGATE_STACKS

    def test_split_elimination_is_computed_again(self, eliminations):
        # +-sqrt3 as roots of (x0^2 - 2)(x0^2 - 3): the eliminant of
        # (x0^2 - 2)(x1 - 1) splits x0^2 - 2 off the defining polynomial,
        # which depends on the root, so the second base cell recomputes it
        defining = (6, 0, -5, 0, 1)
        points = [(AlgebraicNumber(defining, F(-2), F(-3, 2)),),
                  (AlgebraicNumber(defining, F(3, 2), F(2)),)]
        p = (X * X - ONE * 2) * (Y - ONE)
        shared: dict = {}
        for point in points:
            assert [r.rational_value for r in roots_above(p, point, 1, shared)] == [1]
        assert len(eliminations) == 2 and len(set(eliminations)) == 1

    def test_unsplit_elimination_is_shared(self, eliminations):
        p = Y * Y - X
        shared: dict = {}
        neg_sqrt2 = AlgebraicNumber((-2, 0, 1), F(-2), F(-1))
        assert roots_above(p, (neg_sqrt2,), 1, shared) == []
        assert len(roots_above(p, (SQRT2,), 1, shared)) == 2
        assert len(eliminations) == 1


def _rational_encoding(rng, q):
    """q as a rational AlgebraicNumber whose linear encoding may have a
    negative lead or a common factor."""
    k = rng.choice([1, 1, 2, 3]) * rng.choice([1, -1])
    return AlgebraicNumber((-k * q.numerator, k * q.denominator), q - 1, q + 1)


def _random_poly(rng, nvars, top):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(0, top) for _ in range(nvars))
        terms[e] = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    return Poly(nvars, terms)


def _outcome(f, *args):
    """f(*args) as comparable data: the exact roots, or the exception's type."""
    try:
        return _exact(f(*args))
    except (Nullified, ValueError) as e:
        return type(e)


class TestIntegerEvaluationOracle:
    """Poly.scaled_substitute against the Fraction-chain substitution of
    ``oracles``, and roots_above and sign_at_point at all-rational and mixed
    samples against the exactly substituted polynomial."""

    def test_seeded_against_substitution(self):
        import random

        from cadlab.algpoints import _split_coords
        from cadlab.realroots import isolate_real_roots
        from oracles import fraction_substitute

        rng = random.Random(1807)
        outcomes = set()
        mixed_samples = 0
        for _ in range(300):
            k = rng.randint(0, 2)
            n = k + 2  # the lift variable x_k and one variable x_{k+1} beyond it
            values = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
            point = tuple(_rational_encoding(rng, q) for q in values)
            assign = dict(enumerate(values))
            one = Poly.one(n)
            p = Poly(n, {e + (0,): c for e, c in _random_poly(rng, n - 1, 3).terms.items()})
            cancelled = False
            if k and rng.random() < 0.3:
                # a factor vanishing at the sample: nullification
                p = p * (Poly.var(n, 0) - one * values[0])
            if k and rng.random() < 0.3:
                # terms in x_{k+1} that vanish at the sample
                vanishing = Poly.var(n, n - 1) * (Poly.var(n, k - 1) - one * values[k - 1])
                p = p + vanishing * _random_poly(rng, n, 1)
                cancelled = True
            if k and rng.random() < 0.1:
                p = p + Poly.var(n, n - 1)  # x_{k+1} stays live
            rational, algebraic = _split_coords(point)
            assert not algebraic
            assert all(d > 0 and num * q.denominator == q.numerator * d
                       for (num, d), q in zip(rational.values(), values))
            # the scaled view on any set of variables, not only a prefix:
            # integer terms, one common integer scale >= 1
            chosen = {i: F(rng.randint(-5, 5), rng.randint(1, 4))
                      for i in range(n) if rng.random() < 0.5}
            scaled = p.scaled_substitute({i: (q.numerator, q.denominator)
                                          for i, q in chosen.items()})
            want = fraction_substitute(p, chosen)
            assert set(scaled.terms) == set(want.terms)
            assert all(type(c) is int for c in scaled.terms.values())
            ratios = {F(c) / want.terms[e] for e, c in scaled.terms.items()}
            assert len(ratios) <= 1 and all(r.denominator == 1 and r >= 1 for r in ratios)
            # the terms in the point's variables alone: the sign of their value
            low = Poly(n, {e: c for e, c in p.terms.items() if not any(e[k:])})
            value = fraction_substitute(low, assign).constant_value()
            assert sign_at_point(low, point) == (value > 0) - (value < 0)
            if k:
                # a mixed sample: one coordinate algebraic, the others
                # substituted exactly first give the same sign and roots
                j = rng.randrange(k)
                mixed = (*point[:j], rng.choice([SQRT2, SQRT3]), *point[j + 1:])
                rest = {i: q for i, q in assign.items() if i != j}
                exact = fraction_substitute(p, rest)
                mixed_samples += 1
                assert sign_at_point(low, mixed) == \
                    sign_at_point(fraction_substitute(low, rest), mixed)
                assert _outcome(roots_above, p, mixed, k) == _outcome(roots_above, exact, mixed, k)
            # the roots above, as isolation of the substituted polynomial gives them
            sub = fraction_substitute(p, assign)
            if sub.is_zero():
                outcomes.add("nullified")
                with pytest.raises(Nullified):
                    roots_above(p, point, k)
            elif not sub.contains_var(k):
                outcomes.add("free of x_k")
                assert roots_above(p, point, k) == []
            elif sub.contains_var(n - 1):
                outcomes.add("x_{k+1} live")
                with pytest.raises(ValueError):
                    roots_above(p, point, k)
            else:
                outcomes.add("x_{k+1} cancelled" if cancelled else "roots")
                assert _exact(roots_above(p, point, k)) == _exact(isolate_real_roots(sub, k))
        assert outcomes == {"nullified", "free of x_k", "x_{k+1} live", "x_{k+1} cancelled",
                            "roots"}
        assert mixed_samples > 100

    def test_negative_lead_encoding(self):
        # (1, -2) encodes -2*v + 1 = 0, that is v = 1/2, where x is positive
        half = AlgebraicNumber((1, -2), F(0), F(1))
        x = Poly.var(1, 0)
        assert sign_at_point(x, (half,)) == 1
        assert sign_at_point(x * 2 - Poly.one(1), (half,)) == 0
        assert [r.rational_value for r in roots_above(Poly.var(2, 1) - Poly.var(2, 0), (half,), 1)] \
            == [F(1, 2)]

    def test_a_variable_beyond_the_lift_that_vanishes_at_the_sample(self):
        # (x0 - 1)*x2 + x1 over x0 = 1 is x1: its root 0, as substitution gives it
        p = Poly(3, {(1, 0, 1): 1, (0, 0, 1): -1, (0, 1, 0): 1})
        assert _exact(roots_above(p, (rat(1),), 1)) == [((0, 1), F(-1), F(1))]


class TestWorkAtRationalSamples:
    def test_no_enclosure_at_an_all_rational_sample(self, monkeypatch):
        enclosures = []
        inner = Poly.interval_eval

        def counting(self, box):
            enclosures.append(box)
            return inner(self, box)

        monkeypatch.setattr(Poly, "interval_eval", counting)
        circle = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1})
        point = (rat(F(1, 3)), rat(F(-1, 2)))
        assert sign_at_point(circle, (*point, rat(0))) == -1
        assert len(roots_above(circle, point, 2)) == 2
        assert enclosures == []

    def test_no_fraction_at_an_all_rational_sample(self, monkeypatch):
        ellipsoid = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): Fraction(1, 2),
                             (0, 0, 0): -1})
        circle = Poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): Fraction(-13, 36)})
        point = (rat(F(1, 3)), rat(F(-1, 2)), rat(F(3, 4)))
        made = []

        def counting(inner):
            def wrapper(*args, **kwargs):
                made.append(args)
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
        if "_from_coprime_ints" in vars(Fraction):  # Python >= 3.12 builds results here too
            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(counting(Fraction._from_coprime_ints.__func__)))
        assert sign_at_point(ellipsoid, point) == -1
        assert sign_at_point(circle, point[:2]) == 0
        assert made == []

    def test_rational_neighbours_separate_without_refine_steps(self, monkeypatch):
        from cadlab import realroots

        a, b = rat(F(-1, 10)), rat(F(1, 10))
        # what the halving rounds give: both refined until disjoint
        x, y = a, b
        while x.hi > y.lo:
            x, y = x.refine_step(), y.refine_step()
        steps = []
        inner = AlgebraicNumber.refine_step
        monkeypatch.setattr(AlgebraicNumber, "refine_step",
                            lambda self: steps.append(self) or inner(self))
        roots, tags = realroots._merge_roots([(b, "b"), (a, "a")])
        assert steps == []
        assert _exact(roots) == _exact([x, y])
        assert tags == [{"a"}, {"b"}]

    def test_zero_certificate_after_thirteen_enclosures(self, monkeypatch):
        from cadlab import algpoints

        enclosures = []
        carriers = []
        inner_eval, inner_carrier = Poly.interval_eval, algpoints._carrier

        def counting_eval(self, box):
            enclosures.append(box)
            return inner_eval(self, box)

        def counting_carrier(*args, **kwargs):
            carriers.append(len(enclosures))
            return inner_carrier(*args, **kwargs)

        monkeypatch.setattr(Poly, "interval_eval", counting_eval)
        monkeypatch.setattr(algpoints, "_carrier", counting_carrier)
        # x^2 y^2 - 6 vanishes at (sqrt2, sqrt3): no enclosure decides it
        assert sign_at_point(Poly(2, {(2, 2): 1, (0, 0): -6}), (SQRT2, SQRT3)) == 0
        assert carriers == [13]
