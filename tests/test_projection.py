from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from cadlab.ordering import VarOrdering, QuantifierBlock, admissible_orderings
from cadlab.errors import OrderingCapError
from cadlab.polys import (
    Poly,
    _poly_sort_key,
    content_in,
    discriminant,
    divexact,
    poly_gcd,
    resultant,
    squarefree_part,
    squarefree_primitive_basis,
)
from cadlab.projection import mccallum_project, projection_levels, reduced_ec_project
from cadlab.randgen import RandomProfile, random_problems

X = Poly.var(2, 0)
Y = Poly.var(2, 1)
ONE = Poly.one(2)


def P(terms):
    return Poly(2, terms)


CIRCLE = P({(2, 0): 1, (0, 2): 1, (0, 0): -1})
CIRCLE2 = P({(2, 0): 1, (1, 0): -2, (0, 2): 1})
X2M1 = P({(2, 0): 1, (0, 0): -1})
BLOWUP = P({(1, 2): 1, (1, 0): 1, (0, 2): -1, (0, 0): -2})


class TestMcCallum:
    def test_circle(self):
        # R^1 must split exactly at x = -1 and x = 1
        assert mccallum_project([CIRCLE], 1) == [X2M1]

    def test_two_circles(self):
        out = mccallum_project([CIRCLE, CIRCLE2], 1)
        expected = {
            X2M1,  # disc of circle 1
            P({(2, 0): 1, (1, 0): -2}),  # disc of circle 2
            P({(1, 0): 2, (0, 0): -1}),  # resultant (2x-1)^2, square-freed
        }
        assert set(out) == expected

    def test_nothing_to_record(self):
        assert mccallum_project([P({(0, 2): 1, (0, 0): 1})], 1) == []

    def test_constants_project_empty(self):
        assert mccallum_project([Poly.const(2, 3)], 1) == []

    def test_coefficient_shortcut(self):
        # lc is x (nonconstant, kept); next coefficient 1 is constant -> stop
        p = P({(1, 1): 1, (0, 0): 1})  # x*y + 1
        out = mccallum_project([p], 1)
        assert X in out


class TestReducedEC:
    def test_circles_drops_other_disc(self):
        out = reduced_ec_project([CIRCLE, CIRCLE2], CIRCLE, 1)
        assert set(out) == {X2M1, P({(1, 0): 2, (0, 0): -1})}

    def test_singleton_equals_full(self):
        assert reduced_ec_project([CIRCLE], CIRCLE, 1) == mccallum_project([CIRCLE], 1)

    def test_free_other_passes_through(self):
        g = P({(1, 0): 1, (0, 0): -3})  # x - 3, free of y
        out = reduced_ec_project([CIRCLE, g], CIRCLE, 1)
        assert set(out) == {X2M1, g.normalized()}

    def test_missing_ec(self):
        with pytest.raises(ValueError, match="designated EC missing"):
            reduced_ec_project([CIRCLE], CIRCLE2, 1)

    # (A, e) -> output as (exponents, coefficient, coefficient type) terms,
    # recorded when the contents came from a square-free basis of the others
    PINNED = {
        # the other's content (x - 1)^2 is emitted square-freed
        "nonconstant_content": (
            [CIRCLE, (X - ONE) ** 2 * (Y + X * 2)],
            [
                [((1, 0), 1, "int"), ((0, 0), -1, "int")],
                [((2, 0), 1, "int"), ((0, 0), -1, "int")],
                [((3, 0), 5, "int"), ((2, 0), -5, "int"), ((1, 0), -1, "int"), ((0, 0), 1, "int")],
            ],
        ),
        # (2x - 1)^2 is free of y: its own content, square-freed
        "free_of_v": (
            [CIRCLE, (X * 2 - ONE) ** 2, Y * 3 - X],
            [
                [((1, 0), 2, "int"), ((0, 0), -1, "int")],
                [((2, 0), 1, "int"), ((0, 0), -1, "int")],
                [((2, 0), 10, "int"), ((0, 0), -9, "int")],
            ],
        ),
        # the resultant with e is zero and drops out
        "shares_a_factor_with_e": (
            [(Y - X) * (Y + X + ONE), (Y - X) * (Y * 2 - ONE * 3)],
            [[((1, 0), 2, "int"), ((0, 0), 1, "int")]],
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_terms(self, case):
        A, expected = self.PINNED[case]
        out = reduced_ec_project(A, A[0], 1)
        assert [[(e, c, type(c).__name__) for e, c in p.sorted_terms()] for p in out] == expected

    def test_subset_of_full_on_generic_random(self):
        from cadlab.polys import divexact, squarefree_part

        rng = random.Random(31)
        done = 0
        while done < 25:
            polys = []
            for _ in range(2):
                terms = {
                    tuple(rng.randint(0, 2) for _ in range(2)): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 3))
                }
                polys.append(Poly(2, terms))
            polys = [p for p in polys if p.contains_var(1)]
            if len(polys) < 2:
                continue
            from cadlab.polys import content_in

            generic = (
                poly_gcd(polys[0], polys[1]).is_constant()
                and squarefree_part(polys[0], 1) == polys[0]
                and squarefree_part(polys[1], 1) == polys[1]
                and content_in(polys[0], 1).is_constant()
                and content_in(polys[1], 1).is_constant()
            )
            full = mccallum_project(polys, 1)
            reduced = reduced_ec_project(polys, polys[0], 1)
            if generic:
                assert set(reduced) <= set(full)
            for q in reduced:
                # always: every reduced member's variety is covered by full members
                r = q
                for f in full:
                    while not r.is_constant():
                        g = poly_gcd(r, f)
                        if g.is_constant():
                            break
                        r = divexact(r, g)
                assert r.is_constant(), f"{q} not covered by full projection"
            done += 1


def _reference_project(A, v):
    """The full projection defined from the public kernels, every value computed afresh.

    Square-free basis and contents, then each basis element's coefficients
    down to the first nonzero constant, its discriminant, and the pairwise
    resultants; every emitted polynomial is square-freed in its own main
    variable and normalized, and constants drop.
    """
    collected = {}

    def emit(p):
        if not p.is_constant():
            q = squarefree_part(p, p.variables()[-1]).normalized()
            if not q.is_constant():
                collected[q] = None

    basis, contents = squarefree_primitive_basis(A, v)
    for c in contents:
        emit(c)
    for b in basis:
        for k in range(b.degree(v), -1, -1):
            c = b.coeff_of_power(v, k)
            if c.is_zero():
                continue
            if c.is_constant():
                break
            emit(c)
        if b.degree(v) >= 2:
            emit(discriminant(b, v))
    for i, b in enumerate(basis):
        for c in basis[i + 1 :]:
            emit(resultant(b, c, v))
    return sorted(collected, key=_poly_sort_key)


def _reference_basis(A, v):
    """The square-free primitive basis built with gcds alone, no certificates."""
    parts, contents = [], set()
    for p in sorted(A, key=_poly_sort_key):
        if p.is_constant():
            continue
        cont = content_in(p, v)
        if not cont.is_constant():
            contents.add(cont)
            p = divexact(p, cont)
        if p.contains_var(v):
            parts.append(squarefree_part(p, v).normalized())
    basis, queue = [], list(dict.fromkeys(parts))
    while queue:
        p = queue.pop(0)
        i = 0
        while i < len(basis) and not p.is_constant():
            b = basis[i]
            g = poly_gcd(p, b)
            if g == b:
                p = divexact(p, b).normalized()
            elif not g.is_constant():
                basis[i] = g
                rest = divexact(b, g).normalized()
                if not rest.is_constant():
                    queue.append(rest)
                p = divexact(p, g).normalized()
            i += 1
        if not p.is_constant():
            basis.append(p)
    return sorted(basis, key=_poly_sort_key), sorted(contents, key=_poly_sort_key)


def _typed_terms(polys):
    """Terms in stored order with coefficient types: an int and an equal Fraction differ."""
    return [[(e, c, type(c).__name__) for e, c in p.terms.items()] for p in polys]


def _factor(rng, nvars, v):
    """A random polynomial of degree 1 or 2 in v, with small integer coefficients."""
    while True:
        terms = {tuple(rng.randint(0, 1) if i != v else rng.randint(0, 2) for i in range(nvars)):
                 rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(2, 3))}
        p = Poly(nvars, terms)
        if p.contains_var(v):
            return p


PLANTED = ("square", "shared_factor", "duplicate_primitive_part", "fraction_content", "generic")


def _planted_set(rng, nvars, v, kind):
    f, g, h = (_factor(rng, nvars, v) for _ in range(3))
    w = Poly.var(nvars, (v + 1) % nvars)  # a variable other than v: content material
    if kind == "square":
        return [f * f * g, h]
    if kind == "shared_factor":
        return [f * g, f * h, g]
    if kind == "duplicate_primitive_part":
        return [f * (w + Poly.one(nvars) * 2), f * -3, g]
    if kind == "fraction_content":
        return [f * (w - Poly.const(nvars, Fraction(1, 2))) * Fraction(2, 3), g * Fraction(-5, 7)]
    return [f, g, h]


class TestProjectionOracle:
    """mccallum_project against the same projection with every value recomputed."""

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("kind", PLANTED)
    def test_seeded_planted_sets(self, nvars, kind):
        rng = random.Random(f"{nvars}-{kind}")
        for _ in range(12 if nvars == 2 else 6):
            v = rng.randrange(nvars)
            A = _planted_set(rng, nvars, v, kind)
            basis, contents = squarefree_primitive_basis(A, v)
            ref_basis, ref_contents = _reference_basis(A, v)
            assert _typed_terms(basis) == _typed_terms(ref_basis), (A, v)
            assert _typed_terms(contents) == _typed_terms(ref_contents), (A, v)
            out = mccallum_project(A, v)
            assert _typed_terms(out) == _typed_terms(_reference_project(A, v)), (A, v)

    @pytest.mark.parametrize("A, v", [
        ([CIRCLE, CIRCLE2, BLOWUP], 1),
        ([Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1}),
          Poly(3, {(0, 0, 1): 1, (1, 1, 0): -1}),
          Poly(3, {(0, 0, 2): 1, (1, 0, 0): 1, (0, 0, 0): -2})], 2),
    ])
    def test_squarefree_coprime_input_needs_no_gcd_in_v(self, monkeypatch, A, v):
        from cadlab import polys

        calls = []
        gcd, squarefree = polys.poly_gcd, polys._squarefree_primitive
        monkeypatch.setattr(polys, "poly_gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
        monkeypatch.setattr(polys, "_squarefree_primitive",
                            lambda p, w: calls.append((p,)) or squarefree(p, w))
        out = mccallum_project(A, v)
        # square-free and pairwise coprime: every discriminant and resultant is
        # nonzero, so neither a square-free step nor a pairwise gcd runs in v
        assert [c for c in calls if any(p.contains_var(v) for p in c)] == []
        assert calls  # gcds on coefficients and emitted polynomials still run
        assert _typed_terms(out) == _typed_terms(_reference_project(A, v))


class TestZeroCertificates:
    """A zero discriminant or resultant hands the gcd its chain holds to the split."""

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("kind", ["square", "shared_factor"])
    def test_zero_certificate_runs_no_second_chain(self, monkeypatch, nvars, kind):
        from cadlab import polys

        calls, zeros = [], []
        gcd, squarefree, chain = polys.poly_gcd, polys._squarefree_primitive, polys._subresultant_prs

        def counting_chain(p, q, w):
            res, last = chain(p, q, w)
            # a zero certificate on a multivariate part or pair
            zeros.append(last is not None and w == v and p.variables() + q.variables() != (v, v))
            return res, last

        rng = random.Random(f"zero-certificates-{nvars}-{kind}")
        v = nvars - 1  # the projection eliminates the top variable
        for _ in range(12 if nvars == 2 else 6):
            A = _planted_set(rng, nvars, v, kind)
            ref_basis, ref_contents = _reference_basis(A, v)
            with monkeypatch.context() as m:
                m.setattr(polys, "_subresultant_prs", counting_chain)
                m.setattr(polys, "poly_gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
                m.setattr(polys, "_squarefree_primitive",
                          lambda p, w: calls.append((p,)) or squarefree(p, w))
                basis, contents = squarefree_primitive_basis(A, v)
            assert _typed_terms(basis) == _typed_terms(ref_basis), (A, v)
            assert _typed_terms(contents) == _typed_terms(ref_contents), (A, v)
        # gcds of coefficients (free of v) still run, and univariate pairs take
        # the dense gcd; no gcd in v runs on a multivariate part or pair
        assert [c for c in calls if any(p.contains_var(v) and p.variables() != (v,) for p in c)] == []
        assert sum(zeros) >= 3


class TestLevels:
    def test_circle_levels(self):
        levels = projection_levels([CIRCLE], 2)
        assert levels.level(2) == (CIRCLE,)
        assert levels.level(1) == (X2M1,)

    def test_blowup_project_x_first(self):
        # ordering y,x: x is the level-2 variable, so it is eliminated first
        levels = projection_levels(VarOrdering((1, 0)).relabel([BLOWUP]), 2)
        lvl1 = levels.level(1)
        # coefficients y^2+1 and y^2+2, with y now x_0: no real roots at level 1
        assert set(lvl1) == {P({(2, 0): 1, (0, 0): 1}), P({(2, 0): 1, (0, 0): 2})}

    def test_level_variable_scope(self):
        for ordering in admissible_orderings(2):
            levels = projection_levels(ordering.relabel([CIRCLE, CIRCLE2, BLOWUP]), 2)
            for k in range(1, 3):
                for p in levels.level(k):
                    assert set(p.variables()) <= set(range(k))

    def test_empty_designation_is_full_run(self):
        a = projection_levels([CIRCLE, CIRCLE2], 2, designations={})
        b = projection_levels([CIRCLE, CIRCLE2], 2)
        assert a == b

    def test_missing_level_variable_passes_through(self):
        levels = projection_levels([X2M1], 2)
        assert levels.level(2) == levels.level(1) == (X2M1,)

    def test_each_polynomial_is_keyed_once(self, monkeypatch):
        # a sort key costs one sorted_terms call; each level is the sorted
        # output of the one above, so its keys must not be built again
        keyed = []  # holds the objects, so no id is reused
        inner = Poly.sorted_terms

        def recording(p):
            keyed.append(p)
            return inner(p)

        monkeypatch.setattr(Poly, "sorted_terms", recording)
        profile = RandomProfile(nvars=3, npolys=3, max_degree=3)
        for problem in random_problems(900, 150, profile)[:5]:
            projection_levels(problem.input_polys(), problem.nvars)
        per_object = Counter(map(id, keyed))
        assert per_object and max(per_object.values()) == 1


class TestOrderings:
    def test_admissible_unconstrained(self):
        assert [o.order for o in admissible_orderings(2)] == [(0, 1), (1, 0)]

    def test_blocks_constrain(self):
        # exists-block variable 1 must be projected first: it sits on top
        blocks = [QuantifierBlock("exists", (1,))]
        assert [o.order for o in admissible_orderings(2, blocks)] == [(0, 1)]

    def test_block_interior_free(self):
        blocks = [QuantifierBlock("forall", (1, 2))]
        orders = [o.order for o in admissible_orderings(3, blocks)]
        assert orders == [(0, 1, 2), (0, 2, 1)]

    def test_cap(self):
        with pytest.raises(OrderingCapError):
            admissible_orderings(8)

    def test_seven_variables_allowed(self):
        assert len(admissible_orderings(7)) == 5040
