from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cadlab import cadbuild
from cadlab.cadbuild import build_cad
from cadlab.heuristics import (
    brown_order,
    gb_precondition_decision,
    ml_feature_names,
    ml_features,
    order_by_fulldim,
    order_by_ndrr,
    order_by_sotd,
    sotd_value,
    tnoi,
)
from cadlab.ordering import QuantifierBlock, VarOrdering, admissible_orderings
from cadlab.polys import Poly
from cadlab.projection import projection_levels
from cadlab.randgen import RandomProfile, random_problems
from cadlab.realroots import count_distinct_real_roots


def P(terms):
    return Poly(2, terms)


CIRCLE = P({(2, 0): 1, (0, 2): 1, (0, 0): -1})
CIRCLE2 = P({(2, 0): 1, (1, 0): -2, (0, 2): 1})
BLOWUP = P({(1, 2): 1, (1, 0): 1, (0, 2): -1, (0, 0): -2})
XY, YX = VarOrdering((0, 1)), VarOrdering((1, 0))


class TestBrown:
    def test_blowup_eliminates_x_first(self):
        rep = brown_order([BLOWUP], 2)
        assert rep.chosen.order == (1, 0)  # lift y first: x projected first

    def test_circle_full_tie_declared_order(self):
        rep = brown_order([CIRCLE], 2)
        assert rep.chosen.order == (0, 1)

    def test_degree_criterion(self):
        p = P({(2, 1): 1, (1, 0): 1})  # x^2*y + x
        rep = brown_order([p], 2)
        assert rep.chosen.order == (0, 1)  # eliminate y first

    def test_respects_blocks(self):
        # variable 0 quantified: it must be projected first even though
        # criteria prefer eliminating variable 1
        p = P({(0, 2): 1, (1, 0): 1})  # y^2 + x
        free = brown_order([p], 2)
        assert free.chosen.order == (1, 0)
        blocked = brown_order([p], 2, blocks=[QuantifierBlock("exists", (0,))])
        assert blocked.chosen.order == (1, 0)


class TestSotd:
    def test_value_circle(self):
        levels = projection_levels([CIRCLE], 2)
        assert sotd_value(levels) == 6

    def test_empty_level_zero(self):
        p = Poly(1, {(1,): 1})
        levels = projection_levels([p], 1)
        assert sotd_value(levels) == 1  # single monomial x at the input level

    def test_blowup_exhaustive(self):
        rep = order_by_sotd([BLOWUP], 2)
        assert rep.chosen.order == (1, 0)
        assert dict(rep.scores) == {XY: 11, YX: 10}

    def test_single_variable_identity(self):
        p = Poly(1, {(3,): 1, (0,): -1})
        rep = order_by_sotd([p], 1)
        assert rep.chosen.order == (0,)

    def test_greedy_matches_exhaustive_on_two_vars(self):
        rng = random.Random(77)
        done = 0
        while done < 30:
            terms = {
                tuple(rng.randint(0, 3) for _ in range(2)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 4))
            }
            p = Poly(2, terms)
            if p.is_zero() or p.is_constant():
                continue
            exhaustive = order_by_sotd([p], 2, strategy="exhaustive")
            greedy = order_by_sotd([p], 2, strategy="greedy")
            assert exhaustive.chosen == greedy.chosen, p.to_string()
            done += 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            order_by_sotd([CIRCLE], 2, strategy="simulated-annealing")


class TestNdrr:
    def test_blowup(self):
        rep = order_by_ndrr([BLOWUP], 2)
        assert rep.chosen.order == (1, 0)
        assert dict(rep.scores) == {XY: 2, YX: 0}

    def test_circle_tie_declared(self):
        rep = order_by_ndrr([CIRCLE], 2)
        assert rep.chosen.order == (0, 1)
        assert len(rep.ties) == 1

    def test_constants_fallback(self):
        rep = order_by_ndrr([P({(1, 0): 1, (0, 1): 1})], 2)
        assert rep.chosen.order == (0, 1)


class TestFulldim:
    def test_blowup(self):
        rep = order_by_fulldim([BLOWUP], 2)
        assert rep.chosen.order == (1, 0)
        assert dict(rep.scores) == {XY: 5, YX: 2}

    def test_circle_tie(self):
        rep = order_by_fulldim([CIRCLE], 2)
        assert rep.chosen.order == (0, 1)
        assert dict(rep.scores) == {XY: 5, YX: 5}

    def test_single_poly_single_var(self):
        rep = order_by_fulldim([Poly(1, {(1,): 1})], 1)
        assert rep.chosen.order == (0,)


SEED_900 = random_problems(900, 20, RandomProfile(nvars=3, npolys=3, max_degree=3))


class _Levels(Exception):
    """Stops build_cad before lifting, carrying the levels it would lift over."""


def _score_tables(problem):
    polys = problem.input_polys()
    return (dict(order_by_sotd(polys, problem.nvars, problem.blocks).scores),
            dict(order_by_ndrr(polys, problem.nvars, problem.blocks).scores))


def _assert_tables_measure(problem, sotd, ndrr, ordering, levels):
    assert sotd[ordering] == sotd_value(levels), (problem.name, ordering)
    assert ndrr[ordering] == count_distinct_real_roots(levels.level(1), 0), (problem.name, ordering)


class TestScoresMeasureTheBuild:
    """sotd and ndrr score exactly the projection levels build_cad lifts over."""

    @pytest.mark.parametrize("index", range(len(SEED_900)))
    def test_every_ordering_of_seed_900(self, index, monkeypatch):
        # half of these orderings are not well oriented or lift for seconds,
        # so the build is stopped once its projection levels exist; on
        # random-900-0000 declared-label scoring gave x1,x0,x2 sotd 218, and
        # the build lifts over levels of sotd 217
        def stop(*args, **kwargs):
            raise _Levels(projection_levels(*args, **kwargs))

        monkeypatch.setattr(cadbuild, "projection_levels", stop)
        problem = SEED_900[index]
        sotd, ndrr = _score_tables(problem)
        for ordering in admissible_orderings(problem.nvars, problem.blocks):
            with pytest.raises(_Levels) as stopped:
                build_cad(problem, ordering)
            _assert_tables_measure(problem, sotd, ndrr, ordering, stopped.value.args[0])

    def test_built_trees_carry_the_scored_levels(self):
        # every ordering lifts in milliseconds; declared-label scoring gave x2,x0,x1
        # sotd 13, and the build lifts over levels of sotd 12
        problem = SEED_900[18]
        sotd, ndrr = _score_tables(problem)
        for ordering in admissible_orderings(problem.nvars, problem.blocks):
            tree = build_cad(problem, ordering)
            _assert_tables_measure(problem, sotd, ndrr, ordering, tree.projection)


class TestScaleInvariance:
    def test_argmin_unchanged_under_scaling(self):
        rng = random.Random(13)
        done = 0
        while done < 10:
            terms = {
                tuple(rng.randint(0, 2) for _ in range(2)): rng.randint(-3, 3)
                for _ in range(rng.randint(2, 4))
            }
            p = Poly(2, terms)
            if p.is_zero() or p.is_constant():
                continue
            scaled = [q * Fraction(3, 7) for q in [p]]
            for fn in (
                lambda A: brown_order(A, 2),
                lambda A: order_by_sotd(A, 2),
                lambda A: order_by_ndrr(A, 2),
                lambda A: order_by_fulldim(A, 2),
            ):
                assert fn([p]).chosen == fn(scaled).chosen
            assert order_by_sotd([p], 2).scores == order_by_sotd(scaled, 2).scores
            done += 1

    def test_all_orderings_respect_blocks(self):
        blocks = [QuantifierBlock("forall", (0,))]
        admissible = {o.order for o in admissible_orderings(2, blocks)}
        for fn in (
            lambda A: brown_order(A, 2, blocks),
            lambda A: order_by_sotd(A, 2, blocks),
            lambda A: order_by_ndrr(A, 2, blocks),
            lambda A: order_by_fulldim(A, 2, blocks),
        ):
            assert fn([BLOWUP]).chosen.order in admissible


class TestTnoi:
    def test_circle_pair(self):
        assert tnoi([CIRCLE, CIRCLE2]) == 4

    def test_univariate_pair(self):
        a = P({(1, 0): 2, (0, 0): -1})
        b = P({(0, 2): 4, (0, 0): -3})
        assert tnoi([a, b]) == 2

    def test_empty(self):
        assert tnoi([]) == 0


class TestGBDecision:
    def test_circle_pair(self):
        d = gb_precondition_decision([CIRCLE, CIRCLE2])
        assert (d.before, d.after, d.use_gb) == (4, 2, True)
        names = ("x", "y")
        assert sorted(g.to_string(names) for g in d.basis) == ["x-1/2", "y^2-3/4"]

    def test_singleton_no_gain(self):
        d = gb_precondition_decision([CIRCLE])
        assert d.before == d.after == 2
        assert not d.use_gb

    def test_inconsistent_system(self):
        x = Poly.var(2, 0)
        d = gb_precondition_decision([x, x + Poly.one(2)])
        assert d.basis == (Poly.one(2),)
        assert d.after == 0 and d.use_gb

    def test_monotone_definition(self):
        d = gb_precondition_decision([CIRCLE, CIRCLE2])
        assert d.use_gb == (d.after < d.before)


class TestMlFeatures:
    def test_circle_proportions(self):
        feats = ml_features([CIRCLE], 2)
        names = ml_feature_names(2)
        table = dict(zip(names, feats))
        assert table["x0_monomial_prop"] == pytest.approx(1 / 3)
        assert table["x1_monomial_prop"] == pytest.approx(1 / 3)
        assert table["n_polys"] == 1.0
        assert table["max_total_degree"] == 2.0

    def test_single_variable_poly(self):
        feats = dict(zip(ml_feature_names(2), ml_features([Poly.var(2, 0)], 2)))
        assert feats["x0_poly_prop"] == 1.0
        assert feats["x1_poly_prop"] == 0.0

    def test_fixed_length(self):
        assert len(ml_features([CIRCLE], 2)) == len(ml_feature_names(2)) == 9
        assert len(ml_features([CIRCLE, CIRCLE2], 2)) == 9
