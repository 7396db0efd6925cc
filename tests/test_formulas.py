from __future__ import annotations

import pytest

from cadlab.errors import DesignationCapError
from cadlab.formulas import (
    Atom,
    BoolOp,
    atom_polys,
    enumerate_designations,
    identify_ecs,
    normalize,
    propagate_ecs,
    score_designation,
)
from cadlab.heuristics import sotd_value
from cadlab.ordering import VarOrdering, admissible_orderings
from cadlab.polys import Poly
from cadlab.projection import projection_levels


def P(terms):
    return Poly(2, terms)


F1 = P({(2, 0): 1, (0, 2): 1, (0, 0): -1})
F2 = P({(2, 0): 1, (1, 0): -2, (0, 2): 1})
F3 = P({(1, 1): 1, (0, 0): -1})
XY = VarOrdering((0, 1))


class TestNormalize:
    def test_negation_flips_relations(self):
        f = BoolOp("not", (Atom(F1, "<"),))
        n = normalize(f)
        assert n == Atom(F1, ">=")

    def test_de_morgan(self):
        f = BoolOp("not", (BoolOp("and", (Atom(F1, "="), Atom(F2, "<"))),))
        n = normalize(f)
        assert isinstance(n, BoolOp) and n.op == "or"
        assert set(a.rel for a in n.args) == {"!=", ">="}

    def test_negative_scale_flips_atom(self):
        a = Atom(-F1, "<").canonical()
        assert a.poly == F1
        assert a.rel == ">"

    def test_flatten(self):
        f = BoolOp("and", (Atom(F1, "="), BoolOp("and", (Atom(F2, "="), Atom(F3, ">")))))
        n = normalize(f)
        assert len(n.args) == 3


class TestIdentifyEcs:
    def test_conjunction_of_equalities(self):
        f = BoolOp("and", (Atom(F1, "="), Atom(F2, "=")))
        assert set(identify_ecs(f)) == {F1, F2}

    def test_disjunction_yields_nothing(self):
        f = BoolOp("or", (Atom(F1, "="), Atom(F2, "=")))
        assert identify_ecs(f) == []

    def test_mixed_structure(self):
        f = BoolOp(
            "and",
            (Atom(F1, "="), BoolOp("or", (Atom(F2, ">"), Atom(F3, "<=")))),
        )
        assert identify_ecs(f) == [F1]

    def test_shared_equality_across_disjuncts(self):
        f = BoolOp(
            "or",
            (
                BoolOp("and", (Atom(F1, "="), Atom(F2, ">"))),
                BoolOp("and", (Atom(F1, "="), Atom(F3, "<"))),
            ),
        )
        assert identify_ecs(f) == [F1]


class TestPropagate:
    def test_circles(self):
        cands = propagate_ecs([F1, F2])
        assert cands[1] == sorted([F1, F2], key=lambda p: p.to_string())  # level 2
        assert cands[0] == [P({(1, 0): 2, (0, 0): -1})]  # level 1: 2x-1

    def test_single_ec_no_propagation(self):
        cands = propagate_ecs([F1])
        assert cands[1] == [F1]
        assert cands[0] == []

    def test_constant_resultant_dropped(self):
        # parallel lines x+y and x+y-1: resultant in y is the constant -1
        a = P({(1, 0): 1, (0, 1): 1})
        b = P({(1, 0): 1, (0, 1): 1, (0, 0): -1})
        cands = propagate_ecs([a, b])
        assert set(cands[1]) == {a, b}
        assert cands[0] == []

    def test_scope_invariant(self):
        # in lifting coordinates level k mentions only x_0..x_{k-1}
        for ordering in admissible_orderings(2):
            cands = propagate_ecs(ordering.relabel([F1, F2]))
            for level_idx, level in enumerate(cands, start=1):
                for p in level:
                    assert set(p.variables()) <= set(range(level_idx))


class TestEnumerate:
    def test_circles_two_designations(self):
        cands = propagate_ecs([F1, F2])
        designs = enumerate_designations(cands)
        assert len(designs) == 2
        tops = {d[2] for d in designs}
        assert tops == {F1, F2}

    def test_single_ec_single_designation(self):
        designs = enumerate_designations(propagate_ecs([F1]))
        assert len(designs) == 1

    def test_no_candidates_all_none(self):
        designs = enumerate_designations([[], []])
        assert len(designs) == 1
        assert designs[0] == {}

    def test_cap(self):
        level = [Poly.var(2, 0) + Poly.const(2, k) for k in range(9)]
        with pytest.raises(DesignationCapError):
            enumerate_designations([level, level])


class TestPinnedThreeVariables:
    """Candidates at levels 2 and 3; terms and order pinned from the tuple-based designations."""

    x, y, z = (Poly.var(3, i) for i in range(3))
    ECS = [z * z + x * x + y * y - Poly.const(3, 4), z - x * y, y * y - x]

    def test_propagate_ecs(self):
        cands = propagate_ecs(self.ECS)
        terms = [[[(e, c, type(c).__name__) for e, c in p.sorted_terms()] for p in level]
                 for level in cands]
        assert terms == [
            [[((3, 0, 0), 1, "int"), ((2, 0, 0), 1, "int"), ((1, 0, 0), 1, "int"),
              ((0, 0, 0), -4, "int")]],
            [[((0, 2, 0), 1, "int"), ((1, 0, 0), -1, "int")],
             [((2, 2, 0), 1, "int"), ((2, 0, 0), 1, "int"), ((0, 2, 0), 1, "int"),
              ((0, 0, 0), -4, "int")]],
            [[((1, 1, 0), 1, "int"), ((0, 0, 1), -1, "int")],
             [((2, 0, 0), 1, "int"), ((0, 2, 0), 1, "int"), ((0, 0, 2), 1, "int"),
              ((0, 0, 0), -4, "int")]],
        ]

    def test_designation_order(self):
        cands = propagate_ecs(self.ECS)
        designs = enumerate_designations(cands)
        # level 1 varies slowest, the top level fastest; keys ascend
        assert [list(d) for d in designs] == [[1, 2, 3]] * 4
        assert [{k: cands[k - 1].index(p) for k, p in d.items()} for d in designs] == [
            {1: 0, 2: 0, 3: 0}, {1: 0, 2: 0, 3: 1}, {1: 0, 2: 1, 3: 0}, {1: 0, 2: 1, 3: 1},
        ]


class TestScore:
    def test_all_none_matches_full_projection(self):
        d: dict = {}
        full = sotd_value(projection_levels([F1, F2], 2))
        assert score_designation([F1, F2], d) == full

    def test_reduced_never_exceeds_full(self):
        cands = propagate_ecs([F1, F2])
        full = sotd_value(projection_levels([F1, F2], 2))
        for d in enumerate_designations(cands):
            assert score_designation([F1, F2], d) <= full

    def test_empty_input_is_refused(self):
        with pytest.raises(ValueError, match="no polynomials"):
            score_designation([], {})


class TestAtomPolys:
    def test_dedup_and_normalization(self):
        f = BoolOp("and", (Atom(F1, "="), Atom(F1 * 2, "<"), Atom(F2, ">")))
        polys = atom_polys(f)
        assert polys == [F1, F2]


class TestEcImplication:
    def test_ecs_vanish_wherever_the_formula_holds(self):
        # circle meets parabola: every identified EC must be zero on every
        # leaf where the conjunction is true
        from cadlab.cadbuild import build_cad, evaluate_formula_on_cells
        from cadlab.problem import Problem

        parabola = P({(0, 2): 2, (1, 0): -1})  # 2y^2 - x
        formula = BoolOp("and", (Atom(F1, "="), Atom(parabola, "=")))
        prob = Problem("phi1", ("x", "y"), formula=formula)
        ecs = identify_ecs(formula)
        assert set(ecs) == {F1, parabola}
        tree = build_cad(prob, XY)
        truths, n = evaluate_formula_on_cells(tree, formula)
        assert n >= 1
        index_of = {p: i for i, p in enumerate(tree.input_polys)}
        for leaf, holds in zip(tree.leaves(), truths):
            if holds:
                for e in ecs:
                    assert tree.leaf_signs(leaf)[index_of[e]] == 0


class TestCardinality:
    def test_product_with_none_padding(self):
        a = [Poly.var(2, 0), Poly.var(2, 0) + Poly.one(2)]
        b: list[Poly] = []
        c = [Poly.var(2, 1)]
        designs = enumerate_designations([a, b, c])
        assert len(designs) == 2 * 1 * 1
        assert all(2 not in d for d in designs)
