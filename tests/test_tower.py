"""Leaf signs through the sample's section tower.

A section coordinate x_k of a sample is a root of a polynomial E_k(x_0..x_k)
lifted over at its level.  ``CADTree.leaf_signs`` hands those polynomials to
``sign_at_point``, whose zero certificate then eliminates x_k against E_k
instead of the coordinate's univariate defining polynomial.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from cadlab import algpoints, cadbuild
from cadlab.algpoints import _carrier, sign_at_point
from cadlab.cadbuild import build_cad, evaluate_formula_on_cells
from cadlab.errors import ComputeTimeout, Deadline, NotWellOrientedError, scoped_deadline
from cadlab.heuristics import brown_order
from cadlab.ordering import VarOrdering
from cadlab.polys import Poly, discriminant, squarefree_part
from cadlab.randgen import RandomProfile, random_problems
from cadlab.realroots import AlgebraicNumber
from oracles import fraction_substitute

SQRT2 = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(2))
HALF_SQRT2 = AlgebraicNumber((-1, 0, 2), Fraction(0), Fraction(1))
XYZ = VarOrdering((0, 1, 2))
EC3D = RandomProfile(nvars=3, npolys=3, max_degree=2, max_terms=4, coeff_range=5,
                     equality_fraction=0.7)


def rat(x):
    return AlgebraicNumber.from_rational(Fraction(x))


def poly(nvars, terms):
    return Poly(nvars, terms)


@pytest.fixture
def towered_carriers(monkeypatch):
    """Counts the carriers built with at least one tower polynomial."""
    count = [0]
    inner = algpoints._carrier

    def counting(q, point, tower=None):
        if tower is not None and any(tower(k) is not None for k in range(len(point))):
            count[0] += 1
        return inner(q, point, tower)

    monkeypatch.setattr(algpoints, "_carrier", counting)
    return count


def _brown_tree(problem, mode, deadline=None):
    ordering = brown_order(problem.input_polys(), problem.nvars, list(problem.blocks)).chosen
    return build_cad(problem, ordering, mode=mode, deadline=deadline)


def _with_squared_discriminant(problem):
    """The inputs plus disc_{x2}(p)^2 for the first input p of degree >= 2 in
    x2 whose discriminant involves x1.

    The square is not square-free in x1, so it is not among the polynomials
    lifted at level 2; its zeros there reach the zero certificate instead of
    being read off the ancestors' ``zero_polys``.
    """
    polys = problem.input_polys()
    discs = [discriminant(p, 2) for p in polys if p.degree(2) >= 2]
    return polys + [d**2 for d in discs if d.degree(1) > 0][:1]


def _differential_trees(mode):
    """Trees whose leaves still reach a zero certificate through the tower.

    An input equal to a polynomial lifted at its level has its zeros read
    off the ancestors' ``zero_polys``.  In EC mode the inputs below the top
    that a designated level does not lift still need the certificate; in
    sign mode every input is lifted at its level, so one input that is not
    square-free in its main variable is added.
    """
    if mode == "sign":
        problem = random_problems(8005, 57, EC3D)[56]
        yield problem, build_cad(_with_squared_discriminant(problem), XYZ)
        return
    for problem in random_problems(8002, 40, EC3D):
        try:
            tree = _brown_tree(problem, mode)
        except NotWellOrientedError:
            continue
        yield problem, tree


class TestDifferential:
    @pytest.mark.parametrize("mode", ["ec", "sign"])
    def test_towered_signs_equal_untowered(self, mode, towered_carriers):
        for problem, tree in _differential_trees(mode):
            for leaf in tree.leaves():
                plain = tuple(sign_at_point(p, leaf.sample) for p in tree._relabeled_inputs)
                assert tree.leaf_signs(leaf) == plain, (problem.name, leaf.index)
        assert towered_carriers[0] > 0


class TestLeafZeroPolys:
    def test_ec_leaves_index_the_top_lifted_list(self):
        # at every level zero_polys indexes the polynomials that level lifted
        # over; an EC-mode top level lifts over its designated EC alone
        sections = 0
        for problem, tree in _differential_trees("ec"):
            top = tree._lifted[-1]
            for leaf in tree.leaves():
                for i in leaf.zero_polys:
                    assert 0 <= i < len(top), (problem.name, leaf.index)
                    assert sign_at_point(top[i], leaf.sample) == 0, (problem.name, leaf.index)
                if leaf.index[-1] % 2 == 0:
                    sections += 1
                    assert leaf.zero_polys, (problem.name, leaf.index)
        assert sections > 0


LIFT3D = RandomProfile(nvars=3, npolys=2, max_degree=2, max_terms=4, coeff_range=5,
                       equality_fraction=0.3)


class TestZeroSetsComplete:
    @pytest.mark.parametrize("mode", ["sign", "ec"])
    @pytest.mark.parametrize("seed, profile", [(5302, EC3D), (5301, LIFT3D)], ids=["ec3d", "lift3d"])
    def test_lifted_index_listed_exactly_where_it_vanishes(self, seed, profile, mode):
        # formula evaluation decides = and != atoms on lifted inputs from
        # zero_polys alone, which needs every zero listed and nothing more
        checked = zeros = 0
        for problem in random_problems(seed, 12, profile):
            try:
                tree = _brown_tree(problem, mode)
            except NotWellOrientedError:
                continue
            for k, (cells, lifted) in enumerate(zip(tree.levels, tree._lifted)):
                for cell in cells:
                    for i, e in enumerate(lifted):
                        if not e.contains_var(k):
                            continue  # split the line at its own level only
                        zero = sign_at_point(e, cell.sample) == 0
                        assert (i in cell.zero_polys) == zero, (problem.name, cell.index, i)
                        checked += 1
                        zeros += zero
        assert 0 < zeros < checked


def _squarefree_in_main_variable(p: Poly) -> bool:
    return squarefree_part(p, p.variables()[-1]).normalized() == p.normalized()


class TestStructuralZeros:
    def test_sign_mode_zeros_are_read_off_the_ancestors(self, monkeypatch):
        # in sign mode every input is lifted at its level, square-freed in its
        # main variable, so the zeros of the square-free inputs, below the top
        # level too, come from zero_polys without a certificate
        certified_zeros = []
        inner = cadbuild.sign_at_point

        def recording(p, point, tower=None):
            s = inner(p, point, tower)
            if s == 0:
                certified_zeros.append(p)
            return s

        monkeypatch.setattr(cadbuild, "sign_at_point", recording)
        lower_zeros = 0
        for problem in random_problems(8002, 12, EC3D):
            tree = _brown_tree(problem, "sign")
            lower = [j for j, p in enumerate(tree._relabeled_inputs) if not p.contains_var(2)]
            lower_zeros += sum(tree.leaf_signs(leaf)[j] == 0
                               for leaf in tree.leaves() for j in lower)
        assert lower_zeros > 0
        # x1^2 (problem 9) is lifted as x1, so its zeros are still certified
        assert certified_zeros and not any(map(_squarefree_in_main_variable, certified_zeros))


class TestSignsPerAncestor:
    def test_below_top_inputs_are_signed_once_per_ancestor(self, monkeypatch):
        # an input in x0..x_m has one sign on each level-(m+1) cell and above
        calls = []
        inner = cadbuild.sign_at_point

        def recording(p, point, tower=None):
            inputs = [j for j, q in enumerate(tree._relabeled_inputs) if q is p]
            if inputs and not p.contains_var(2):
                calls.append((problem.name, inputs[0], point[:p.variables()[-1] + 1]))
            return inner(p, point, tower)

        monkeypatch.setattr(cadbuild, "sign_at_point", recording)
        problems = random_problems(5302, 11, EC3D)
        for problem in (problems[0], problems[10]):
            tree = _brown_tree(problem, "ec")
            for leaf in tree.leaves():
                tree.leaf_signs(leaf)
        # signed at every leaf, the same pairs took 124 + 70 calls
        assert len(calls) == len(set(calls)) == 26 + 18


class TestEdgeCases:
    def test_leading_coefficient_vanishing_at_the_prefix_is_skipped(self):
        # (x0^2 - 2)(x1 + 1) is nullified over x0 = sqrt2: it is a zero
        # polynomial of every cell above, with its lc x0^2 - 2 vanishing there
        nullified = poly(2, {(2, 1): 1, (2, 0): 1, (0, 1): -2, (0, 0): -2})
        line = poly(2, {(0, 1): 1, (1, 0): -1})  # x1 - x0
        tree = build_cad([nullified, line], VarOrdering((0, 1)))
        inputs = tree._relabeled_inputs
        i_null, i_line = inputs.index(nullified.normalized()), inputs.index(line.normalized())
        assert i_null < i_line  # both have degree 1 in x1: tried first
        leaf = next(c for c in tree.leaves()
                    if c.sample[0].coeffs == (-2, 0, 1) and c.sample[0].lo >= 0
                    and i_line in c.zero_polys)
        assert i_null in leaf.zero_polys
        base = next(c for c in tree.levels[0] if c.index == leaf.index[:1])
        assert tree._tower_poly([base, leaf], 1) == line.normalized()

    def test_identically_zero_tower_eliminant_falls_back(self):
        # E_1 = (x0 - 3)(x1 - x0) and E_0 = (x0^2 - 2)(x0 - 3) both vanish at
        # (sqrt2, sqrt2) with nonzero leading coefficients; eliminating x1
        # from z - (x1 - x0) against E_1 leaves (x0 - 3) z, which shares the
        # factor x0 - 3 with E_0, so the tower eliminant is identically zero
        e1 = poly(2, {(1, 1): 1, (2, 0): -1, (0, 1): -3, (1, 0): 3})
        e0 = poly(2, {(3, 0): 1, (2, 0): -3, (1, 0): -2, (0, 0): 6})
        q = poly(2, {(0, 1): 1, (1, 0): -1})
        point = (SQRT2, SQRT2)
        tower = {0: e0, 1: e1}.get
        with_z = algpoints._with_z
        g = algpoints._resultant_any(with_z(e1), Poly.var(3, 2) - with_z(q), 1)
        assert algpoints._resultant_any(with_z(e0), g, 0).is_zero()
        assert _carrier(q, point, tower)[0] == _carrier(q, point)[0]
        assert sign_at_point(q, point, tower) == 0

    def test_rational_ancestor_coordinate_is_substituted(self):
        # x0 = 1/2, x1 = sqrt2, x2 = x0*x1 = sqrt2/2; eliminating x2 against
        # E_2 = x2 - x0*x1 brings x0 back into the carrier, where it is
        # substituted
        e2 = poly(3, {(0, 0, 1): 1, (1, 1, 0): -1})
        q = poly(3, {(0, 1, 1): 2, (1, 0, 0): -2, (0, 0, 0): -1})  # 2*x1*x2 - 2*x0 - 1
        point = (rat(Fraction(1, 2)), SQRT2, HALF_SQRT2)
        tower = {2: e2}.get
        towered = _carrier(q, point, tower)[0]
        assert towered.variables() == (3,)
        # through the tower the eliminant has degree 2 in z, not 4
        assert towered.degree(3) == 2
        assert _carrier(q, point)[0].degree(3) == 4
        assert sign_at_point(q, point, tower) == 0
        assert sign_at_point(q + Poly.one(3), point, tower) == 1

    def test_eliminant_vanishing_at_a_resubstituted_rational_falls_back(self):
        # x0 = 0, x1 = sqrt2 (defined by (x1 - 1)(x1^2 - 2)), x2 = sqrt2 + 1;
        # E_2 = (x1 + x0 - 1) x2 - 1 vanishes there with lc sqrt2 - 1, and
        # q = x2 E_2.  res_{x2}(E_2, z - q) = (x1 + x0 - 1)^2 z is nonzero
        # until x0 = 0 is substituted after x1 is eliminated; then the
        # factor x1 - 1 it shares with x1's defining polynomial zeroes it
        e2 = poly(3, {(0, 1, 1): 1, (1, 0, 1): 1, (0, 0, 1): -1, (0, 0, 0): -1})
        q = poly(3, {(0, 1, 2): 1, (1, 0, 2): 1, (0, 0, 2): -1, (0, 0, 1): -1})
        point = (
            rat(0),
            AlgebraicNumber((2, -2, -1, 1), Fraction(5, 4), Fraction(2)),
            AlgebraicNumber((-1, -2, 1), Fraction(2), Fraction(3)),
        )
        tower = {2: e2}.get
        with_z = algpoints._with_z
        g = algpoints._resultant_any(with_z(e2), Poly.var(4, 3) - with_z(q), 2)
        assert not g.is_zero()
        g, _split = algpoints._eliminate_coordinate(g, 1, point[1])
        assert not g.is_zero() and g.scaled_substitute({0: (0, 1)}).is_zero()
        assert _carrier(q, point, tower)[0] == _carrier(q, point)[0]
        assert sign_at_point(q, point, tower) == 0
        assert sign_at_point(q + Poly.one(3), point, tower) == 1


# ec3d tasks that hit the benchmark's hard cap before section towers: the
# untowered zero certificate eliminated every coordinate through its
# univariate defining polynomial, and the degrees multiplied
FORMERLY_KILLED = [22, 57, 104]


@pytest.fixture(scope="module")
def ec3d_problems():
    return random_problems(5302, 105, EC3D)


def _refined_value(p: Poly, sample, cache) -> Fraction:
    width = Fraction(1, 1 << 300)
    assign = {}
    for i, a in enumerate(sample):
        key = (a.coeffs, a.lo, a.hi)
        if key not in cache:
            r = a if a.is_rational else a.refine(width)
            cache[key] = r.rational_value if r.is_rational else (r.lo + r.hi) / 2
        assign[i] = cache[key]
    return fraction_substitute(p, assign).constant_value()


class TestFormerlyKilled:
    @pytest.mark.parametrize("index", FORMERLY_KILLED)
    def test_finishes_and_signs_agree_with_refined_evaluation(self, ec3d_problems, index):
        problem = ec3d_problems[index]
        start = time.monotonic()
        deadline = Deadline.after_ms(2000)
        tree = _brown_tree(problem, "ec", deadline)
        evaluate_formula_on_cells(tree, problem.formula, deadline=deadline)
        with scoped_deadline(deadline):
            signs = [tree.leaf_signs(leaf) for leaf in tree.leaves()]
        assert time.monotonic() - start < 2.0
        cache: dict = {}
        tiny = Fraction(1, 1 << 250)
        for leaf, leaf_signs in zip(tree.leaves(), signs):
            for p, s in zip(tree._relabeled_inputs, leaf_signs):
                value = _refined_value(p, leaf.sample, cache)
                if s == 0:
                    assert abs(value) < tiny, (leaf.index, p)
                else:
                    assert (value > 0) - (value < 0) == s, (leaf.index, p)


class TestKernelCheckpoints:
    def test_untowered_carrier_honors_the_deadline(self):
        # x1*x2 - 4*x0 - 5*x1 - 2 at a leaf of ec3d task 57: the coordinates'
        # defining polynomials have degrees 5, 10 and 5, and eliminating them
        # one by one ran for minutes inside the resultant kernel
        q = poly(3, {(0, 1, 1): 1, (1, 0, 0): -4, (0, 1, 0): -5, (0, 0, 0): -2})
        point = (
            AlgebraicNumber((-144, 2184, 1303, -469, -40, 48), Fraction(-47, 8), Fraction(-47, 16)),
            AlgebraicNumber((-14400, 0, 78121, 0, -29704, 0, -22512, 0, -2560, 0, 4096),
                            Fraction(-21, 8), Fraction(-21, 16)),
            AlgebraicNumber((1071, 89688, -56774, 7660, -721, 36),
                            Fraction(2493, 256), Fraction(2493, 128)),
        )
        start = time.monotonic()
        with pytest.raises(ComputeTimeout):
            with scoped_deadline(Deadline.after_ms(200)):
                _carrier(q, point)
        assert time.monotonic() - start < 1.0

    def test_product_honors_the_deadline(self):
        p = poly(2, {(1, 0): 1, (0, 1): 2, (0, 0): 3})
        with scoped_deadline(Deadline(time.monotonic() - 1.0)):
            with pytest.raises(ComputeTimeout):
                p * p
