from __future__ import annotations

import re
from fractions import Fraction

import pytest

from cadlab.errors import ParseError
from cadlab.formulas import Atom, BoolOp
from cadlab.polys import Poly
from cadlab.smtlib import parse_smtlib

CIRCLE_SRC = (
    "(set-logic QF_NRA)"
    "(declare-fun x () Real)"
    "(declare-fun y () Real)"
    "(assert (= (+ (* x x) (* y y)) 1))"
)


class TestBasics:
    def test_circle(self):
        prob = parse_smtlib(CIRCLE_SRC)
        assert prob.var_names == ("x", "y")
        polys = prob.input_polys()
        assert polys == [Poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})]
        assert isinstance(prob.formula, Atom)
        assert prob.formula.rel == "="

    def test_two_asserts_conjoin(self):
        src = CIRCLE_SRC + "(assert (< x 0))"
        prob = parse_smtlib(src)
        assert isinstance(prob.formula, BoolOp)
        assert prob.formula.op == "and"
        assert len(prob.formula.args) == 2

    def test_declare_const(self):
        prob = parse_smtlib("(set-logic QF_NRA)(declare-const a Real)(assert (> a 2))")
        assert prob.var_names == ("a",)

    def test_rational_literals(self):
        prob = parse_smtlib(
            "(set-logic QF_NRA)(declare-fun x () Real)"
            "(assert (= x (/ 1 2)))(assert (< x 0.25))"
        )
        polys = prob.input_polys()
        assert Poly(1, {(1,): 2, (0,): -1}) in polys  # x - 1/2 normalized

    def test_comments_and_commands_ignored(self):
        src = "; a comment\n(set-info :status sat)\n" + CIRCLE_SRC + "(check-sat)(exit)"
        prob = parse_smtlib(src)
        assert len(prob.input_polys()) == 1

    def test_subtraction_and_unary_minus(self):
        prob = parse_smtlib(
            "(set-logic QF_NRA)(declare-fun x () Real)(assert (= (- x 1) (- x x x)))"
        )
        # x - 1 - (x - x - x) = 2x - 1
        assert prob.input_polys() == [Poly(1, {(1,): 2, (0,): -1})]


class TestQuantifiers:
    def test_exists_block(self):
        src = (
            "(set-logic NRA)(declare-fun x () Real)"
            "(assert (exists ((y Real)) (= (+ (* x x) (* y y)) 1)))"
        )
        prob = parse_smtlib(src)
        assert prob.var_names == ("x", "y")
        assert len(prob.blocks) == 1
        assert prob.blocks[0].quantifier == "exists"
        assert prob.blocks[0].vars == (1,)

    def test_nested_prefix(self):
        src = (
            "(set-logic NRA)"
            "(assert (forall ((a Real)) (exists ((b Real)) (> (- a b) 0))))"
        )
        prob = parse_smtlib(src)
        assert [b.quantifier for b in prob.blocks] == ["forall", "exists"]

    def test_quantifier_rejected_in_qf(self):
        src = "(set-logic QF_NRA)(assert (exists ((y Real)) (= y 0)))"
        with pytest.raises(ParseError, match="quantifier in QF_NRA"):
            parse_smtlib(src)


class TestErrors:
    def test_division_by_variable(self):
        src = "(set-logic QF_NRA)(declare-fun x () Real)(assert (= (/ 1 x) 2))"
        with pytest.raises(ParseError, match="division by a non-literal"):
            parse_smtlib(src)

    def test_unsupported_logic(self):
        with pytest.raises(ParseError, match="logic QF_LIA"):
            parse_smtlib("(set-logic QF_LIA)(assert true)")

    def test_undeclared_symbol(self):
        with pytest.raises(ParseError, match="undeclared symbol 'z'"):
            parse_smtlib("(set-logic QF_NRA)(assert (= z 0))")

    @pytest.mark.parametrize("token, value", [
        ("0", 0), ("5", 5), ("120", 120), ("0.5", Fraction(1, 2)), ("1.50", Fraction(3, 2)),
        ("10.0", 10), ("1.5e3", None), ("+5", None), ("-5", None), ("1_000", None),
        (".5", None), ("5.", None), ("007", None), ("0x1F", None),
    ])
    def test_only_smtlib_numerals_and_decimals_are_literals(self, token, value):
        src = f"(set-logic QF_NRA)(declare-fun x () Real)\n(assert (= x {token}))"
        if value is None:
            # not a literal, so a symbol, and none is declared by that name
            with pytest.raises(ParseError, match=f"undeclared symbol '{re.escape(token)}' at line 2"):
                parse_smtlib(src)
        else:
            atom = parse_smtlib(src).formula
            assert isinstance(atom, Atom) and atom.poly == Poly(1, {(1,): 1, (0,): -Fraction(value)})

    def test_positioned_syntax_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_smtlib("(set-logic QF_NRA)\n(assert (= 1 1)")

    def test_unsupported_construct_named(self):
        src = "(set-logic QF_NRA)(declare-fun f (Real) Real)(assert true)"
        with pytest.raises(ParseError, match="declare-fun with arguments"):
            parse_smtlib(src)

    def test_non_real_sort(self):
        with pytest.raises(ParseError, match="non-Real sort"):
            parse_smtlib("(set-logic QF_NRA)(declare-fun b () Bool)(assert b)")

    def test_no_asserts(self):
        with pytest.raises(ParseError, match="no assert"):
            parse_smtlib("(set-logic QF_NRA)(declare-fun x () Real)")
