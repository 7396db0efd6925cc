from __future__ import annotations

import json

import pytest

from cadlab.errors import JsonSchemaError
from cadlab.formulas import Atom, BoolOp
from cadlab.ordering import QuantifierBlock
from cadlab.polys import Poly
from cadlab.probjson import emit_json, parse_json
from cadlab.problem import Problem

CIRCLE_DOC = {
    "name": "circle",
    "vars": ["x", "y"],
    "formula": {
        "rel": "=",
        "poly": [
            {"coeff": "1", "exps": [2, 0]},
            {"coeff": "1", "exps": [0, 2]},
            {"coeff": "-1", "exps": [0, 0]},
        ],
    },
}


class TestParse:
    def test_circle(self):
        prob = parse_json(json.dumps(CIRCLE_DOC))
        assert prob.name == "circle"
        assert prob.input_polys() == [Poly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})]

    def test_bare_polys_payload(self):
        doc = {
            "name": "bare",
            "vars": ["x"],
            "polys": [[{"coeff": 1, "exps": [2]}, {"coeff": -2, "exps": [0]}]],
        }
        prob = parse_json(json.dumps(doc))
        assert prob.formula is None
        assert prob.polys == (Poly(1, {(2,): 1, (0,): -2}),)

    def test_blocks(self):
        doc = dict(CIRCLE_DOC)
        doc["blocks"] = [{"quantifier": "exists", "vars": ["y"]}]
        prob = parse_json(json.dumps(doc))
        assert prob.blocks == (QuantifierBlock("exists", (1,)),)

    def test_rational_coeff(self):
        doc = {
            "name": "r",
            "vars": ["x"],
            "polys": [[{"coeff": "1/2", "exps": [1]}, {"coeff": "-3/4", "exps": [0]}]],
        }
        prob = parse_json(json.dumps(doc))
        (p,) = prob.polys
        assert p.terms[(1,)] == 0.5 and p.terms[(0,)] == -0.75


class TestSchemaErrors:
    def test_missing_vars(self):
        with pytest.raises(JsonSchemaError, match="/vars"):
            parse_json(json.dumps({"name": "x", "formula": {"op": "true"}}))

    def test_zero_coefficient_rejected(self):
        doc = {"name": "z", "vars": ["x"], "polys": [[{"coeff": 0, "exps": [1]}]]}
        with pytest.raises(JsonSchemaError, match="/polys/0/0/coeff"):
            parse_json(json.dumps(doc))

    def test_exponent_arity(self):
        doc = {"name": "z", "vars": ["x", "y"], "polys": [[{"coeff": 1, "exps": [1]}]]}
        with pytest.raises(JsonSchemaError, match="/polys/0/0/exps"):
            parse_json(json.dumps(doc))

    @pytest.mark.parametrize("term, pointer", [
        ({"coeff": True, "exps": [1]}, "/polys/0/0/coeff"),
        ({"coeff": 1, "exps": [True]}, "/polys/0/0/exps/0"),
        ({"coeff": 1, "exps": [1.5]}, "/polys/0/0/exps/0"),
        # coefficient strings outside "num[/den]", some of which Fraction
        # accepts on every Python and some only on newer ones
        *(({"coeff": c, "exps": [1]}, "/polys/0/0/coeff")
          for c in ("1.5", "1e3", " 2", "+3", "1_000", "2 / 3", "1/0", "")),
    ])
    def test_json_booleans_and_floats_rejected(self, term, pointer):
        doc = {"name": "b", "vars": ["x"], "polys": [[term]]}
        with pytest.raises(JsonSchemaError) as info:
            parse_json(json.dumps(doc))
        assert info.value.path == pointer

    def test_both_payloads_rejected(self):
        doc = dict(CIRCLE_DOC)
        doc["polys"] = []
        with pytest.raises(JsonSchemaError, match="exactly one"):
            parse_json(json.dumps(doc))

    def test_duplicate_exps(self):
        doc = {
            "name": "d",
            "vars": ["x"],
            "polys": [[{"coeff": 1, "exps": [1]}, {"coeff": 2, "exps": [1]}]],
        }
        with pytest.raises(JsonSchemaError, match="duplicate exponent"):
            parse_json(json.dumps(doc))

    def test_bad_relation(self):
        doc = {"name": "b", "vars": ["x"],
               "formula": {"rel": "~", "poly": [{"coeff": 1, "exps": [1]}]}}
        with pytest.raises(JsonSchemaError, match="/formula/rel"):
            parse_json(json.dumps(doc))

    def test_undeclared_block_variable(self):
        doc = dict(CIRCLE_DOC)
        doc["blocks"] = [{"quantifier": "forall", "vars": ["z"]}]
        with pytest.raises(JsonSchemaError, match="/blocks/0/vars/0"):
            parse_json(json.dumps(doc))

    @pytest.mark.parametrize("blocks, pointer", [
        ([{"quantifier": "exists", "vars": ["y", "y"]}], "/blocks/0/vars/1"),
        ([{"quantifier": "exists", "vars": ["y"]},
          {"quantifier": "forall", "vars": ["x", "y"]}], "/blocks/1/vars/1"),
    ])
    def test_variable_quantified_twice(self, blocks, pointer):
        doc = dict(CIRCLE_DOC)
        doc["blocks"] = blocks
        with pytest.raises(JsonSchemaError, match=f"^{pointer}: variable 'y' quantified twice$"):
            parse_json(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(JsonSchemaError, match="invalid JSON"):
            parse_json("{not json")


class TestRoundTrip:
    def test_value_round_trip(self):
        prob = parse_json(json.dumps(CIRCLE_DOC))
        again = parse_json(emit_json(prob))
        assert again.name == prob.name
        assert again.var_names == prob.var_names
        assert again.formula == prob.formula

    def test_byte_stable_emission(self):
        prob = parse_json(json.dumps(CIRCLE_DOC))
        text = emit_json(prob)
        assert emit_json(parse_json(text)) == text

    def test_round_trip_with_everything(self):
        formula = BoolOp(
            "or",
            (
                Atom(Poly(2, {(1, 0): 1}), "<"),
                BoolOp("not", (Atom(Poly(2, {(0, 1): 3, (0, 0): -2}), "=",),)),
            ),
        )
        prob = Problem(
            "kitchen-sink",
            ("x", "y"),
            blocks=(QuantifierBlock("forall", (1,)),),
            formula=formula,
            metadata={"tags": ["t"], "source": "test"},
        )
        again = parse_json(emit_json(prob))
        assert again.blocks == prob.blocks
        assert again.formula == prob.formula
        assert again.metadata == prob.metadata

    def test_corpus_files_round_trip(self):
        from pathlib import Path

        corpus = Path(__file__).parent.parent / "src" / "cadlab" / "corpus"
        for path in sorted(corpus.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            prob = parse_json(text, name=path.stem)
            assert emit_json(parse_json(emit_json(prob))) == emit_json(prob)
