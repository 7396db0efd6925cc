"""Native machine-readable problem format: lossless JSON round-trip.

Schema (JSON object):
  name      string
  vars      non-empty list of distinct variable names
  blocks    optional list of {"quantifier": "exists"|"forall", "vars": [names]}
  formula   nested {"op": "and"|"or"|"not", "args": [...]} with atom leaves
            {"rel": "="|"!="|"<"|"<="|">"|">=", "poly": <poly>} and constants
            {"op": "true"|"false"}  -- or instead:
  polys     list of <poly> (bare polynomial-set payload)
  metadata  optional object
  <poly>    non-empty list of {"coeff": "num[/den]", "exps": [int per var]},
            no zero coefficients, no duplicate exponent tuples

Schema violations raise :class:`JsonSchemaError` with a JSON-pointer path.
parse(emit(p)) == p, and emit is canonical (graded-lex term order, sorted
metadata keys), so emitting a parsed file is byte-stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .errors import JsonSchemaError
from .formulas import RELATIONS, Atom, BoolOp, Const, Formula
from .ordering import QuantifierBlock
from .polys import Poly
from .problem import Problem

__all__ = ["parse_json", "emit_json"]


def parse_json(text: str, name: str | None = None) -> Problem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise JsonSchemaError("/", f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise JsonSchemaError("/", "document must be an object")
    prob_name = _str_field(doc, "name", "/") if "name" in doc else (name or "unnamed")
    if "vars" not in doc:
        raise JsonSchemaError("/vars", "missing required field")
    var_names = _vars(doc["vars"])
    nv = len(var_names)
    blocks = _blocks(doc.get("blocks", []), var_names)
    has_formula = "formula" in doc
    has_polys = "polys" in doc
    if has_formula == has_polys:
        raise JsonSchemaError("/", "exactly one of formula/polys is required")
    formula = _formula(doc["formula"], nv, "/formula") if has_formula else None
    polys = (
        tuple(
            _poly(p, nv, f"/polys/{i}") for i, p in enumerate(_list(doc["polys"], "/polys"))
        )
        if has_polys
        else None
    )
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise JsonSchemaError("/metadata", "must be an object")
    return Problem(
        name=prob_name,
        var_names=var_names,
        blocks=blocks,
        formula=formula,
        polys=polys,
        metadata=metadata,
    )


def _str_field(doc: dict, key: str, path: str) -> str:
    v = doc[key]
    if not isinstance(v, str):
        raise JsonSchemaError(f"{path}{key}", "must be a string")
    return v


def _list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        raise JsonSchemaError(path, "must be an array")
    return v


def _vars(v: Any) -> tuple[str, ...]:
    names = _list(v, "/vars")
    if not names:
        raise JsonSchemaError("/vars", "must be non-empty")
    out = []
    for i, n in enumerate(names):
        if not isinstance(n, str) or not n:
            raise JsonSchemaError(f"/vars/{i}", "must be a non-empty string")
        if n in out:
            raise JsonSchemaError(f"/vars/{i}", f"duplicate variable {n!r}")
        out.append(n)
    return tuple(out)


def _blocks(v: Any, var_names: tuple[str, ...]) -> tuple[QuantifierBlock, ...]:
    blocks = _list(v, "/blocks")
    out = []
    seen: set[str] = set()  # no variable may be quantified twice, in one block or two
    for i, b in enumerate(blocks):
        path = f"/blocks/{i}"
        if not isinstance(b, dict):
            raise JsonSchemaError(path, "must be an object")
        q = b.get("quantifier")
        if q not in ("exists", "forall"):
            raise JsonSchemaError(f"{path}/quantifier", "must be exists or forall")
        names = _list(b.get("vars"), f"{path}/vars")
        idx = []
        for j, n in enumerate(names):
            if n not in var_names:
                raise JsonSchemaError(f"{path}/vars/{j}", f"undeclared variable {n!r}")
            if n in seen:
                raise JsonSchemaError(f"{path}/vars/{j}", f"variable {n!r} quantified twice")
            seen.add(n)
            idx.append(var_names.index(n))
        out.append(QuantifierBlock(q, tuple(idx)))
    return tuple(out)


# the form emit_json writes, nonzero denominator; Fraction alone also takes
# "1.5" and " 2", and on newer Pythons "1_000" and "2 / 3"
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _coeff(v: Any, path: str) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        if not _RATIONAL.fullmatch(v):
            raise JsonSchemaError(path, f"bad rational literal {v!r}")
        return Fraction(v)
    raise JsonSchemaError(path, "coefficient must be an integer or 'num/den' string")


def _poly(v: Any, nv: int, path: str) -> Poly:
    terms = _list(v, path)
    if not terms:
        raise JsonSchemaError(path, "polynomial must have at least one term")
    out: dict[tuple[int, ...], Fraction] = {}
    for i, t in enumerate(terms):
        tpath = f"{path}/{i}"
        if not isinstance(t, dict):
            raise JsonSchemaError(tpath, "term must be an object")
        if "coeff" not in t:
            raise JsonSchemaError(f"{tpath}/coeff", "missing required field")
        if "exps" not in t:
            raise JsonSchemaError(f"{tpath}/exps", "missing required field")
        c = _coeff(t["coeff"], f"{tpath}/coeff")
        if c == 0:
            raise JsonSchemaError(f"{tpath}/coeff", "zero coefficient not allowed")
        exps = _list(t["exps"], f"{tpath}/exps")
        if len(exps) != nv:
            raise JsonSchemaError(f"{tpath}/exps", f"expected {nv} exponents")
        for j, e in enumerate(exps):
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise JsonSchemaError(f"{tpath}/exps/{j}", "must be a non-negative integer")
        key = tuple(exps)
        if key in out:
            raise JsonSchemaError(f"{tpath}/exps", "duplicate exponent tuple")
        out[key] = c
    return Poly(nv, out)


_FORMULA_OPS = ("and", "or", "not", "true", "false")


def _formula(v: Any, nv: int, path: str) -> Formula:
    if not isinstance(v, dict):
        raise JsonSchemaError(path, "formula node must be an object")
    if "rel" in v:
        rel = v["rel"]
        if rel not in RELATIONS:
            raise JsonSchemaError(f"{path}/rel", f"unknown relation {rel!r}")
        if "poly" not in v:
            raise JsonSchemaError(f"{path}/poly", "missing required field")
        return Atom(_poly(v["poly"], nv, f"{path}/poly"), rel)
    op = v.get("op")
    if op not in _FORMULA_OPS:
        raise JsonSchemaError(f"{path}/op", "must be one of and/or/not/true/false")
    if op in ("true", "false"):
        return Const(op == "true")
    args = _list(v.get("args"), f"{path}/args")
    if op == "not" and len(args) != 1:
        raise JsonSchemaError(f"{path}/args", "not takes exactly one argument")
    if op in ("and", "or") and not args:
        raise JsonSchemaError(f"{path}/args", f"{op} needs at least one argument")
    return BoolOp(op, tuple(_formula(a, nv, f"{path}/args/{i}") for i, a in enumerate(args)))


# -- emission ------------------------------------------------------------------


def _coeff_out(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly_out(p: Poly) -> list[dict]:
    return [
        {"coeff": _coeff_out(c), "exps": list(exps)} for exps, c in p.sorted_terms()
    ]


def _formula_out(f: Formula) -> dict:
    if isinstance(f, Const):
        return {"op": "true" if f.value else "false"}
    if isinstance(f, Atom):
        return {"rel": f.rel, "poly": _poly_out(f.poly)}
    assert isinstance(f, BoolOp)
    return {"op": f.op, "args": [_formula_out(a) for a in f.args]}


def emit_json(problem: Problem) -> str:
    """Canonical JSON text for a problem; stable bytes for a fixed problem."""
    doc: dict[str, Any] = {
        "name": problem.name,
        "vars": list(problem.var_names),
    }
    if problem.blocks:
        doc["blocks"] = [
            {"quantifier": b.quantifier, "vars": [problem.var_names[i] for i in b.vars]}
            for b in problem.blocks
        ]
    if problem.formula is not None:
        doc["formula"] = _formula_out(problem.formula)
    else:
        doc["polys"] = [_poly_out(p) for p in problem.polys]
    if problem.metadata:
        doc["metadata"] = {k: problem.metadata[k] for k in sorted(problem.metadata)}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
