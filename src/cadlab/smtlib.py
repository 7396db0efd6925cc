"""SMT-LIB 2 reader for the QF_NRA/NRA subset this engine understands.

Supported: set-logic QF_NRA|NRA, declare-fun/declare-const of sort Real,
assert over and/or/not with relations =, <, <=, >, >=, arithmetic +, -, *,
SMT-LIB 2.6 numerals and decimals (``0``, ``12``, ``1.50``; a negative
constant is ``(- 5)``), and / on numeric literals only.  Multiple
asserts conjoin.  exists/forall binders are accepted for NRA when they form a
prenex prefix.  Harmless script commands (set-info, set-option, check-sat,
exit) are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .formulas import Atom, BoolOp, Const, Formula, conj
from .ordering import QuantifierBlock
from .polys import Poly
from .problem import Problem

__all__ = ["parse_smtlib"]

_IGNORED_COMMANDS = {"set-info", "set-option", "check-sat", "exit", "get-info", "echo"}
_RELATIONS = {"=": "=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted symbol", line, col)
            tokens.append(_Token(text[i : j + 1], line, col))
            col += j + 1 - i
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();|":
                j += 1
            tokens.append(_Token(text[i:j], line, col))
            col += j - i
            i = j
    return tokens


class _Reader:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def read_sexpr(self) -> Any:
        t = self.next()
        if t.text == "(":
            out = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("unbalanced parenthesis", t.line, t.col)
                if nxt.text == ")":
                    self.next()
                    return out
                out.append(self.read_sexpr())
        if t.text == ")":
            raise ParseError("unexpected ')'", t.line, t.col)
        return t


def _unsupported(what: str, tok: _Token | None = None) -> ParseError:
    if tok is not None:
        return ParseError(f"unsupported construct: {what}", tok.line, tok.col)
    return ParseError(f"unsupported construct: {what}")


class _Builder:
    def __init__(self, name: str):
        self.name = name
        self.vars: list[str] = []
        self.blocks: list[QuantifierBlock] = []
        self.asserts: list[Any] = []
        self.logic: str | None = None

    def var_index(self, name: str, tok: _Token) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ParseError(f"undeclared symbol {name!r}", tok.line, tok.col) from None


def parse_smtlib(text: str, name: str = "smtlib") -> Problem:
    """Parse an SMT-LIB script in the supported subset into a Problem."""
    reader = _Reader(_tokenize(text))
    builder = _Builder(name)
    while reader.peek() is not None:
        form = reader.read_sexpr()
        if isinstance(form, _Token):
            raise ParseError(f"expected a command, got {form.text!r}", form.line, form.col)
        _command(builder, form)
    # two passes over the asserts: binders first so every polynomial is built
    # over the full variable sequence, then the formulas themselves
    for body in builder.asserts:
        _scan_binders(builder, body, outermost=True)
    formulas = []
    for body in builder.asserts:
        formulas.append(_formula(builder, body, outermost=True))
    if not formulas:
        raise ParseError("no assert command found")
    matrix = conj(*formulas) if len(formulas) > 1 else formulas[0]
    return Problem(
        name=builder.name,
        var_names=tuple(builder.vars),
        blocks=tuple(builder.blocks),
        formula=matrix,
        metadata={"source": "smtlib", "logic": builder.logic or "QF_NRA"},
    )


def _command(b: _Builder, form: list) -> None:
    if not form or not isinstance(form[0], _Token):
        raise ParseError("malformed command")
    head = form[0]
    if head.text in _IGNORED_COMMANDS:
        return
    if head.text == "set-logic":
        logic = form[1].text if len(form) > 1 and isinstance(form[1], _Token) else "?"
        if logic not in ("QF_NRA", "NRA"):
            raise _unsupported(f"logic {logic}", head)
        b.logic = logic
        return
    if head.text == "declare-fun":
        if len(form) != 4 or not isinstance(form[1], _Token):
            raise ParseError("malformed declare-fun", head.line, head.col)
        if form[2] != []:
            raise _unsupported("declare-fun with arguments", head)
        _declare(b, form[1], form[3])
        return
    if head.text == "declare-const":
        if len(form) != 3 or not isinstance(form[1], _Token):
            raise ParseError("malformed declare-const", head.line, head.col)
        _declare(b, form[1], form[2])
        return
    if head.text == "assert":
        if len(form) != 2:
            raise ParseError("malformed assert", head.line, head.col)
        b.asserts.append(form[1])
        return
    raise _unsupported(head.text, head)


def _declare(b: _Builder, sym: _Token, sort: Any) -> None:
    if not (isinstance(sort, _Token) and sort.text == "Real"):
        raise _unsupported("non-Real sort", sym)
    name = sym.text.strip("|")
    if name in b.vars:
        raise ParseError(f"duplicate declaration of {name!r}", sym.line, sym.col)
    b.vars.append(name)


def _scan_binders(b: _Builder, form: Any, outermost: bool) -> None:
    """Register prenex binder variables and quantifier blocks (first pass)."""
    if not isinstance(form, list) or not form or not isinstance(form[0], _Token):
        return
    head = form[0]
    if head.text not in ("exists", "forall"):
        return
    if not outermost:
        raise _unsupported("non-prenex quantifier", head)
    if len(form) != 3 or not isinstance(form[1], list):
        raise ParseError("malformed quantifier", head.line, head.col)
    if b.logic == "QF_NRA":
        raise _unsupported("quantifier in QF_NRA", head)
    indices = []
    for binding in form[1]:
        if (
            not isinstance(binding, list)
            or len(binding) != 2
            or not isinstance(binding[0], _Token)
        ):
            raise ParseError("malformed binding", head.line, head.col)
        _declare(b, binding[0], binding[1])
        indices.append(len(b.vars) - 1)
    b.blocks.append(QuantifierBlock(head.text, tuple(indices)))
    _scan_binders(b, form[2], outermost=True)


def _formula(b: _Builder, form: Any, outermost: bool = False) -> Formula:
    if isinstance(form, _Token):
        if form.text == "true":
            return Const(True)
        if form.text == "false":
            return Const(False)
        raise _unsupported(f"bare symbol {form.text!r} as formula", form)
    if not form or not isinstance(form[0], _Token):
        raise ParseError("malformed formula")
    head = form[0]
    if head.text in ("exists", "forall"):
        if not outermost:
            raise _unsupported("non-prenex quantifier", head)
        # binders were registered in the first pass
        return _formula(b, form[2], outermost=True)
    if head.text in ("and", "or"):
        if len(form) < 2:
            raise ParseError(f"empty {head.text}", head.line, head.col)
        return BoolOp(head.text, tuple(_formula(b, a) for a in form[1:]))
    if head.text == "not":
        if len(form) != 2:
            raise ParseError("malformed not", head.line, head.col)
        return BoolOp("not", (_formula(b, form[1]),))
    if head.text in _RELATIONS:
        if len(form) != 3:
            raise _unsupported(f"n-ary relation {head.text}", head)
        lhs = _term(b, form[1])
        rhs = _term(b, form[2])
        return Atom(lhs - rhs, _RELATIONS[head.text])
    raise _unsupported(head.text, head)


def _term(b: _Builder, form: Any) -> Poly:
    nv = len(b.vars)
    if isinstance(form, _Token):
        lit = _numeral(form.text)
        if lit is not None:
            return Poly.const(nv, lit)
        idx = b.var_index(form.text.strip("|"), form)
        return Poly.var(nv, idx)
    if not form or not isinstance(form[0], _Token):
        raise ParseError("malformed term")
    head = form[0]
    args = form[1:]
    if head.text == "+":
        out = Poly.zero(nv)
        for a in args:
            out = out + _term(b, a)
        return out
    if head.text == "-":
        if len(args) == 1:
            return -_term(b, args[0])
        if not args:
            raise ParseError("malformed -", head.line, head.col)
        out = _term(b, args[0])
        for a in args[1:]:
            out = out - _term(b, a)
        return out
    if head.text == "*":
        out = Poly.one(nv)
        for a in args:
            out = out * _term(b, a)
        return out
    if head.text == "/":
        if len(args) != 2:
            raise _unsupported("n-ary division", head)
        num = _term(b, args[0])
        den = _term(b, args[1])
        if not num.is_constant() or not den.is_constant():
            raise _unsupported("division by a non-literal", head)
        if den.constant_value() == 0:
            raise ParseError("division by zero literal", head.line, head.col)
        return Poly.const(nv, num.constant_value() / den.constant_value())
    raise _unsupported(head.text, head)


# SMT-LIB 2.6 <numeral> (0, or a nonzero digit then digits) and <decimal>
# (a numeral, a point, digits); any other token is a symbol
_NUMERAL = re.compile(r"(0|[1-9][0-9]*)(\.[0-9]+)?")


def _numeral(text: str) -> Fraction | None:
    return Fraction(text) if _NUMERAL.fullmatch(text) else None
