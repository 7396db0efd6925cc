"""Boolean formulas over polynomial sign conditions and equational constraints.

Formulas are trees of atoms (polynomial, relation) under and/or/not plus the
0-ary constants.  Normalization pushes negations onto atoms (flipping the
relation) and flattens nested conjunctions/disjunctions.  The equational
constraint machinery identifies equations implied by the conjunction
structure, propagates them level-by-level through resultants, enumerates
designations, and scores a designation by running the reduced projection,
all in lifting coordinates (inputs relabeled by the ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DesignationCapError
from .polys import Poly, _poly_sort_key, distinct_normalized, resultant
from .projection import _emit, projection_levels, sotd_value

__all__ = [
    "Atom",
    "BoolOp",
    "Const",
    "Formula",
    "normalize",
    "identify_ecs",
    "propagate_ecs",
    "enumerate_designations",
    "score_designation",
    "atom_polys",
]

RELATIONS = ("=", "!=", "<", "<=", ">", ">=")
_NEGATED = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}

DESIGNATION_CAP = 64


class Formula:
    """Base class; concrete nodes are Atom, BoolOp, and Const."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    poly: Poly
    rel: str

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")

    def canonical(self) -> Atom:
        """Normalize the polynomial; a negative scale flips order relations."""
        norm, sign = self.poly.normalized_with_sign()
        rel = self.rel if sign > 0 else _FLIPPED[self.rel]
        return Atom(norm, rel)

    def holds_for_sign(self, s: int) -> bool:
        return {
            "=": s == 0,
            "!=": s != 0,
            "<": s < 0,
            "<=": s <= 0,
            ">": s > 0,
            ">=": s >= 0,
        }[self.rel]


@dataclass(frozen=True)
class BoolOp(Formula):
    op: str  # "and" | "or" | "not"
    args: tuple[Formula, ...]

    def __post_init__(self):
        if self.op not in ("and", "or", "not"):
            raise ValueError(f"unknown boolean operation {self.op!r}")
        if self.op == "not" and len(self.args) != 1:
            raise ValueError("not takes exactly one argument")
        if self.op in ("and", "or") and not self.args:
            raise ValueError(f"{self.op} needs at least one argument")


@dataclass(frozen=True)
class Const(Formula):
    value: bool


def conj(*args: Formula) -> Formula:
    return args[0] if len(args) == 1 else BoolOp("and", tuple(args))


def normalize(f: Formula) -> Formula:
    """Negation normal form with canonical atoms and flattened and/or."""
    return _nnf(f, negate=False)


def _nnf(f: Formula, negate: bool) -> Formula:
    if isinstance(f, Const):
        return Const(f.value != negate)
    if isinstance(f, Atom):
        atom = f.canonical()
        return Atom(atom.poly, _NEGATED[atom.rel]) if negate else atom
    assert isinstance(f, BoolOp)
    if f.op == "not":
        return _nnf(f.args[0], not negate)
    op = f.op if not negate else ("or" if f.op == "and" else "and")
    children: list[Formula] = []
    for a in f.args:
        child = _nnf(a, negate)
        if isinstance(child, BoolOp) and child.op == op:
            children.extend(child.args)
        else:
            children.append(child)
    return BoolOp(op, tuple(children))


def atom_polys(f: Formula) -> list[Poly]:
    """Normalized polynomials of the formula's atoms, deduplicated, stable order."""
    seen: dict[Poly, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            seen[node.canonical().poly] = None
        elif isinstance(node, BoolOp):
            for a in node.args:
                walk(a)

    walk(f)
    return list(seen)


def identify_ecs(f: Formula) -> list[Poly]:
    """Equations implied by the conjunction structure alone.

    An atom g = 0 is an EC when it appears on every disjunct path to the root
    of the normalized formula.  Purely syntactic; ECs hidden behind products in
    disjunctions are not inferred.
    """

    def walk(node: Formula) -> set[Poly]:
        if isinstance(node, Atom):
            return {node.poly} if node.rel == "=" else set()
        if isinstance(node, Const):
            return set()
        assert isinstance(node, BoolOp)
        child_sets = [walk(a) for a in node.args]
        if node.op == "and":
            return set().union(*child_sets)
        out = child_sets[0]
        for s in child_sets[1:]:
            out = out & s
        return out

    return sorted(walk(normalize(f)), key=_poly_sort_key)


def propagate_ecs(E: Iterable[Poly]) -> list[list[Poly]]:
    """Per-level EC candidates in lifting coordinates, index k-1 = level k.

    Each input EC starts at the level of its highest variable (x_{k-1} at
    level k); each level below adds the pairwise resultants of the level
    above in its variable, square-freed and normalized, constants dropped.
    """
    E = distinct_normalized(E)
    if not E:
        raise ValueError("no equational constraints to propagate")
    n = E[0].nvars
    levels: list[dict[Poly, None]] = [{} for _ in range(n)]
    for p in E:
        levels[p.variables()[-1]][p] = None
    for k in range(n, 1, -1):
        # every candidate of level k involves x_{k-1}
        above = list(levels[k - 1])
        found: dict[Poly, None] = {}
        for i, a in enumerate(above):
            for b in above[i + 1 :]:
                _emit(found, resultant(a, b, k - 1))
        for r in found:
            levels[r.variables()[-1]][r] = None
    return [sorted(level, key=_poly_sort_key) for level in levels]


def enumerate_designations(candidates: Sequence[Sequence[Poly]]) -> list[dict[int, Poly]]:
    """Every choice of one candidate per level, as level -> EC maps.

    Levels without candidates are left out of the maps.  Level 1 varies
    slowest, the top level fastest.  Raises :class:`DesignationCapError` past
    64 combinations.
    """
    total = 1
    for level in candidates:
        total *= max(1, len(level))
        if total > DESIGNATION_CAP:
            raise DesignationCapError(
                f"{total}+ designations exceed the cap of {DESIGNATION_CAP}"
            )
    out: list[dict[int, Poly]] = [{}]
    for k, level in enumerate(candidates, start=1):
        if level:
            out = [{**d, k: p} for d in out for p in level]
    return out


def score_designation(A: Iterable[Poly], designation: Mapping[int, Poly],
                      steps: dict | None = None) -> int:
    """Projection size under the designation: the sotd of its level stack.

    A and the designation are in lifting coordinates.  Designations apply
    the reduced operator at their levels (level 1 carries no projection, so
    its designation is inert).  ``steps`` is the memo of
    :func:`projection_levels`, shared by every designation of one input.
    Projection errors propagate; an empty A raises :class:`ValueError`.
    """
    A = list(A)
    if not A:
        raise ValueError("no polynomials to project")
    return sotd_value(projection_levels(A, A[0].nvars, designation, steps))
