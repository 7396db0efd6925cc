"""McCallum-style projection: full operator, EC-reduced operator, level sequences.

The operator works over a square-free primitive basis of its input: it emits
the basis contents, the coefficients of each basis element (stopping once a
nonzero constant coefficient certifies non-vanishing), discriminants of the
degree >= 2 elements, and pairwise resultants.  Every emitted polynomial is
made square-free in its own main variable, normalized to an integer-primitive
positive-lead representative, deduplicated up to rational multiples, and
constants are dropped.

The layer knows only lifting coordinates, where x_{k-1} is eliminated at
level k: callers relabel their inputs by the ordering first
(``VarOrdering.relabel``), so heuristics score the levels the build lifts over.

Each subresultant chain runs once.  Building the basis asks each part's
discriminant and each pair's resultant first, and a nonzero answer stands in
for the gcd that would prove the part square-free or the pair coprime, while
a zero one holds the gcd to split by (``polys._certified_basis``).  The full
operator emits those kept values and computes only the discriminants and
resultants of elements that a gcd split produced.

:func:`projection_levels` is the one walk over the levels; its ``steps`` memo
lets the walks of EC designation scoring share the steps they agree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import checkpoint
from .polys import (
    Poly,
    _certified_basis,
    _poly_sort_key,
    content_in,
    discriminant,
    distinct_normalized,
    resultant,
    squarefree_part,
)

__all__ = [
    "ProjectionLevels",
    "mccallum_project",
    "reduced_ec_project",
    "projection_levels",
    "sotd_value",
]


def _emit(collected: dict[Poly, None], p: Poly) -> None:
    """Add p square-freed in its main variable and normalized; constants drop.

    ``collected`` is an insertion-ordered set: the first equal entry stays.
    """
    if p.is_constant():
        return
    q = squarefree_part(p, p.variables()[-1]).normalized()
    if not q.is_constant():
        collected[q] = None


def _coefficients_until_constant(collected: dict[Poly, None], b: Poly, v: int) -> None:
    # leading coefficient downwards; a nonzero constant coefficient certifies
    # the polynomial cannot vanish identically, so the rest may be dropped
    for k in range(b.degree(v), -1, -1):
        c = b.coeff_of_power(v, k)
        if c.is_zero():
            continue
        if c.is_constant():
            break
        _emit(collected, c)


def mccallum_project(A: Iterable[Poly], v: int) -> list[Poly]:
    """Full projection of A eliminating v; elements free of v pass through.

    The discriminants and resultants that certified the basis are emitted as
    kept; only those of elements a gcd split produced are computed here.  A
    basis element univariate in v has a constant discriminant, which would
    drop, so none is computed.
    """
    collected: dict[Poly, None] = {}
    basis, contents, discs, ress = _certified_basis(A, v)
    for c in contents:
        _emit(collected, c)
    for b in basis:
        _coefficients_until_constant(collected, b, v)
        if b.degree(v) >= 2 and b.variables() != (v,):
            d = discs.get(b)
            _emit(collected, discriminant(b, v) if d is None else d)
    for i, b in enumerate(basis):
        for c in basis[i + 1 :]:
            r = ress.get((b, c))
            _emit(collected, resultant(b, c, v) if r is None else r)
    return sorted(collected, key=_poly_sort_key)


def reduced_ec_project(A: Iterable[Poly], e: Poly, v: int) -> list[Poly]:
    """Reduced operator for a designated equational constraint e in A.

    Projects e alone in full, plus the contents of the other elements (an
    element free of v is its own content) and the resultants of e against
    the others containing v.
    """
    A = list(A)
    if e not in A:
        raise ValueError("designated EC missing")
    if not e.contains_var(v):
        raise ValueError("designated EC does not involve the projection variable")
    collected = dict.fromkeys(mccallum_project([e], v))
    for g in A:
        if g == e:
            continue
        _emit(collected, content_in(g, v))
        if g.contains_var(v):
            _emit(collected, resultant(e, g, v))
    return sorted(collected, key=_poly_sort_key)


@dataclass(frozen=True)
class ProjectionLevels:
    """Projection polynomials per level, in lifting coordinates.

    ``levels[k]`` (1-based via :meth:`level`) holds the polynomials of level k,
    which mention only x_0..x_{k-1}; level ``n`` is the (normalized,
    deduplicated) input and level 1 is univariate in x_0.
    """

    levels: tuple[tuple[Poly, ...], ...]

    def level(self, k: int) -> tuple[Poly, ...]:
        return self.levels[k - 1]


def sotd_value(levels: ProjectionLevels) -> int:
    """Sum of total degrees of every monomial at every level, input included."""
    return sum(sum(exps) for level in levels.levels for p in level for exps in p.terms)


def projection_levels(
    A: Iterable[Poly],
    nvars: int,
    designations: Mapping[int, Poly] | None = None,
    steps: dict[tuple, tuple[Poly, ...] | ValueError] | None = None,
) -> ProjectionLevels:
    """Apply the projection operator from level ``nvars`` down to level 1.

    Level k eliminates x_{k-1}.  ``designations`` maps a level number to its
    designated EC; those levels project with the reduced operator.  ``steps``
    memoizes (level set, level, designated EC or None) -> next level set, or
    the ValueError the step raised, across calls, so projections that agree
    on the upper levels compute them once.
    """
    designations = designations or {}
    steps = {} if steps is None else steps
    out = [tuple(sorted(distinct_normalized(A), key=_poly_sort_key))]
    for k in range(nvars, 1, -1):
        checkpoint()
        key = (out[-1], k, designations.get(k))
        if key not in steps:
            try:
                steps[key] = _next_level(*key)
            except ValueError as exc:
                steps[key] = exc
        if isinstance(steps[key], ValueError):
            raise steps[key].with_traceback(None)
        out.append(steps[key])
    out.reverse()
    return ProjectionLevels(tuple(out))


def _next_level(current: tuple[Poly, ...], k: int, e: Poly | None) -> tuple[Poly, ...]:
    """Level k-1 from level k's set: x_{k-1} eliminated, by the reduced
    operator when ``e`` is the level's designated EC."""
    v = k - 1
    if not any(p.contains_var(v) for p in current):
        # nothing mentions the level variable: the set passes through
        return current
    if e is not None:
        return tuple(reduced_ec_project(current, e, v))
    return tuple(mccallum_project(current, v))
