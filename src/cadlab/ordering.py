"""Variable orderings and quantifier-block admissibility.

An ordering lists variables base-first: position 0 is the axis of the CAD of
R^1 (the last variable standing), the final position is the main variable of
the input level, eliminated by the first projection.  The CLI renders and
accepts orderings in this form (``--order x,y`` builds R^1 along x).

Quantifier blocks constrain admissible orderings: free variables sit at the
bottom, quantified blocks stack above in prefix order (outermost first), so
projection eliminates variables innermost-quantifier-first.  Within a block
any permutation is admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Sequence

from .errors import OrderingCapError
from .polys import Poly

__all__ = ["QuantifierBlock", "VarOrdering", "admissible_orderings", "ordering_segments"]

ORDERING_ENUMERATION_CAP = 5040  # 7! admissible candidates


@dataclass(frozen=True)
class QuantifierBlock:
    quantifier: str  # "exists" | "forall"
    vars: tuple[int, ...]

    def __post_init__(self):
        if self.quantifier not in ("exists", "forall"):
            raise ValueError(f"unknown quantifier {self.quantifier!r}")


@dataclass(frozen=True)
class VarOrdering:
    """A permutation of the declared variables, base variable first."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}: {self.order}")

    @property
    def nvars(self) -> int:
        return len(self.order)

    def relabel(self, polys: Iterable[Poly]) -> list[Poly]:
        """The polynomials in lifting coordinates: x_j becomes the level j+1 variable."""
        return [p.permute_vars(self.order) for p in polys]

    def to_names(self, names: Sequence[str]) -> str:
        return ",".join(names[i] for i in self.order)

    def __repr__(self) -> str:
        return f"VarOrdering({','.join(map(str, self.order))})"


def ordering_segments(nvars: int, blocks: Sequence[QuantifierBlock]) -> list[tuple[int, ...]]:
    """Bottom-to-top contiguous segments an admissible ordering must respect.

    Free variables (not mentioned by any block) form the bottom segment; the
    quantifier blocks follow in prefix order, so the innermost block ends up
    projected first.
    """
    seen: set[int] = set()
    for b in blocks:
        for v in b.vars:
            if v in seen:
                raise ValueError(f"variable {v} appears in two quantifier blocks")
            if not 0 <= v < nvars:
                raise ValueError(f"variable {v} out of range")
            seen.add(v)
    free = tuple(v for v in range(nvars) if v not in seen)
    segments = [free] if free else []
    segments.extend(tuple(b.vars) for b in blocks)
    return [s for s in segments if s]


def admissible_count(nvars: int, blocks: Sequence[QuantifierBlock]) -> int:
    return math.prod(math.factorial(len(s)) for s in ordering_segments(nvars, blocks))


def admissible_orderings(
    nvars: int, blocks: Sequence[QuantifierBlock] = ()
) -> list[VarOrdering]:
    """All admissible orderings, lexicographically sorted by the base-first tuple.

    Enumeration is capped at 5040 candidates (7 unconstrained variables).
    """
    count = admissible_count(nvars, blocks)
    if count > ORDERING_ENUMERATION_CAP:
        raise OrderingCapError(
            f"{count} admissible orderings exceed the enumeration cap "
            f"of {ORDERING_ENUMERATION_CAP}"
        )
    segments = ordering_segments(nvars, blocks)
    out = []
    for combo in product(*(permutations(sorted(s)) for s in segments)):
        order = tuple(v for seg in combo for v in seg)
        out.append(VarOrdering(order))
    return out
