"""The unit of benchmarking: named variables, quantifier blocks, payload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .formulas import Formula, atom_polys
from .ordering import QuantifierBlock, VarOrdering
from .polys import Poly, distinct_normalized

__all__ = ["Problem"]


@dataclass
class Problem:
    """A formula (or bare polynomial set) plus variable declarations and metadata."""

    name: str
    var_names: tuple[str, ...]
    blocks: tuple[QuantifierBlock, ...] = ()
    formula: Formula | None = None
    polys: tuple[Poly, ...] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if (self.formula is None) == (self.polys is None):
            raise ValueError("exactly one of formula/polys must be provided")
        seen = set()
        for b in self.blocks:
            for v in b.vars:
                if v in seen:
                    raise ValueError("quantifier blocks must be disjoint")
                seen.add(v)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def input_polys(self) -> list[Poly]:
        """Normalized, deduplicated polynomials of the payload, stable order."""
        return distinct_normalized(
            atom_polys(self.formula) if self.formula is not None else self.polys
        )

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"undeclared variable {name!r}") from None

    def parse_ordering(self, spec: str) -> VarOrdering:
        """Comma-separated variable names, base variable first."""
        names = [s.strip() for s in spec.split(",") if s.strip()]
        if sorted(names) != sorted(self.var_names):
            raise ValueError(
                f"ordering must permute {','.join(self.var_names)}, got {spec!r}"
            )
        return VarOrdering(tuple(self.var_index(n) for n in names))
