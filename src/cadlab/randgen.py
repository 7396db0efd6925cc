"""Seeded random problem generation for benchmark corpora.

Reproducible from the seed alone (``random.Random``, no global state); every
emitted problem respects the profile bounds exactly.  Problems are formulas:
one atom per polynomial, equalities with the configured probability,
conjoined.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .formulas import Atom, Formula, conj
from .polys import Poly
from .problem import Problem

__all__ = ["RandomProfile", "random_problems"]

_INEQUALITIES = ("<", "<=", ">", ">=")
_VAR_POOL = ("x", "y", "z", "u", "v", "w", "p", "q")


@dataclass(frozen=True)
class RandomProfile:
    """Bounds for the generator; all limits are inclusive maxima."""

    nvars: int = 2
    npolys: int = 2
    max_degree: int = 3
    max_terms: int = 4
    coeff_range: int = 5
    equality_fraction: float = 0.5

    def __post_init__(self):
        bounds = (self.nvars, self.npolys, self.max_degree, self.max_terms, self.coeff_range)
        if any(isinstance(b, bool) or not isinstance(b, int) for b in bounds):
            raise ValueError("profile bounds must be integers")
        frac = self.equality_fraction
        if isinstance(frac, bool) or not isinstance(frac, (int, float)):
            raise ValueError("equality_fraction must be a number")
        if min(bounds) <= 0:
            raise ValueError("profile bounds must be positive")
        if self.nvars > len(_VAR_POOL):
            raise ValueError(f"at most {len(_VAR_POOL)} variables supported")
        if not 0.0 <= frac <= 1.0:
            raise ValueError("equality_fraction must lie in [0, 1]")


def _random_poly(rng: random.Random, profile: RandomProfile) -> Poly:
    nv = profile.nvars
    while True:
        terms: dict[tuple[int, ...], Fraction] = {}
        for _ in range(rng.randint(1, profile.max_terms)):
            total = rng.randint(0, profile.max_degree)
            exps = [0] * nv
            for _ in range(total):
                exps[rng.randrange(nv)] += 1
            coeff = rng.randint(1, profile.coeff_range) * rng.choice((1, -1))
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        p = Poly(nv, terms)
        if not p.is_zero() and not p.is_constant():
            return p


def random_problems(seed: int, count: int, profile: RandomProfile) -> list[Problem]:
    """Deterministic sequence of problems; same seed, same problems."""
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    rng = random.Random(seed)
    out: list[Problem] = []
    for i in range(count):
        atoms: list[Formula] = []
        for _ in range(rng.randint(1, profile.npolys)):
            p = _random_poly(rng, profile)
            if rng.random() < profile.equality_fraction:
                rel = "="
            else:
                rel = rng.choice(_INEQUALITIES)
            atoms.append(Atom(p, rel))
        out.append(
            Problem(
                name=f"random-{seed}-{i:04d}",
                var_names=_VAR_POOL[: profile.nvars],
                formula=conj(*atoms),
                metadata={"source": "random", "seed": seed, "index": i,
                          "profile": asdict(profile)},
            )
        )
    return out
