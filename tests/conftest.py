from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cadlab.polys import Poly
from cadlab.problem import Problem
from cadlab.randgen import RandomProfile, random_problems

# Shared 2-variable builders (x = var 0, y = var 1).
X2 = Poly.var(2, 0)
Y2 = Poly.var(2, 1)
ONE2 = Poly.one(2)


def p2(expr_terms: dict[tuple[int, int], int | Fraction]) -> Poly:
    return Poly(2, expr_terms)


@pytest.fixture
def circle() -> Poly:
    """x^2 + y^2 - 1"""
    return p2({(2, 0): 1, (0, 2): 1, (0, 0): -1})


@pytest.fixture
def circle2() -> Poly:
    """(x-1)^2 + y^2 - 1 = x^2 - 2x + y^2"""
    return p2({(2, 0): 1, (1, 0): -2, (0, 2): 1})


@pytest.fixture
def blowup() -> Poly:
    """(x-1)(y^2+1) - 1 = xy^2 + x - y^2 - 2"""
    return p2({(1, 2): 1, (1, 0): 1, (0, 2): -1, (0, 0): -2})


@pytest.fixture
def criterion_8_problems() -> list[Problem]:
    """The 200-problem seeded corpus of acceptance criterion 8."""
    return (
        random_problems(4201, 120, RandomProfile(
            nvars=2, npolys=2, max_degree=3, max_terms=3, coeff_range=4, equality_fraction=0.5))
        + random_problems(4202, 50, RandomProfile(
            nvars=2, npolys=3, max_degree=2, max_terms=3, coeff_range=5, equality_fraction=0.3))
        + random_problems(4203, 30, RandomProfile(
            nvars=3, npolys=2, max_degree=2, max_terms=2, coeff_range=3, equality_fraction=0.6))
    )
