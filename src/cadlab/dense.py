"""Dense univariate polynomials over the integers: the one shared layer.

A univariate polynomial is a list of coefficients, low to high.  Every helper
that returns a list returns a primitive ``int`` list (content 1): a positive
rational multiple of the polynomial it stands for, so roots and signs are
unchanged.  :func:`dense_from_poly` is the one conversion from a ``Poly``.

``polys.poly_gcd`` runs univariate gcds through :func:`_uni_gcd`,
``realroots`` builds root isolation and algebraic-number comparison on the
same helpers, and ``algpoints`` takes its one-coordinate zero certificate
from the same gcd.  Nothing here floats.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import checkpoint

if TYPE_CHECKING:
    from .polys import Poly

__all__ = ["dense_from_poly"]


def dense_from_poly(p: Poly, v: int) -> list[int]:
    """Primitive integer coefficients of a positive multiple of p, in x_v.

    Raises ValueError when p involves any variable other than x_v.
    """
    out = [0] * (p.degree(v) + 1)
    for exps, c in p.terms.items():
        k = exps[v]
        if sum(exps) != k:
            raise ValueError("not univariate" if len(p.variables()) > 1
                             else "not univariate in the requested variable")
        out[k] = c
    return _primitive(_strip(out))


def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: Sequence) -> list[int]:
    """Integer coefficients with gcd 1 of a positive multiple of a rational list."""
    lcm = math.lcm(*(x.denominator for x in c))
    ints = [x.numerator * (lcm // x.denominator) for x in c]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _canonical(c: Sequence) -> list[int]:
    """The primitive list with a positive leading coefficient."""
    out = _primitive(c)
    return [-x for x in out] if out and out[-1] < 0 else out


def _deriv(c: Sequence[int]) -> list[int]:
    return [c[i] * i for i in range(1, len(c))]


def _uni_gcd(a: Sequence, b: Sequence) -> list[int]:
    """Primitive-PRS gcd over the integers, positive leading coefficient.

    Plain Euclidean remainders over Q suffer catastrophic coefficient growth
    on the big eliminants the lifting phase produces; stripping the integer
    content after every pseudo-remainder keeps the chain tractable.  The
    inputs need not be primitive: pseudo-division takes any integer lists.
    """
    fa, fb = a, b
    while fb:
        checkpoint()
        fa, fb = fb, _primitive(_int_prem(fa, fb))
    return _canonical(fa)


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder: lc(b)^k * a mod b, trailing zeros stripped."""
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    while r and len(r) - 1 >= db:
        k = r[-1]
        r = [x * lc for x in r[:-1]]
        shift = len(r) - db
        for i in range(db):
            r[shift + i] -= k * b[i]
        _strip(r)
    return r


def _div_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b of integer lists; b must divide a.

    The quotient is integral whenever b is primitive (Gauss's lemma), which
    holds for every divisor here: gcds, and den*x - num for reduced num/den.
    """
    r = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        k = r[i + db] // b[-1]
        out[i] = k
        for j in range(db + 1):
            r[i + j] -= k * b[j]
    assert not any(r), "inexact dense division"
    return out
