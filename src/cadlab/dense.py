"""Dense polynomials over the integers: the one shared layer.

A univariate polynomial is a list of ``int`` coefficients, low to high.  The
univariate helpers return primitive lists (content 1), positive rational
multiples of the polynomials they stand for, so roots and signs are
unchanged.  :func:`dense_from_poly` is the one conversion from a ``Poly``.

A polynomial of depth d >= 1 in d variables is the list of its coefficients
in the first, low to high, each of depth d - 1; depth 0 is an ``int``, and a
univariate list has depth 1.  Zero is ``[]`` at depth >= 1 (0 at depth 0),
and a nonzero list ends in a nonzero entry.  The ring operations take the
depth, and one pseudo-remainder, :func:`_prem`, serves every depth: the
integer PRS gcd :func:`_uni_gcd` runs it at depth 1, and the subresultant
chain :func:`_subresultant` at the depth of its arguments.  ``polys``
converts a ``Poly`` to and from nested lists, so every resultant,
discriminant and multivariate gcd chain runs here, on integers only.

``polys.poly_gcd`` runs univariate gcds through :func:`_uni_gcd`,
``realroots`` builds root isolation and algebraic-number comparison on the
same helpers, and ``algpoints`` takes its one-coordinate zero certificate
from the same gcd.  The chain, the pseudo-remainder and the PRS check the
deadline once per step, and at depth >= 2 so do exact divisions, and
products once per coefficient row.  Nothing here floats.
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
    """c without its zero top entries (``0`` or ``[]``), in place."""
    while c and not c[-1]:
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
        fa, fb = fb, _primitive(_prem(fa, fb))
    return _canonical(fa)


# -- ring operations on nested integer lists of a given depth


def _one(d: int):
    return 1 if d == 0 else [_one(d - 1)]


def _add(a, b, d: int):
    if d == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if d == 1:
        for i, y in enumerate(b):
            out[i] += y
    else:
        for i, y in enumerate(b):
            out[i] = _add(out[i], y, d - 1)
    return _strip(out) if len(a) == len(b) else out


def _neg(a, d: int):
    if d == 0:
        return -a
    if d == 1:
        return [-x for x in a]
    return [_neg(x, d - 1) for x in a]


def _sub(a, b, d: int):
    if d == 0:
        return a - b
    n = len(a)
    if d == 1:
        out = a + [-y for y in b[n:]]
        for i, y in enumerate(b[:n]):
            out[i] -= y
    else:
        out = a + [_neg(y, d - 1) for y in b[n:]]
        for i, y in enumerate(b[:n]):
            out[i] = _sub(out[i], y, d - 1)
    return _strip(out) if len(b) == n else out


def _mul(a, b, d: int):
    """a * b; at depth >= 2 the deadline is checked once per coefficient row."""
    if d == 0:
        return a * b
    if not a or not b:
        return []
    if d == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    e = d - 1
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        checkpoint()
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y, e), e)
    return out


def _pow(a, k: int, d: int):
    out = _one(d)
    while k:
        if k & 1:
            out = _mul(out, a, d)
        k >>= 1
        if k:
            a = _mul(a, a, d)
    return out


def _div_exact(a, b, d: int = 1):
    """Quotient a / b of depth-d lists; raises ArithmeticError when b does
    not divide a.

    At depth 1 the quotient is integral whenever b is primitive (Gauss's
    lemma), which holds for every univariate divisor here: gcds, and
    den*x - num for reduced num/den.  At depth >= 2 each quotient
    coefficient is an exact division one level down.
    """
    if d == 0:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q
    db = len(b) - 1
    if db == 0:
        return [_div_exact(x, b[0], d - 1) for x in a]
    r = list(a)
    out = [0] * (len(a) - db)
    if d == 1:
        for i in range(len(out) - 1, -1, -1):
            k = r[i + db] // b[-1]
            out[i] = k
            for j in range(db + 1):
                r[i + j] -= k * b[j]
    else:
        e = d - 1
        for i in range(len(out) - 1, -1, -1):
            checkpoint()
            k = out[i] = _div_exact(r[i + db], b[-1], e) if r[i + db] else []
            if k:
                for j in range(db + 1):
                    r[i + j] = _sub(r[i + j], _mul(k, b[j], e), e)
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return out


def _prem(a, b, d: int = 1):
    """Pseudo-remainder of depth-d lists in their outer variable:
    lc(b)**(deg a - deg b + 1) * a mod b, where deg b >= 1.

    A remainder whose degree drops by more than one per step is multiplied
    by the lc(b) powers those steps skipped, as the subresultant chain
    needs; a depth-1 gcd divides them out again with the content.
    """
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    steps = len(r) - db
    e = d - 1
    while len(r) > db:
        checkpoint()
        k = r.pop()
        shift = len(r) - db
        if d == 1:
            r = [x * lc for x in r]
            for i in range(db):
                r[shift + i] -= k * b[i]
        else:
            r = [_mul(x, lc, e) for x in r]
            for i in range(db):
                r[shift + i] = _sub(r[shift + i], _mul(k, b[i], e), e)
        _strip(r)
        steps -= 1
    if steps > 0 and r:
        f = _pow(lc, steps, e)
        r = [_mul(x, f, e) for x in r]
    return r


def _subresultant(a: list, b: list, d: int) -> tuple:
    """(res, last): the resultant in the outer variable of depth-d lists a
    and b of positive degree, by the subresultant PRS with the
    Sylvester-determinant sign, and its last nonzero remainder when the
    resultant is 0 (else None).  res has depth d - 1."""
    e = d - 1
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2 == 1:
            sign = -1
    one = g = h = _one(e)
    while True:
        checkpoint()
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _prem(a, b, d)
        a = b
        if not r:
            return (0 if e == 0 else []), a
        div = g if delta == 0 else _mul(g, _pow(h, delta, e), e)
        b = r if div == one else [_div_exact(x, div, e) for x in r]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _div_exact(_pow(g, delta, e), _pow(h, delta - 1, e), e)
        if len(b) == 1:
            break
    da = len(a) - 1
    res = _pow(b[0], da, e)
    if da > 1:
        res = _div_exact(res, _pow(h, da - 1, e), e)
    return (res if sign > 0 else _neg(res, e)), None
