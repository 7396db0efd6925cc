"""Exact sparse multivariate polynomial arithmetic and elimination-theory kernels.

Polynomials live in Q[x_0, ..., x_{n-1}].  A coefficient is stored as an
``int`` when it is integral and as a ``fractions.Fraction`` otherwise, so the
ring operations run in integer arithmetic on integer polynomials (the common
case); there is no floating point anywhere in this module.  Interval
enclosures (``interval_eval``) take the same route: the box and the
coefficients are cleared to common denominators, and the interval products
and sums run on ints over one positive scale, which the caller keeps.
Variables are plain integer indices into the problem's declared variable
sequence, monomials are exponent tuples of length ``nvars``, and the
canonical term order is graded lexicographic on the exponent tuple.

Besides ring arithmetic this module provides the kernels the projection and
preconditioning layers consume: pseudo-division, and multivariate gcds,
resultants and discriminants (with a fixed sign normalization) from one
subresultant chain, square-free primitive bases, and per-variable degree
statistics.  A zero resultant leaves the gcd in the chain, so no pair runs two
chains.  A gcd whose arguments together involve one variable runs on dense
integer lists instead, through the integer PRS that root isolation shares
(:mod:`cadlab.dense`); contents reach it through :func:`poly_gcd`, and the
square-free part of a univariate polynomial calls it directly.  A content
with a nonzero constant coefficient is 1 without a gcd.

The square-free primitive basis is certified by the values the projection
emits: a part's discriminant before its square-free step and a pair's
resultant before its gcd.  For primitive polynomials a nonzero value proves
the part square-free or the pair coprime, so that gcd is skipped and the
value kept for the projection; a zero value takes the gcd from the chain that
computed it.  The basis is the same either way.

``Poly(...)`` is the one public constructor, and it validates every exponent
tuple and coefficient.  Results built inside this module whose terms are valid
by construction skip that pass through the private ``_adopt``: ``+``, ``-``,
negation, ``*``, ``derivative``, ``scaled_substitute``,
``coeffs_in``, ``coeff_of_power``, ``permute_vars``, ``normalized_with_sign``,
``divexact`` and the ``zero``/``const``/``var`` builders.  Each keeps the
invariant the public constructor establishes: exponent tuples of length
``nvars`` with no negative entry, no zero coefficient, and an ``int`` for every
integral coefficient.  Arithmetic drops its zero sums as it goes, and where it
can produce an integral ``Fraction`` (``+``, ``*``, ``derivative``,
``divexact``) one pass, ``_ints``, stores it as an ``int``.
A polynomial that is already canonical is its own normalized form, and
``is_constant`` reads at most one term.  Rational substitution is one integer
loop, ``scaled_substitute``: the substituted terms times a positive integer
scale, which signs, zeros and roots do not see.

A ``Poly`` keeps its hash and its sort key (``_poly_sort_key``, the order of
every emitted polynomial set) in slots, each computed on first use; both are
pure functions of the immutable terms, and ``_adopt`` starts both empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dense import _deriv, _uni_gcd, dense_from_poly
from .errors import checkpoint

__all__ = [
    "Poly",
    "DegreeStats",
    "distinct_normalized",
    "poly_gcd",
    "divexact",
    "prem",
    "resultant",
    "discriminant",
    "squarefree_part",
    "content_in",
    "primitive_part_in",
    "squarefree_primitive_basis",
    "degree_stats",
]


def _as_coeff(c):
    """Coefficients stay plain ints whenever integral: ints share the Rational
    protocol (.numerator/.denominator) but multiply without gcd normalization,
    which dominates the cost of the big resultant chains otherwise."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


def _ints(terms: dict) -> dict:
    """Store the integral ``Fraction`` coefficients of ``terms`` as ints, in place."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over Q.

    Immutable once constructed; the zero polynomial is the empty term map.
    Term iteration (``sorted_terms``) is graded-lexicographic descending, so
    every derived computation is deterministic.
    """

    __slots__ = ("nvars", "terms", "_hash", "_sort_key")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = _as_coeff(coeff)
                if c == 0:
                    continue
                e = tuple(exps)
                if len(e) != nvars or any(type(x) is not int or x < 0 for x in e):
                    raise ValueError(f"bad exponent tuple {e!r} for {nvars} variables")
                clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_sort_key", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Poly is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return _adopt(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> Poly:
        c = _as_coeff(c)
        return _adopt(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> Poly:
        return cls.const(nvars, 1)

    @classmethod
    def from_dense(cls, nvars: int, v: int, coeffs: Sequence) -> Poly:
        """The polynomial in variable v with coefficients ``coeffs``, low to high.

        The inverse of ``dense.dense_from_poly`` up to a positive rational factor.
        """
        terms = {}
        for k, c in enumerate(coeffs):
            exps = [0] * nvars
            exps[v] = k
            terms[tuple(exps)] = c
        return cls(nvars, terms)

    @classmethod
    def var(cls, nvars: int, index: int) -> Poly:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return _adopt(nvars, {tuple(exps): 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # a constant has at most one term, and its exponents are all zero
        terms = self.terms
        return len(terms) <= 1 and not any(next(iter(terms), ()))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values())))

    def variables(self) -> tuple[int, ...]:
        """Indices of variables actually occurring, ascending."""
        present = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present.add(i)
        return tuple(sorted(present))

    def contains_var(self, v: int) -> bool:
        return any(e[v] for e in self.terms)

    def degree(self, v: int) -> int:
        """Degree in variable v (0 for the zero polynomial or absent v)."""
        return max((e[v] for e in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _adopt(self.nvars, _ints(out))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return _adopt(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if c == 0:
                return Poly.zero(self.nvars)
            return _adopt(self.nvars, _ints({e: k * c for e, k in self.terms.items()}))
        self._check(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            checkpoint()
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _adopt(self.nvars, _ints(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power")
        result = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _check(self, other: Poly) -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ValueError("polynomials over different variable sequences")

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- structure in a chosen main variable ---------------------------------

    def coeffs_in(self, v: int) -> list[Poly]:
        """Coefficients of powers of v, index k = coefficient of v**k."""
        d = self.degree(v)
        buckets: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(d + 1)]
        for exps, c in self.terms.items():
            k = exps[v]
            rest = list(exps)
            rest[v] = 0
            buckets[k][tuple(rest)] = c
        return [_adopt(self.nvars, b) for b in buckets]

    def coeff_of_power(self, v: int, k: int) -> Poly:
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[v] == k:
                rest = list(exps)
                rest[v] = 0
                out[tuple(rest)] = c
        return _adopt(self.nvars, out)

    def leading_coeff(self, v: int) -> Poly:
        return self.coeff_of_power(v, self.degree(v))

    def derivative(self, v: int) -> Poly:
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            k = exps[v]
            if k == 0:
                continue
            e = list(exps)
            e[v] = k - 1
            key = tuple(e)
            out[key] = out.get(key, 0) + c * k
        return _adopt(self.nvars, _ints(out))

    # -- evaluation / substitution -------------------------------------------

    def scaled_substitute(self, pairs: Mapping[int, tuple[int, int]]) -> Poly:
        """x_i = num_i/den_i (den_i > 0) substituted, times a positive integer scale.

        The scale is at least 1: signs, zeros and roots are the substitution's,
        and no nonzero value shrinks.  One homogeneous integer evaluation: the
        scale is the lcm of the coefficients' denominators times den_i**deg_i
        for each i, so a term becomes an integer from one power table per
        variable.
        """
        cden = math.lcm(*(c.denominator for c in self.terms.values()))
        tables = []
        for i, (num, den) in pairs.items():
            top = self.degree(i)
            if top:
                tables.append((i, [num**e * den ** (top - e) for e in range(top + 1)]))
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            t = c.numerator * (cden // c.denominator)
            rest = list(e)
            for i, table in tables:
                t *= table[e[i]]
                rest[i] = 0
            key = tuple(rest)
            s = out.get(key, 0) + t
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _adopt(self.nvars, out)

    def interval_eval(
        self, box: Mapping[int, tuple[Fraction, Fraction]]
    ) -> tuple[int, int, int]:
        """Enclosure of the range over a box as ``(lo, hi, scale)``, integers:
        rational interval arithmetic gives exactly [lo / scale, hi / scale].

        The box covers every variable of the polynomial.  Its endpoints are
        cleared to one denominator ``den`` and the coefficients to theirs, and
        a term of total degree d carries a further den**(top - d), ``top`` the
        total degree, so every term shares the positive ``scale``; interval
        products and sums commute with it.
        """
        den = 1
        for a, b in box.values():
            den = math.lcm(den, a.denominator, b.denominator)
        scaled = {i: (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
                  for i, (a, b) in box.items()}
        cden = 1
        for c in self.terms.values():
            if type(c) is not int:
                cden = math.lcm(cden, c.denominator)
        # each term's degree d, integer coefficient and integer enclosure; the
        # weights den**(top - d) wait for the total degree top
        terms = []
        top = 0
        for exps, c in self.terms.items():
            term = None
            d = 0
            for i, e in enumerate(exps):
                if e:
                    d += e
                    power = _interval_pow(*scaled[i], e)
                    term = power if term is None else _interval_mul(*term, *power)
            top = max(top, d)
            terms.append((d, c.numerator * (cden // c.denominator), term or (1, 1)))
        lo = hi = 0
        for d, k, (tlo, thi) in terms:
            k *= den ** (top - d)
            if k > 0:
                lo += k * tlo
                hi += k * thi
            else:
                lo += k * thi
                hi += k * tlo
        return lo, hi, cden * den**top

    def permute_vars(self, perm: Sequence[int]) -> Poly:
        """Relabel variables: new variable j holds what perm[j] held before."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("perm must be a permutation of all variables")
        return _adopt(
            self.nvars,
            {tuple(exps[perm[j]] for j in range(self.nvars)): c for exps, c in self.terms.items()},
        )

    # -- canonical representative --------------------------------------------

    def normalized_with_sign(self) -> tuple[Poly, int]:
        """Canonical rational-multiple representative plus the sign of the scale.

        The representative has integer coefficients with gcd 1 and a positive
        graded-lex leading coefficient.  Returns (canonical, s) with
        self = (positive rational) * s * canonical, s in {+1, -1}; a
        polynomial that is already canonical is its own representative.
        """
        if self.is_zero():
            return self, 1
        lcm = math.lcm(*(c.denominator for c in self.terms.values()))
        gcd = math.gcd(*(c.numerator * (lcm // c.denominator) for c in self.terms.values()))
        lead = max(self.terms, key=_grlex_key)
        sign = 1 if self.terms[lead] > 0 else -1
        if lcm == 1 and gcd == 1 and sign == 1:
            return self, 1
        return _adopt(self.nvars, {
            e: sign * c.numerator * (lcm // c.denominator) // gcd for e, c in self.terms.items()
        }), sign

    def normalized(self) -> Poly:
        return self.normalized_with_sign()[0]

    # -- display ---------------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero():
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts: list[str] = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.to_string()})"


# the slots' own setters: they pass Poly.__setattr__'s immutability guard and
# cost less than object.__setattr__ on this path
_set_nvars, _set_terms = Poly.nvars.__set__, Poly.terms.__set__
_set_hash, _set_sort_key = Poly._hash.__set__, Poly._sort_key.__set__


def _adopt(nvars: int, terms: dict) -> Poly:
    """The ``Poly`` owning ``terms`` as given, without ``Poly.__init__``'s checks.

    For results built in this module only: the caller guarantees the invariant
    in the module docstring and hands over a dict no one else holds.
    """
    p = object.__new__(Poly)
    _set_nvars(p, nvars)
    _set_terms(p, terms)
    _set_hash(p, None)
    _set_sort_key(p, None)
    return p


# -- interval arithmetic on integer endpoints ------------------------------------


def _interval_mul(alo, ahi, blo, bhi):
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products)


def _interval_pow(lo, hi, e):
    """The range of x**e over [lo, hi], for e >= 1."""
    if e % 2 == 1 or lo >= 0:
        return lo**e, hi**e
    if hi <= 0:
        return hi**e, lo**e
    return 0, max(lo**e, hi**e)


# -- exact division and pseudo-division ---------------------------------------


def divexact(p: Poly, d: Poly) -> Poly:
    """Exact division p / d; raises ArithmeticError when d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if d.is_constant():
        return p * (Fraction(1) / d.constant_value())
    quotient: dict[tuple[int, ...], Fraction] = {}
    rem = p
    d_lead = max(d.terms, key=_grlex_key)
    d_lc = d.terms[d_lead]
    while not rem.is_zero():
        checkpoint()
        r_lead = max(rem.terms, key=_grlex_key)
        q_exps = tuple(a - b for a, b in zip(r_lead, d_lead))
        if any(e < 0 for e in q_exps):
            raise ArithmeticError("inexact polynomial division")
        q_c = Fraction(rem.terms[r_lead], d_lc)
        q_c = q_c.numerator if q_c.denominator == 1 else q_c
        quotient[q_exps] = q_c
        rem = rem - _adopt(p.nvars, {q_exps: q_c}) * d
    return _adopt(p.nvars, quotient)


def prem(p: Poly, q: Poly, v: int) -> Poly:
    """Pseudo-remainder of p by q in v: lc(q)^(dp-dq+1) * p = Q*q + prem."""
    if q.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    dq = q.degree(v)
    if dq == 0:
        raise ValueError("pseudo-division requires positive degree divisor")
    if p.is_zero():
        return p
    lc_q = q.leading_coeff(v)
    rem = p
    steps = p.degree(v) - dq + 1
    while not rem.is_zero() and rem.degree(v) >= dq:
        checkpoint()
        dr = rem.degree(v)
        lead = rem.coeff_of_power(v, dr)
        shift = Poly.var(p.nvars, v) ** (dr - dq)
        rem = rem * lc_q - lead * shift * q
        steps -= 1
    if steps > 0:
        rem = rem * lc_q**steps
    return rem


# -- multivariate gcd (contents, then the subresultant chain) ------------------


def content_in(p: Poly, v: int) -> Poly:
    """Content of p w.r.t. v: gcd of the coefficients of powers of v.

    For p free of v the content is p itself; content of 0 is 0.  The result
    is normalized (integer-primitive, positive lead).  A nonzero constant
    coefficient makes the content 1 without a gcd.
    """
    if p.is_zero():
        return p
    coeffs = p.coeffs_in(v)
    if any(c.is_constant() and not c.is_zero() for c in coeffs):
        return Poly.one(p.nvars)
    cont = Poly.zero(p.nvars)
    for c in coeffs:
        if c.is_zero():
            continue
        cont = poly_gcd(cont, c)
        if cont.is_constant():
            break
    return cont


def primitive_part_in(p: Poly, v: int) -> Poly:
    if p.is_zero():
        return p
    return divexact(p, content_in(p, v))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Multivariate gcd over Q, normalized; gcd with a nonzero constant is 1.

    When p and q together involve one variable the gcd runs on primitive
    integer lists; the canonical list (content 1, positive lead) is the
    normalized gcd.  Otherwise the gcd of the contents in the top variable
    multiplies the gcd that the chain of the primitive parts holds, taken in
    sort-key order so that the stored terms do not depend on argument order.
    """
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() or q.is_constant():
        return Poly.one(p.nvars)
    vs = sorted(set(p.variables()) | set(q.variables()))
    v = vs[-1]
    if len(vs) == 1:
        g = _uni_gcd(dense_from_poly(p, v), dense_from_poly(q, v))
        return Poly.from_dense(p.nvars, v, g)
    if not p.contains_var(v):
        # q involves v, p does not: gcd divides content of q w.r.t. v
        return poly_gcd(p, content_in(q, v))
    if not q.contains_var(v):
        return poly_gcd(q, content_in(p, v))
    cp, cq = content_in(p, v), content_in(q, v)
    c = poly_gcd(cp, cq)
    _, last = _subresultant_prs(*sorted((divexact(p, cp), divexact(q, cq)), key=_poly_sort_key), v)
    return (c if last is None else c * primitive_part_in(last, v)).normalized()


# -- resultants and discriminants ----------------------------------------------


def _pow_div(base: Poly, num_exp: int, den: Poly, den_exp: int) -> Poly:
    """base**num_exp / den**den_exp with exact division."""
    out = base**num_exp
    if den_exp > 0:
        out = divexact(out, den**den_exp)
    return out


def resultant(p: Poly, q: Poly, v: int) -> Poly:
    """res_v(p, q) via the subresultant PRS, Sylvester-determinant sign convention.

    Both arguments must have positive degree in v.
    """
    if not (p.contains_var(v) and q.contains_var(v)):
        raise ValueError("not a polynomial in v")
    return _resultant_any(p, q, v)


def _resultant_any(p: Poly, q: Poly, v: int) -> Poly:
    """Resultant allowing degree-0 arguments (res(p, c) = c^deg(p))."""
    return _subresultant_prs(p, q, v)[0]


def _subresultant_prs(p: Poly, q: Poly, v: int) -> tuple[Poly, Poly | None]:
    """res_v(p, q) by the subresultant PRS, and its last nonzero remainder if that is 0.

    For p and q of positive degree in v that remainder has the degree in v of
    their gcd, and its primitive part in v is the gcd of their primitive parts
    up to a rational unit (Brown and Traub, JACM 1971).  It is None when the
    resultant is nonzero or an argument is 0 or free of v.
    """
    if p.is_zero() or q.is_zero():
        return Poly.zero(p.nvars), None
    dp, dq = p.degree(v), q.degree(v)
    if dq == 0:
        return q**dp, None
    if dp == 0:
        return p**dq, None
    sign = 1
    if dp < dq:
        p, q = q, p
        dp, dq = dq, dp
        if dp * dq % 2 == 1:
            sign = -sign
    a, b = p, q
    g = Poly.one(p.nvars)
    h = Poly.one(p.nvars)
    while True:
        checkpoint()
        da, db = a.degree(v), b.degree(v)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = prem(a, b, v)
        a = b
        if r.is_zero():
            return Poly.zero(p.nvars), a
        b = divexact(r, g * h**delta)
        g = a.leading_coeff(v)
        h = _pow_div(g, delta, h, delta - 1) if delta >= 1 else h
        if b.degree(v) == 0:
            break
    da = a.degree(v)
    res = _pow_div(b, da, h, da - 1)
    return (res if sign > 0 else -res), None


def discriminant(p: Poly, v: int) -> Poly:
    """disc_v(p) = (-1)^(d(d-1)/2) * res_v(p, dp/dv) / lc_v(p), d = deg_v(p) >= 2."""
    return _discriminant_prs(p, v)[0]


def _discriminant_prs(p: Poly, v: int) -> tuple[Poly, Poly | None]:
    """disc_v(p), and when it is 0 the last nonzero remainder of the chain of p and dp/dv."""
    d = p.degree(v)
    if d < 2:
        raise ValueError("discriminant requires degree >= 2 in v")
    res, last = _subresultant_prs(p, p.derivative(v), v)
    disc = divexact(res, p.leading_coeff(v))
    if (d * (d - 1) // 2) % 2 == 1:
        disc = -disc
    return disc, last


def squarefree_part(p: Poly, v: int) -> Poly:
    """Square-free-in-v part of p, preserving the content in the other variables.

    A p univariate in v has content 1, and its gcd with p' runs on dense
    integer lists directly, as :func:`poly_gcd` would run it.
    """
    if p.is_zero() or p.degree(v) == 0:
        return p
    if p.variables() == (v,):
        c = dense_from_poly(p, v)
        g = _uni_gcd(c, _deriv(c))
        return p if len(g) == 1 else divexact(p, Poly.from_dense(p.nvars, v, g))
    cont = content_in(p, v)
    if cont.is_constant():
        return _squarefree_primitive(p, v)
    return cont * _squarefree_primitive(divexact(p, cont), v)


def _squarefree_primitive(pp: Poly, v: int) -> Poly:
    """Square-free part of pp, primitive in v: pp / gcd(pp, d pp/dv)."""
    g = poly_gcd(pp, pp.derivative(v))
    return pp if g.is_constant() else divexact(pp, g)


# -- canonical sets ---------------------------------------------------------------


def _poly_sort_key(p: Poly):
    """The deterministic order of every polynomial set the package emits.

    Computed once per object and kept in its slot, like the hash.
    """
    key = p._sort_key
    if key is None:
        key = (
            p.total_degree(),
            len(p.terms),
            tuple((e, c.numerator, c.denominator) for e, c in p.sorted_terms()),
        )
        _set_sort_key(p, key)
    return key


def distinct_normalized(A: Iterable[Poly]) -> list[Poly]:
    """Nonconstant members of A, normalized, deduplicated; first occurrences in order.

    Normalized polynomials are equal (and hash equal) exactly when the inputs
    are rational multiples of each other, so the ``Poly`` itself is the key.
    """
    return list(dict.fromkeys(p.normalized() for p in A if not p.is_constant()))


# -- square-free primitive basis -------------------------------------------------


def squarefree_primitive_basis(
    A: Iterable[Poly], v: int
) -> tuple[list[Poly], list[Poly]]:
    """Pairwise-coprime square-free primitive parts of A w.r.t. v, plus contents.

    The basis elements, times the returned nonconstant contents, carry the same
    real variety as the product of A.  Constants are dropped on both sides.
    Output lists are deterministically ordered and deduped up to rational
    multiples.
    """
    basis, contents, _, _ = _certified_basis(A, v)
    return basis, contents


def _certified_basis(
    A: Iterable[Poly], v: int
) -> tuple[list[Poly], list[Poly], dict[Poly, Poly], dict[tuple[Poly, Poly], Poly]]:
    """:func:`squarefree_primitive_basis` plus the values that certified it.

    For primitive p and b of positive degree in v, res_v(p, b) is nonzero
    exactly when gcd(p, b) is constant, and disc_v(p) exactly when p is
    square-free (Brown and Traub, JACM 1971).  So a part's discriminant is
    computed before its square-free step and a pair's resultant before its
    gcd: a nonzero value skips that gcd and is kept, a zero one takes the
    gcd split.  A part univariate in v takes the dense square-free step
    instead, since its discriminant is a constant the projection never
    emits.  Returns (basis, contents, discs, ress).  ``discs[p]`` is
    ``discriminant(p, v)`` and ``ress[p, q]`` is ``resultant(p, q, v)``,
    for p before q in the basis order, exactly as the projection would
    compute them.  Values for a polynomial or pair that a later split
    removed are kept too; the projection never asks for them.
    """
    parts: list[Poly] = []
    contents: set[Poly] = set()
    discs: dict[Poly, Poly] = {}
    for p in sorted(A, key=_poly_sort_key):
        if p.is_constant():
            continue
        # content_in is normalized, and a constant content is 1
        cont = content_in(p, v)
        if not cont.is_constant():
            contents.add(cont)
            p = divexact(p, cont)
        if not p.contains_var(v):
            continue
        p = p.normalized()
        if p.degree(v) >= 2:
            if p.variables() == (v,):
                # its discriminant is a constant, which the projection drops;
                # the dense square-free step is the cheaper certificate
                p = squarefree_part(p, v).normalized()
            else:
                d, last = _discriminant_prs(p, v)
                if last is None:
                    discs[p] = d
                else:
                    # p / gcd(p, p'), the gcd taken from the chain that made d 0
                    p = divexact(p, primitive_part_in(last, v)).normalized()
        parts.append(p)
    basis: list[Poly] = []
    ress: dict[tuple[Poly, Poly], Poly] = {}
    queue = list(dict.fromkeys(parts))
    while queue:
        p = queue.pop(0)
        for i, b in enumerate(basis):
            if p.is_constant():
                break
            pair = (p, b) if _poly_sort_key(p) <= _poly_sort_key(b) else (b, p)
            r, last = _subresultant_prs(*pair, v)
            if last is None:
                ress[pair] = r
                continue
            # poly_gcd(p, b) runs this same chain when v is the pair's top
            # variable and the pair is not univariate: take the gcd from it
            vs = p.variables() + b.variables()
            g = (primitive_part_in(last, v).normalized() if min(vs) < v == max(vs)
                 else poly_gcd(p, b))
            if g == b:
                p = divexact(p, b).normalized()
                continue
            # split b into g and b/g; both stay square-free and coprime to the rest
            basis[i] = g
            rest = divexact(b, g).normalized()
            if not rest.is_constant():
                queue.append(rest)
            p = divexact(p, g).normalized()
        if not p.is_constant():
            basis.append(p)
    basis.sort(key=_poly_sort_key)
    return basis, sorted(contents, key=_poly_sort_key), discs, ress


# -- degree statistics ------------------------------------------------------------


@dataclass(frozen=True)
class DegreeStats:
    """Per-variable statistics over a polynomial set.

    overall_degree: max degree of the variable across the set.
    max_term_degree: max total degree over all terms containing the variable.
    term_count: number of terms containing the variable, counted per polynomial.
    """

    overall_degree: int
    max_term_degree: int
    term_count: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.overall_degree, self.max_term_degree, self.term_count)


def degree_stats(A: Iterable[Poly], nvars: int) -> list[DegreeStats]:
    overall = [0] * nvars
    max_td = [0] * nvars
    count = [0] * nvars
    for p in A:
        for exps, _ in p.terms.items():
            td = sum(exps)
            for i, e in enumerate(exps):
                if e:
                    overall[i] = max(overall[i], e)
                    max_td[i] = max(max_td[i], td)
                    count[i] += 1
    return [DegreeStats(overall[i], max_td[i], count[i]) for i in range(nvars)]
