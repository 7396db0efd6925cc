"""Exact polynomial evaluation and root isolation over algebraic sample points.

A sample point is a tuple of :class:`AlgebraicNumber` coordinates for the
variables 0..k-1 (callers relabel variables into lifting order first).  Two
primitives drive the lifting phase:

* :func:`sign_at_point`: exact sign of a polynomial at a sample.  Rational
  coordinates are substituted outright, then one refinement loop,
  ``_refined_sign``, decides for any number of live algebraic coordinates:
  it narrows every interval until the integer enclosure of the value
  (``Poly.interval_eval``) excludes zero, and substitutes a coordinate that
  turns rational.  With one live coordinate, zero is certified by the gcd
  with its defining polynomial.  With more, after a fixed number of
  undecided rounds the loop eliminates the coordinates from a carrier
  z - p by resultants, from the top coordinate down; a lower bound on the
  nonzero roots of that eliminant lets an enclosure certify zero.
  A caller that knows the sample's section tower (for coordinate k, a
  polynomial E_k(x_0..x_k) vanishing at the sample's first k+1 coordinates
  with a leading coefficient in x_k nonzero at the first k) passes it, and
  x_k is eliminated against E_k: the eliminant's degree in z then grows by
  deg_{x_k} E_k rather than by the degree of the coordinate's univariate
  defining polynomial, which multiplies over the levels.  Coordinates
  without a tower polynomial go through their defining polynomials, and an
  eliminant that vanishes identically (a tower polynomial sharing a factor
  with the carrier once the lower coordinates are in) is replaced by the
  untowered one, so every sign stays exact.

* :func:`roots_above`: the real roots of p(sample, v) as algebraic numbers.
  Candidates come from iterated resultants against the coordinates' defining
  polynomials; genuine section roots are selected by endpoint sign changes
  when the substituted polynomial is provably square-free (leading-coefficient
  and discriminant signs at the sample), falling back to exact zero tests in
  the same refinement loop.

  Base cells whose algebraic coordinates are roots of the same defining
  polynomials (conjugates such as the two roots of x^2 - 2) often give the
  same substituted polynomial, and most of the work on it does not depend on
  which root is meant: the square-free part, the eliminant with its isolated
  candidates, and on the exact-zero path the carrier's elimination prefix and
  each candidate's eliminant.  A caller lifting one level passes one
  ``shared`` dict for every base cell, and that work is done once per key:
  the substituted, truncated polynomial, the lift variable, and each live
  coordinate's index and defining polynomial.  A result is stored only when
  no gcd split a factor off while it was computed; a split depends on the
  root, so the next conjugate computes its own.  The coefficient signs, true
  degree, discriminant sign, endpoint signs and exact zero tests are signs at
  the sample and run for every base cell.

Every rational substitution (a sample's coordinates, one that turns rational,
the carrier's, candidate endpoints) is :meth:`Poly.scaled_substitute`: the
substituted polynomial times an integer scale >= 1, so signs, zeros and roots
are unchanged and a root gap stays valid.  An all-rational sample is the case
with no live algebraic coordinate, and no ``Fraction`` arithmetic runs there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .dense import _uni_gcd, dense_from_poly
from .errors import checkpoint
from .polys import Poly, _resultant_any, _subresultant_prs, discriminant, divexact
from .polys import primitive_part_in, squarefree_part
from .realroots import AlgebraicNumber, _num_den, _sign_at, isolate_real_roots

__all__ = ["sign_at_point", "roots_above", "Nullified"]

# coordinate k -> E_k(x_0..x_k), or None where the sample has no tower polynomial
Tower = Callable[[int], Poly | None]

_REFINE_ROUNDS_BEFORE_EXACT = 12
# with the root gap known, one of the loop's exits fires long before this
_MAX_ROUNDS = 4096


class Nullified(Exception):
    """p(sample, v) is identically zero: no constraint above this point."""


def _split_coords(
    point: Sequence[AlgebraicNumber],
) -> tuple[dict[int, tuple[int, int]], dict[int, AlgebraicNumber]]:
    """The rational coordinates as (num, den) pairs, and the algebraic ones."""
    rational: dict[int, tuple[int, int]] = {}
    algebraic: dict[int, AlgebraicNumber] = {}
    for i, a in enumerate(point):
        if a.is_rational:
            rational[i] = _num_den(a.coeffs)
        else:
            algebraic[i] = a
    return rational, algebraic


def sign_at_point(
    p: Poly, point: Sequence[AlgebraicNumber], tower: Tower | None = None
) -> int:
    """Exact sign of p at the sample point (coordinates are variables 0..k-1).

    ``tower(k)`` is None or a polynomial E_k in x_0..x_k that vanishes at
    point[:k+1] and whose leading coefficient in x_k is nonzero at
    point[:k]; the zero certificate eliminates x_k against it.
    """
    if any(p.contains_var(v) for v in range(len(point), p.nvars)):
        raise ValueError("polynomial has a variable beyond the sample point")
    return _refined_sign(p, point, tower=tower)


def _refined_sign(
    q: Poly,
    point: Sequence[AlgebraicNumber],
    gap: Fraction | int | None = None,
    tower: Tower | None = None,
) -> int:
    """Sign of q at the sample point; q has no variable beyond it.

    The rational coordinates are substituted first, scaled (a passed gap stays
    valid).  Each round takes the integer enclosure of ``Poly.interval_eval``
    over the live intervals and narrows them.  A coordinate that turns
    rational is substituted and the round count starts again.  Zero has one
    certificate per case.  With one live coordinate alpha, on the first round
    that the enclosure leaves undecided: gcd(defining, q) has at most one root
    in alpha's interval, and it is there iff the gcd changes sign across it;
    otherwise the value is nonzero, the gap is 0, and refinement decides.
    With more, after ``_REFINE_ROUNDS_BEFORE_EXACT`` undecided rounds the root
    gap of the eliminant of z - q is computed, unless the caller passed it:
    q(point) is a root of that eliminant, so an enclosure inside (-gap, gap)
    certifies zero.  ``tower`` is passed on to :func:`_carrier`.
    """
    rational, coords = _split_coords(point)
    if rational:
        q = q.scaled_substitute(rational)
    rounds = 0
    while True:
        if not rounds:
            coords = {i: a for i, a in coords.items() if q.contains_var(i)}
            if not coords:
                val = next(iter(q.terms.values()), 0)
                return (val > 0) - (val < 0)
        checkpoint()
        lo, hi, scale = q.interval_eval({i: (a.lo, a.hi) for i, a in coords.items()})
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if len(coords) == 1 and not rounds:
            ((v, alpha),) = coords.items()
            g = _uni_gcd(alpha.coeffs, dense_from_poly(q, v))
            if len(g) > 1 and (_sign_at(g, alpha.lo) > 0) != (_sign_at(g, alpha.hi) > 0):
                return 0
            gap = 0
        elif gap is None and rounds == _REFINE_ROUNDS_BEFORE_EXACT:
            gap = _root_gap(_carrier(q, point, tower)[0], q.nvars)
        if gap:
            # lo / scale > -gap and hi / scale < gap, on integers
            n, d = gap.numerator, gap.denominator
            if -n * scale < lo * d and hi * d < n * scale:
                return 0
        if rounds == _MAX_ROUNDS:
            raise AssertionError("no enclosure decided the sign")
        rounds += 1
        coords = {i: a.refine_step() for i, a in coords.items()}
        rational = {i: _num_den(a.coeffs) for i, a in coords.items() if a.is_rational}
        if rational:
            q = q.scaled_substitute(rational)
            rounds = 0


def _carrier(
    q: Poly, point: Sequence[AlgebraicNumber], tower: Tower | None = None
) -> tuple[Poly, bool]:
    """z - q, with z a new last variable, and the coordinates eliminated from it.

    The coordinates go from the top down.  A rational one is substituted, one
    with a tower polynomial E_k is eliminated by res_{x_k}(E_k, .), and any
    other by its defining polynomial.  The result vanishes at z = q(point) in
    the remaining variables.  A tower eliminant that vanishes identically is
    replaced by the carrier built without the tower: E_k can share a factor
    with the carrier at the sample's lower coordinates, including rational
    ones that E_k brings back and that are substituted only further down.
    Returns the carrier and whether a gcd split anything on the way (see
    :func:`_eliminate_coordinate`).
    """
    nv = q.nvars + 1
    g = Poly.var(nv, q.nvars) - _with_z(q)
    split = False
    for k in range(len(point) - 1, -1, -1):
        if not g.contains_var(k):
            continue
        alpha = point[k]
        if alpha.is_rational:
            g = g.scaled_substitute({k: _num_den(alpha.coeffs)})
            continue
        e = None if tower is None else tower(k)
        if e is None:
            g, split_k = _eliminate_coordinate(g, k, alpha)
            split = split or split_k
        else:
            g = _resultant_any(_with_z(e), g, k)
    if tower is not None and g.is_zero():
        return _carrier(q, point)
    return g, split


def _with_z(p: Poly) -> Poly:
    """p with a new last variable z it does not involve."""
    return Poly(p.nvars + 1, {e + (0,): c for e, c in p.terms.items()})


def _root_gap(eliminant: Poly, z: int) -> Fraction:
    """Magnitude bound: every nonzero root r of the eliminant has |r| >= the gap.

    Returns 0 when zero is not a root (the value cannot be 0, and no enclosure
    certifies it).
    """
    c = dense_from_poly(eliminant, z)
    k = 0
    while k < len(c) and c[k] == 0:
        k += 1
    if k == 0:
        return Fraction(0)
    h = c[k:]
    lead = abs(h[0])
    peak = max(abs(x) for x in h)
    return Fraction(lead, lead + peak)


def _eliminate_coordinate(
    g: Poly, v: int, alpha: AlgebraicNumber
) -> tuple[Poly, bool]:
    """res_v(defining(alpha), g) with gcd splitting against shared factors.

    Each step runs one subresultant chain: a nonzero resultant is the answer,
    and a zero one holds the factor w shared with the defining polynomial
    (see :func:`polys._subresultant_prs`).  A w whose roots are conjugates of
    alpha is removed from the defining polynomial; a w vanishing at alpha
    itself is divided out of g (possible only through conjugate-contaminated
    carriers).  The second return value says whether either split happened.
    Without one the result is res_v(defining, g), the same for every root of
    the defining polynomial, so conjugates may share it; after one it depends
    on which root alpha is, and a split carrier also tells callers to verify
    completeness downstream.
    """
    if not g.contains_var(v):
        return g, False
    d = Poly.from_dense(g.nvars, v, alpha.coeffs)
    split = False
    while True:
        res, last = _subresultant_prs(d, g, v)
        if last is None:
            return res, split
        split = True
        w = primitive_part_in(last, v).normalized()
        w_dense = dense_from_poly(w, v)
        if (_sign_at(w_dense, alpha.lo) > 0) != (_sign_at(w_dense, alpha.hi) > 0):
            # alpha is a root of the shared factor: g vanishes identically at
            # alpha in the remaining variables; strip the factor and continue
            g = divexact(g, w)
            if not g.contains_var(v):
                return g, split
            continue
        d = divexact(d, w)
        if d.degree(v) == 0:
            # all of d's roots were shared except none containing alpha: cannot
            # happen for a valid algebraic number
            raise AssertionError("defining polynomial exhausted")


def _shared_or_computed(shared: dict, key: tuple, compute: Callable[[], tuple[object, bool]]):
    """``compute()``'s (value, split), stored in ``shared`` under ``key``
    unless split; a stored value comes back with split False."""
    if key in shared:
        return shared[key], False
    value, split = compute()
    if not split:
        shared[key] = value
    return value, split


def roots_above(
    p: Poly, point: Sequence[AlgebraicNumber], v: int, shared: dict | None = None
) -> list[AlgebraicNumber]:
    """Real roots of p(point, v), sorted ascending.

    Raises :class:`Nullified` when the substituted polynomial vanishes
    identically.  ``shared`` holds the point-free work of earlier calls (see
    the module docstring); callers lifting one level pass the same dict for
    every base cell.
    """
    rational, algebraic = _split_coords(point)
    q = p.scaled_substitute(rational) if rational else p
    live = [i for i in algebraic if q.contains_var(i)]
    if not live:
        if q.is_zero():
            raise Nullified()
        if not q.contains_var(v):
            return []
        # isolation divides out gcd(q, q') itself
        return list(isolate_real_roots(q, v))
    if shared is None:
        shared = {}
    if ("squarefree", q, v) not in shared:
        shared["squarefree", q, v] = squarefree_part(q, v)
    q = shared["squarefree", q, v]
    defining = tuple((i, algebraic[i].coeffs) for i in live)
    # the exact signs of the coefficients, leading one down, decide the true
    # degree: the first nonzero one; none at all is nullification
    coeffs = q.coeffs_in(v)
    true_deg = next((i for i in range(len(coeffs) - 1, -1, -1)
                     if not coeffs[i].is_zero() and sign_at_point(coeffs[i], point) != 0), None)
    if true_deg is None:
        raise Nullified()
    if true_deg == 0:
        return []
    trunc = Poly(q.nvars, {e: c for e, c in q.terms.items() if e[v] <= true_deg})
    key = (trunc, v, defining)

    def isolate_candidates() -> tuple[tuple[AlgebraicNumber, ...], bool]:
        eliminant = trunc
        split = False
        for i in live:
            eliminant, split_i = _eliminate_coordinate(eliminant, i, algebraic[i])
            split = split or split_i
        if not eliminant.contains_var(v):
            # a constant eliminant certifies p(point, v) has no real roots
            return (), split
        return isolate_real_roots(eliminant, v), split

    candidates, contaminated = _shared_or_computed(shared, ("candidates", *key), isolate_candidates)
    if not candidates:
        return []
    out: list[AlgebraicNumber] = []
    gap_signs: list[int] = []
    if not _substitution_squarefree(trunc, point, v, true_deg):
        # exact zero tests against a z - p carrier; the base-coordinate
        # elimination prefix and per-defining eliminants are shared
        prefix, _ = _shared_or_computed(shared, ("prefix", *key), partial(_carrier, trunc, point))
        z = trunc.nvars
        for beta in candidates:
            checkpoint()
            g, _ = _shared_or_computed(shared, ("eliminant", prefix, v, beta.coeffs),
                                       partial(_eliminate_coordinate, prefix, v, beta))
            if _refined_sign(trunc, (*point, beta), _root_gap(g, z)) == 0:
                out.append(beta)
        return out
    for beta in candidates:
        checkpoint()
        lo_sign, hi_sign = (
            sign_at_point(trunc.scaled_substitute({v: (x.numerator, x.denominator)}), point)
            for x in (beta.lo, beta.hi))
        if lo_sign == 0 or hi_sign == 0:  # pragma: no cover
            raise AssertionError("candidate endpoints must not be section roots")
        gap_signs.append(lo_sign)
        gap_signs.append(hi_sign)
        if lo_sign != hi_sign:
            out.append(beta)
    if contaminated:
        # a gcd split makes the candidates depend on this sample's roots, and
        # conjugate contamination can in principle drop some; for the
        # square-free case sign changes across the candidate gaps are a
        # complete detector of missed roots
        for s1, s2 in zip(gap_signs[1::2], gap_signs[2::2]):
            if s1 != s2:  # pragma: no cover - pathological, abort loudly
                raise AssertionError("section root missed between candidates")
    return out


def _substitution_squarefree(
    trunc: Poly, point: Sequence[AlgebraicNumber], v: int, true_deg: int
) -> bool:
    """Whether trunc(point, v) is certainly square-free as a univariate in v."""
    if true_deg == 1:
        return True
    disc = discriminant(trunc, v)
    if disc.is_zero():
        return False
    return sign_at_point(disc, point) != 0
