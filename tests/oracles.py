"""Independent test oracles: Sylvester determinants, Sturm counts, Euclid gcd,
substitution by a chain of ``Fraction`` products.

Deliberately separate implementations from the package under test; nothing
here imports the package's resultant/isolation code paths.
"""

from __future__ import annotations

from fractions import Fraction

from cadlab.polys import Poly


def sylvester_resultant(p: Poly, q: Poly, v: int) -> Poly:
    """Resultant as the determinant of the Sylvester matrix (cofactor expansion)."""
    dp, dq = p.degree(v), q.degree(v)
    pc = p.coeffs_in(v)
    qc = q.coeffs_in(v)
    n = dp + dq
    zero = Poly.zero(p.nvars)
    rows = []
    for i in range(dq):
        row = [zero] * n
        for k in range(dp + 1):
            row[i + k] = pc[dp - k]
        rows.append(row)
    for i in range(dp):
        row = [zero] * n
        for k in range(dq + 1):
            row[i + k] = qc[dq - k]
        rows.append(row)
    return _det(rows)


def _det(m: list[list[Poly]]) -> Poly:
    n = len(m)
    if n == 0:
        return Poly.one(0)
    if n == 1:
        return m[0][0]
    nvars = m[0][0].nvars
    total = Poly.zero(nvars)
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = entry * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def fraction_substitute(p: Poly, assign: dict) -> Poly:
    """p with x_i = assign[i], term by term in ``Fraction`` arithmetic."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        coeff = Fraction(c)
        rest = list(exps)
        for i, val in assign.items():
            coeff *= Fraction(val) ** exps[i]
            rest[i] = 0
        key = tuple(rest)
        out[key] = out.get(key, 0) + coeff
    return Poly(p.nvars, out)


def euclid_gcd_dense(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic univariate gcd by the plain Euclidean algorithm."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    strip = lambda c: c[: len(c) - next((i for i, x in enumerate(reversed(c)) if x != 0), len(c))]
    a, b = strip(a), strip(b)
    while b:
        a, b = b, _rem(a, b)
        b = strip(b)
    if a:
        lc = a[-1]
        a = [x / lc for x in a]
    return a


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    while len(r) >= len(b) and any(x != 0 for x in r):
        if r[-1] == 0:
            r.pop()
            continue
        k = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i in range(len(b)):
            r[shift + i] -= k * b[i]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def sturm_root_count(coeffs: list[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the square-free part in (lo, hi], by Sturm's theorem."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) <= 1:
        return 0
    d = [c[i] * i for i in range(1, len(c))]
    g = euclid_gcd_dense(c, d)
    if len(g) > 1:
        c = _exact_quot(c, g)
        d = [c[i] * i for i in range(1, len(c))]
    chain = [c, d]
    while True:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    def sigma(x: Fraction) -> int:
        signs = []
        for poly in chain:
            v = Fraction(0)
            for k in reversed(poly):
                v = v * x + k
            if v != 0:
                signs.append(1 if v > 0 else -1)
        flips = 0
        for s1, s2 in zip(signs, signs[1:]):
            if s1 != s2:
                flips += 1
        return flips
    return sigma(lo) - sigma(hi)


def sturm_count_all(coeffs: list[Fraction]) -> int:
    """Total number of distinct real roots via Sturm with a Cauchy bound."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) <= 1:
        return 0
    bound = Fraction(1) + max(abs(x) for x in c[:-1]) / abs(c[-1]) if len(c) > 1 else Fraction(1)
    return sturm_root_count(c, -bound - 1, bound + 1)


def _exact_quot(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    r = list(a)
    for i in range(len(out) - 1, -1, -1):
        k = r[len(b) - 1 + i] / b[-1]
        out[i] = k
        for j in range(len(b)):
            r[i + j] -= k * b[j]
    assert all(x == 0 for x in r)
    return out
