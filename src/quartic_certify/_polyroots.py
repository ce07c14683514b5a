"""Exact univariate polynomial utilities over the rationals.

Everything here is internal plumbing for the root oracles of
`classifier` (`cubic_root_profile`, `quartic_root_nature`), which no
`--batch` line runs: Horner evaluation, euclidean division, monic gcd,
Yun square-free decomposition, Sturm chains, and real-root isolation with
exact rational interval endpoints.  Polynomials are tuples of Fractions,
low degree first, with no trailing zero coefficients (the zero polynomial
is the empty tuple).

There is one isolation routine, `isolate_real_roots`: Sturm bisection from
the Cauchy bound, where a midpoint that lands exactly on a (necessarily
rational) root is recorded and deflated away before isolation restarts.
Rational roots are found on top of it without any integer factoring: a
rational root of a monic polynomial whose coefficient denominators have
lcm L has a denominator dividing L, and two such numbers lie at least
1/L**2 apart.  So each isolating interval is refined below width 1/(2 L**2);
the best approximation of its midpoint with denominator at most L is then
the only rational root the interval can hold, and it is kept if it lies
inside the interval and is exactly a root.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .exactnum import rational_sign

Poly = tuple[Fraction, ...]


def make_poly(coeffs) -> Poly:
    """Normalise a low-to-high coefficient sequence into a Poly."""
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1  # zero polynomial -> -1


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return make_poly(i * c for i, c in enumerate(p) if i > 0)


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    dn = degree(den)
    for shift in range(len(num) - 1 - dn, -1, -1):  # clear rem[shift + dn]
        factor = quot[shift] = rem[shift + dn] / den[-1]
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    return make_poly(quot), make_poly(rem[:dn])


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return make_poly(out)


def monic(p: Poly) -> Poly:
    if not p:
        return p
    lc = p[-1]
    if lc == 1:
        return p
    return tuple(c / lc for c in p)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the euclidean algorithm (gcd(p, 0) = monic p)."""
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return monic(a)


def squarefree_part(p: Poly) -> Poly:
    if degree(p) < 1:
        return monic(p)
    g = poly_gcd(p, derivative(p))
    if degree(g) == 0:
        return monic(p)
    q, r = poly_divmod(p, g)
    if r:
        raise ArithmeticError(f"gcd(p, p') leaves the remainder {r}")
    return monic(q)


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: p = lc * prod f_i**i with f_i monic, squarefree,
    pairwise coprime.  Only factors of positive degree are returned."""
    if degree(p) < 1:
        return []
    p = monic(p)
    dp = derivative(p)
    g = poly_gcd(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    c, _ = poly_divmod(p, g)
    d, _ = poly_divmod(dp, g)
    d = _poly_sub(d, derivative(c))
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(c) > 0:
        a = poly_gcd(c, d)
        if degree(a) > 0:
            out.append((monic(a), i))
        c, _ = poly_divmod(c, a)
        t, _ = poly_divmod(d, a)
        d = _poly_sub(t, derivative(c))
        i += 1
    return out


def _poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return make_poly(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
    )


# -- Sturm chains and root counting ---------------------------------------


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, derivative(p)]
    while degree(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return [q for q in chain if q]


def _variations(signs) -> int:
    flips = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            flips += 1
        prev = s
    return flips


def variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations(rational_sign(evaluate(q, x)) for q in chain)


def variations_at_inf(chain: list[Poly], positive: bool) -> int:
    signs = []
    for q in chain:
        s = rational_sign(q[-1])
        if not positive and degree(q) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_distinct_real_roots(p: Poly) -> int:
    """Number of distinct real roots of p (any multiplicities)."""
    sf = squarefree_part(p)
    if degree(sf) < 1:
        return 0
    chain = sturm_chain(sf)
    return variations_at_inf(chain, False) - variations_at_inf(chain, True)


def cauchy_root_bound(p: Poly) -> Fraction:
    """Every real root lies strictly inside (-B, B)."""
    if degree(p) < 1:
        return Fraction(1)
    lc = abs(p[-1])
    return 1 + max(abs(c) / lc for c in p[:-1])


# -- root isolation --------------------------------------------------------


class IsolatedRoot(Record):
    """A single simple real root of `poly` trapped in the open interval
    (lo, hi); the endpoints are rational non-roots with a sign change."""

    poly: Poly
    lo: Fraction
    hi: Fraction

    def refined(self, max_width: Fraction) -> IsolatedRoot:
        lo, hi = self.lo, self.hi
        sign_lo = rational_sign(evaluate(self.poly, lo))
        while hi - lo > max_width:
            mid = (lo + hi) / 2
            s = rational_sign(evaluate(self.poly, mid))
            if s == 0:
                # the midpoint is the (rational) root itself; shave the lo
                # side instead, keeping the root strictly interior
                lo = (lo + mid) / 2
                continue
            if s == sign_lo:
                lo = mid
            else:
                hi = mid
        return IsolatedRoot(self.poly, lo, hi)


def isolate_real_roots(p: Poly) -> tuple[list[Fraction], list[IsolatedRoot]]:
    """All distinct real roots of a squarefree p, in increasing order.

    Returns (exact, isolated): the roots a bisection midpoint landed on,
    each deflated away before isolation restarts, and isolating intervals
    of the deflated polynomial for the others.  The intervals, leaves of
    one bisection, are disjoint, and are refined until their closures hold
    no exact root, so no endpoint is a root of p.
    """
    exact: list[Fraction] = []
    while degree(p) >= 1:
        chain = sturm_chain(p)
        bound = cauchy_root_bound(p)
        total = variations_at(chain, -bound) - variations_at(chain, bound)
        isolated: list[IsolatedRoot] = []
        stack = [(-bound, bound, total)]
        while stack:
            lo, hi, count = stack.pop()
            if count == 0:
                continue
            if count == 1:
                isolated.append(IsolatedRoot(p, lo, hi))
                continue
            mid = (lo + hi) / 2
            if evaluate(p, mid) == 0:
                break
            left = variations_at(chain, lo) - variations_at(chain, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, count - left))
        else:  # no midpoint hit a root
            isolated.sort(key=lambda r: r.lo)
            for i, iso in enumerate(isolated):
                while any(iso.lo <= x <= iso.hi for x in exact):
                    iso = iso.refined((iso.hi - iso.lo) / 2)
                isolated[i] = iso
            return sorted(exact), isolated
        exact.append(mid)
        p, _ = poly_divmod(p, make_poly([-mid, Fraction(1)]))
    return sorted(exact), []


def rational_roots(p: Poly) -> list[Fraction]:
    """All distinct rational roots of p, in increasing order (see the
    module docstring for why one candidate per interval suffices)."""
    sf = squarefree_part(p)
    if degree(sf) < 1:
        return []
    lcm = math.lcm(*(c.denominator for c in sf))
    roots, isolated = isolate_real_roots(sf)
    for iso in isolated:
        iso = iso.refined(Fraction(1, 2 * lcm * lcm))
        candidate = ((iso.lo + iso.hi) / 2).limit_denominator(lcm)
        if iso.lo < candidate < iso.hi and evaluate(sf, candidate) == 0:
            roots.append(candidate)
    return sorted(roots)
