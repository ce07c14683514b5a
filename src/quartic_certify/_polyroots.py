"""Exact univariate polynomial utilities over the rationals.

Everything here is internal plumbing for the root classifiers: Horner
evaluation, euclidean division, monic gcd, Yun square-free decomposition,
Sturm chains, and real-root isolation with exact rational interval
endpoints.  Polynomials are tuples of Fractions, low degree first, with no
trailing zero coefficients (the zero polynomial is the empty tuple).

Rational roots are found without any integer factoring: the polynomial is
monicised by the substitution x -> t/lc, whose rational roots become
integer roots of a monic integer polynomial; those are isolated to width
below 1 by Sturm bisection and the at most two integer candidates per
interval are tested exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    lc = den[-1]
    while len(rem) - 1 >= dn and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dn:
            break
        shift = len(rem) - 1 - dn
        factor = rem[-1] / lc
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem.pop()
    return make_poly(quot), make_poly(rem)


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
    assert not r
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


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations(_sign(evaluate(q, x)) for q in chain)


def variations_at_inf(chain: list[Poly], positive: bool) -> int:
    signs = []
    for q in chain:
        s = _sign(q[-1])
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


@dataclass(frozen=True)
class IsolatedRoot:
    """A single simple real root of `poly` trapped in the open interval
    (lo, hi); the endpoints are rational non-roots with a sign change."""

    poly: Poly
    lo: Fraction
    hi: Fraction

    def refined(self, max_width: Fraction) -> IsolatedRoot:
        lo, hi = self.lo, self.hi
        sign_lo = _sign(evaluate(self.poly, lo))
        while hi - lo > max_width:
            mid = (lo + hi) / 2
            s = _sign(evaluate(self.poly, mid))
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

    def compare_to(self, value: Fraction) -> int:
        """Exact sign of (root - value); the root must be irrational."""
        root = self
        while root.lo < value < root.hi:
            root = root.refined((root.hi - root.lo) / 2)
        return 1 if value <= root.lo else -1

    def __float__(self) -> float:
        r = self.refined(Fraction(1, 10**17))
        return float((r.lo + r.hi) / 2)


def isolate_real_roots(p: Poly) -> list[IsolatedRoot]:
    """Isolate all real roots of a squarefree p with no rational roots.

    Returns disjoint intervals in increasing order, one per root.  Since no
    root is rational, bisection midpoints can never hit a root and all
    interval endpoints are non-roots.
    """
    if degree(p) < 1:
        return []
    chain = sturm_chain(p)
    bound = cauchy_root_bound(p)
    total = variations_at(chain, -bound) - variations_at(chain, bound)
    out: list[IsolatedRoot] = []

    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append(IsolatedRoot(p, lo, hi))
            continue
        mid = (lo + hi) / 2
        if evaluate(p, mid) == 0:
            raise ArithmeticError("unexpected rational root during isolation")
        left = variations_at(chain, lo) - variations_at(chain, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    out.sort(key=lambda r: r.lo)
    return make_disjoint(out)


def make_disjoint(roots: list[IsolatedRoot]) -> list[IsolatedRoot]:
    """Halve neighbouring intervals of roots sorted by `lo` until they are
    pairwise disjoint, so midpoints between them are sound samples."""
    changed = True
    while changed:
        changed = False
        for i in range(len(roots) - 1):
            if roots[i].hi > roots[i + 1].lo:
                roots[i] = roots[i].refined((roots[i].hi - roots[i].lo) / 2)
                roots[i + 1] = roots[i + 1].refined((roots[i + 1].hi - roots[i + 1].lo) / 2)
                changed = True
    return roots


def rational_roots(p: Poly) -> list[Fraction]:
    """All distinct rational roots of p, in increasing order.

    Uses the monicising substitution x -> t/lc on the squarefree part after
    clearing denominators; integer candidates come from isolating intervals
    narrowed below width 1, so no divisor enumeration is ever done.
    """
    sf = squarefree_part(p)
    if degree(sf) < 1:
        return []
    den = 1
    for c in sf:
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [int(c * den) for c in sf]
    n = len(ints) - 1
    lc = ints[-1]
    # q(t) = den-cleared sf at t/lc, rescaled monic: roots are t = lc*x;
    # bound the search by lc * (bound on x), much tighter than q's own bound
    q = make_poly(Fraction(ints[i]) * Fraction(lc) ** (n - 1 - i) for i in range(n + 1))
    t_bound = abs(lc) * cauchy_root_bound(sf)
    roots = [Fraction(t, lc) for t in _integer_roots_monic(q, t_bound)]
    roots.sort()
    return roots


def _int_scaled(p: Poly) -> list[int]:
    """Clear denominators with a positive factor (signs preserved)."""
    den = 1
    for c in p:
        den = den * c.denominator // _gcd(den, c.denominator)
    return [int(c * den) for c in p]


def _sign_at_half(q_ints: list[int], numerator: int) -> int:
    """Sign of q(numerator / 2) via an all-integer Horner scheme."""
    acc = q_ints[-1]
    w = 1
    for c in reversed(q_ints[:-1]):
        w <<= 1
        acc = acc * numerator + c * w
    return (acc > 0) - (acc < 0)


def _integer_roots_monic(q: Poly, bound: Fraction) -> list[int]:
    """Integer roots of a monic integer-coefficient polynomial in [-bound, bound].

    All interval endpoints are half-integers, which are never roots of a
    monic integer polynomial (the numerator of q(odd/2) is odd), so Sturm
    counts over (lo, hi] are always valid and no midpoint hits a root.
    Endpoints are tracked as odd numerators over 2 and every chain sign is
    computed in integer arithmetic.
    """
    chain = [_int_scaled(p) for p in sturm_chain(q)]
    cache: dict[int, int] = {}

    def vary(numerator: int) -> int:
        v = cache.get(numerator)
        if v is None:
            v = cache[numerator] = _variations(_sign_at_half(p, numerator) for p in chain)
        return v

    hi0 = 2 * _floor(bound) + 3  # (hi0 / 2) >= bound + 1/2, odd
    out: list[int] = []
    stack = [(-hi0, hi0)]
    while stack:
        lo, hi = stack.pop()
        if vary(lo) - vary(hi) == 0:
            continue
        if hi - lo == 2:
            t = (lo + 1) // 2  # the unique integer inside (lo/2, hi/2)
            if evaluate(q, Fraction(t)) == 0:
                out.append(t)
            continue
        mid = 2 * ((lo + hi) // 4) + 1
        if mid <= lo:
            mid += 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(set(out))


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
