"""Nine-case root-configuration classification and independent oracles.

The cubic g(lam) = det M(lam) has three roots (counted with multiplicity);
their multiplicities and their exact positions relative to tau = a3^2/4
pin down which of nine intersection configurations the two base conics
realise, and hence the full projective root picture of the quartic:

    case 1  four real simple roots            l1 < l2 < l3 <= tau
    case 2  two conjugate simple pairs        l1 <= tau < l2 < l3 (or = on l2)
    case 3  two real simple + conjugate pair  l1 <= tau, conjugate l2, l3
    case 4  two real simple + real double     both roots <= tau, double != tau
    case 5  conjugate pair + real double      simple <= tau < double
    case 6  two real double roots             simple < tau = double
    case 7  conjugate double pair             double = tau < simple
    case 8  real simple + real triple         triple root < tau
    case 9  real quadruple root               triple root = tau

All case decisions are exact and read the integer invariants of
`pencil.lam0_test`, computed once per form (`MonicQuartic.invariants`):
e4 > 0 and e3..e0 clear m to integers, D and Rn give the stationary
points lam0,1 = (2 e2 +- sqrt(D)) / (3 e4) of g and
disc(g) = (4 D^3 - Rn^2) / (6912 e4^6), and with A = 8 e2 e4 - 3 e3^2,
sign(lam0,1 - tau) = sign(A +- 4 e4 sqrt(D)):

    condition                                   sign read          < 0   = 0   > 0
    D < 0, or 4 D^3 < Rn^2                      none: case 3
    D = 0 (Rn = 0: triple root 2 e2 / (3 e4))   A                   8     9     -
    4 D^3 > Rn^2                                A + 4 e4 sqrt(D)    1     -     2
    4 D^3 = Rn^2 > 0, Rn < 0 (double at lam0)   A + 4 e4 sqrt(D)    4     6     5
    4 D^3 = Rn^2 > 0, Rn > 0 (double at lam1)   A - 4 e4 sqrt(D)    4     7     -

A sign marked "-" would need g(tau) > 0, which g(tau) =
-(8 a1 - 4 a2 a3 + a3^3)^2 / 256 forbids; it raises InconsistentCaseError.
No root of g is computed and no float is used.

Two oracles check the case without the pencil.  `discriminant_case`
reads it off the signs of the quartic's own discriminant sequence, in
integers (it backs the command line's `oracle` flag), and
`quartic_root_nature` from the real roots of f(x, 1), by square-free
decomposition and Sturm counts (used by the test suite).  The module also
provides a float minimum-on-the-circle estimate, which is advisory only,
and the witness search that backs indefinite verdicts.

A witness comes from one exact search, `witness_search`: a bisection of
f(t, 1) on dyadic midpoints towards its local minima, every sign taken in
integers (`forms.quartic_horner`, `exactnum.surd_sign`), with no float,
`Fraction` arithmetic or root isolation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._record import Record
from .exactnum import rational_sign, surd_sign
from .forms import MonicQuartic, quartic_horner
# pencil_coeffs, critical_param and g_eval stay bound for bench/spans.py to wrap
from .pencil import (  # noqa: F401
    PencilCubic,
    Sym3Matrix,
    critical_param,
    g_eval,
    lam0_test,
    pencil_coeffs,
)

# `pr` in annotations is _polyroots, which its users import on call: no
# typical --batch line runs them

__all__ = [
    "CubicRootProfile",
    "IntersectionCase",
    "QuarticRootNature",
    "InconsistentCaseError",
    "CASE_DESCRIPTIONS",
    "PSD_CASES",
    "PD_CASES",
    "cubic_root_profile",
    "classify_case",
    "discriminant_case",
    "quartic_root_nature",
    "table3_facts_hold",
    "degenerate_conic_type",
    "circle_min_estimate",
    "circle_min_estimate_plain",
    "witness_search",
]


class InconsistentCaseError(RuntimeError):
    """A root profile matching no classification row: an internal defect,
    since the nine rows are exhaustive for pencils coming from a quartic."""


CASE_DESCRIPTIONS = {
    1: "four real simple points",
    2: "two complex-conjugate simple pairs",
    3: "two real simple points and a complex-conjugate simple pair",
    4: "two real simple points and a real double point",
    5: "a complex-conjugate simple pair and a real double point",
    6: "two real double points",
    7: "a complex-conjugate double pair",
    8: "a real simple point and a real triple point",
    9: "a real quadruple point",
}

# cases with no real simple intersection (semidefinite), and with no real
# intersection at all (definite)
PSD_CASES = frozenset({2, 5, 6, 7, 9})
PD_CASES = frozenset({2, 7})


class IntersectionCase(Record):
    case_id: int
    description: str


# the nine values `classify_case` returns, built once
_CASES = {case_id: IntersectionCase(case_id, text) for case_id, text in CASE_DESCRIPTIONS.items()}


class CubicRootProfile(Record):
    """Exact root structure of g over Q.

    Multiple roots of a rational cubic are always rational, so every entry
    with multiplicity > 1 sits in `rational_roots`.  Irrational real roots
    are necessarily simple; there may be up to three of them (an
    irreducible cubic with three real roots), each held as an isolating
    interval.  `conjugate_factor` is the squarefree factor carrying the
    complex pair, when present.
    """

    rational_roots: tuple[tuple[Fraction, int], ...]
    irrational_roots: tuple[pr.IsolatedRoot, ...]
    conjugate_factor: pr.Poly | None

    @property
    def conjugate_pair(self) -> bool:
        return self.conjugate_factor is not None

    def total_multiplicity(self) -> int:
        total = sum(mult for _, mult in self.rational_roots)
        total += len(self.irrational_roots)
        if self.conjugate_pair:
            total += 2
        return total

    def reconstruct(self) -> pr.Poly:
        """Monic product of all recovered factors; equals g / lc(g).

        Each distinct irrational-bearing factor is multiplied in once: the
        conjugate carrier may coincide with an isolated root's polynomial
        (an irreducible cubic holding one real root and the pair).
        """
        from . import _polyroots as pr
        acc = pr.make_poly([Fraction(1)])
        for root, mult in self.rational_roots:
            linear = pr.make_poly([-root, Fraction(1)])
            for _ in range(mult):
                acc = pr.poly_mul(acc, linear)
        seen: list[pr.Poly] = []
        factors = [iso.poly for iso in self.irrational_roots]
        if self.conjugate_factor is not None:
            factors.append(self.conjugate_factor)
        for f in factors:
            if f not in seen:
                seen.append(f)
                acc = pr.poly_mul(acc, f)
        return acc


def cubic_root_profile(p: PencilCubic) -> CubicRootProfile:
    from . import _polyroots as pr
    poly = pr.make_poly(p.as_poly())
    rational: list[tuple[Fraction, int]] = []
    irrational: list[pr.IsolatedRoot] = []
    conjugate: pr.Poly | None = None

    for factor, mult in pr.squarefree_factors(poly):
        rats = pr.rational_roots(factor)
        for r in rats:
            rational.append((r, mult))
        rest = factor
        for r in rats:
            rest, rem = pr.poly_divmod(rest, pr.make_poly([-r, Fraction(1)]))
            if rem:
                raise ArithmeticError(f"rational root {r} leaves the remainder {rem}")
        if pr.degree(rest) == 0:
            continue
        if mult != 1:
            raise InconsistentCaseError("irrational multiple root of a rational cubic")
        _, isolated = pr.isolate_real_roots(rest)  # rest has no rational root
        irrational.extend(isolated)
        hidden = pr.degree(rest) - len(isolated)
        if hidden:
            # the conjugate pair's carrier: a quadratic, or the irreducible
            # cubic that also holds one isolated real root
            if hidden != 2 or conjugate is not None:
                raise InconsistentCaseError(f"{hidden} non-real roots in a factor of g")
            conjugate = rest

    rational.sort(key=lambda pair: pair[0])
    profile = CubicRootProfile(tuple(rational), tuple(irrational), conjugate)
    if profile.total_multiplicity() != 3:
        raise InconsistentCaseError(f"root profile of g of multiplicity "
                                    f"{profile.total_multiplicity()}, not 3")
    return profile


# the table of the module docstring: root pattern of g -> sign of its
# comparison with tau -> case; a missing sign is one that g(tau) <= 0 forbids
_CASE_BY_SIGN = {
    "triple": {-1: 8, 0: 9},
    "three simple": {-1: 1, 1: 2},
    "double at lam0": {-1: 4, 0: 6, 1: 5},
    "double at lam1": {-1: 4, 0: 7},
}


def classify_case(m: MonicQuartic) -> IntersectionCase:
    """The intersection case, read off the integer invariants of m by the
    table in the module docstring: at most one surd sign per form, and one
    of the nine values built at import.  `quartic_root_nature` checks it
    independently, from the roots of the quartic itself."""
    e4, _, disc, a, rn = m.invariants
    gap = 4 * disc**3 - rn * rn  # the sign of disc(g); rn = 0 when disc < 0
    if gap < 0:  # one real root and a conjugate pair
        return _CASES[3]
    if disc == 0:  # then rn = 0: a triple root at 2 e2 / (3 e4)
        row, sign = "triple", rational_sign(a)
    elif gap > 0:  # the middle root lies below lam0, the largest above it
        row, sign = "three simple", surd_sign(a, 4 * e4, disc)
    elif rn < 0:  # g(lam0) = 0; the simple root lies below lam1
        row, sign = "double at lam0", surd_sign(a, 4 * e4, disc)
    else:  # g(lam1) = 0; the simple root lies above lam0
        row, sign = "double at lam1", surd_sign(a, -4 * e4, disc)
    case_id = _CASE_BY_SIGN[row].get(sign)
    if case_id is None:
        raise InconsistentCaseError(f"{row} of g with sign(root - tau) = {sign}")
    return _CASES[case_id]


def discriminant_case(m: MonicQuartic) -> int:
    """The intersection case of m from the discriminant sequence of the
    quartic itself (L. Yang, X. Hou and Z. Zeng, A complete discrimination
    system for polynomials, Sci. China E 39, 1996), in integers and
    without the pencil.

    It reads the form's integer record `m.cleared` = (e4, e3, e2, e1, e0),
    e4 > 0 the lcm of the denominators of m and ei = e4 ai; the
    substitution x = (t - e3) / (4 e4) takes 256 e4^3 f(x, 1) to
    t^4 + P t^2 + Q t + R with

        P = 16 e2 e4 - 6 e3^2,
        Q = 8 (8 e1 e4^2 - 4 e2 e3 e4 + e3^3),
        R = 256 e0 e4^3 - 64 e1 e3 e4^2 + 16 e2 e3^2 e4 - 3 e3^4,

    and D3 = -2 P^3 + 8 P R - 9 Q^2 and the discriminant
    D4 = 16 P^4 R - 4 P^3 Q^2 - 128 P^2 R^2 + 144 P Q^2 R - 27 Q^4 + 256 R^3
    place its roots:

        D4 > 0               case 1 if D3 > 0 and P < 0, else case 2
        D4 < 0               case 3
        D4 = 0, D3 > 0 / < 0 case 4 / case 5
        D4 = D3 = 0, P < 0   case 6 if Q = 0, else case 8
        D4 = D3 = 0, P > 0   case 7
        D4 = D3 = P = 0      case 9

    Q splits 6 from 8: (t^2 - u)^2 has Q = 0, (t - a)^3 (t + 3a) has Q = 8 a^3.
    """
    e4, e3, e2, e1, e0 = m.cleared
    e3e3 = e3 * e3
    p = 16 * e2 * e4 - 6 * e3e3
    q = 8 * ((8 * e1 * e4 - 4 * e2 * e3) * e4 + e3e3 * e3)
    r = ((256 * e0 * e4 - 64 * e1 * e3) * e4 + 16 * e2 * e3e3) * e4 - 3 * e3e3 * e3e3
    pp, qq = p * p, q * q
    d3 = (8 * r - 2 * pp) * p - 9 * qq
    d4 = (((16 * pp - 128 * r) * p + 144 * qq) * p + 256 * r * r) * r - (4 * pp * p + 27 * qq) * qq
    if d4 > 0:
        return 1 if d3 > 0 and p < 0 else 2
    if d4 < 0:
        return 3
    if d3 != 0:
        return 4 if d3 > 0 else 5
    if p < 0:
        return 6 if q == 0 else 8
    return 7 if p > 0 else 9


class QuarticRootNature(Record):
    """Projective root multiplicity profile of a monic quartic."""

    real_simple: int = 0
    real_double: int = 0
    real_triple: int = 0
    real_quadruple: int = 0
    conjugate_simple_pairs: int = 0
    conjugate_double_pairs: int = 0

    def total_multiplicity(self) -> int:
        return (
            self.real_simple
            + 2 * self.real_double
            + 3 * self.real_triple
            + 4 * self.real_quadruple
            + 2 * self.conjugate_simple_pairs
            + 4 * self.conjugate_double_pairs
        )

    def implied_case(self) -> int:
        """The intersection case this root configuration corresponds to."""
        key = (
            self.real_simple,
            self.real_double,
            self.real_triple,
            self.real_quadruple,
            self.conjugate_simple_pairs,
            self.conjugate_double_pairs,
        )
        table = {
            (4, 0, 0, 0, 0, 0): 1,
            (0, 0, 0, 0, 2, 0): 2,
            (2, 0, 0, 0, 1, 0): 3,
            (2, 1, 0, 0, 0, 0): 4,
            (0, 1, 0, 0, 1, 0): 5,
            (0, 2, 0, 0, 0, 0): 6,
            (0, 0, 0, 0, 0, 1): 7,
            (1, 0, 1, 0, 0, 0): 8,
            (0, 0, 0, 1, 0, 0): 9,
        }
        try:
            return table[key]
        except KeyError:
            raise InconsistentCaseError(f"impossible root profile {key}") from None


def quartic_root_nature(m: MonicQuartic) -> QuarticRootNature:
    from . import _polyroots as pr
    # monic in x, so no projective root at (1:0): f(x, 1) carries all four
    poly = pr.make_poly(m.dehomogenized())
    counts = {1: [0, 0], 2: [0, 0], 3: [0, 0], 4: [0, 0]}  # mult -> [real, pairs]
    for factor, mult in pr.squarefree_factors(poly):
        deg = pr.degree(factor)
        nreal = pr.count_distinct_real_roots(factor)
        counts[mult][0] += nreal
        counts[mult][1] += (deg - nreal) // 2
    nature = QuarticRootNature(
        real_simple=counts[1][0],
        real_double=counts[2][0],
        real_triple=counts[3][0],
        real_quadruple=counts[4][0],
        conjugate_simple_pairs=counts[1][1],
        conjugate_double_pairs=counts[2][1],
    )
    if nature.total_multiplicity() != 4:
        raise InconsistentCaseError(f"root profile of f of multiplicity "
                                    f"{nature.total_multiplicity()}, not 4")
    return nature


def table3_facts_hold(m: MonicQuartic, case_id: int) -> bool:
    """Check the (lam0, g(lam0)) facts implied by the classified case
    against the two signs of `pencil.lam0_test`."""
    return _case_facts_hold(case_id, *lam0_test(m))


def _case_facts_hold(case_id: int, slack: int | None, value: int | None) -> bool:
    """`table3_facts_hold` from the two kernel signs, as `Lam0Test` holds
    them: sign(lam0 - a3^2/4) and sign(g(lam0)), both None when lam0 is
    not real.  Only the row of case_id is evaluated."""
    if slack is None:
        return case_id == 3
    return _CASE_FACTS[case_id](slack, value)


# the facts of each case on the signs of lam0 - a3^2/4 and g(lam0), lam0 real
_CASE_FACTS = {
    1: lambda slack, value: slack < 0 and value > 0,
    2: lambda slack, value: slack > 0 and value > 0,
    3: lambda slack, value: slack < 0 or value < 0,
    4: lambda slack, value: slack < 0 and value >= 0,
    5: lambda slack, value: slack > 0 and value == 0,
    6: lambda slack, value: slack == 0 and value == 0,
    7: lambda slack, value: slack > 0 and value > 0,
    8: lambda slack, value: slack < 0 and value == 0,
    9: lambda slack, value: slack == 0 and value == 0,
}


def degenerate_conic_type(mat: Sym3Matrix) -> str:
    """Type of a singular member: "real-line-pair", "conjugate-line-pair",
    or "repeated-line" (rank 1; necessarily real here since m11 = 1 > 0)."""
    rank = mat.rank()
    if rank >= 3:
        raise ValueError("matrix is not degenerate")
    if rank <= 1:
        return "repeated-line"
    if all(sign >= 0 for sign in mat.principal_minor_signs):
        return "conjugate-line-pair"
    return "real-line-pair"


# -- numeric circle oracle (advisory only) ----------------------------------

@functools.cache
def _circle_basis(n: int) -> tuple[tuple[float, ...], ...]:
    """(c^4, c^3 s, c^2 s^2, c s^3, s^4) at c, s = cos, sin of pi i / n,
    one row per sample, built on the first call for each n."""
    cos_sin = ((math.cos(i * (math.pi / n)), math.sin(i * (math.pi / n))) for i in range(n))
    return tuple((c**4, c**3 * s, (c * c) * (s * s), c * s**3, s**4) for c, s in cos_sin)


def circle_min_estimate_plain(coeffs, n: int) -> tuple[float, float]:
    """Sampled-and-refined minimum of the form on the unit circle.

    Float-only sanity oracle: minima living in dips narrower than the
    sample spacing can be missed, which is why it never decides anything.
    The form is sampled at theta_i = pi i / n; the lowest eight local
    minima (with wrap-around, ties broken by index) and the first global
    argmin are each refined by golden-section search.
    Returns (min value, argmin angle).
    """
    if n < 8:
        raise ValueError("need at least 8 samples")
    e4, e3, e2, e1, e0 = (float(c) for c in coeffs)
    vals = [e4 * p40 + e3 * p31 + e2 * p22 + e1 * p13 + e0 * p04
            for p40, p31, p22, p13, p04 in _circle_basis(n)]

    def f(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        c2, s2 = c * c, s * s
        return e4 * c2 * c2 + e3 * c2 * c * s + e2 * c2 * s2 + e1 * c * s2 * s + e0 * s2 * s2

    # f has period pi, so the wrap-around is valid
    local = [i for i, (left, v, right) in enumerate(zip(vals[-1:] + vals[:-1], vals, vals[1:] + vals[:1]))
             if v <= left and v <= right]
    candidates = sorted(local, key=vals.__getitem__)[:8]
    gmin = vals.index(min(vals))
    if gmin not in candidates:
        candidates.append(gmin)

    spacing = math.pi / n
    best_val, best_arg = math.inf, 0.0
    for idx in candidates:
        t0 = idx * spacing
        val, arg = _golden_min(f, t0 - spacing, t0 + spacing)
        if val < best_val:
            best_val, best_arg = val, arg
    return best_val, best_arg


def circle_min_estimate(m: MonicQuartic, n: int) -> tuple[float, float]:
    return circle_min_estimate_plain(m.coefficients(), n)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, iters: int = 48) -> tuple[float, float]:
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    mid = (lo + hi) / 2.0
    return f(mid), mid


# -- witness search: one exact integer bisection ---------------------------

# the coordinates 0 and 1 of the witnesses (1, 0) and (t, 1), shared
_ZERO, _ONE = Fraction(0), Fraction(1)

# bisection rounds after which the kernel signs are read: is the form indefinite?
_ROUNDS_UNCHECKED = 64


def witness_search(m: MonicQuartic) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Two rational points with f > 0 and f < 0, for an indefinite form.

    (1, 0) always evaluates to 1 for a monic form.  The negative point is
    (t, 1) with p(t) = f(t, 1) < 0, found by bisection on dyadic midpoints
    t = u / 2^j, every sign taken in integers.  An indefinite p has a
    negative local minimum.  p' increases below and above the inflection
    points r1,2 = (-3 e3 -+ sqrt(9 e3^2 - 24 e2 e4)) / (12 e4) of the
    record (e4, .., e0), so there is at most one local minimum below r1 and
    one above r2 (one in all when r1,2 are not real), both inside
    (-2^k, 2^k), 2^k Fujiwara's bound on the roots of p'.  One bracket per
    minimum is halved in turn, one step each per round, from that interval,
    on the sign of t - r (`surd_sign`) beyond the inflection point and on
    the sign of p'(t) before it.  The bracket of a negative minimum shrinks
    onto it, so some midpoint, the first being t = 0, has p < 0.

    Raises ValueError if the form is not indefinite: when the minimum of
    each side is hit exactly with p >= 0, or when the kernel signs
    (`lam0_test`), read after 64 rounds, say so.
    """
    e4, e3, e2, e1, e0 = m.cleared
    if e0 < 0:  # p(0) < 0: the first midpoint, t = 0, is the witness
        return (_ONE, _ZERO), (_ZERO, _ONE)
    # e4 p'(t) = d3 t^3 + d2 t^2 + d1 t + e1, as a quartic record (0, d3, d2, d1, e1)
    d3, d2, d1 = 4 * e4, 3 * e3, 2 * e2
    # 2^(k - 1) > |c / lead|^(1/i) for each nonzero coefficient c of t^(3 - i)
    # in p', with lead = d3, and 2 d3 for the constant term
    k = 1 + max((-((lead.bit_length() - 1 - abs(c).bit_length()) // i)
                 for i, c, lead in ((1, d2, d3), (2, d1, d3), (3, e1, 2 * d3)) if c), default=-1)
    radicand = d2 * d2 - 3 * d1 * d3  # 9 e3^2 - 24 e2 e4
    # a side is [n, flank]: its bracket is [n, n + 2] / 2^j and its midpoint
    # (n + 1) / 2^j; its flank is +1 for the minimum below r1, -1 for the one
    # above r2, and 0 for the only one when p' increases everywhere
    sides = [[-1, 1], [-1, -1]] if radicand >= 0 else [[-1, 0]]
    j = -k
    while sides:
        for side in list(sides):
            n, flank = side
            u, w = (n + 1, 1 << j) if j >= 0 else ((n + 1) << -j, 1)
            if quartic_horner(e4, e3, e2, e1, e0, u, w) < 0:
                return (_ONE, _ZERO), (Fraction(u, w), _ONE)
            # t beyond the flank's inflection point (t > r1, or t < r2) moves
            # back towards it; otherwise p' > 0 keeps the lower half, p' < 0
            # the upper one, and p' = 0 is the minimum itself, with p >= 0
            if flank and surd_sign(3 * d3 * u + d2 * w, flank * w, radicand) == flank:
                toward = flank
            else:
                toward = quartic_horner(0, d3, d2, d1, e1, u, w)
                if not toward:
                    sides.remove(side)
                    continue
            side[0] = 2 * n if toward > 0 else 2 * n + 2
        j += 1
        if j + k == _ROUNDS_UNCHECKED:
            signs = lam0_test(m)
            if signs.slack is not None and min(signs) >= 0:
                raise ValueError("form takes no negative value: not indefinite")
    raise ValueError("form takes no negative value: not indefinite")
