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

Witnesses follow "floats propose, exact arithmetic decides".  The critical
points of f(t, 1) come from a closed-form float cubic solve, lowest float
value first; each is rounded to a few short dyadic rationals, and a
candidate is accepted only if its exact value f(t, 1) is negative, first
at t = s, then at t = 2^k s for the scales k of the form's Newton polygon,
which bring coefficients beyond the float range into it.  Only when every
candidate fails (a negative dip narrower than float resolution, or a
near-double critical point) does the exact Sturm search run: it isolates
the real roots of the derivative of f(t, 1) and bisects each interval
holding a local minimum, on the exact sign of the derivative, until a
midpoint has f(t, 1) < 0.  A float never decides a witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

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

# its users import _polyroots on call: no typical --batch line runs them
if TYPE_CHECKING:
    from . import _polyroots as pr

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


@dataclass(frozen=True)
class IntersectionCase:
    case_id: int
    description: str


# the nine values `classify_case` returns, built once
_CASES = {case_id: IntersectionCase(case_id, text) for case_id, text in CASE_DESCRIPTIONS.items()}


@dataclass(frozen=True)
class CubicRootProfile:
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


@dataclass(frozen=True)
class QuarticRootNature:
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


# -- witness search: floats propose, exact arithmetic decides ----------------

# the coordinates 0 and 1 of the witnesses (1, 0) and (t, 1), shared
_ZERO, _ONE = Fraction(0), Fraction(1)


def witness_search(m: MonicQuartic) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Two rational points with f > 0 and f < 0, for an indefinite form.

    (1, 0) always evaluates to 1 for a monic form.  The negative point is
    proposed in floats and accepted in exact arithmetic: an indefinite
    monic form has a negative global minimum of p(t) = f(t, 1), attained at
    a real critical point, so `_critical_point_witness` rounds those points
    to short dyadic rationals and keeps the first one whose exact value is
    negative, rescaling t when the coefficients leave the float range.  When
    none is (a dip narrower than float resolution, a near-double critical
    point), `_sturm_witness` refines the exact critical points of f(t, 1)
    until one of its bisection midpoints is negative.  Raises ValueError if
    the form is not indefinite.
    """
    t = _critical_point_witness(m)
    if t is None:
        t = _sturm_witness(m)
    return (_ONE, _ZERO), (t, _ONE)


def _critical_point_witness(m: MonicQuartic) -> Fraction | None:
    """A rational t with exact f(t, 1) < 0 near a float critical point, or
    None.  When the floats of f propose none, t = 2^k s is tried for each
    k = round((bitlen |ei| - bitlen e4) / (4 - i)) of the record's Newton
    polygon, which brings coefficients beyond the float range into it."""
    record = m.cleared
    found = _proposed_witness(record)
    if found is not None:
        return Fraction(*found)
    e4 = record[0]
    for k in dict.fromkeys(round((abs(e).bit_length() - e4.bit_length()) / (4 - i))
                           for i, e in enumerate(reversed(record[1:])) if e):
        if not k:
            continue
        # the record of f(2^k x, y), times 2^(-4k) when k < 0 to keep it integral
        found = _proposed_witness(tuple(e << i * k if k > 0 else e << (i - 4) * k
                                        for i, e in zip(range(4, -1, -1), record)))
        if found is not None:
            n, den = found
            return Fraction(n << k, den) if k > 0 else Fraction(n, den << -k)
    return None


def _proposed_witness(record: tuple[int, int, int, int, int]) -> tuple[int, int] | None:
    """(n, den) with exact f(n / den, 1) < 0, the sign taken in integers,
    near a float critical point of the form of the record, or None."""
    e4, e3, e2, e1, e0 = record
    try:
        # int / int is correctly rounded: these are the floats of ai = ei / e4
        a3, a2, a1, a0 = e3 / e4, e2 / e4, e1 / e4, e0 / e4
        # p'(t) / 4 = t^3 + (3/4) a3 t^2 + (1/2) a2 t + (1/4) a1
        points = _cubic_real_roots(0.75 * a3, 0.5 * a2, 0.25 * a1)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    ranked = []
    for x in points:
        value = (((x + a3) * x + a2) * x + a1) * x + a0
        if math.isfinite(x) and math.isfinite(value):
            ranked.append((value, x))
    ranked.sort()

    # e4 den^4 p(n / den) is the record's form at the integer point (n, den),
    # so integers decide the sign
    for _, x in ranked:
        for n, den in _dyadic_ratios(x):
            if quartic_horner(e4, e3, e2, e1, e0, n, den) < 0:
                return n, den
    return None


def _dyadic_ratios(x: float):
    """(n, 2**k) for x rounded to k = 4, 16, 32 fractional bits, coarsest
    first, then x itself; a dip of half-width w around x accepts the first
    k with 2**-(k+1) < w.  Rounds x's exact integer ratio, so no x overflows."""
    num, den = x.as_integer_ratio()
    for bits in (4, 16, 32):
        scale = 1 << bits
        if scale >= den:
            break
        yield (2 * num * scale + den) // (2 * den), scale
    yield num, den


def _cubic_real_roots(b: float, c: float, d: float) -> list[float]:
    """Real roots of t^3 + b t^2 + c t + d in floats: closed form on the
    depressed cubic, each polished by two Newton steps.  Close or double
    roots may come out inaccurate or be missed; callers only propose."""
    shift = b / 3
    p = c - b * shift
    q = (2 * shift * shift - c) * shift + d
    disc = q * q / 4 + p * p * p / 27
    if disc < 0:
        # three real roots (p < 0): trigonometric form
        r = math.sqrt(-p / 3)
        angle = math.acos(max(-1.0, min(1.0, -q / (2 * r * r * r)))) / 3
        roots = [2 * r * math.cos(angle - k * 2 * math.pi / 3) - shift for k in range(3)]
    else:
        # one real root: Cardano, choosing the cube root that does not cancel
        big = -math.copysign((abs(q) / 2 + math.sqrt(disc)) ** (1 / 3), q)
        roots = [(big - p / (3 * big) if big else 0.0) - shift]
    for i, x in enumerate(roots):
        for _ in range(2):
            slope = (3 * x + 2 * b) * x + c
            if not slope:
                break
            x -= (((x + b) * x + c) * x + d) / slope
        roots[i] = x
    return roots


def _sturm_witness(m: MonicQuartic) -> Fraction:
    """Exact fallback: a rational t with p(t) = f(t, 1) < 0 at or beside a
    critical point of p, every sign taken in integers.

    It stops on every indefinite form.  p tends to +inf both ways and takes
    a negative value, so its minimum is negative, at a root r of p' of odd
    multiplicity: p' changes sign across r, from - to +.  r is either an
    exact root of the Sturm isolation of p', or inside one isolating
    interval with p' < 0 at its left end and p' > 0 at its right end.
    Those intervals are bisected in turn, one step each per round, on the
    exact sign of p' at the midpoint.  The one holding r shrinks onto it,
    and p is continuous, so some midpoint has p < 0.  The kernel signs are
    read first: a form that is not indefinite raises ValueError.
    """
    from . import _polyroots as pr
    signs = lam0_test(m)
    if signs.slack is not None and min(signs) >= 0:
        raise ValueError("form takes no negative value: not indefinite")
    record = m.cleared
    e4, e3, e2, e1, _ = record
    slope = (0, 4 * e4, 3 * e3, 2 * e2, e1)  # e4 p'(t) as a quartic record

    def sign(k: tuple[int, ...], t: Fraction) -> int:  # the sign of record k at (t, 1)
        return quartic_horner(*k, t.numerator, t.denominator)

    exact, isolated = pr.isolate_real_roots(pr.squarefree_part(pr.make_poly((e1, 2 * e2, 3 * e3, 4 * e4))))
    for t in exact:
        if sign(record, t) < 0:
            return t
    brackets = [[iso.lo, iso.hi] for iso in isolated if sign(slope, iso.lo) < 0 < sign(slope, iso.hi)]
    while brackets:
        for bracket in list(brackets):
            mid = (bracket[0] + bracket[1]) / 2
            if sign(record, mid) < 0:
                return mid
            at_mid = sign(slope, mid)
            if at_mid:
                bracket[at_mid > 0] = mid  # p' < 0 moves the left end, p' > 0 the right
            else:  # the local minimum is p(mid) >= 0
                brackets.remove(bracket)
    raise ArithmeticError("an indefinite form with no negative critical value")
