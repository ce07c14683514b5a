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

All case decisions are exact: multiple roots of g are always rational and
compared directly; simple irrational roots are compared to tau through
sign-change interval refinement, never through floats.  The module also
provides the independent quartic root-nature oracle (square-free
decomposition plus Sturm counts on f(x, 1)), a float minimum-on-the-circle
estimate that is advisory only, and the witness search that backs
indefinite verdicts.

Witnesses follow "floats propose, exact arithmetic decides".  The critical
points of f(t, 1) come from a closed-form float cubic solve, lowest float
value first; each is rounded to a few short dyadic rationals, and a
candidate is accepted only if its exact value f(t, 1) is negative.  Only
when every candidate fails (a negative dip narrower than float resolution,
a near-double critical point, or coefficients beyond the float range) does
the exact Sturm search run: it isolates the real roots of f(t, 1) and
samples every gap between them.  A float never decides a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _polyroots as pr
from ._polyroots import IsolatedRoot
from .exactnum import sign_of
from .forms import MonicQuartic, evaluate_plain
from .pencil import (
    PencilCubic,
    Sym3Matrix,
    critical_param,
    g_eval,
    pencil_coeffs,
)

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
    irrational_roots: tuple[IsolatedRoot, ...]
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
    poly = pr.make_poly(p.as_poly())
    rational: list[tuple[Fraction, int]] = []
    irrational: list[IsolatedRoot] = []
    conjugate: pr.Poly | None = None

    for factor, mult in pr.squarefree_factors(poly):
        rats = pr.rational_roots(factor)
        for r in rats:
            rational.append((r, mult))
        rest = factor
        for r in rats:
            rest, rem = pr.poly_divmod(rest, pr.make_poly([-r, Fraction(1)]))
            assert not rem
        if pr.degree(rest) == 0:
            continue
        assert mult == 1, "irrational multiple root of a rational cubic"
        isolated = pr.isolate_real_roots(rest)
        irrational.extend(isolated)
        hidden = pr.degree(rest) - len(isolated)
        if hidden:
            # the conjugate pair's carrier: a quadratic, or the irreducible
            # cubic that also holds one isolated real root
            assert hidden == 2 and conjugate is None
            conjugate = rest

    rational.sort(key=lambda pair: pair[0])
    profile = CubicRootProfile(tuple(rational), tuple(irrational), conjugate)
    assert profile.total_multiplicity() == 3
    return profile


def _compare_root(root: Fraction | IsolatedRoot, value: Fraction) -> int:
    """Exact sign of (root - value)."""
    if isinstance(root, IsolatedRoot):
        return root.compare_to(value)
    return sign_of(root - value)


def classify_case(m: MonicQuartic) -> IntersectionCase:
    cubic = pencil_coeffs(m)
    tau = m.a3**2 / 4
    case_id = _case_from_counts(cubic, tau)
    return IntersectionCase(case_id, CASE_DESCRIPTIONS[case_id])


def _case_from_counts(cubic: PencilCubic, tau: Fraction) -> int:
    """Case decision from multiplicity structure plus exact Sturm counts of
    the roots of g against tau; no roots are ever extracted or isolated.
    Agrees with `_case_from_profile` (tested), but runs in O(1) exact ops.
    """
    g = pr.make_poly(cubic.as_poly())
    common = pr.poly_gcd(g, pr.derivative(g))

    if pr.degree(common) == 2:
        # triple root r: the gcd is (lam - r)^2
        r = -common[1] / 2
        cmp = sign_of(r - tau)
        if cmp < 0:
            return 8
        if cmp == 0:
            return 9
        raise InconsistentCaseError("triple root above tau")

    if pr.degree(common) == 1:
        double = -common[0]  # gcd is monic lam - double
        simple = 4 * cubic.b2 - 2 * double  # roots of g sum to 4 b2
        dc = sign_of(double - tau)
        sc = sign_of(simple - tau)
        if dc == 0:
            return 6 if sc < 0 else 7
        if dc < 0 and sc <= 0:
            return 4
        if dc > 0 and sc <= 0:
            return 5
        raise InconsistentCaseError("double/simple pattern matches no row")

    # squarefree g: three simple roots, all real or one real plus a pair
    chain = pr.sturm_chain(g)
    n_real = pr.variations_at_inf(chain, False) - pr.variations_at_inf(chain, True)
    g_tau = pr.evaluate(g, tau)

    if n_real == 1:
        if g_tau != 0:
            n_gt = pr.variations_at(chain, tau) - pr.variations_at_inf(chain, True)
            if n_gt:
                raise InconsistentCaseError("conjugate pair with real root above tau")
        return 3

    if g_tau == 0:
        n_eq = 1
        deflated, rem = pr.poly_divmod(g, pr.make_poly([-tau, Fraction(1)]))
        assert not rem
        dchain = pr.sturm_chain(deflated)
        n_gt = pr.variations_at(dchain, tau) - pr.variations_at_inf(dchain, True)
    else:
        n_eq = 0
        n_gt = pr.variations_at(chain, tau) - pr.variations_at_inf(chain, True)
    if n_gt == 0:
        return 1
    if n_gt == 2 or (n_gt == 1 and n_eq == 1):
        return 2
    raise InconsistentCaseError("simple-roots pattern matches no row")


def _case_from_profile(profile: CubicRootProfile, tau: Fraction) -> int:
    if profile.conjugate_pair:
        real: list[Fraction | IsolatedRoot] = [r for r, _ in profile.rational_roots]
        real += list(profile.irrational_roots)
        if len(real) != 1 or _compare_root(real[0], tau) > 0:
            raise InconsistentCaseError("conjugate pair with real root above tau")
        return 3

    mults = sorted(mult for _, mult in profile.rational_roots)
    if mults == [3]:
        root = profile.rational_roots[0][0]
        cmp = sign_of(root - tau)
        if cmp < 0:
            return 8
        if cmp == 0:
            return 9
        raise InconsistentCaseError("triple root above tau")

    if 2 in mults:
        double = next(r for r, k in profile.rational_roots if k == 2)
        simples: list[Fraction | IsolatedRoot] = [
            r for r, k in profile.rational_roots if k == 1
        ]
        simples += list(profile.irrational_roots)
        (simple,) = simples
        dc = sign_of(double - tau)
        sc = _compare_root(simple, tau)
        if dc == 0:
            return 6 if sc < 0 else 7
        if dc < 0 and sc <= 0:
            return 4
        if dc > 0 and sc <= 0:
            return 5
        raise InconsistentCaseError("double/simple pattern matches no row")

    # three distinct simple real roots
    roots: list[Fraction | IsolatedRoot] = [r for r, _ in profile.rational_roots]
    roots += list(profile.irrational_roots)
    cmps = [_compare_root(r, tau) for r in roots]
    n_gt = sum(c > 0 for c in cmps)
    n_eq = sum(c == 0 for c in cmps)
    if n_gt == 0:
        return 1
    if n_gt == 2 or (n_gt == 1 and n_eq == 1):
        return 2
    raise InconsistentCaseError("simple-roots pattern matches no row")


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
    assert nature.total_multiplicity() == 4
    return nature


def table3_facts_hold(m: MonicQuartic, case_id: int) -> bool:
    """Check the (lam0, g(lam0)) facts implied by the classified case."""
    cubic = pencil_coeffs(m)
    lam0 = critical_param(cubic)
    tau = m.a3**2 / 4
    if not lam0.is_real:
        return case_id == 3
    slack = sign_of(lam0.value - tau)
    value = sign_of(g_eval(cubic, lam0.value))
    facts = {
        1: slack < 0 and value > 0,
        2: slack > 0 and value > 0,
        3: slack < 0 or (slack >= 0 and value < 0),
        4: slack < 0 and value >= 0,
        5: slack > 0 and value == 0,
        6: slack == 0 and value == 0,
        7: slack > 0 and value > 0,
        8: slack < 0 and value == 0,
        9: slack == 0 and value == 0,
    }
    return facts[case_id]


def degenerate_conic_type(mat: Sym3Matrix) -> str:
    """Type of a singular member: "real-line-pair", "conjugate-line-pair",
    or "repeated-line" (rank 1; necessarily real here since m11 = 1 > 0)."""
    rank = mat.rank()
    if rank >= 3:
        raise ValueError("matrix is not degenerate")
    if rank <= 1:
        return "repeated-line"
    if all(sign_of(minor) >= 0 for minor in mat.principal_minors()):
        return "conjugate-line-pair"
    return "real-line-pair"


# -- numeric circle oracle (advisory only) ----------------------------------

_BASIS_CACHE: dict[int, tuple[np.ndarray, ...]] = {}


def _circle_basis(n: int) -> tuple[np.ndarray, ...]:
    basis = _BASIS_CACHE.get(n)
    if basis is None:
        theta = np.linspace(0.0, math.pi, n, endpoint=False)
        c, s = np.cos(theta), np.sin(theta)
        basis = (theta, c**4, c**3 * s, c**2 * s**2, c * s**3, s**4)
        _BASIS_CACHE[n] = basis
    return basis


def circle_min_estimate_plain(coeffs, n: int) -> tuple[float, float]:
    """Sampled-and-refined minimum of the form on the unit circle.

    Float-only sanity oracle: minima living in dips narrower than the
    sample spacing can be missed, which is why it never decides anything.
    Returns (min value, argmin angle).
    """
    if n < 8:
        raise ValueError("need at least 8 samples")
    e4, e3, e2, e1, e0 = (float(c) for c in coeffs)
    theta, p40, p31, p22, p13, p04 = _circle_basis(n)
    vals = e4 * p40 + e3 * p31 + e2 * p22 + e1 * p13 + e0 * p04

    def f(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        c2, s2 = c * c, s * s
        return e4 * c2 * c2 + e3 * c2 * c * s + e2 * c2 * s2 + e1 * c * s2 * s + e0 * s2 * s2

    left = np.roll(vals, 1)  # f has period pi, so the wrap-around is valid
    right = np.roll(vals, -1)
    local = np.nonzero((vals <= left) & (vals <= right))[0]
    order = local[np.argsort(vals[local])]
    candidates = list(order[:8])
    gmin = int(np.argmin(vals))
    if gmin not in candidates:
        candidates.append(gmin)

    spacing = math.pi / n
    best_val, best_arg = math.inf, 0.0
    for idx in candidates:
        t0 = float(theta[idx])
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


def witness_search(m: MonicQuartic) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Two rational points with f > 0 and f < 0, for an indefinite form.

    (1, 0) always evaluates to 1 for a monic form.  The negative point is
    proposed in floats and accepted in exact arithmetic: an indefinite
    monic form has a negative global minimum of p(t) = f(t, 1), attained at
    a real critical point, so `_critical_point_witness` rounds those points
    to short dyadic rationals and keeps the first one whose exact value is
    negative.  When none is (a dip narrower than float resolution, a
    near-double critical point, coefficients beyond the float range),
    `_sturm_witness` finds the point by exact root isolation.  Raises
    ValueError if the form is not indefinite.
    """
    t = _critical_point_witness(m)
    if t is None:
        t = _sturm_witness(m)
    return (Fraction(1), Fraction(0)), (t, Fraction(1))


def _critical_point_witness(m: MonicQuartic) -> Fraction | None:
    """A rational t with exact f(t, 1) < 0 near a float critical point, or None."""
    try:
        a3, a2, a1, a0 = float(m.a3), float(m.a2), float(m.a1), float(m.a0)
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

    # lcm den^4 p(n / den) = lcm n^4 + c3 n^3 den + c2 n^2 den^2 + c1 n den^3
    # + c0 den^4 with integers ci = lcm ai, so integers decide the sign
    lcm = math.lcm(m.a3.denominator, m.a2.denominator, m.a1.denominator, m.a0.denominator)
    c3, c2, c1, c0 = (a.numerator * (lcm // a.denominator) for a in (m.a3, m.a2, m.a1, m.a0))
    for _, x in ranked:
        for n, den in _dyadic_ratios(x):
            den2 = den * den
            if (((lcm * n + c3 * den) * n + c2 * den2) * n + c1 * den2 * den) * n + c0 * den2 * den2 < 0:
                return Fraction(n, den)
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
    """Exact fallback: a negative point of f(t, 1) found by sampling every
    gap between its Sturm-isolated real roots (the negative set is a union
    of such gaps)."""
    poly = pr.make_poly(m.dehomogenized())
    for t in _root_gap_samples(poly):
        if sign_of(pr.evaluate(poly, t)) < 0:
            return t
    raise ValueError("form takes no negative value: not indefinite")


def _root_gap_samples(poly: pr.Poly) -> list[Fraction]:
    """Rational sample points: one strictly between each pair of consecutive
    real roots of poly, plus one beyond each extreme root."""
    exact, isolated = _real_root_brackets(pr.squarefree_part(poly))
    isolated = [_shrink_away(iso, exact) for iso in isolated]

    # brackets (lo, hi) per root, degenerate for the exactly-hit roots
    brackets = [(r, r) for r in exact] + [(iso.lo, iso.hi) for iso in isolated]
    brackets.sort()
    if not brackets:
        return [Fraction(0)]
    samples = [brackets[0][0] - 1]
    for (_, hi), (lo2, _) in zip(brackets, brackets[1:]):
        samples.append((hi + lo2) / 2)
    samples.append(brackets[-1][1] + 1)
    return samples


def _real_root_brackets(
    sf: pr.Poly,
) -> tuple[list[Fraction], list[IsolatedRoot]]:
    """All distinct real roots of a squarefree polynomial, without any
    rational-root extraction: Sturm bisection isolates them, and the rare
    midpoint that lands exactly on a (necessarily rational) root is
    recorded and deflated away before re-isolating."""
    exact: list[Fraction] = []
    while pr.degree(sf) >= 1:
        chain = pr.sturm_chain(sf)
        bound = pr.cauchy_root_bound(sf)
        total = pr.variations_at(chain, -bound) - pr.variations_at(chain, bound)
        intervals: list[IsolatedRoot] = []
        stack = [(-bound, bound, total)]
        hit: Fraction | None = None
        while stack:
            lo, hi, count = stack.pop()
            if count == 0:
                continue
            if count == 1:
                intervals.append(IsolatedRoot(sf, lo, hi))
                continue
            mid = (lo + hi) / 2
            if pr.evaluate(sf, mid) == 0:
                hit = mid
                break
            left = pr.variations_at(chain, lo) - pr.variations_at(chain, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, count - left))
        if hit is None:
            intervals.sort(key=lambda r: r.lo)
            return exact, pr.make_disjoint(intervals)
        exact.append(hit)
        sf, rem = pr.poly_divmod(sf, pr.make_poly([-hit, Fraction(1)]))
        assert not rem
    return exact, []


def _shrink_away(iso: IsolatedRoot, points: list[Fraction]) -> IsolatedRoot:
    # strict separation, else a gap midpoint could coincide with a root
    while any(iso.lo <= p <= iso.hi for p in points):
        iso = iso.refined((iso.hi - iso.lo) / 2)
    return iso
