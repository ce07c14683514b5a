"""The conic pencil attached to a monic quartic form.

A monic quartic f factors through the Veronese map as
f(x, y) = [x^2, xy, y^2] . M(lam) . [x^2, xy, y^2]^T for every lam, where
M(lam) = A1 + lam * A2 is a one-parameter family of symmetric 3x3 matrices.
Its determinant is the cubic

    g(lam) = -1/4 lam^3 + b2 lam^2 + b1 lam + b0,

    b0 = (-a1^2 + a1 a2 a3 - a0 a3^2) / 4,
    b1 = (4 a0 - a2^2 - a1 a3) / 4,
    b2 = a2 / 2,

and the distinguished parameter lam0 = (4 b2 + 2 sqrt(3 b1 + 4 b2^2)) / 3
is the larger stationary point of g.  lam0 lives in Q(sqrt(d)) with
d = 3 b1 + 4 b2^2; when d < 0 it is not real, which already settles the
definiteness question (see the positivity module).

`lam0_test` is the decision kernel: it reads the form's integer record
(`MonicQuartic.cleared`) and settles the two sign tests on lam0 with
integer products and two signs of the shape a + b sqrt(D), each taken by
`exactnum.surd_sign`;
`classifier.classify_case` reads the nine-case classification off the
same integers (`_invariants`).  The Q(sqrt(d)) route (`critical_param`,
`g_eval`, `pencil_matrix`) builds the same values by field arithmetic; it
serves the certificate and the cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactnum import MismatchedRadicandError, QuadExt, as_fraction, sign_of, surd_sign
from .forms import MonicQuartic

__all__ = [
    "PencilCubic",
    "Sym3Matrix",
    "CriticalParam",
    "Lam0Test",
    "pencil_coeffs",
    "base_matrices",
    "pencil_matrix",
    "g_eval",
    "g_prime_eval",
    "critical_param",
    "lam0_test",
    "discriminant_g",
    "boundary_identity_check",
]

Scalar = Fraction | QuadExt


@dataclass(frozen=True)
class PencilCubic:
    """Coefficients (b0, b1, b2) of g(lam) = -1/4 lam^3 + b2 lam^2 + b1 lam + b0."""

    b0: Fraction
    b1: Fraction
    b2: Fraction

    def __post_init__(self) -> None:
        for name in ("b0", "b1", "b2"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    @property
    def radicand(self) -> Fraction:
        return 3 * self.b1 + 4 * self.b2**2

    def as_poly(self) -> tuple[Fraction, ...]:
        """Low-to-high coefficient tuple of g."""
        return (self.b0, self.b1, self.b2, Fraction(-1, 4))


@dataclass(frozen=True)
class Sym3Matrix:
    """Symmetric 3x3 matrix over exact scalars; upper triangle stored.

    `principal_minor_signs` gives the signs of the seven principal minors,
    computed once per matrix in integer arithmetic over Z[sqrt(N)];
    `principal_minors` and `det` build the same minors in Q(sqrt(d)).
    """

    m11: Scalar
    m12: Scalar
    m13: Scalar
    m22: Scalar
    m23: Scalar
    m33: Scalar

    def rows(self) -> tuple[tuple[Scalar, Scalar, Scalar], ...]:
        return (
            (self.m11, self.m12, self.m13),
            (self.m12, self.m22, self.m23),
            (self.m13, self.m23, self.m33),
        )

    def det(self) -> Scalar:
        return (
            self.m11 * (self.m22 * self.m33 - self.m23 * self.m23)
            - self.m12 * (self.m12 * self.m33 - self.m23 * self.m13)
            + self.m13 * (self.m12 * self.m23 - self.m22 * self.m13)
        )

    def principal_minors(self) -> tuple[Scalar, ...]:
        """All seven principal minors: 1x1, 2x2, then the determinant."""
        return (
            self.m11,
            self.m22,
            self.m33,
            self.m11 * self.m22 - self.m12 * self.m12,
            self.m11 * self.m33 - self.m13 * self.m13,
            self.m22 * self.m33 - self.m23 * self.m23,
            self.det(),
        )

    @cached_property
    def principal_minor_signs(self) -> tuple[int, ...]:
        """Signs of the seven `principal_minors`, in their order, in integers.

        The irrational entries share one radicand d = n/m, and
        sqrt(d) = sqrt(N)/m with N = n m.  One lcm L of the denominators of
        the twelve rationals p and q/m turns each entry p + q sqrt(d) into
        L (p + q sqrt(d)) = a + b sqrt(N) with integers a and b; the minors
        of that matrix are L, L^2 and L^3 times those of this one, so they
        have the same signs, each taken by `surd_sign`.
        """
        radicand = Fraction(0)
        parts = []
        for entry in (self.m11, self.m12, self.m13, self.m22, self.m23, self.m33):
            if isinstance(entry, QuadExt):
                if entry.q:
                    if radicand and entry.d != radicand:
                        raise MismatchedRadicandError(
                            f"cannot combine sqrt({radicand}) with sqrt({entry.d})")
                    radicand = entry.d
                parts.append((entry.p, entry.q))
            else:
                parts.append((entry, 0))
        m = radicand.denominator
        n = radicand.numerator * m
        big = math.lcm(*(p.denominator for p, _ in parts),
                       *(q.denominator * m for _, q in parts if q))
        m11, m12, m13, m22, m23, m33 = (
            (p.numerator * (big // p.denominator),
             q.numerator * (big // (q.denominator * m)) if q else 0)
            for p, q in parts
        )

        def minor(x, y, z, w):  # x y - z w, with (a, b) = a + b sqrt(N)
            return (x[0] * y[0] + x[1] * y[1] * n - z[0] * w[0] - z[1] * w[1] * n,
                    x[0] * y[1] + x[1] * y[0] - z[0] * w[1] - z[1] * w[0])

        c11 = minor(m22, m33, m23, m23)
        c12 = minor(m12, m33, m23, m13)
        c13 = minor(m12, m23, m22, m13)
        first = minor(m11, c11, m12, c12)
        det = (first[0] + m13[0] * c13[0] + m13[1] * c13[1] * n,
               first[1] + m13[0] * c13[1] + m13[1] * c13[0])
        return tuple(surd_sign(a, b, n) for a, b in (
            m11, m22, m33, minor(m11, m22, m12, m12), minor(m11, m33, m13, m13), c11, det))

    def two_by_two_minors(self) -> tuple[Scalar, ...]:
        """All nine 2x2 minors; rank <= 1 iff every one vanishes."""
        r = self.rows()
        out = []
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    for l in range(k + 1, 3):
                        out.append(r[i][k] * r[j][l] - r[i][l] * r[j][k])
        return tuple(out)

    def rank(self) -> int:
        if self.principal_minor_signs[6] != 0:
            return 3
        if any(sign_of(m) != 0 for m in self.two_by_two_minors()):
            return 2
        if any(sign_of(e) != 0 for e in (self.m11, self.m12, self.m13,
                                         self.m22, self.m23, self.m33)):
            return 1
        return 0

    def form_value(self, x, y) -> Scalar:
        """[x^2, xy, y^2] . M . [x^2, xy, y^2]^T."""
        x, y = as_fraction(x), as_fraction(y)
        v = (x * x, x * y, y * y)
        r = self.rows()
        total: Scalar = Fraction(0)
        for i in range(3):
            for j in range(3):
                total = total + r[i][j] * v[i] * v[j]
        return total

    def negated(self) -> Sym3Matrix:
        return Sym3Matrix(-self.m11, -self.m12, -self.m13,
                          -self.m22, -self.m23, -self.m33)


@dataclass(frozen=True)
class CriticalParam:
    """lam0 when real (exactly, in Q(sqrt(d))), or the marker that it is not."""

    radicand: Fraction
    value: QuadExt | None

    @property
    def is_real(self) -> bool:
        return self.value is not None


def pencil_coeffs(m: MonicQuartic) -> PencilCubic:
    a3, a2, a1, a0 = m.a3, m.a2, m.a1, m.a0
    return PencilCubic(
        (-(a1**2) + a1 * a2 * a3 - a0 * a3**2) / 4,
        (4 * a0 - a2**2 - a1 * a3) / 4,
        a2 / 2,
    )


def base_matrices(m: MonicQuartic) -> tuple[Sym3Matrix, Sym3Matrix]:
    """(A1, A2) with M(lam) = A1 + lam * A2; A2 is the fixed Veronese conic."""
    half = Fraction(1, 2)
    a1 = Sym3Matrix(Fraction(1), m.a3 * half, m.a2 * half,
                    Fraction(0), m.a1 * half, m.a0)
    a2 = Sym3Matrix(Fraction(0), Fraction(0), -half,
                    Fraction(1), Fraction(0), Fraction(0))
    return a1, a2


def pencil_matrix(m: MonicQuartic, lam: Scalar) -> Sym3Matrix:
    half = Fraction(1, 2)
    return Sym3Matrix(
        Fraction(1),
        m.a3 * half,
        (m.a2 - lam) * half,
        lam,
        m.a1 * half,
        m.a0,
    )


def g_eval(p: PencilCubic, lam: Scalar) -> Scalar:
    """Horner evaluation of g; exact over Q or Q(sqrt(d))."""
    acc: Scalar = Fraction(-1, 4)
    for c in (p.b2, p.b1, p.b0):
        acc = acc * lam + c
    return acc


def g_prime_eval(p: PencilCubic, lam: Scalar) -> Scalar:
    return (Fraction(-3, 4) * lam + 2 * p.b2) * lam + p.b1


def critical_param(p: PencilCubic) -> CriticalParam:
    d = p.radicand
    if d < 0:
        return CriticalParam(radicand=d, value=None)
    # QuadExt collapses to a plain rational automatically when d is a square
    value = QuadExt(Fraction(4, 3) * p.b2, Fraction(2, 3), d)
    return CriticalParam(radicand=d, value=value)


@dataclass(frozen=True)
class Lam0Test:
    """The two sign tests on lam0 and the exact values they read.

    `slack` is the sign of lam0 - a3^2/4 and `value` that of g(lam0); with
    `g_lam0` they are None when lam0 is not real (d < 0).
    """

    lam0: CriticalParam
    g_lam0: QuadExt | None = None
    slack: int | None = None
    value: int | None = None


def lam0_test(m: MonicQuartic) -> Lam0Test:
    """The sign tests of lam0 - a3^2/4 and g(lam0) in integer arithmetic.

    With e4 the lcm of the denominators of m and ei = e4 ai integers,

        d = D / (4 e4^2),    D = 12 e0 e4 - 3 e1 e3 + e2^2,
        lam0 = (2 e2 + sqrt(D)) / (3 e4),
        lam0 - a3^2/4 = ((8 e2 e4 - 3 e3^2) + 4 e4 sqrt(D)) / (12 e4^2),
        g(lam0) = (R + 4 d sqrt(d)) / 27 = (Rn + 2 D sqrt(D)) / (108 e4^3),

    where R = 27 b0 + 36 b1 b2 + 32 b2^3 = Rn / (4 e4^3) with
    Rn = 27 N0 + 18 N1 e2 + 16 e2^3, N1 = 4 e0 e4 - e2^2 - e1 e3 and
    N0 = -e1^2 e4 + e1 e2 e3 - e0 e3^2 (so b1 = N1 / (4 e4^2) and
    b0 = N0 / (4 e4^3)).  Since e4 > 0 both signs are signs of integers
    a + b sqrt(D).  lam0 and g(lam0) are then built in Q(sqrt(d)) for the
    record, equal part for part to `critical_param` and `g_eval`; one
    isqrt(D) folds both to rationals when D is a perfect square.
    """
    e4, e2, disc, a, rn = _invariants(m)
    d = Fraction(disc, 4 * e4 * e4)
    if disc < 0:
        return Lam0Test(CriticalParam(d, None))
    slack, value = _lam0_signs(e4, disc, a, rn)
    g_den = 108 * e4**3
    root = math.isqrt(disc)
    if root * root == disc:
        lam0 = QuadExt._normalised(Fraction(2 * e2 + root, 3 * e4))
        g_lam0 = QuadExt._normalised(Fraction(rn + 2 * disc * root, g_den))
    else:
        lam0 = QuadExt._normalised(Fraction(2 * e2, 3 * e4), Fraction(2, 3), d)
        g_lam0 = QuadExt._normalised(Fraction(rn, g_den), Fraction(disc, 27 * e4 * e4), d)
    return Lam0Test(CriticalParam(d, lam0), g_lam0, slack, value)


def _lam0_signs(e4: int, disc: int, a: int, rn: int) -> tuple[int, int]:
    """(sign of lam0 - a3^2/4, sign of g(lam0)) from `_invariants`, D >= 0."""
    return surd_sign(a, 4 * e4, disc), surd_sign(rn, 2 * disc, disc)


def _invariants(m: MonicQuartic) -> tuple[int, int, int, int, int]:
    """(e4, e2, D, A, Rn): the integer pencil invariants of m.

    e4 > 0 and ei = e4 ai are the form's integer record `m.cleared`; D, Rn
    (from N1 and N0) are as in `lam0_test`, and A = 8 e2 e4 - 3 e3^2, so
    that lam0 - a3^2/4 = (A + 4 e4 sqrt(D)) / (12 e4^2).  When D < 0 every
    caller stops at D, so A and Rn are left as 0 there.
    """
    e4, e3, e2, e1, e0 = m.cleared
    disc = 12 * e0 * e4 - 3 * e1 * e3 + e2 * e2
    if disc < 0:
        return e4, e2, disc, 0, 0
    n1 = 4 * e0 * e4 - e2 * e2 - e1 * e3
    n0 = (e2 * e3 - e1 * e4) * e1 - e0 * e3 * e3
    rn = 27 * n0 + (18 * n1 + 16 * e2 * e2) * e2
    return e4, e2, disc, 8 * e2 * e4 - 3 * e3 * e3, rn


def discriminant_g(p: PencilCubic) -> Fraction:
    """Discriminant of g; negative iff g has a conjugate complex root pair."""
    d = p.radicand
    return (16 * d**3 - (27 * p.b0 + 36 * p.b1 * p.b2 + 32 * p.b2**3) ** 2) / 432


def boundary_identity_check(m: MonicQuartic) -> tuple[Fraction, Fraction]:
    """(g(a3^2/4), -(8 a1 - 4 a2 a3 + a3^3)^2 / 256); always equal."""
    tau = m.a3**2 / 4
    lhs = g_eval(pencil_coeffs(m), tau)
    rhs = -((8 * m.a1 - 4 * m.a2 * m.a3 + m.a3**3) ** 2) / 256
    return lhs, rhs
