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

`lam0_test` is the decision kernel: it reads the form's integer pencil
invariants (`MonicQuartic.invariants`, computed once per form) and settles
the two sign tests on lam0 with two signs of the shape a + b sqrt(D), each
taken by `exactnum.surd_sign`; its record is those two signs, and it is
the one place they are taken.  `classifier.classify_case` reads the
nine-case classification off the same integers.  The closed forms of
lam0, g(lam0) and M(lam0) over Z[sqrt(D)] have one home, `lam0_surds`,
taken once per form and kept on it, with one converter to Q(sqrt(d)),
`surd_parts`: `lam0_minor_signs` and the command line's report read that
tuple, and `lam0_matrix` builds a certificate from six of its entries, or
from six entries of the same shape of a form with e4 = 0
(`positivity.degenerate_entries`).  The Q(sqrt(d)) route
(`critical_param`, `g_eval`, `pencil_matrix`) builds the same values by
field arithmetic; it serves the tests, the demos and M(lam) at any other
lam, and is the reference the integer route is tested against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .exactnum import _ZERO, QuadExt, as_fraction, clear_surds, sign_of, surd_sign
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
    "critical_param",
    "lam0_surds",
    "surd_parts",
    "lam0_test",
    "lam0_matrix",
    "lam0_minor_signs",
    "discriminant_g",
    "boundary_identity_check",
]

Scalar = Fraction | QuadExt


class PencilCubic(Record):
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


class Sym3Matrix(Record):
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
        """Signs of the seven `principal_minors`, in their order, in integers:
        the minors of the matrix L m_ij = a + b sqrt(N) of `clear_surds`,
        L > 0, are L, L^2 and L^3 times these (`_minor_signs`)."""
        parts, n, _ = clear_surds(self.m11, self.m12, self.m13, self.m22, self.m23, self.m33)
        return _minor_signs(*parts, n)

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


def _minor_signs(m11, m12, m13, m22, m23, m33, n: int) -> tuple[int, ...]:
    """Signs of the seven principal minors, in the order of
    `Sym3Matrix.principal_minors`, of the symmetric matrix whose entries
    a + b sqrt(n) of Z[sqrt(n)] start with (a, b): pairs of `clear_surds`
    or triples (a, b, den) of `lam0_surds`.  The cofactors c1j of the first
    row and det = m11 c11 - m12 c12 + m13 c13 are local integers."""
    a11, b11, a12, b12, a13, b13 = m11[0], m11[1], m12[0], m12[1], m13[0], m13[1]
    a22, b22, a23, b23, a33, b33 = m22[0], m22[1], m23[0], m23[1], m33[0], m33[1]
    c11a = a22 * a33 - a23 * a23 + (b22 * b33 - b23 * b23) * n
    c11b = a22 * b33 + b22 * a33 - 2 * a23 * b23
    c12a = a12 * a33 - a23 * a13 + (b12 * b33 - b23 * b13) * n
    c12b = a12 * b33 + b12 * a33 - a23 * b13 - b23 * a13
    c13a = a12 * a23 - a22 * a13 + (b12 * b23 - b22 * b13) * n
    c13b = a12 * b23 + b12 * a23 - a22 * b13 - b22 * a13
    det_a = a11 * c11a - a12 * c12a + a13 * c13a + (b11 * c11b - b12 * c12b + b13 * c13b) * n
    det_b = a11 * c11b + b11 * c11a - a12 * c12b - b12 * c12a + a13 * c13b + b13 * c13a
    return (surd_sign(a11, b11, n), surd_sign(a22, b22, n), surd_sign(a33, b33, n),
            surd_sign(a11 * a22 - a12 * a12 + (b11 * b22 - b12 * b12) * n,
                      a11 * b22 + b11 * a22 - 2 * a12 * b12, n),
            surd_sign(a11 * a33 - a13 * a13 + (b11 * b33 - b13 * b13) * n,
                      a11 * b33 + b11 * a33 - 2 * a13 * b13, n),
            surd_sign(c11a, c11b, n), surd_sign(det_a, det_b, n))


class CriticalParam(Record):
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


def critical_param(p: PencilCubic) -> CriticalParam:
    d = p.radicand
    if d < 0:
        return CriticalParam(radicand=d, value=None)
    # QuadExt collapses to a plain rational automatically when d is a square
    value = QuadExt(Fraction(4, 3) * p.b2, Fraction(2, 3), d)
    return CriticalParam(radicand=d, value=value)


# (a, b, den): the number (a + b sqrt(D)) / den, D the pencil invariant of a form
Surd = tuple[int, int, int]


def lam0_surds(m: MonicQuartic) -> tuple[Surd, Surd, tuple[Surd, ...]]:
    """lam0, g(lam0) and the entries (m11, m12, m13, m22, m23, m33) of
    M(lam0) from the form's `cleared` record and `invariants`, the one home
    of these closed forms: lam0 = (4 e2 + 2 sqrt(D)) / (6 e4), which is m22
    too, g(lam0) = (Rn + 2 D sqrt(D)) / (108 e4^3), and the entries of
    6 e4 M(lam0), 6 e4, 3 e3, e2 - sqrt(D), 4 e2 + 2 sqrt(D), 3 e1 and 6 e0,
    over 6 e4.  When D < 0 only the radicand of lam0 is read.  The tuple of
    the first call is kept on the form, and every later call returns it."""
    surds = m.__dict__.get("_lam0_surds")
    if surds is None:
        e4, e3, e2, e1, e0 = m.cleared
        _, _, disc, _, rn = m.invariants
        den = 6 * e4
        lam0 = (4 * e2, 2, den)
        surds = m.__dict__["_lam0_surds"] = lam0, (rn, 2 * disc, 108 * e4 * e4 * e4), (
            (den, 0, den), (3 * e3, 0, den), (e2, -1, den), lam0, (3 * e1, 0, den),
            (6 * e0, 0, den))
    return surds


def surd_parts(m: MonicQuartic, a: int, b: int,
               den: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The parts of (a + b sqrt(D)) / den = p + q sqrt(d) as integer ratios:
    p = a / den, q = 2 b e4 / den and d = D / (4 e4^2), as sqrt(D) =
    2 e4 sqrt(d).  When D is a square the value folds to the rational p
    and q = 0; d is the form's radicand either way."""
    e4, _, disc, _, _ = m.invariants
    d = (disc, 4 * e4 * e4)
    root = m.root
    if root is not None:
        return (a + b * root, den), (0, 1), d
    return (a, den), (2 * b * e4, den), d


Lam0Test = namedtuple("Lam0Test", "slack value")
Lam0Test.__doc__ = """The two sign tests on lam0: `slack` is the sign of lam0 - a3^2/4 and
    `value` that of g(lam0), both None when lam0 is not real (d < 0)."""


# the ten records, built once: _LAM0_TESTS[slack][value] is Lam0Test(slack,
# value) for signs in {-1, 0, 1}, as the index -1 reads the last entry
_NOT_REAL = Lam0Test(None, None)
_LAM0_TESTS = tuple(tuple(Lam0Test(slack, value) for value in (0, 1, -1)) for slack in (0, 1, -1))


def lam0_test(m: MonicQuartic) -> Lam0Test:
    """The sign tests of lam0 - a3^2/4 and g(lam0) in integer arithmetic,
    the one place they are taken.

    With e4 the lcm of the denominators of m and ei = e4 ai integers,

        d = D / (4 e4^2),    D = 12 e0 e4 - 3 e1 e3 + e2^2,
        lam0 - a3^2/4 = ((8 e2 e4 - 3 e3^2) + 4 e4 sqrt(D)) / (12 e4^2),
        g(lam0) = (R + 4 d sqrt(d)) / 27 = (Rn + 2 D sqrt(D)) / (108 e4^3),

    where R = 27 b0 + 36 b1 b2 + 32 b2^3 = Rn / (4 e4^3) with
    Rn = 27 N0 + 18 N1 e2 + 16 e2^3, N1 = 4 e0 e4 - e2^2 - e1 e3 and
    N0 = -e1^2 e4 + e1 e2 e3 - e0 e3^2 (so b1 = N1 / (4 e4^2) and
    b0 = N0 / (4 e4^3)).  Since e4 > 0 both signs are signs of integers
    a + b sqrt(D).  These integers (e4, e2, D, A = 8 e2 e4 - 3 e3^2, Rn)
    are the form's `invariants`, computed once per form.  The exact lam0
    and g(lam0) are not built: `lam0_surds` holds them in integers, and
    `critical_param` and `g_eval` build them in Q(sqrt(d)).
    """
    e4, _, disc, a, rn = m.invariants
    if disc < 0:
        return _NOT_REAL
    return _LAM0_TESTS[surd_sign(a, 4 * e4, disc)][surd_sign(rn, 2 * disc, disc)]


# the parts that every M(lam0) shares, built once: m11 = 1, and q = b/3 of its
# two entries with b != 0 over 6 e4, lam0 (b = 2) and m13 (b = -1)
_ONE, _Q_OF_B = Fraction(1), {2: Fraction(2, 3), -1: Fraction(-1, 3)}


def lam0_matrix(entries: tuple[Surd, ...], m: MonicQuartic | None = None) -> Sym3Matrix:
    """The matrix of six entries (a, b, den) of m, as `lam0_surds` gives
    them: Fraction(a, den) where b = 0 (m is then not read), else the
    QuadExt p + q sqrt(d) of `surd_parts`, its d built once per matrix.
    M(lam0) so built equals `pencil_matrix` at lam0 in value and type."""
    values, d = [], None
    for a, b, den in entries:
        if not b:
            values.append(_ONE if a == den else Fraction(a, den))
            continue
        p, q, d_ratio = surd_parts(m, a, b, den)
        d = d or Fraction(*d_ratio)
        # q = 0 when D is a square: the value is the rational p, and d is not kept
        values.append(QuadExt._normalised(Fraction(*p), _Q_OF_B[b] if q[0] else _ZERO, d))
    return Sym3Matrix(*values)


def lam0_minor_signs(m: MonicQuartic) -> tuple[int, ...]:
    """Signs of the seven principal minors of M(lam0), in the order of
    `Sym3Matrix.principal_minors`, for a form with real lam0, read off the
    integer matrix 6 e4 M(lam0) over Z[sqrt(D)] of `lam0_surds`."""
    disc = m.invariants[2]
    if disc < 0:
        raise ValueError("lam0 is not real")
    return _minor_signs(*lam0_surds(m)[2], disc)


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
