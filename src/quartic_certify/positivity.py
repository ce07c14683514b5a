"""Definiteness decisions with verifiable matrix certificates.

The decision for a monic form is two exact sign tests on lam0:

    PSD  iff  lam0 >= a3^2/4  and  g(lam0) >= 0,
    PD   iff  lam0 >  a3^2/4  and  g(lam0) >  0,

with a non-real lam0 (d < 0) immediately indefinite.  `pencil.lam0_test`
settles both with two signs of a + b sqrt(D), each taken by
`exactnum.surd_sign`, from the form's integer pencil invariants, and the
verdict carries that kernel record (the two signs, with lam0 and g(lam0)
as views) for the report.  The integers and the two signs are all the
decision computes: the verdict's exact values are views of them, built on
first read.  Whenever the verdict is PSD or PD the matrix M(lam0) is its
certificate, `pencil.lam0_matrix`, read from `pencil.lam0_surds`, the one
home of the closed forms of lam0, g(lam0) and M(lam0).  It is positive
(semi)definite exactly when the form is, and it reproduces the form
through the Veronese representation, so a verifier needs nothing but
Sylvester's criterion and a matrix-vector product.  Otherwise the verdict's
witnesses are two points of opposite sign, from
`classifier.witness_search`.  The equivalent Sylvester-based test is kept
as `sylvester_pd`/`sylvester_psd` for cross-checking: it takes the
principal minor signs of a matrix over Z[sqrt(N)]
(`Sym3Matrix.principal_minor_signs`, or for M(lam0) of a form
`pencil.lam0_minor_signs`), arithmetic independent of the two sign tests,
and never decides the user-facing verdict.

Negative-side problems arrive here already sign-flipped to monic positive
side (see forms.from_plain_coeffs); `decide_negative_side` maps the classes
back by `Definiteness.flipped`, the one map between the two sides.  Forms
with vanishing leading coefficient get the dedicated
`decide_degenerate_leading` treatment since they can never be PD but may
still be semidefinite; its cubic witnesses are checked on the input record
(`NormalizedProblem.input_record`, or the form cleared once), by the
integer Horner of `forms`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import classifier
# sign_of stays bound for bench/spans.py to wrap
from .exactnum import as_fraction, sign_of  # noqa: F401
from .forms import (
    MonicQuartic,
    NormalizedProblem,
    Orientation,
    _View,
    clear_denominators,
    quartic_horner,
)
# critical_param, g_eval, pencil_coeffs and pencil_matrix stay bound for
# bench/spans.py to wrap
from .pencil import (  # noqa: F401
    Lam0Test,
    Sym3Matrix,
    critical_param,
    g_eval,
    lam0_matrix,
    lam0_test,
    pencil_coeffs,
    pencil_matrix,
)

__all__ = [
    "Definiteness",
    "Verdict",
    "sylvester_pd",
    "sylvester_psd",
    "signs_pd",
    "signs_psd",
    "decide_monic",
    "decide_negative_side",
    "decide_degenerate_leading",
    "decide_problem",
]


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    POSITIVE_SEMIDEFINITE = "positive-semidefinite-not-definite"
    INDEFINITE = "indefinite"
    NEGATIVE_DEFINITE = "negative-definite"
    NEGATIVE_SEMIDEFINITE = "negative-semidefinite-not-definite"
    ZERO = "identically-zero"

    def flipped(self) -> Definiteness:
        """The class of -f for a form f of this class: PD <-> ND and
        PSD <-> NSD; the indefinite and the zero class are their own."""
        return _FLIPPED.get(self, self)


_FLIPPED = {
    Definiteness.POSITIVE_DEFINITE: Definiteness.NEGATIVE_DEFINITE,
    Definiteness.NEGATIVE_DEFINITE: Definiteness.POSITIVE_DEFINITE,
    Definiteness.POSITIVE_SEMIDEFINITE: Definiteness.NEGATIVE_SEMIDEFINITE,
    Definiteness.NEGATIVE_SEMIDEFINITE: Definiteness.POSITIVE_SEMIDEFINITE,
}

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a definiteness decision.

    `certificate` is present for every verdict in {PD, PSD, ND, NSD, ZERO};
    it is always the positive-semidefinite Gram matrix of the decided
    (positive-side) problem, so for negative-side classes the certified
    matrix of the original form is its negation.  `witnesses` accompanies
    every indefinite verdict: two rational points where the decided form is
    exactly positive and exactly negative.

    `kernel` is the record of `pencil.lam0_test` that made the decision:
    lam0, g(lam0) and the two signs, for reports and cross-checks to reuse;
    a degenerate-leading form has no pencil and leaves it None.  A verdict
    on a monic form builds its certificate, or its witnesses, on first read.
    """

    classification: Definiteness
    certificate: Sym3Matrix | None = _View(lambda v: lam0_matrix(v.kernel), None)
    witnesses: tuple[Point, Point] | None = _View(
        lambda v: classifier.witness_search(v._form), None)
    kernel: Lam0Test | None = None


def sylvester_pd(mat: Sym3Matrix) -> bool:
    """Positive definite iff all three leading principal minors are > 0."""
    return signs_pd(mat.principal_minor_signs)


def sylvester_psd(mat: Sym3Matrix) -> bool:
    """Positive semidefinite iff all seven principal minors are >= 0."""
    return signs_psd(mat.principal_minor_signs)


def signs_pd(signs: tuple[int, ...]) -> bool:
    """Sylvester's criterion on the seven principal minor signs, in the
    order of `Sym3Matrix.principal_minors`: the three leading ones > 0."""
    return signs[0] > 0 and signs[3] > 0 and signs[6] > 0


def signs_psd(signs: tuple[int, ...]) -> bool:
    """All seven principal minor signs >= 0.

    Leading minors alone do not suffice for semidefiniteness, e.g.
    diag(1, 0, -1) has leading minors 1, 0, 0.
    """
    return all(sign >= 0 for sign in signs)


def decide_monic(m: MonicQuartic) -> Verdict:
    return _decide_monic(m, flip=False)


def decide_negative_side(m: MonicQuartic) -> Verdict:
    """Decide the sign-flipped monic form of a negative-leading quartic and
    map its class back by `Definiteness.flipped`.  The certificate stays the
    PSD matrix of the flipped form (its negation certifies the original)."""
    return _decide_monic(m, flip=True)


def _decide_monic(m: MonicQuartic, flip: bool) -> Verdict:
    """The verdict on m, its class flipped when `flip` is set, from the
    kernel's two signs alone."""
    kernel = lam0_test(m)
    semidefinite = m.invariants[2] >= 0 and kernel.slack >= 0 and kernel.value >= 0
    if semidefinite:
        cls = (Definiteness.POSITIVE_DEFINITE if kernel.slack > 0 and kernel.value > 0
               else Definiteness.POSITIVE_SEMIDEFINITE)
    else:
        cls = Definiteness.INDEFINITE
    verdict = object.__new__(Verdict)
    # the certificate of a semidefinite form, or the witnesses of an
    # indefinite one, is built on first read
    verdict.__dict__.update({"witnesses" if semidefinite else "certificate": None},
                            classification=cls.flipped() if flip else cls,
                            kernel=kernel, _form=m)
    return verdict


_ZERO = Fraction(0)


def decide_degenerate_leading(e3, e2, e1, e0) -> Verdict:
    """Decide f = y * (e3 x^3 + e2 x^2 y + e1 x y^2 + e0 y^3).

    f(1, 0) = 0 rules out PD and ND.  A cubic factor in x forces a sign
    change, so semidefiniteness requires e3 = 0, in which case f = y^2 * q
    with q = e2 x^2 + e1 x y + e0 y^2 and the verdict is that of the
    quadratic form q; its Gram matrix embeds as a certificate on the
    squared-monomial basis.
    """
    return _decide_degenerate((e3, e2, e1, e0), None)


def _decide_degenerate(coeffs, record) -> Verdict:
    """`decide_degenerate_leading` of coeffs = (e3, e2, e1, e0); `record` is
    `clear_denominators(0, e3, e2, e1, e0)`, or None to clear them here."""
    e3, e2, e1, e0 = map(as_fraction, coeffs)
    if record is None:
        record = clear_denominators(0, e3, e2, e1, e0)
    # (L, 0, k3, k2, k1, k0) with L > 0 and ki = L ei: the ki have the signs
    # of the ei, and k1^2 - 4 k2 k0 that of the discriminant e1^2 - 4 e2 e0
    big, _, k3, k2, k1, k0 = record
    if not (k3 or k2 or k1 or k0):
        return Verdict(Definiteness.ZERO, certificate=Sym3Matrix(*[_ZERO] * 6))
    if k3:
        return Verdict(Definiteness.INDEFINITE, witnesses=_cubic_sign_witnesses(record))
    if k1 * k1 <= 4 * k2 * k0:
        if k2 >= 0 and k0 >= 0:
            return Verdict(Definiteness.POSITIVE_SEMIDEFINITE, certificate=Sym3Matrix(
                _ZERO, _ZERO, _ZERO, e2, Fraction(k1, 2 * big), e0))
        if k2 <= 0 and k0 <= 0:
            return Verdict(Definiteness.NEGATIVE_SEMIDEFINITE, certificate=Sym3Matrix(
                _ZERO, _ZERO, _ZERO, -e2, Fraction(-k1, 2 * big), -e0))
    return Verdict(
        Definiteness.INDEFINITE, witnesses=_quadratic_sign_witnesses(e2, e1, e0)
    )


def _cubic_sign_witnesses(record) -> tuple[Point, Point]:
    # odd degree in x: f(t, 1) follows sign(e3 * t^3) for large |t|; the
    # integer L f(t, 1) of the form's record (L, 0, k3, k2, k1, k0) has the
    # sign of f(t, 1), and k3 = L e3 that of e3
    _, _, k3, k2, k1, k0 = record

    def value(t: int) -> int:
        return quartic_horner(0, k3, k2, k1, k0, t, 1)

    t = 1
    while value(t) * k3 <= 0:
        t *= 2
    s = -1
    while value(s) * k3 >= 0:
        s *= 2
    pos, neg = ((Fraction(t), Fraction(1)), (Fraction(s), Fraction(1)))
    if k3 < 0:
        pos, neg = neg, pos
    return pos, neg


def _quadratic_sign_witnesses(e2, e1, e0) -> tuple[Point, Point]:
    # q = e2 x^2 + e1 xy + e0 y^2 indefinite; f = y^2 q shares signs at y = 1
    def value(t: Fraction) -> Fraction:
        return e2 * t**2 + e1 * t + e0

    one = Fraction(1)
    if e2 != 0:
        vertex = -e1 / (2 * e2)
        extreme = value(vertex)  # opposite sign to e2 since disc > 0
        far = vertex + max(Fraction(1), abs(vertex)) * 4
        while value(far) * e2 <= 0:
            far *= 2
        if e2 > 0:
            return (far, one), (vertex, one)
        return (vertex, one), (far, one)
    if e1 == 0:  # q = e0 y^2 has one sign
        raise ValueError("quadratic form is not indefinite")
    # e2 = 0: linear in t, and |e1 t| = |e0| + 1 outweighs e0
    t = (abs(e0) + 1) / e1
    return (t, one), (-t, one)


def decide_problem(problem: NormalizedProblem) -> Verdict:
    """Route a normalised problem to the right decision procedure."""
    if problem.degenerate_leading:
        if problem.degenerate_coeffs is None:
            raise ValueError("degenerate-leading problem without its coefficients")
        return _decide_degenerate(problem.degenerate_coeffs, problem.input_record)
    if problem.form is None:
        raise ValueError("problem has neither a form nor degenerate coefficients")
    if problem.orientation is Orientation.NEGATIVE_SIDE:
        return decide_negative_side(problem.form)
    return decide_monic(problem.form)
