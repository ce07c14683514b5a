"""Definiteness decisions with verifiable matrix certificates.

The decision for a monic form is two exact sign tests on lam0:

    PSD  iff  lam0 >= a3^2/4  and  g(lam0) >= 0,
    PD   iff  lam0 >  a3^2/4  and  g(lam0) >  0,

with a non-real lam0 (d < 0) immediately indefinite.  `pencil.lam0_test`
settles both with integer products and two signs of a + b sqrt(D), each
taken by `exactnum.surd_sign`; the verdict carries that kernel record
(lam0 and g(lam0) in Q(sqrt(d)), and the two signs) for the report.
Whenever the verdict is PSD or PD the matrix M(lam0) is emitted as a
certificate, the one place the decision builds it in Q(sqrt(d))
arithmetic: it is positive (semi)definite exactly when the form is, and it
reproduces the form through the Veronese representation, so a verifier
needs nothing but Sylvester's criterion and a matrix-vector product.  The
equivalent Sylvester-based test is kept as `sylvester_pd`/`sylvester_psd`
for cross-checking: it runs on the emitted certificate itself, clearing
its entries to integers over Z[sqrt(N)] with one denominator
(`Sym3Matrix.principal_minor_signs`), arithmetic independent of the
integer sign tests, and never decides the user-facing verdict.

Negative-side problems arrive here already sign-flipped to monic positive
side (see forms.from_plain_coeffs); `decide_negative_side` maps the classes
back by `Definiteness.flipped`, the one map between the two sides.  Forms
with vanishing leading coefficient get the dedicated
`decide_degenerate_leading` treatment since they can never be PD but may
still be semidefinite; its cubic witnesses are checked by
`forms.evaluate_plain`, the integer clearing and Horner of `forms`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

# sign_of stays bound for bench/spans.py to wrap
from .exactnum import as_fraction, sign_of  # noqa: F401
from .forms import MonicQuartic, NormalizedProblem, Orientation, evaluate_plain
# critical_param, g_eval and pencil_coeffs stay bound for bench/spans.py to wrap
from .pencil import (  # noqa: F401
    Lam0Test,
    Sym3Matrix,
    critical_param,
    g_eval,
    lam0_test,
    pencil_coeffs,
    pencil_matrix,
)

__all__ = [
    "Definiteness",
    "Verdict",
    "sylvester_pd",
    "sylvester_psd",
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
    a degenerate-leading form has no pencil and leaves it None.
    """

    classification: Definiteness
    certificate: Sym3Matrix | None = None
    witnesses: tuple[Point, Point] | None = None
    kernel: Lam0Test | None = None


def sylvester_pd(mat: Sym3Matrix) -> bool:
    """Positive definite iff all three leading principal minors are > 0."""
    signs = mat.principal_minor_signs
    return signs[0] > 0 and signs[3] > 0 and signs[6] > 0


def sylvester_psd(mat: Sym3Matrix) -> bool:
    """Positive semidefinite iff all seven principal minors are >= 0.

    Leading minors alone do not suffice for semidefiniteness, e.g.
    diag(1, 0, -1) has leading minors 1, 0, 0.
    """
    return all(sign >= 0 for sign in mat.principal_minor_signs)


def decide_monic(m: MonicQuartic) -> Verdict:
    kernel = lam0_test(m)
    if kernel.lam0.is_real and kernel.slack >= 0 and kernel.value >= 0:
        cls = (Definiteness.POSITIVE_DEFINITE if kernel.slack > 0 and kernel.value > 0
               else Definiteness.POSITIVE_SEMIDEFINITE)
        return Verdict(cls, certificate=pencil_matrix(m, kernel.lam0.value), kernel=kernel)
    from .classifier import witness_search

    return Verdict(Definiteness.INDEFINITE, witnesses=witness_search(m), kernel=kernel)


def decide_negative_side(m: MonicQuartic) -> Verdict:
    """Decide the sign-flipped monic form of a negative-leading quartic and
    map its class back by `Definiteness.flipped`.  The certificate stays the
    PSD matrix of the flipped form (its negation certifies the original)."""
    verdict = decide_monic(m)
    return replace(verdict, classification=verdict.classification.flipped())


def decide_degenerate_leading(e3, e2, e1, e0) -> Verdict:
    """Decide f = y * (e3 x^3 + e2 x^2 y + e1 x y^2 + e0 y^3).

    f(1, 0) = 0 rules out PD and ND.  A cubic factor in x forces a sign
    change, so semidefiniteness requires e3 = 0, in which case f = y^2 * q
    with q = e2 x^2 + e1 x y + e0 y^2 and the verdict is that of the
    quadratic form q; its Gram matrix embeds as a certificate on the
    squared-monomial basis.
    """
    e3, e2, e1, e0 = map(as_fraction, (e3, e2, e1, e0))
    if e3 == e2 == e1 == e0 == 0:
        zero = Fraction(0)
        return Verdict(
            Definiteness.ZERO,
            certificate=Sym3Matrix(zero, zero, zero, zero, zero, zero),
        )
    if e3 != 0:
        return Verdict(
            Definiteness.INDEFINITE, witnesses=_cubic_sign_witnesses(e3, e2, e1, e0)
        )
    disc = e1**2 - 4 * e2 * e0
    gram = Sym3Matrix(Fraction(0), Fraction(0), Fraction(0), e2, e1 / 2, e0)
    if e2 >= 0 and e0 >= 0 and disc <= 0:
        return Verdict(Definiteness.POSITIVE_SEMIDEFINITE, certificate=gram)
    if e2 <= 0 and e0 <= 0 and disc <= 0:
        return Verdict(Definiteness.NEGATIVE_SEMIDEFINITE, certificate=gram.negated())
    return Verdict(
        Definiteness.INDEFINITE, witnesses=_quadratic_sign_witnesses(e2, e1, e0)
    )


def _cubic_sign_witnesses(e3, e2, e1, e0) -> tuple[Point, Point]:
    # odd degree in x: f(t, 1) follows sign(e3 * t^3) for large |t|
    def value(t: Fraction) -> Fraction:
        return evaluate_plain(0, e3, e2, e1, e0, t, 1)

    t = Fraction(1)
    while value(t) * e3 <= 0:
        t *= 2
    s = Fraction(-1)
    while value(s) * e3 >= 0:
        s *= 2
    pos, neg = ((t, Fraction(1)), (s, Fraction(1)))
    if e3 < 0:
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
        return decide_degenerate_leading(*problem.degenerate_coeffs)
    if problem.form is None:
        raise ValueError("problem has neither a form nor degenerate coefficients")
    if problem.orientation is Orientation.NEGATIVE_SIDE:
        return decide_negative_side(problem.form)
    return decide_monic(problem.form)
