"""Definiteness decisions with verifiable matrix certificates.

The decision for a monic form is two exact sign tests on lam0:

    PSD  iff  lam0 >= a3^2/4  and  g(lam0) >= 0,
    PD   iff  lam0 >  a3^2/4  and  g(lam0) >  0,

with a non-real lam0 (d < 0) immediately indefinite.  `pencil.lam0_test`
settles both with two signs of a + b sqrt(D), each taken by
`exactnum.surd_sign`, from the form's integer pencil invariants, and the
verdict carries that kernel record, the two signs, for the report.  The
integers and the two signs are all the decision computes: the verdict's
certificate and witnesses are views, built on first read.  Whenever the
verdict is PSD or PD the matrix M(lam0) is its certificate, built by
`pencil.lam0_matrix` from the entries of `pencil.lam0_surds`, the one
home of the closed forms of lam0, g(lam0) and M(lam0), taken once per
form and kept on it.  It is positive
(semi)definite exactly when the form is, and it reproduces the form
through the Veronese representation, so a verifier needs nothing but
Sylvester's criterion and a matrix-vector product.  Otherwise the verdict's
witnesses are two points of opposite sign, from
`classifier.witness_search`, an integer bisection with no float.  The
equivalent Sylvester-based test is kept as `sylvester_pd`/`sylvester_psd`
for cross-checking: it takes the principal minor signs of a matrix, in
Q(sqrt(d)) (`Sym3Matrix.principal_minor_signs`) or, for M(lam0) of a form,
in Z[sqrt(D)] (`pencil.lam0_minor_signs`), arithmetic independent of the
two sign tests, and never decides the user-facing verdict.

Negative-side problems arrive here already sign-flipped to monic positive
side (see forms.from_plain_coeffs); `decide_problem` maps the class of
that form back by `Definiteness.flipped`, the one map between the two
sides.  A form with e4 = 0 is decided by the same step on f(y, x), as
definite as f and led by e0 (the problem's `decided()`), its class mapped
back by the orientation of f(y, x) in the same way; its certificate
(`degenerate_entries`, six triples of the shape of `lam0_surds`, so the
same converter builds it) and its witnesses are mapped back to f.  When
e0 = 0 too, a closed integer rule decides.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from . import classifier
from ._record import Record
# sign_of stays bound for bench/spans.py to wrap
from .exactnum import sign_of  # noqa: F401
from .forms import _NEGATIVE_SIDE, MonicQuartic, NormalizedProblem, _View
# critical_param, g_eval, pencil_coeffs and pencil_matrix stay bound for
# bench/spans.py to wrap
from .pencil import (  # noqa: F401
    Lam0Test,
    Sym3Matrix,
    critical_param,
    g_eval,
    lam0_matrix,
    lam0_surds,
    lam0_test,
    pencil_coeffs,
    pencil_matrix,
    surd_parts,
)

__all__ = [
    "Definiteness",
    "Verdict",
    "sylvester_pd",
    "sylvester_psd",
    "signs_pd",
    "signs_psd",
    "decide_monic",
    "decide_problem",
]


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    POSITIVE_SEMIDEFINITE = "positive-semidefinite-not-definite"
    INDEFINITE = "indefinite"
    NEGATIVE_DEFINITE = "negative-definite"
    NEGATIVE_SEMIDEFINITE = "negative-semidefinite-not-definite"
    ZERO = "identically-zero"

    __hash__ = object.__hash__  # each member is equal only to itself; Enum's hash is slow

    def flipped(self) -> Definiteness:
        """The class of -f for a form f of this class: PD <-> ND and
        PSD <-> NSD; the indefinite and the zero class are their own."""
        return _FLIPPED.get(self, self)


# bound once, in their order: a member read off its class costs 0.1 us (Python 3.11)
_PD, _PSD, _INDEFINITE, _ND, _NSD, _ZERO = Definiteness
_FLIPPED = {_PD: _ND, _ND: _PD, _PSD: _NSD, _NSD: _PSD}

Point = tuple[Fraction, Fraction]


def _certificate(v: Verdict) -> Sym3Matrix | None:
    if v.classification is _INDEFINITE:
        return None
    if v.kernel is None:
        return lam0_matrix(degenerate_entries(v._source))
    return lam0_matrix(lam0_surds(v._source)[2], v._source)


def _witnesses(v: Verdict) -> tuple[Point, Point] | None:
    if v.classification is not _INDEFINITE:
        return None
    if v.kernel is None:
        return _degenerate_witnesses(v._source)
    return classifier.witness_search(v._source)


class Verdict(Record):
    """Outcome of a definiteness decision.

    `certificate` is present for every verdict in {PD, PSD, ND, NSD, ZERO};
    it is always the positive-semidefinite Gram matrix of the decided
    (positive-side) problem, so for negative-side classes the certified
    matrix of the original form is its negation.  `witnesses` accompanies
    every indefinite verdict: two rational points where the decided form is
    exactly positive and exactly negative.  A form with e4 = 0 has no side:
    its certificate is the Gram matrix of f, or of -f, its witnesses of f.

    `kernel` is the record of `pencil.lam0_test` that made the decision,
    its two signs, for reports and cross-checks to reuse; the exact lam0
    and g(lam0) are the form's `pencil.lam0_surds`.
    A form with e4 = 0 leaves it None: the kernel decides f(y, x) then, and
    its record describes that form, not f.  A verdict of `decide_problem`
    builds its certificate, or its witnesses, on first read.
    """

    classification: Definiteness
    certificate: Sym3Matrix | None = _View(_certificate, None)
    witnesses: tuple[Point, Point] | None = _View(_witnesses, None)
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
    return min(signs) >= 0


def decide_monic(m: MonicQuartic) -> Verdict:
    return _lazy_verdict(*_decide(m), m)


def _decide(m: MonicQuartic) -> tuple[Definiteness, Lam0Test]:
    """The class of a positive-side monic form m, from the kernel's two
    signs alone, and the kernel record that decided it."""
    kernel = lam0_test(m)
    slack, value = kernel
    if slack is not None and slack >= 0 and value >= 0:
        return (_PD if slack and value else _PSD), kernel
    return _INDEFINITE, kernel


def _lazy_verdict(cls: Definiteness, kernel: Lam0Test | None,
                  source: MonicQuartic | NormalizedProblem) -> Verdict:
    """A verdict of class cls and kernel record, built of these and of
    `source`, from which the certificate or the witnesses view is built on
    first read: the decided form, or the problem when there is no record."""
    verdict = object.__new__(Verdict)
    verdict.__dict__.update(classification=cls, kernel=kernel, _source=source)
    return verdict


def degenerate_entries(problem: NormalizedProblem) -> tuple[tuple[int, int, int], ...]:
    """The Gram matrix entries (m11, m12, m13, m22, m23, m33) of f, or -f,
    semidefinite with e4 = 0, as triples (a, 0, den) in the shape of
    `pencil.lam0_surds`: diag(0, |e2|, 0) if e0 = 0, else M(lam0) of the
    swapped monic form m, f(x, y) = +-|e0| m(y, x), with the basis reversed,
    times |e0|.  A semidefinite m with m(0, 1) = 0 has e1 = 0 and D = e2^2,
    a square, so `surd_parts` folds every entry to a rational, b = 0."""
    big, _, _, k2, _, k0 = problem.input_record
    decided = problem.decided()
    if decided is None:
        return (0, 0, 1), (0, 0, 1), (0, 0, 1), (abs(k2), 0, big), (0, 0, 1), (0, 0, 1)
    form = decided.form
    m11, m12, m13, m22, m23, m33 = (surd_parts(form, *entry)[0] for entry in lam0_surds(form)[2])
    return tuple((num * abs(k0), 0, den * big) for num, den in (m33, m23, m13, m22, m12, m11))


def _degenerate_witnesses(problem: NormalizedProblem) -> tuple[Point, Point]:
    """Points where an indefinite form with e4 = 0 is positive and negative."""
    decided = problem.decided()
    if decided is not None:  # the swapped form's, with x and y exchanged back
        (px, py), (nx, ny) = classifier.witness_search(decided.form)
        if decided.orientation is _NEGATIVE_SIDE:  # that form is -f(y, x) / |e0|
            return (ny, nx), (py, px)
        return (py, px), (ny, nx)
    _, _, k3, k2, k1, _ = problem.input_record
    # f = x y (k3 x^2 + k2 x y + k1 y^2) / L: for s = +-1, f(n, s) has the
    # sign of s k3 once |k3| n > |k2| + |k1|, and f(s, n) that of s k1 when
    # k3 = 0 and |k1| n > |k2|
    if k3:
        n, s = Fraction((abs(k2) + abs(k1)) // abs(k3) + 1), Fraction(1 if k3 > 0 else -1)
        return (n, s), (n, -s)
    n, s = Fraction(abs(k2) // abs(k1) + 1), Fraction(1 if k1 > 0 else -1)
    return (s, n), (-s, n)


def decide_problem(problem: NormalizedProblem) -> Verdict:
    """Decide the form of the problem's `decided()` by the kernel's two
    signs, its class mapped back by that problem's orientation, into a
    verdict of the class, the record and the form (`_lazy_verdict`).  With
    e4 = e0 = 0, f = x y (e3 x^2 + e2 x y + e1 y^2) is e2 x^2 y^2 when
    e3 = e1 = 0, and else indefinite."""
    decided = problem.decided()
    if decided is not None:
        cls, kernel = _decide(decided.form)
        if decided.orientation is _NEGATIVE_SIDE:
            cls = cls.flipped()
        if decided is problem:
            return _lazy_verdict(cls, kernel, problem.form)
        # the kernel record of f(y, x) describes that form, not f: not kept
        return _lazy_verdict(cls, None, problem)
    _, _, k3, k2, k1, _ = problem.input_record
    cls = _INDEFINITE if k3 or k1 else _PSD if k2 > 0 else _NSD if k2 else _ZERO
    return _lazy_verdict(cls, None, problem)
