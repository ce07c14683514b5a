"""Binary quartic forms and input normalisation.

`MonicQuartic` is the working representation x^4 + a3 x^3 y + a2 x^2 y^2 +
a1 x y^3 + a0 y^4.  `GeneralQuartic` carries the binomially weighted
coefficients c0 x^4 + 4 c1 x^3 y + 6 c2 x^2 y^2 + 4 c3 x y^3 + c4 y^4 in
which the classical criterion is stated (`to_weighted`).
`from_plain_coeffs` turns arbitrary plain
coefficients (e4, e3, e2, e1, e0) into a `NormalizedProblem`: positive
leading coefficients are scaled to monic, negative ones are additionally
sign-flipped so that negativity questions become positivity questions, and
an e4 = 0 input has no form: it is decided as f(y, x) when e0 != 0, the
problem's `decided()`, normalised from the same record.

Each input is cleared to integers once, in `from_ratios`, which takes
the five coefficients as reduced integer ratios (num, den), as the command
line parses them, so that no input builds a `Fraction` on the way in;
`from_plain_coeffs` passes it each rational's `as_integer_ratio()`.  It
clears by `clear_ratios` (`clear_denominators` is its view for
`Fraction`s).  The problem keeps that input record (L, k4, k3, k2, k1, k0)
and the five ratios (`input_ratios`), and its `MonicQuartic` is built from
the same integers.  Every `MonicQuartic` carries the record `cleared` = (e4, e3, e2, e1, e0) with e4 > 0 the lcm of the denominators
and ei = e4 ai.  The integer kernels of `pencil` and `classifier`, the
certificate, the report and the classical cross-check read that record,
and the integer pencil invariants of it (`invariants`), instead of
clearing the form again; `pencil.lam0_surds` keeps its tuple on the form.

The integer records are what the decision computes; the rational values
are views of them, built on first read and then kept (`_View`).  A form
built from a record (every form of `from_ratios` and `from_plain_coeffs`)
builds a3..a0 as `Fraction(ei, e4)` only when they are read, a form built
from a3..a0 clears them at once, and either takes its `invariants` on
first read.
`NormalizedProblem.scale` = |e4| is a view of the input record in the same
way.  A view is built on ==, hash and repr too, which see the same values
as before, whichever way the object was built.

Three integer rules live here and nowhere else: `clear_ratios` clears
five rationals with one lcm (`clear_denominators` is its view for
`Fraction`s), `quartic_horner` evaluates a cleared form at an integer
point (both witness searches of `classifier` use it), and `evaluate_ratio`
takes a cleared form at a rational point by that Horner, as an integer
ratio that the report prints with `exactnum.ratio_text` (`evaluate` is its
`Fraction` for a monic form).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import as_fraction

__all__ = [
    "MonicQuartic",
    "GeneralQuartic",
    "Orientation",
    "NormalizedProblem",
    "from_plain_coeffs",
    "from_ratios",
    "to_weighted",
    "evaluate",
    "evaluate_ratio",
]


class _View:
    """An attribute built on first read from the instance's other
    attributes, then kept in the instance dict.

    It is a non-data descriptor, so a value already in the instance dict
    (put there by a dataclass `__init__` or a private constructor) shadows
    it.  As the class attribute of a dataclass field it also gives the
    field's default: `_View(build, default)`, or no default when `default`
    is left out.
    """

    def __init__(self, build, *default) -> None:
        self._build = build
        self._default = default

    def __set_name__(self, owner, name: str) -> None:
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            if not self._default:
                raise AttributeError(self._name)
            return self._default[0]
        value = self._build(instance)
        instance.__dict__[self._name] = value
        return value


def _coefficient(i: int) -> _View:
    """The view a_i = Fraction(e_i, e4) of `MonicQuartic.cleared`."""
    return _View(lambda m: Fraction(m.cleared[4 - i], m.cleared[0]))


@dataclass(frozen=True)
class MonicQuartic:
    """x^4 + a3 x^3 y + a2 x^2 y^2 + a1 x y^3 + a0 y^4 over Q.

    `cleared` is the integer record (e4, e3, e2, e1, e0): e4 > 0 is the lcm
    of the denominators of a3..a0 and ei = e4 ai, so e4 f has integer
    coefficients.  `invariants` = (e4, e2, D, A, Rn) are the pencil
    invariants of that record (`_pencil_invariants`), and `root` is isqrt(D)
    when D is a perfect square, else None, which only rendering reads
    (`pencil.surd_parts`); both are taken on first read.  A form built from
    its record (by `from_ratios`) builds a3..a0 on first read as well.
    Neither record takes part in ==, hash or repr.
    """

    a3: Fraction = _coefficient(3)
    a2: Fraction = _coefficient(2)
    a1: Fraction = _coefficient(1)
    a0: Fraction = _coefficient(0)
    cleared: tuple[int, int, int, int, int] = field(
        init=False, repr=False, compare=False)
    invariants = _View(lambda m: _pencil_invariants(*m.cleared))
    root = _View(lambda m: _square_root(m.invariants[2]))

    def __post_init__(self) -> None:
        a3, a2, a1, a0 = (as_fraction(self.a3), as_fraction(self.a2),
                          as_fraction(self.a1), as_fraction(self.a0))
        put = object.__setattr__
        put(self, "a3", a3)
        put(self, "a2", a2)
        put(self, "a1", a1)
        put(self, "a0", a0)
        put(self, "cleared", clear_denominators(1, a3, a2, a1, a0)[1:])

    def coefficients(self) -> tuple[Fraction, ...]:
        """Plain coefficients (1, a3, a2, a1, a0), highest degree in x first."""
        return (Fraction(1), self.a3, self.a2, self.a1, self.a0)

    def dehomogenized(self) -> tuple[Fraction, ...]:
        """Coefficients of f(x, 1), low degree first."""
        return (self.a0, self.a1, self.a2, self.a3, Fraction(1))


@dataclass(frozen=True)
class GeneralQuartic:
    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction

    def __post_init__(self) -> None:
        for name in ("c0", "c1", "c2", "c3", "c4"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))


class Orientation(enum.Enum):
    POSITIVE_SIDE = "positive-side"
    NEGATIVE_SIDE = "negative-side"

    __hash__ = object.__hash__  # as `positivity.Definiteness` hashes


# bound once, in their order: a member read off its class costs 0.1 us (Python 3.11)
_POSITIVE_SIDE, _NEGATIVE_SIDE = Orientation
_EXACT = (int, Fraction)


@dataclass(frozen=True)
class NormalizedProblem:
    """A definiteness question reduced to a monic positive-side form.

    `form` is the monic quartic actually decided; for negative-side inputs
    it is the monic form of -f/|e4|, so its positivity classes map back to
    the original's negativity classes.  `scale` is |e4| (0 when the leading
    coefficient vanishes; then `form` and `orientation` are None, and
    `decided()` names the problem that is decided instead).
    `input_record` is the input cleared once, (L, k4, k3, k2, k1, k0) =
    `clear_ratios` of (e4, e3, e2, e1, e0), and `input_ratios` the five
    reduced ratios cleared, both set by `from_ratios`; neither takes part
    in == or repr.  Such a problem builds `scale` = Fraction(|k4|, L) on
    first read.
    """

    form: MonicQuartic | None
    orientation: Orientation | None
    scale: Fraction = _View(lambda p: Fraction(abs(p.input_record[1]), p.input_record[0]))
    input_record: tuple[int, int, int, int, int, int] | None = field(
        default=None, repr=False, compare=False)
    input_ratios: tuple[tuple[int, int], ...] | None = field(
        default=None, repr=False, compare=False)

    def decided(self) -> NormalizedProblem | None:
        """The problem whose form the decision reads, the one home of that
        rule: this problem when e4 != 0; when e4 = 0 != e0 the problem of
        f(y, x), which is as definite as f, normalised from the reversed
        input record (its `input_ratios` reversed too) without clearing the
        input again, built on the first call and then kept, so the decision
        and the report read one; None when e4 = e0 = 0, which a closed rule
        decides."""
        if self.form is not None:
            return self
        if self.input_record is None:
            raise ValueError("problem with neither a form nor an input record")
        swapped = self.__dict__.get("_swapped")
        if swapped is None:
            big, k4, k3, k2, k1, k0 = self.input_record
            if not k0:
                return None
            swapped = self.__dict__["_swapped"] = _normalised((big, k0, k1, k2, k3, k4))
            swapped.__dict__["input_ratios"] = self.input_ratios and self.input_ratios[::-1]
        return swapped


def from_plain_coeffs(e4, e3, e2, e1, e0) -> NormalizedProblem:
    """`from_ratios` of five rationals (or integers) by `as_integer_ratio()`,
    so an integer builds no `Fraction`; a float raises `as_fraction`'s TypeError."""
    if not (isinstance(e4, _EXACT) and isinstance(e3, _EXACT) and isinstance(e2, _EXACT)
            and isinstance(e1, _EXACT) and isinstance(e0, _EXACT)):
        for c in (e4, e3, e2, e1, e0):
            as_fraction(c)
    return from_ratios(e4.as_integer_ratio(), e3.as_integer_ratio(), e2.as_integer_ratio(),
                       e1.as_integer_ratio(), e0.as_integer_ratio())


def from_ratios(r4: tuple[int, int], r3: tuple[int, int], r2: tuple[int, int],
                r1: tuple[int, int], r0: tuple[int, int]) -> NormalizedProblem:
    """`from_plain_coeffs` of five rationals given as reduced integer ratios
    (num, den) with den > 0, such as `exactnum.parse_ratio` returns: they
    are cleared once, by `clear_ratios`, and kept (`input_ratios`): no
    `Fraction` is built."""
    problem = _normalised(clear_ratios(r4, r3, r2, r1, r0))
    problem.__dict__["input_ratios"] = r4, r3, r2, r1, r0
    return problem


def _normalised(record: tuple[int, int, int, int, int, int]) -> NormalizedProblem:
    """The problem of the input with record (L, k4, ..., k0), with `scale`
    left to its view: degenerate-leading when k4 = 0, else monic."""
    _, k4, k3, k2, k1, k0 = record
    form = orientation = None
    if k4:
        # dividing by g = +-gcd(k4, ..., k0), with the sign of k4, leaves the
        # primitive integers of f/e4 with a positive lead: the lcm record of
        # the monic form.  When e4 < 0 it negates the lower coefficients,
        # which swaps the negative-side question for the positive-side one.
        g = math.gcd(k4, k3, k2, k1, k0)
        if k4 < 0:
            g = -g
        form = object.__new__(MonicQuartic)
        form.__dict__["cleared"] = k4 // g, k3 // g, k2 // g, k1 // g, k0 // g
        orientation = _POSITIVE_SIDE if k4 > 0 else _NEGATIVE_SIDE
    problem = object.__new__(NormalizedProblem)
    problem.__dict__.update(form=form, orientation=orientation, input_record=record)
    return problem


def _pencil_invariants(e4: int, e3: int, e2: int, e1: int,
                       e0: int) -> tuple[int, int, int, int, int]:
    """(e4, e2, D, A, Rn): the integer pencil invariants of a cleared monic
    record, as `pencil.lam0_test` defines them.  When D < 0 every reader
    stops at D, so A and Rn are left as 0 there.
    """
    disc = 12 * e0 * e4 - 3 * e1 * e3 + e2 * e2
    if disc < 0:
        return e4, e2, disc, 0, 0
    n1 = 4 * e0 * e4 - e2 * e2 - e1 * e3
    n0 = (e2 * e3 - e1 * e4) * e1 - e0 * e3 * e3
    rn = 27 * n0 + (18 * n1 + 16 * e2 * e2) * e2
    return e4, e2, disc, 8 * e2 * e4 - 3 * e3 * e3, rn


def _square_root(disc: int) -> int | None:
    """isqrt(D) when D is a perfect square, else None (D < 0 too)."""
    if disc < 0:
        return None
    root = math.isqrt(disc)
    return root if root * root == disc else None


def to_weighted(m: MonicQuartic) -> GeneralQuartic:
    return GeneralQuartic(Fraction(1), m.a3 / 4, m.a2 / 6, m.a1 / 4, m.a0)


def evaluate(m: MonicQuartic, x, y) -> Fraction:
    # the record of (1, a3, a2, a1, a0) is (e4, e4, e3, e2, e1, e0)
    return Fraction(*evaluate_ratio((m.cleared[0], *m.cleared), as_fraction(x).as_integer_ratio(),
                                    as_fraction(y).as_integer_ratio()))


def evaluate_ratio(record: tuple[int, int, int, int, int, int], x: tuple[int, int],
                   y: tuple[int, int]) -> tuple[int, int]:
    """f(x, y) exactly, as an integer ratio (num, den) with den > 0, for f
    given by its record (L, k4, k3, k2, k1, k0) = `clear_ratios` of its
    coefficients and x = a/b, y = c/e given as integer ratios with b, e > 0.

    The integer L (b e)^4 f = sum ki u^(4-i) w^i with u = a e and w = c b
    is taken by `quartic_horner`; the ratio is not reduced.
    """
    big, k4, k3, k2, k1, k0 = record
    (a, b), (c, e) = x, y
    scale = b * e
    scale *= scale
    return quartic_horner(k4, k3, k2, k1, k0, a * e, c * b), big * scale * scale


def clear_denominators(c4, c3, c2, c1, c0) -> tuple[int, int, int, int, int, int]:
    """`clear_ratios` of rationals (or integers) c4..c0."""
    return clear_ratios((c4.numerator, c4.denominator), (c3.numerator, c3.denominator),
                        (c2.numerator, c2.denominator), (c1.numerator, c1.denominator),
                        (c0.numerator, c0.denominator))


def clear_ratios(r4: tuple[int, int], r3: tuple[int, int], r2: tuple[int, int],
                 r1: tuple[int, int], r0: tuple[int, int]) -> tuple[int, int, int, int, int, int]:
    """(L, L c4, L c3, L c2, L c1, L c0), all integers, for the rationals
    ci = ni / di given as integer ratios ri = (ni, di) with di > 0, L > 0
    the lcm of the di: the one lcm clearing of five rationals."""
    (n4, d4), (n3, d3), (n2, d2), (n1, d1), (n0, d0) = r4, r3, r2, r1, r0
    big = math.lcm(d4, d3, d2, d1, d0)
    return (big, n4 * (big // d4), n3 * (big // d3), n2 * (big // d2), n1 * (big // d1),
            n0 * (big // d0))


def quartic_horner(k4: int, k3: int, k2: int, k1: int, k0: int, u: int, w: int) -> int:
    """k4 u^4 + k3 u^3 w + k2 u^2 w^2 + k1 u w^3 + k0 w^4, by Horner in u."""
    w2 = w * w
    return (((k4 * u + k3 * w) * u + k2 * w2) * u + k1 * w2 * w) * u + k0 * w2 * w2
