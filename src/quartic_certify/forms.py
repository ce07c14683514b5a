"""Binary quartic forms and input normalisation.

`MonicQuartic` is the working representation x^4 + a3 x^3 y + a2 x^2 y^2 +
a1 x y^3 + a0 y^4.  `GeneralQuartic` carries the binomially weighted
coefficients c0 x^4 + 4 c1 x^3 y + 6 c2 x^2 y^2 + 4 c3 x y^3 + c4 y^4 used
by the classical cross-check.  `from_plain_coeffs` turns arbitrary plain
coefficients (e4, e3, e2, e1, e0) into a `NormalizedProblem`: positive
leading coefficients are scaled to monic, negative ones are additionally
sign-flipped so that negativity questions become positivity questions, and
e4 = 0 inputs are flagged for the dedicated degenerate path.

Every `MonicQuartic` carries its coefficients cleared to integers once, at
construction: `cleared` = (e4, e3, e2, e1, e0) with e4 > 0 the lcm of the
denominators and ei = e4 ai.  The integer kernels of `pencil` and
`classifier` read that record instead of clearing the form again.

Two integer rules live here and nowhere else: `clear_denominators` clears
five rationals with one lcm (the record, `evaluate_plain` and
`classical.classical_quantities` use it), and `quartic_horner` evaluates
a cleared form at an integer point (`evaluate_plain` and both witness
searches of `classifier` use it).  `evaluate_plain` builds one `Fraction`
at the end.
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
    "to_weighted",
    "evaluate",
    "evaluate_plain",
]


@dataclass(frozen=True)
class MonicQuartic:
    """x^4 + a3 x^3 y + a2 x^2 y^2 + a1 x y^3 + a0 y^4 over Q.

    `cleared` is the integer record (e4, e3, e2, e1, e0): e4 > 0 is the lcm
    of the denominators of a3..a0 and ei = e4 ai, so e4 f has integer
    coefficients.  It is computed once, in `__post_init__`, and takes no
    part in ==, hash or repr.
    """

    a3: Fraction
    a2: Fraction
    a1: Fraction
    a0: Fraction
    cleared: tuple[int, int, int, int, int] = field(
        init=False, repr=False, compare=False)

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


@dataclass(frozen=True)
class NormalizedProblem:
    """A definiteness question reduced to a monic positive-side form.

    `form` is the monic quartic actually decided; for negative-side inputs
    it is the monic form of -f/|e4|, so its positivity classes map back to
    the original's negativity classes.  `scale` is |e4| (0 when the leading
    coefficient vanishes and `degenerate_leading` is set; then `form` is
    None and the lower coefficients live in `degenerate_coeffs`).
    """

    form: MonicQuartic | None
    orientation: Orientation | None
    scale: Fraction
    degenerate_leading: bool
    degenerate_coeffs: tuple[Fraction, Fraction, Fraction, Fraction] | None = None


def from_plain_coeffs(e4, e3, e2, e1, e0) -> NormalizedProblem:
    e4, e3, e2, e1, e0 = map(as_fraction, (e4, e3, e2, e1, e0))
    if e4 == 0:
        return NormalizedProblem(
            form=None,
            orientation=None,
            scale=Fraction(0),
            degenerate_leading=True,
            degenerate_coeffs=(e3, e2, e1, e0),
        )
    # dividing by e4 both scales to monic and, when e4 < 0, negates the
    # lower coefficients, which swaps the negative-side question for the
    # positive-side one
    form = MonicQuartic(e3 / e4, e2 / e4, e1 / e4, e0 / e4)
    orientation = Orientation.POSITIVE_SIDE if e4 > 0 else Orientation.NEGATIVE_SIDE
    return NormalizedProblem(
        form=form,
        orientation=orientation,
        scale=abs(e4),
        degenerate_leading=False,
    )


def to_weighted(m: MonicQuartic) -> GeneralQuartic:
    return GeneralQuartic(Fraction(1), m.a3 / 4, m.a2 / 6, m.a1 / 4, m.a0)


def evaluate(m: MonicQuartic, x, y) -> Fraction:
    return evaluate_plain(Fraction(1), m.a3, m.a2, m.a1, m.a0, x, y)


def evaluate_plain(e4, e3, e2, e1, e0, x, y) -> Fraction:
    """e4 x^4 + e3 x^3 y + e2 x^2 y^2 + e1 x y^3 + e0 y^4, exactly.

    With L the lcm of the coefficient denominators, ki = L ei integers,
    x = a/b and y = c/e, the integer L (b e)^4 f = sum ki u^(4-i) w^i with
    u = a e and w = c b is taken by Horner, and divided out once.
    """
    x, y = as_fraction(x), as_fraction(y)
    big, k4, k3, k2, k1, k0 = clear_denominators(
        as_fraction(e4), as_fraction(e3), as_fraction(e2), as_fraction(e1), as_fraction(e0))
    total = quartic_horner(k4, k3, k2, k1, k0,
                           x.numerator * y.denominator, y.numerator * x.denominator)
    scale = x.denominator * y.denominator
    scale *= scale
    return Fraction(total, big * scale * scale)


def clear_denominators(c4, c3, c2, c1, c0) -> tuple[int, int, int, int, int, int]:
    """(L, L c4, L c3, L c2, L c1, L c0), all integers, for rationals (or
    integers) c4..c0 with L > 0 the lcm of their denominators."""
    big = math.lcm(c4.denominator, c3.denominator, c2.denominator,
                   c1.denominator, c0.denominator)
    return (big,
            c4.numerator * (big // c4.denominator),
            c3.numerator * (big // c3.denominator),
            c2.numerator * (big // c2.denominator),
            c1.numerator * (big // c1.denominator),
            c0.numerator * (big // c0.denominator))


def quartic_horner(k4: int, k3: int, k2: int, k1: int, k0: int, u: int, w: int) -> int:
    """k4 u^4 + k3 u^3 w + k2 u^2 w^2 + k1 u w^3 + k0 w^4, by Horner in u."""
    w2 = w * w
    return (((k4 * u + k3 * w) * u + k2 * w2) * u + k1 * w2 * w) * u + k0 * w2 * w2
