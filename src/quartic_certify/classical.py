"""Classical invariant-based positive definiteness test (cross-check only).

For the weighted form V = c0 x^4 + 4 c1 x^3 y + 6 c2 x^2 y^2 + 4 c3 x y^3
+ c4 y^4 with c0 > 0, positive definiteness is equivalent to one of

    (1)  Delta = 0, G = 0, 12 H^2 - c0^2 I = 0, H > 0
    (2)  Delta > 0, H >= 0
    (3)  Delta > 0, H < 0, 12 H^2 - c0^2 I < 0

in the classical invariants G, H, I, J, Delta = I^3 - 27 J^2.  This module
never feeds the user-facing verdict; it exists so that every pencil-based
decision can be validated against an algebraically independent criterion.
There is no semidefinite analogue here: boundary cases are cross-checked
against the root-configuration oracle instead.

The quantities are taken in integers, as ratios (num, den) with den > 0.
`classical_quantities` clears a weighted `GeneralQuartic` with one lcm
and builds their `Fraction`s.  The command line's check,
`_monic_quantities`, reads a `MonicQuartic` from its integer record
`cleared` = (e4, e3, e2, e1, e0), whose weighted coefficients
(1, a3/4, a2/6, a1/4, a0) are (12 e4, 3 e3, 2 e2, 3 e1, 12 e0) over 12 e4,
with no clearing and no `Fraction`; the criterion has one home,
`_pd_criterion`.  That record is the one the pencil kernel and the
discriminant-sequence oracle read, so this check confirms the decision on
the normalised record, not the normalisation itself: a wrong record would
pass every cross-check alike.  The test suite guards the normalisation
(`tests/test_forms.py::test_from_plain_record_is_the_lcm_record`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import GeneralQuartic, MonicQuartic, clear_denominators

__all__ = ["ClassicalQuantities", "classical_quantities", "classical_is_pd"]


@dataclass(frozen=True)
class ClassicalQuantities:
    G: Fraction
    H: Fraction
    I: Fraction
    J: Fraction
    delta: Fraction
    aux: Fraction  # 12 H^2 - c0^2 I

    def is_pd(self) -> bool:
        """The criterion of the module docstring, for a form with c0 > 0."""
        return _pd_criterion(self.G, self.H, self.delta, self.aux)


def _pd_criterion(G, H, delta, aux) -> bool:
    """The criterion (1)-(3) of the module docstring, for c0 > 0, on the
    signs of G, H, Delta and aux: each is given as its value or as its
    integer numerator over a positive denominator."""
    return ((delta == 0 and G == 0 and aux == 0 and H > 0)
            or (delta > 0 and H >= 0)
            or (delta > 0 and H < 0 and aux < 0))


def classical_quantities(v: GeneralQuartic) -> ClassicalQuantities:
    """G, H, I, J, Delta and aux of the weighted form v."""
    ratios = _integer_quantities(*clear_denominators(v.c0, v.c1, v.c2, v.c3, v.c4))
    return ClassicalQuantities(*(Fraction(num, den) for num, den in ratios))


def _monic_quantities(m: MonicQuartic) -> tuple[tuple[int, int], ...]:
    """The ratios of `to_weighted(m)`, read from the record `m.cleared`."""
    e4, e3, e2, e1, e0 = m.cleared
    return _integer_quantities(12 * e4, 12 * e4, 3 * e3, 2 * e2, 3 * e1, 12 * e0)


def _integer_quantities(den: int, c0: int, c1: int, c2: int, c3: int,
                        c4: int) -> tuple[tuple[int, int], ...]:
    """G, H, I, J, Delta and aux of the weighted form (c0, ..., c4)/den,
    den > 0, as ratios of integers: each is homogeneous in the c_i, of
    degree n say, so it is its integer value over den^n."""
    G = (c0 * c3 - 3 * c1 * c2) * c0 + 2 * c1**3
    H = c0 * c2 - c1 * c1
    I = c0 * c4 - 4 * c1 * c3 + 3 * c2 * c2
    J = (
        c0 * (c2 * c4 - c3 * c3)
        - c1 * (c1 * c4 - c2 * c3)
        + c2 * (c1 * c3 - c2 * c2)
    )
    den2 = den * den
    den3 = den2 * den
    return ((G, den3), (H, den2), (I, den2), (J, den3),
            (I**3 - 27 * J * J, den3 * den3), (12 * H * H - c0 * c0 * I, den2 * den2))


def classical_is_pd(v: GeneralQuartic) -> bool:
    if v.c0 <= 0:
        raise ValueError(f"criterion requires a positive leading coefficient, got {v.c0}")
    return classical_quantities(v).is_pd()
