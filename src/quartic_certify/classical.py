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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .forms import GeneralQuartic

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
        if self.delta == 0 and self.G == 0 and self.aux == 0 and self.H > 0:
            return True
        if self.delta > 0 and self.H >= 0:
            return True
        if self.delta > 0 and self.H < 0 and self.aux < 0:
            return True
        return False


def classical_quantities(v: GeneralQuartic) -> ClassicalQuantities:
    """G, H, I, J, Delta and aux of v, computed on the integers k_i = L c_i
    with L the lcm of the denominators: each quantity is homogeneous in the
    c_i, of degree n say, so it is its integer value over L^n."""
    cs = (v.c0, v.c1, v.c2, v.c3, v.c4)
    den = math.lcm(*(c.denominator for c in cs))
    c0, c1, c2, c3, c4 = (c.numerator * (den // c.denominator) for c in cs)
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
    return ClassicalQuantities(
        Fraction(G, den3),
        Fraction(H, den2),
        Fraction(I, den2),
        Fraction(J, den3),
        Fraction(I**3 - 27 * J * J, den3 * den3),
        Fraction(12 * H * H - c0 * c0 * I, den2 * den2),
    )


def classical_is_pd(v: GeneralQuartic) -> bool:
    if v.c0 <= 0:
        raise ValueError(f"criterion requires a positive leading coefficient, got {v.c0}")
    return classical_quantities(v).is_pd()
