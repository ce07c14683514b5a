"""Exact scalar arithmetic: rationals and real quadratic extensions Q(sqrt(d)).

Every inequality this package decides is reduced to an exact sign of a
number of the form p + q*sqrt(d) with rational p, q and rational d >= 0.
Rationals are `fractions.Fraction`; the extension element is `QuadExt`.
That sign has one home, `surd_sign`: `QuadExt.sign`, the integer lam0
kernel of `pencil`, its nine-case table in `classifier` and the integer
Sylvester minors all take it there.  No floating point enters any
decision path; floats and decimal strings are converted to exact fractions
at the boundary by `parse_rational`, and decimal output is rendered from
the exact value on demand by `to_decimal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

__all__ = [
    "QuadExt",
    "MismatchedRadicandError",
    "as_fraction",
    "sign_of",
    "sqrt_exact",
    "parse_rational",
    "to_decimal",
]


class MismatchedRadicandError(ValueError):
    """Raised when combining two irrational QuadExt values over different d."""


def as_fraction(value: int | Fraction) -> Fraction:
    """Coerce int to Fraction; reject floats so no rounding can sneak in."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational.

    Works on the canonical numerator/denominator, which are coprime, so the
    value is a perfect rational square iff both parts are perfect squares.
    """
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


MAX_EXPONENT = 1000
_ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a finite decimal ("0.25", "-1e-2") exactly.

    A decimal exponent beyond +-MAX_EXPONENT is rejected before any digits
    are built: "1e200000" alone would make a 200001-digit integer.  The
    ValueError says which of the two rejected the text.
    """
    text = text.strip()
    _, marker, exponent = text.lower().partition("e")
    try:
        too_large = bool(marker) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        too_large = False  # not a decimal exponent; Fraction() judges the text
    if too_large:
        raise ValueError(f"decimal exponent of {text!r} beyond +-{MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


@dataclass(frozen=True)
class QuadExt:
    """An element p + q*sqrt(d) of a real quadratic extension of Q.

    Invariants (normalised on construction):
      * d >= 0; a negative radicand is rejected (non-real values are
        represented by the absence of a QuadExt, not by this type),
      * if d is a perfect rational square the surd collapses into p and the
        value is stored with q = 0, d = 0,
      * q = 0 implies d = 0, so rational values have one canonical form.

    Arithmetic (+, -, *) is closed and exact; two irrational operands must
    share the same radicand (equality needs none).  Division by a nonzero
    rational is supported.  Results skip the constructor's checks: operands
    in normal form over one radicand (0 or a non-square) give parts that
    are already normal, except that q = 0 must fold d to 0.
    Comparisons and `sign()` are exact, by `surd_sign`; no radical is ever
    extracted numerically.
    """

    p: Fraction
    q: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        p = as_fraction(self.p)
        q = as_fraction(self.q)
        d = as_fraction(self.d)
        if d < 0:
            raise ValueError(f"negative radicand: {d}")
        if q == 0:
            d = Fraction(0)
        else:
            root = sqrt_exact(d)
            if root is not None:
                p, q, d = p + q * root, Fraction(0), Fraction(0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    @classmethod
    def _normalised(cls, p: Fraction, q: Fraction = _ZERO, d: Fraction = _ZERO) -> QuadExt:
        """A value from Fraction parts already in normal form (d is 0 or not
        a rational square), without the checks of the constructor."""
        value = object.__new__(cls)
        object.__setattr__(value, "p", p)
        object.__setattr__(value, "q", q)
        object.__setattr__(value, "d", d if q else _ZERO)
        return value

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.p

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: QuadExt | Fraction | int) -> QuadExt | None:
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (Fraction, int)):
            return QuadExt._normalised(as_fraction(other))
        return None

    def _join_radicand(self, other: QuadExt) -> Fraction:
        if self.q == 0:
            return other.d
        if other.q == 0:
            return self.d
        if self.d != other.d:
            raise MismatchedRadicandError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d

    def __add__(self, other: QuadExt | Fraction | int) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_radicand(o)
        return QuadExt._normalised(self.p + o.p, self.q + o.q, d)

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt._normalised(-self.p, -self.q, self.d)

    def __sub__(self, other: QuadExt | Fraction | int) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_radicand(o)
        return QuadExt._normalised(self.p - o.p, self.q - o.q, d)

    def __rsub__(self, other: QuadExt | Fraction | int) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: QuadExt | Fraction | int) -> QuadExt:
        if isinstance(other, (Fraction, int)):
            return QuadExt._normalised(self.p * other, self.q * other, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_radicand(o)
        # (p1 + q1 r)(p2 + q2 r) = p1 p2 + q1 q2 d + (p1 q2 + p2 q1) r
        return QuadExt._normalised(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + o.p * self.q,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Fraction | int) -> QuadExt:
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division by zero")
        scale = Fraction(1, 1) / as_fraction(other)
        return QuadExt._normalised(self.p * scale, self.q * scale, self.d)

    def __pow__(self, exponent: int) -> QuadExt:
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = QuadExt(Fraction(1))
        for _ in range(exponent):
            result = result * self
        return result

    # -- exact sign and order -------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d) in {-1, 0, +1}."""
        return surd_sign(self.p, self.q, self.d)

    def _diff_sign(self, other: QuadExt | Fraction | int) -> int | None:
        o = self._coerce(other)
        if o is None:
            return None
        return (self - o).sign()

    def __eq__(self, other: object) -> bool:
        """Exact equality, also across radicands: q*sqrt(d) is fixed by the
        sign of q and by q**2 * d, so sqrt(8) == 2*sqrt(2) while sqrt(2) and
        sqrt(3), whose product is not a rational square, never match."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self.p == o.p
            and rational_sign(self.q) == rational_sign(o.q)
            and self.q * self.q * self.d == o.q * o.q * o.d
        )

    def __lt__(self, other: QuadExt | Fraction | int):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other: QuadExt | Fraction | int):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other: QuadExt | Fraction | int):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other: QuadExt | Fraction | int):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s >= 0

    def __hash__(self) -> int:
        # hash what == compares: a rational value like its Fraction, an
        # irrational one by the radicand-free (p, q**2 d, sign q)
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q * self.q * self.d, self.q > 0))

    # -- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        if self.q == 0:
            return f"QuadExt({self.p})"
        return f"QuadExt({self.p} + {self.q}*sqrt({self.d}))"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        mag = abs(self.q)
        term = f"sqrt({self.d})" if mag == 1 else f"{mag}*sqrt({self.d})"
        if self.p == 0:
            return f"-{term}" if self.q < 0 else term
        sign = "-" if self.q < 0 else "+"
        return f"{self.p} {sign} {term}"


def rational_sign(value: Fraction) -> int:
    """Sign of a Fraction (or int) in {-1, 0, +1}, with no type coercion."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def surd_sign(a: int | Fraction, b: int | Fraction, n: int | Fraction) -> int:
    """Sign of a + b sqrt(n) in {-1, 0, +1}, for rationals (or integers)
    a, b and n >= 0."""
    sa = rational_sign(a)
    sb = rational_sign(b) if n else 0
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    # opposite signs: |a| against |b| sqrt(n), compared through squares
    return sa * rational_sign(a * a - b * b * n)


def sign_of(value: QuadExt | Fraction | int) -> int:
    """Exact sign in {-1, 0, +1} for any scalar this package computes with."""
    if isinstance(value, QuadExt):
        return value.sign()
    return rational_sign(as_fraction(value))


def to_decimal(value: QuadExt | Fraction | int, digits: int = 12) -> str:
    """Render an exact scalar to `digits` significant decimal digits.

    The square root is taken with `decimal` at a working precision well above
    the requested digits, so every printed digit agrees with the exact value.
    When p and q*sqrt(d) cancel so far that the rounding error of that sum
    could reach the printed digits (or the sign), the precision is doubled
    until it cannot.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with localcontext() as ctx:
        ctx.prec = max(digits + 25, 50)
        if isinstance(value, QuadExt) and value.q != 0:
            while True:
                rat = _decimal(value.p)
                surd = _decimal(value.q) * _decimal(value.d).sqrt()
                total = rat + surd
                # the roundings above err by less than
                # (|rat| + |surd|) * 10**(2 - prec); keep that below a
                # tenth of the last printed digit
                if abs(total) > (abs(rat) + abs(surd)).scaleb(digits + 3 - ctx.prec):
                    break
                ctx.prec *= 2
        else:
            total = _decimal(value.p if isinstance(value, QuadExt) else as_fraction(value))
        ctx.prec = digits
        return str(+total)


def _decimal(value: Fraction) -> Decimal:
    """value rounded to the current decimal context."""
    return Decimal(value.numerator) / Decimal(value.denominator)
