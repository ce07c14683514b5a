"""Exact scalar arithmetic: rationals and real quadratic extensions Q(sqrt(d)).

Every inequality this package decides is reduced to an exact sign of a
number of the form p + q*sqrt(d) with rational p, q and rational d >= 0.
Rationals are `fractions.Fraction`; the extension element is `QuadExt`.
That sign has one home, `surd_sign`: `QuadExt.sign`, the integer lam0
kernel of `pencil`, its nine-case table in `classifier` and the integer
Sylvester minors all take it there; clearing values of one Q(sqrt(d)) to
integers of Z[sqrt(N)] has one home too, `clear_surds`.  No floating point
enters any decision path; input text is parsed at the boundary by
`parse_ratio`, the one parsing rule, to a reduced integer ratio
(num, den) that the command line clears without building a `Fraction`
(`parse_rational` is the `Fraction` of that ratio), and decimal output is
rendered from the exact value on demand by `to_decimal`, through
`surd_decimal`, which brackets an irrational value between two integers at
a fine enough decimal scale.  Every printed decimal is rounded once,
half-even, from the exact value, by one routine: the correctly rounded
division of `ratio_decimal`.
`ratio_text` spells a ratio of integers as `str(Fraction)` does, so a
value held as integers is rendered without building its `Fraction`.
"""

from __future__ import annotations

import functools
import math
from decimal import (
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from fractions import Fraction

from ._record import Record

__all__ = [
    "QuadExt",
    "MismatchedRadicandError",
    "as_fraction",
    "sign_of",
    "sqrt_exact",
    "parse_ratio",
    "parse_rational",
    "to_decimal",
    "clear_surds",
    "surd_decimal",
    "ratio_text",
    "ratio_decimal",
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


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "p/q", an integer, or a finite decimal ("0.25", "-1e-2") exactly,
    to its reduced integer ratio (num, den) with den > 0.

    This is the one parsing rule of the package.  ASCII "[+-]digits" and
    "[+-]digits/digits" with a nonzero denominator take a fast path through
    int(); every other text (decimals, exponents, whitespace, underscores,
    other digits, a zero denominator) goes to Fraction(), with the same
    values and errors.  A decimal exponent beyond +-MAX_EXPONENT is
    rejected before any digits are built: "1e200000" alone would make a
    200001-digit integer.  The ValueError says which of the two rejected
    the text.
    """
    if text.isascii():
        num, slash, den = text.partition("/")
        body = num[1:] if num[:1] in ("+", "-") else num
        if body.isdigit() and (not slash or (den.isdigit() and den.strip("0"))):
            try:
                if not slash:
                    return int(num), 1
                num, den = int(num), int(den)
            except ValueError:  # beyond int()'s digit limit: Fraction() says so
                pass
            else:
                g = math.gcd(num, den)
                return num // g, den // g
    text = text.strip()
    _, marker, exponent = text.lower().partition("e")
    try:
        too_large = bool(marker) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        too_large = False  # not a decimal exponent; Fraction() judges the text
    if too_large:
        raise ValueError(f"decimal exponent of {text!r} beyond +-{MAX_EXPONENT}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    return value.numerator, value.denominator


def parse_rational(text: str) -> Fraction:
    """`parse_ratio` of text as a `Fraction`."""
    return Fraction(*parse_ratio(text))


class QuadExt(Record):
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
        value.__dict__.update(p=p, q=q, d=d if q else _ZERO)
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
    a, b and n >= 0; each sign is taken inline, as (x > 0) - (x < 0), for
    int and `Fraction` parts alike."""
    sa = (a > 0) - (a < 0)
    if not (b and n):
        return sa
    sb = (b > 0) - (b < 0)
    if sa == sb or not sa:
        return sb
    # opposite signs: |a| against |b| sqrt(n), compared through squares
    gap = a * a - b * b * n
    return sa * ((gap > 0) - (gap < 0))


def sign_of(value: QuadExt | Fraction | int) -> int:
    """Exact sign in {-1, 0, +1} for any scalar this package computes with."""
    if isinstance(value, QuadExt):
        return value.sign()
    return rational_sign(as_fraction(value))


def to_decimal(value: QuadExt | Fraction | int, digits: int = 12) -> str:
    """Render an exact scalar to `digits` significant decimal digits,
    rounded half-even once, from the exact value.

    The value p + q sqrt(d) (q = 0 for a rational one) is cleared to
    (a + b sqrt(N)) / L in integers (`clear_surds`) and rendered by
    `surd_decimal`, whose one rounding is the correctly rounded division of
    `ratio_decimal`.  Every step runs in a fixed context (`_context`), so
    the caller's decimal settings change neither the digits nor the traps.
    """
    ((a, b),), n, big = clear_surds(value if isinstance(value, QuadExt) else as_fraction(value))
    return surd_decimal(a, b, n, big, digits)


def clear_surds(*values: QuadExt | Fraction | int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """((a, b) per value, N, L) with L (p + q sqrt(d)) = a + b sqrt(N) for
    each value p + q sqrt(d), all over one radicand d = n/m: N = n m and
    L > 0 is the lcm of the denominators of every p and q/m.  Irrational
    values over two radicands raise `MismatchedRadicandError`."""
    radicand = _ZERO
    for value in values:
        if isinstance(value, QuadExt) and value.q:
            if radicand and value.d != radicand:
                raise MismatchedRadicandError(
                    f"cannot combine sqrt({radicand}) with sqrt({value.d})")
            radicand = value.d
    parts = [(v.p, v.q) if isinstance(v, QuadExt) else (v, 0) for v in values]
    m = radicand.denominator
    big = math.lcm(*(p.denominator for p, _ in parts),
                   *(q.denominator * m for _, q in parts if q))
    return tuple((p.numerator * (big // p.denominator),
                  q.numerator * (big // (q.denominator * m)) if q else 0)
                 for p, q in parts), radicand.numerator * m, big


def ratio_text(num: int, den: int) -> str:
    """`str(Fraction(num, den))` for integers num and den != 0: one gcd."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def ratio_decimal(num: int, den: int, digits: int) -> str:
    """num / den, for integers num and den != 0, to `digits` significant
    decimal digits, rounded half-even once, from the exact value: one
    `Context.divide` at `digits`, which is correctly rounded and spells an
    exact quotient at its ideal exponent ("0.25", "1000")."""
    if den < 0:
        num, den = -num, -den
    out = _context(digits)
    return out.to_sci_string(out.divide(Decimal(num), Decimal(den)))


def surd_decimal(a: int, b: int, n: int, den: int, digits: int) -> str:
    """(a + b sqrt(n)) / den, for integers a, b, n >= 0 and den != 0, to
    `digits` significant decimal digits, rounded half-even once, from the
    exact value, by `ratio_decimal`.

    A rational value (b = 0, or n a square) is `ratio_decimal` of its
    integers.  An irrational value v is bracketed, not rounded: one
    `math.isqrt` gives t = floor(|v| 10^w) at a scale w where
    t >= 10^(digits + 1), so t < |v| 10^w < t + 1.  At that scale the
    rounding boundaries at `digits` digits and the powers of ten next to
    |v| 10^w are integers, so v rounds as the midpoint
    sign(v) (2t + 1) / (2 10^w) does.
    The scale widens when a and b sqrt(n) cancel beyond the size estimate.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if den < 0:
        a, b, den = -a, -b, -den
    root = math.isqrt(n)
    if not b or root * root == n:
        return ratio_decimal(a + b * root, den, digits)
    sign = surd_sign(a, b, n)  # never 0: the value is irrational
    a, b = sign * a, sign * b  # v = (a + b sqrt(n)) / den > 0 from here
    lead = max(a.bit_length(), b.bit_length() + (n.bit_length() - 1) // 2)
    lead -= den.bit_length() + 1  # v >= 2^lead unless a and b sqrt(n) cancel
    # floor(v 10^w) >= 10^(digits + 1) at this w; 1233/4096 < log10(2)
    w = max(0, digits + 1 - (lead * 1233 >> 12))
    low = 10 ** (digits + 1)
    while True:
        scale = 10**w
        root = math.isqrt(b * b * scale * scale * n)  # floor(|b| 10^w sqrt(n))
        t = (a * scale + (root if b > 0 else -root - 1)) // den
        if t >= low:
            return ratio_decimal(sign * (2 * t + 1), 2 * scale, digits)
        w += max(w, digits)


@functools.lru_cache(maxsize=64)
def _context(prec: int) -> Context:
    """A fixed decimal context: `prec` digits, half-even rounding, the
    default exponent limits and traps, whatever the thread's context is."""
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=-999_999, Emax=999_999,
                   capitals=1, clamp=0, flags=[],
                   traps=[InvalidOperation, DivisionByZero, Overflow])

