import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartic_certify import exactnum
from quartic_certify.exactnum import (
    MismatchedRadicandError,
    QuadExt,
    _context,
    parse_ratio,
    parse_rational,
    ratio_decimal,
    ratio_text,
    sign_of,
    sqrt_exact,
    surd_decimal,
    surd_sign,
    to_decimal,
)

from conftest import quad_parts

F = Fraction


class TestRationalSubstrate:
    def test_canonical_form(self):
        # denominator positive, gcd(num, den) = 1
        assert F(2, -4) == F(-1, 2)
        assert F(2, -4).denominator == 2 and F(2, -4).numerator == -1
        assert F(0, 7).denominator == 1

    def test_arithmetic_examples(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)
        assert F(-1, 4) * 4 == -1
        assert F(56, 3) - 16 == F(8, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / F(0)

    @given(
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    @settings(max_examples=200)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


class TestQuadExt:
    def test_sqrt_squared_is_radicand(self):
        root3 = QuadExt(F(0), F(1), F(3))
        assert root3 * root3 == QuadExt(F(3))
        assert (root3 * root3).is_rational

    def test_cube_of_two_over_sqrt3(self):
        x = QuadExt(F(0), F(2, 3), F(3))  # 2/sqrt(3)
        assert x**3 == QuadExt(F(0), F(8, 9), F(3))

    def test_multiplicative_identity(self):
        x = QuadExt(F(5, 7), F(-2, 3), F(11))
        assert QuadExt(F(1)) * x == x

    def test_perfect_square_collapses(self):
        x = QuadExt(F(1), F(1), F(9, 4))
        assert x.is_rational and x.as_fraction() == F(5, 2)
        assert QuadExt(F(2), F(3), F(0)) == 2

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(F(1), F(1), F(-3))

    def test_mismatched_radicands(self):
        with pytest.raises(MismatchedRadicandError):
            QuadExt(F(0), F(1), F(2)) + QuadExt(F(0), F(1), F(3))
        # rational operands mix with anything
        assert QuadExt(F(1)) + QuadExt(F(0), F(1), F(3)) == QuadExt(F(1), F(1), F(3))

    def test_equality_across_radicands(self):
        root2, root8 = QuadExt(F(0), F(1), F(2)), QuadExt(F(0), F(1), F(8))
        assert root8 == 2 * root2
        assert QuadExt(F(1), F(-1), F(8)) == QuadExt(F(1), F(-2), F(2))
        assert QuadExt(F(1, 3), F(3, 2), F(2, 9)) == QuadExt(F(1, 3), F(1, 2), F(2))
        assert hash(root8) == hash(2 * root2)
        assert len({root8, 2 * root2}) == 1

    def test_inequality_across_radicands(self):
        root2, root3 = QuadExt(F(0), F(1), F(2)), QuadExt(F(0), F(1), F(3))
        assert (root2 == root3) is False
        assert root2 != root3
        assert QuadExt(F(0), F(1), F(8)) != QuadExt(F(0), F(-2), F(2))  # opposite signs
        assert QuadExt(F(1), F(1), F(8)) != QuadExt(F(0), F(2), F(2))  # rational parts differ
        assert QuadExt(F(0), F(1), F(6)) != QuadExt(F(0), F(1), F(2)) * QuadExt(F(0), F(1), F(2))
        assert root2 != 1 and root2 != F(7, 5)
        # equality is exact, arithmetic across radicands still refuses
        with pytest.raises(MismatchedRadicandError):
            root2 * root3

    def test_division_by_rational(self):
        x = QuadExt(F(4), F(2), F(3))
        assert x / 2 == QuadExt(F(2), F(1), F(3))
        with pytest.raises(ZeroDivisionError):
            x / 0

    def test_ring_laws_random(self):
        rng = random.Random(7)
        d = F(5)
        vals = [
            QuadExt(F(rng.randint(-9, 9), rng.randint(1, 9)),
                    F(rng.randint(-9, 9), rng.randint(1, 9)), d)
            for _ in range(60)
        ]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a - a == 0


_quad_radicands = st.sampled_from([F(0), F(2), F(5, 3), F(12), F(9, 4)])


@st.composite
def _quad_values(draw, radicand):
    # a rational (d = 0) or an element over the shared radicand
    d = draw(st.sampled_from([F(0), radicand]))
    p = draw(st.fractions(max_denominator=30, min_value=-40, max_value=40))
    q = draw(st.fractions(max_denominator=30, min_value=-40, max_value=40))
    return QuadExt(p, q, d)


class TestArithmeticNormalForm:
    """Arithmetic results skip the constructor's checks; each must still be
    the value the public constructor builds from the same parts."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_results_match_public_constructor(self, data):
        radicand = data.draw(_quad_radicands)
        a = data.draw(_quad_values(radicand))
        b = data.draw(_quad_values(radicand))
        scalar = data.draw(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=20)))
        results = [a + b, a - b, a * b, -a, a + scalar, scalar - a, a * scalar, scalar * a]
        if scalar != 0:
            results.append(a / scalar)
        for r in results:
            assert quad_parts(r) == quad_parts(QuadExt(r.p, r.q, r.d))

    def test_products_collapsing_to_rationals(self):
        root2 = QuadExt(F(0), F(1), F(2))
        for r in (root2 * root2, root2 - root2, QuadExt(F(1), F(1), F(3)) * QuadExt(F(1), F(-1), F(3)),
                  root2 * 0, (root2 + 1) * (root2 - 1)):
            assert r.q == 0 and r.d == 0
            assert quad_parts(r) == quad_parts(QuadExt(r.p, r.q, r.d))
        assert quad_parts(root2 * root2) == quad_parts(QuadExt(F(2)))


class TestSign:
    def test_known_irrational_positive(self):
        # (16*sqrt(3) - 9)/36 written as -1/4 + (4/9) sqrt(3)
        assert QuadExt(F(-1, 4), F(4, 9), F(3)).sign() == 1

    def test_zero(self):
        assert QuadExt(F(0), F(0), F(5)).sign() == 0

    def test_sqrt73_below_ten(self):
        assert QuadExt(F(-10, 3), F(1, 3), F(73)).sign() == -1

    def test_perfect_square_matches_rational_sign(self):
        rng = random.Random(11)
        for _ in range(300):
            p = F(rng.randint(-20, 20), rng.randint(1, 10))
            q = F(rng.randint(-20, 20), rng.randint(1, 10))
            e = F(rng.randint(0, 12), rng.randint(1, 6))
            assert QuadExt(p, q, e * e).sign() == sign_of(p + q * e)

    def test_agrees_with_high_precision_decimal(self):
        rng = random.Random(13)
        with localcontext() as ctx:
            ctx.prec = 80
            for _ in range(10_000):
                p = F(rng.randint(-50, 50), rng.randint(1, 20))
                q = F(rng.randint(-50, 50), rng.randint(1, 20))
                d = F(rng.randint(0, 60), rng.randint(1, 10))
                x = QuadExt(p, q, d)
                approx = (
                    Decimal(p.numerator) / Decimal(p.denominator)
                    + Decimal(q.numerator) / Decimal(q.denominator)
                    * (Decimal(d.numerator) / Decimal(d.denominator)).sqrt()
                )
                if abs(approx) > Decimal("1e-30"):
                    assert x.sign() == (1 if approx > 0 else -1)
                else:
                    assert x.sign() == 0

    def test_surd_sign_on_integers(self):
        assert surd_sign(-10, 1, 101) == 1 and surd_sign(-10, 1, 73) == -1
        assert surd_sign(10, -1, 101) == -1 and surd_sign(-9, 1, 81) == 0
        assert surd_sign(3, -5, 0) == 1
        assert surd_sign(0, -2, 7) == -1 and surd_sign(0, 0, 7) == 0

    def test_surd_sign_exhaustive(self):
        # integer and Fraction parts a, b in [-12, 12], n square or not, as
        # integers and as Fractions: against the exact value when n is a
        # rational square or b = 0, else the float sign, which is never 0
        # there and whose margin dwarfs the float error at this size
        radicands = [F(0), F(1), F(2), F(4), F(5), F(3, 4), F(9, 4)]
        for n in radicands:
            root = sqrt_exact(n)
            for a in range(-12, 13):
                for b in range(-12, 13):
                    if root is not None or not b:  # a rational value
                        value = a + b * (root or 0)
                        expected = (value > 0) - (value < 0)
                    else:
                        approx = a + b * math.sqrt(n)
                        assert abs(approx) > 1e-3
                        expected = 1 if approx > 0 else -1
                    parts = [(F(a), F(b), n)]
                    if n.denominator == 1:
                        parts.append((a, b, int(n)))
                    for args in parts:
                        got = surd_sign(*args)
                        assert got == expected and type(got) is int, (args, got)

    def test_quad_ext_sign_is_surd_sign(self, monkeypatch):
        calls = []

        def spy(a, b, n):
            calls.append((a, b, n))
            return 7

        monkeypatch.setattr(exactnum, "surd_sign", spy)
        assert QuadExt(F(-1, 4), F(4, 9), F(3)).sign() == 7
        assert calls == [(F(-1, 4), F(4, 9), F(3))]

    def test_comparisons(self):
        lam0 = QuadExt(F(0), F(2, 3), F(3))
        assert lam0 > 0
        assert lam0 > F(1)
        assert lam0 < F(6, 5)
        assert QuadExt(F(56, 3)) == F(56, 3)


class TestBoundary:
    def test_sqrt_exact(self):
        assert sqrt_exact(F(4)) == 2
        assert sqrt_exact(F(9, 4)) == F(3, 2)
        assert sqrt_exact(F(2)) is None
        assert sqrt_exact(F(-1)) is None
        assert sqrt_exact(F(0)) == 0

    def test_parse_rational(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("7") == 7
        assert parse_rational("1e-2") == F(1, 100)
        # decimal exponents are capped at +-1000
        assert parse_rational("1e1000") == 10**1000
        assert parse_rational("-2.5E-1000") == F(-25, 10**1001)
        for text in ("seven", "1/0"):
            with pytest.raises(ValueError, match="not a rational number"):
                parse_rational(text)
        # the limit, not the syntax, rejects these, and the message says so
        for text in ("1e1001", "1e-1001", "1e200000"):
            with pytest.raises(ValueError, match=r"decimal exponent of .* beyond \+-1000"):
                parse_rational(text)

    def test_to_decimal_digits(self):
        assert to_decimal(F(1, 4), 12) == "0.25"
        lam0 = QuadExt(F(0), F(2, 3), F(3))
        assert to_decimal(lam0, 12) == "1.15470053838"
        # 2/sqrt(3) = 1.1547005383792515...
        assert to_decimal(lam0, 17) == "1.1547005383792515"

    def test_to_decimal_under_cancellation(self):
        # a/b - sqrt(2) with a/b the 81st convergent of sqrt(2), about
        # -2.77e-62: the default working precision cannot see its sign
        a, b = 1, 1
        for _ in range(80):
            a, b = a + 2 * b, a + b
        value = QuadExt(F(a, b), F(-1), F(2))
        assert value.sign() == -1
        for digits in (12, 40):
            with localcontext() as ctx:
                ctx.prec = 200
                exact = Decimal(a) / Decimal(b) - Decimal(2).sqrt()
                ctx.prec = digits
                expected = str(+exact)
            assert to_decimal(value, digits) == expected == reference_to_decimal(value, digits)
        assert to_decimal(value, 12) == "-2.76620249538E-62"
        assert to_decimal(value, 40) == "-2.766202495379937679420392152642569741904E-62"

    def test_to_decimal_ignores_the_callers_context(self):
        # the digits, the exponent letter and the traps are the renderer's,
        # not the thread's
        from decimal import ROUND_DOWN, Inexact

        lam0 = QuadExt(F(0), F(2, 3), F(3))
        with localcontext() as ctx:
            ctx.rounding = ROUND_DOWN
            ctx.prec = 5
            ctx.capitals = 0
            ctx.traps[Inexact] = True
            assert to_decimal(F(2, 3), 12) == "0.666666666667"
            assert to_decimal(lam0, 12) == "1.15470053838"
            assert to_decimal(F(10**400, 3), 12) == "3.33333333333E+399"


# -- the integer fast path of parse_rational ----------------------------------

_sign = st.sampled_from(["", "+", "-"])
_digits = st.text("0123456789", min_size=1, max_size=40)


@given(_sign, _digits, st.one_of(st.none(), _digits.filter(lambda d: d.strip("0"))))
@settings(max_examples=400)
def test_parse_fast_path_equals_fraction(sign, num, den):
    # signs, leading zeros, -0 and 0/q included
    text = sign + num if den is None else f"{sign}{num}/{den}"
    value = parse_rational(text)
    assert type(value) is Fraction
    assert value == Fraction(text)


@pytest.mark.parametrize("text", ["-0", "+0", "0/7", "-0/0001", "007", "+3/6", "-0002/4"])
def test_parse_fast_path_examples(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", [
    "1/0", "1/-2", "1/+2", "+-1", " 3/4", "3/4 ", "1_000", "١٢", "1.5e3", "1e1001",
    "1e-1001", "0/00", "-", "/2", "2/", "1" * 5000,
])
def test_parse_fallback_keeps_values_and_messages(text):
    # the values and the messages of the Fraction() path: an exponent
    # beyond the bound, else whatever Fraction() makes of the stripped text
    stripped = text.strip()
    if text in ("1e1001", "1e-1001"):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == f"decimal exponent of {stripped!r} beyond +-1000"
        return
    try:
        expected = Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == f"not a rational number: {stripped!r}"
    else:
        assert parse_rational(text) == expected


_ws = st.sampled_from(["", " ", "\t", " \n"])
_plain = st.builds(lambda sign, zeros, digits: sign + "0" * zeros + digits,
                   _sign, st.integers(0, 3), _digits)
_exponent = st.one_of(st.sampled_from(["1000", "-1000", "+1000", "1001", "-1001", "+1001"]),
                      st.integers(-1100, 1100).map(str))
_token = st.one_of(
    _plain,
    st.builds(lambda p, q: f"{p}/{q}", _plain, _digits),
    st.sampled_from(["1/0", "1/00", "-3/000", "0/00"]),
    st.builds(lambda p, f: f"{p}.{f}", _plain, _digits),
    st.builds(lambda m, e, x: f"{m}{e}{x}", st.one_of(_plain, st.builds(
        lambda p, f: f"{p}.{f}", _plain, _digits)), st.sampled_from("eE"), _exponent),
    st.sampled_from(["1_000", "-1_0/2_0", "1__0", "_1", "1_", "1.2_5", "1e1_0"]),
    st.sampled_from(["\u0661\u0662", "-\u0663/\u0664", "\uff11\uff12", "\u0661.5", "1e\u0661"]),
    st.builds(lambda sign, n, tail: sign + "7" * n + tail, _sign, st.integers(4290, 4400),
              st.sampled_from(["", "/3", ".5"])),
    st.builds(lambda p, n: f"{p}/{'3' * n}", _plain, st.integers(4290, 4400)),
    st.sampled_from(["seven", "-", "/2", "2/", "+-1", "1/-2", "1/+2", "", "1e", "inf", "nan"]),
)


@given(st.builds(lambda a, token, b: a + token + b, _ws, _token, _ws))
@settings(max_examples=600, deadline=None)
def test_parse_ratio_equals_parse_rational(text):
    # the integer parser is the parsing rule: a reduced ratio with den > 0
    # of parse_rational's value, or the same ValueError and text
    try:
        expected = parse_rational(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_ratio(text)
        assert str(info.value) == str(exc)
        assert str(exc).startswith(("not a rational number: ", "decimal exponent of "))
        return
    num, den = parse_ratio(text)
    assert type(num) is int and type(den) is int
    assert den > 0 and math.gcd(num, den) == 1
    assert (num, den) == (expected.numerator, expected.denominator)
    assert expected == Fraction(text)


# -- irrational decimals: surd_decimal against the Decimal algorithm ----------


def _decimal(value: Fraction, ctx) -> Decimal:
    """value rounded to ctx."""
    return ctx.divide(Decimal(value.numerator), Decimal(value.denominator))


def reference_to_decimal(value: QuadExt, digits: int) -> str:
    """The Decimal rendering `to_decimal` used for an irrational value: the
    square root at a working precision of max(digits + 25, 50), doubled
    until p and q sqrt(d) no longer cancel into the printed digits, then
    rounded a second time to `digits`."""
    prec = max(digits + 25, 50)
    while True:
        ctx = _context(prec)
        rat = _decimal(value.p, ctx)
        surd = ctx.multiply(_decimal(value.q, ctx), ctx.sqrt(_decimal(value.d, ctx)))
        total = ctx.add(rat, surd)
        bound = ctx.add(ctx.abs(rat), ctx.abs(surd)).scaleb(digits + 3 - prec, ctx)
        if ctx.abs(total) > bound:
            break
        prec *= 2
    out = _context(digits)
    return out.to_sci_string(out.plus(total))


def is_exact_rounding(value: QuadExt, text: str, digits: int) -> bool:
    """Whether `text` is the exact value rounded half-even to `digits`
    significant digits at the value's own leading digit, as Decimal rounds:
    checked by exact signs, independently of both renderers."""
    dec = Decimal(text)
    _, coefficient, exponent = dec.as_tuple()
    if len(coefficient) != digits:
        return False
    r, ulp = F(dec), F(10) ** exponent
    below, above = (value - (r - ulp / 2)).sign(), (r + ulp / 2 - value).sign()
    if below < 0 or above < 0 or ((below == 0 or above == 0) and coefficient[-1] % 2):
        return False
    size, top = (value if value.sign() > 0 else -value), F(10) ** (exponent + digits - 1)
    if size < top:  # only a carry, 99..9|5.. rounded up, reaches the leading digit
        return coefficient == (1,) + (0,) * (digits - 1) and size >= top - ulp / 20
    return size < 10 * top


_numerator = st.integers(-10**30, 10**30)
_denominator = st.integers(1, 10**12)
_rational = st.builds(F, _numerator, _denominator)


@given(_rational, _rational, st.builds(F, st.integers(0, 10**30), _denominator),
       st.integers(1, 60))
@settings(max_examples=500, deadline=None)
def test_to_decimal_against_the_decimal_reference(p, q, d, digits):
    value = QuadExt(p, q, d)
    text = to_decimal(value, digits)
    if value.is_rational:  # test_ratio_decimal_is_the_exact_rounding checks rationals
        return
    reference = reference_to_decimal(value, digits)
    assert is_exact_rounding(value, text, digits)
    # the reference rounds twice: it can differ only next to a tie, and
    # then it is the one that is wrong
    assert text == reference or not is_exact_rounding(value, reference, digits)


@given(_numerator, _numerator, st.one_of(st.integers(0, 10**30), st.integers(0, 10**15).map(
    lambda r: r * r)), st.integers(1, 10**12), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_surd_decimal_is_the_exact_rounding(a, b, n, den, digits):
    # rational values (b = 0 or n a square) included, ties among them
    value = QuadExt(F(a, den), F(b, den), F(n))
    text = surd_decimal(a, b, n, den, digits)
    assert text == "0" if value == 0 else is_exact_rounding(value, text, digits)
    assert surd_decimal(-a, -b, n, -den, digits) == text


@given(_rational, st.builds(F, st.integers(1, 10**6), st.integers(1, 10**3)),
       st.integers(1, 60), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_to_decimal_of_near_cancellation(q, d, digits, extra):
    # p = -q sqrt(d) to about 10 + extra digits: the value is small beside
    # either part, and its decimals need a widened scale
    scale = 10 ** (10 + extra)
    root = math.isqrt(d.numerator * d.denominator * scale * scale)
    value = QuadExt(-q * F(root, d.denominator * scale), q, d)
    assume(not value.is_rational)
    text = to_decimal(value, digits)
    assert text == reference_to_decimal(value, digits)
    assert is_exact_rounding(value, text, digits)


def test_to_decimal_next_to_a_tie():
    # 5/2 + 10^-60 sqrt(2) lies 1.4e-60 above the tie 5/2: rounded to one
    # digit it is 3.  The Decimal reference first rounds it to 50 digits,
    # onto 2.5 itself, and then rounds the tie to even: 2.
    value = QuadExt(F(5, 2), F(1, 10**60), F(2))
    assert to_decimal(value, 1) == "3"
    assert reference_to_decimal(value, 1) == "2"
    assert is_exact_rounding(value, "3", 1) and not is_exact_rounding(value, "2", 1)
    assert to_decimal(-value, 1) == "-3"
    assert to_decimal(QuadExt(F(5, 2), F(-1, 10**60), F(2)), 1) == "2"


def test_to_decimal_at_the_precision_bound():
    # 10000 digits, the command line's largest --precision
    for value in (QuadExt(F(0), F(2, 3), F(3)), QuadExt(F(-7, 3), F(5, 11), F(13, 2))):
        text = to_decimal(value, 10_000)
        assert text == reference_to_decimal(value, 10_000)
        assert is_exact_rounding(value, text, 10_000)


@pytest.mark.parametrize("a, b, n, den, digits, text", [
    (0, 2, 3, 3, 12, "1.15470053838"),  # 2 / sqrt(3)
    (1, 0, 5, 8, 12, "0.125000000000"),  # rational: all the digits are spelled
    (5, 0, 0, 2, 1, "2"),  # 5/2, a tie: to even
    (15, 0, 0, 2, 1, "8"),  # 15/2, a tie: to even
    (-5, 0, 0, 2, 1, "-2"),
    (3, -1, 9, 7, 5, "0"),  # 3 - sqrt(9)
    (0, 1, 2, -1, 3, "-1.41"),  # a negative denominator
    (999, 1, 0, 1, 2, "1.0E+3"),  # rounded up to the next power of ten
    (0, 1, 2, 10**9, 3, "1.41E-9"),
    (0, 1, 2, 1000, 4, "0.001414"),
])
def test_surd_decimal_examples(a, b, n, den, digits, text):
    assert surd_decimal(a, b, n, den, digits) == text
    assert str(Decimal(text)) == text


def _near_cancellation(b, n, offset):
    """a with a + b sqrt(n) about offset: a Pell-style cancellation."""
    root = math.isqrt(b * b * n)
    return (-root if b > 0 else root) + offset


@given(st.integers(-10**30, 10**30).filter(bool),
       st.integers(2, 10**12).filter(lambda n: math.isqrt(n) ** 2 != n),
       st.one_of(_numerator, st.integers(-3, 3)), st.booleans(),
       st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**6), st.integers(2, 10**6),
       st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_decimals_are_scale_invariant(b, n, a, cancel, den, k, s, digits):
    # one value spelled over other integers renders alike: (a, b, den) times
    # k, as the report re-denominates lam0 = (2 e2 + sqrt(D)) / (3 e4) to
    # (4 e2 + 2 sqrt(D)) / (6 e4), and b s sqrt(n) = b sqrt(n s^2)
    if cancel:
        a = _near_cancellation(b, n, a)
    text = surd_decimal(a, b, n, den, digits)
    assert surd_decimal(k * a, k * b, n, k * den, digits) == text
    assert surd_decimal(a, b * s, n, den, digits) == surd_decimal(a, b, n * s * s, den, digits)
    assert ratio_text(k * a, k * den) == ratio_text(a, den)
    assert ratio_decimal(k * a, k * den, digits) == ratio_decimal(a, den, digits)


def test_surd_decimal_rejects_no_digits():
    with pytest.raises(ValueError):
        surd_decimal(0, 1, 2, 1, 0)


# -- rationals rendered from a ratio of integers -------------------------------

_ratio_part = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**40, 10**40))


@given(_ratio_part, _ratio_part.filter(bool))
@settings(max_examples=400, deadline=None)
def test_ratio_text_equals_the_fraction_rendering(num, den):
    # unreduced ratios, negative denominators and zero included
    for n, d in ((num, den), (num * 6, den * 6), (-num, -den)):
        assert ratio_text(n, d) == str(Fraction(n, d))


def _half_even(value: Fraction, digits: int) -> Fraction:
    """value rounded half-even to `digits` significant digits by round() of
    the Fraction scaled to that many digits, which rounds a tie to even
    exactly: a reference independent of `decimal`."""
    if not value:
        return value
    lead = len(str(abs(value.numerator))) - len(str(value.denominator))
    if abs(value) < F(10) ** lead:  # lead is floor(log10 |value|) or one above
        lead -= 1
    scale = F(10) ** (digits - 1 - lead)
    return round(value * scale) / scale


@given(st.data(), st.integers(1, 60))
@settings(max_examples=600, deadline=None)
def test_ratio_decimal_is_the_exact_rounding(data, digits):
    if data.draw(st.booleans()):
        # ((2k+1)/2 +- 10^-e) 10^-s lies next to a tie, beyond 50 digits: a
        # quotient rounded to 50 digits first lands on the tie itself
        k = data.draw(st.integers(10 ** (digits - 1), 10**digits - 1))
        offset = F(data.draw(st.sampled_from((1, -1))), 10 ** data.draw(st.integers(51, 90)))
        value = (F(2 * k + 1, 2) + offset) / F(10) ** data.draw(st.integers(-30, 30))
        num, den = data.draw(st.sampled_from((1, -1))) * value.numerator, value.denominator
    else:
        num, den = data.draw(_ratio_part), data.draw(_ratio_part.filter(bool))
    expected = _half_even(F(num, den), digits)
    # unreduced ratios, negative denominators and zero included
    for n, d in ((num, den), (num * 6, den * 6), (-num, -den)):
        text = ratio_decimal(n, d, digits)
        assert F(Decimal(text)) == expected
        assert len(Decimal(text).as_tuple().digits) <= digits


@pytest.mark.parametrize("num, den, text", [
    (0, 1, "0"), (0, -7, "0"), (6, -4, "-3/2"), (-6, -4, "3/2"), (-8, 4, "-2"), (10**20, 10**20, "1"),
])
def test_ratio_text_examples(num, den, text):
    assert ratio_text(num, den) == text == str(Fraction(num, den))
    assert ratio_decimal(num, den, 12) == to_decimal(Fraction(num, den), 12)
