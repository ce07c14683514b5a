import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import exactnum
from quartic_certify.exactnum import (
    MismatchedRadicandError,
    QuadExt,
    parse_rational,
    sign_of,
    sqrt_exact,
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
        with localcontext() as ctx:
            ctx.prec = 200
            exact = Decimal(a) / Decimal(b) - Decimal(2).sqrt()
            ctx.prec = 12
            expected = str(+exact)
        assert to_decimal(value, 12) == expected == "-2.76620249538E-62"
