import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import (
    MonicQuartic,
    NormalizedProblem,
    evaluate,
    from_plain_coeffs,
    to_weighted,
)
from quartic_certify.forms import Orientation, clear_denominators, evaluate_ratio

from conftest import fraction_formula

F = Fraction


def test_from_plain_monicises_positive_leading():
    p = from_plain_coeffs(1, 0, 0, 1, 1)
    assert p.form == MonicQuartic(F(0), F(0), F(1), F(1))
    assert p.orientation is Orientation.POSITIVE_SIDE
    assert p.form is not None


def test_from_plain_positive_scaling_is_noop():
    assert from_plain_coeffs(2, 0, 0, 2, 2).form == from_plain_coeffs(1, 0, 0, 1, 1).form


def test_from_plain_negative_side_flips():
    p = from_plain_coeffs(-1, 6, -13, 24, -36)
    assert p.form == MonicQuartic(F(-6), F(13), F(-24), F(36))
    assert p.orientation is Orientation.NEGATIVE_SIDE
    assert p.scale == 1


def test_from_plain_degenerate_leading():
    p = from_plain_coeffs(0, 1, 2, 3, 4)
    assert p.form is None and p.orientation is None
    assert p.input_record == (1, 0, 1, 2, 3, 4)


def test_to_weighted_examples():
    assert to_weighted(MonicQuartic(0, 0, 1, 1)) == to_weighted(
        from_plain_coeffs(1, 0, 0, 1, 1).form
    )
    v = to_weighted(MonicQuartic(0, 0, 1, 1))
    assert (v.c0, v.c1, v.c2, v.c3, v.c4) == (1, 0, 0, F(1, 4), 1)
    v = to_weighted(MonicQuartic(0, 0, 0, 0))
    assert (v.c0, v.c1, v.c2, v.c3, v.c4) == (1, 0, 0, 0, 0)
    v = to_weighted(MonicQuartic(4, 6, 4, 1))
    assert (v.c0, v.c1, v.c2, v.c3, v.c4) == (1, 1, 1, 1, 1)


def test_evaluate_examples():
    m = MonicQuartic(0, 0, 1, 1)
    assert evaluate(m, 1, 1) == 3
    assert evaluate(MonicQuartic(7, -2, 5, 9), 1, 0) == 1
    assert evaluate(MonicQuartic(4, 6, 4, 1), 1, -1) == 0


def test_evaluate_rejects_floats():
    with pytest.raises(TypeError):
        evaluate(MonicQuartic(0, 0, 0, 0), 0.5, 1)


def test_orientation_soundness():
    rng = random.Random(17)
    for _ in range(200):
        coeffs = [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(5)]
        if coeffs[0] == 0:
            coeffs[0] = F(rng.randint(1, 50))
        p = from_plain_coeffs(*coeffs)
        sign = 1 if p.orientation is Orientation.POSITIVE_SIDE else -1
        x, y = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
        original = fraction_formula(*coeffs, x, y)
        assert original == p.scale * sign * evaluate(p.form, x, y)


def test_dehomogenized_matches_evaluation():
    rng = random.Random(19)
    for _ in range(100):
        m = MonicQuartic(*(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
        x, y = F(rng.randint(-9, 9)), F(rng.randint(1, 9))
        lo = m.dehomogenized()
        value = sum(c * (x / y) ** i for i, c in enumerate(lo))
        assert evaluate(m, x, y) == y**4 * value


# -- integer Horner against the Fraction formula ------------------------------


def ratio_of(coeffs, x, y):
    """`evaluate_ratio` of plain coefficients: cleared, then at x, y."""
    record = clear_denominators(*map(Fraction, coeffs))
    return evaluate_ratio(record, Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio())


big_coefficients = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.just(0),
)
points = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
    # dyadic points, as the witness search proposes them
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(16, 64).map(lambda k: 2**k)),
    st.just(0),
)


@given(st.tuples(*[big_coefficients] * 5))
@settings(max_examples=200)
def test_swapped_is_the_reversed_input(coeffs):
    # with e4 = 0 the decided problem is f(y, x), normalised from the
    # reversed record, as from the reversed input; none when e0 = 0 too
    coeffs = (0, *coeffs[1:])
    if Fraction(coeffs[4]) == 0:
        assert from_plain_coeffs(*coeffs).decided() is None
        return
    swapped = from_plain_coeffs(*coeffs).decided()
    expected = from_plain_coeffs(*reversed(coeffs))
    assert swapped == expected and swapped.input_record == expected.input_record
    assert swapped.input_ratios == expected.input_ratios
    assert swapped.form.cleared == expected.form.cleared
    assert swapped.form.invariants == expected.form.invariants


class TestDecided:
    """`NormalizedProblem.decided()`: the problem whose form is decided."""

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 1, 1), (-1, 6, -13, 24, -36), (2, 1, 0, 0, 0),
                                        (F(-3, 7), 0, 1, 0, 0)])
    def test_a_monic_problem_is_its_own(self, coeffs):
        p = from_plain_coeffs(*coeffs)
        assert p.decided() is p

    @pytest.mark.parametrize("coeffs, side", [
        ((0, 1, 2, 3, 4), Orientation.POSITIVE_SIDE),
        ((0, 1, 0, 0, -3), Orientation.NEGATIVE_SIDE),
        ((0, 0, 0, 0, F(1, 2)), Orientation.POSITIVE_SIDE),
    ])
    def test_e4_zero_is_decided_as_f_of_y_x(self, coeffs, side):
        p = from_plain_coeffs(*coeffs)
        decided = p.decided()
        assert decided == from_plain_coeffs(*reversed(coeffs))
        assert decided.orientation is side and decided.form is not None
        assert p.decided() is decided  # built once, then kept

    @pytest.mark.parametrize("coeffs", [(0, 1, 0, 1, 0), (0, 0, 3, 0, 0), (0, 0, 0, 0, 0)])
    def test_e4_and_e0_zero_decide_no_form(self, coeffs):
        assert from_plain_coeffs(*coeffs).decided() is None

    def test_neither_form_nor_record_raises(self):
        with pytest.raises(ValueError):
            NormalizedProblem(None, None, F(0)).decided()
        with pytest.raises(ValueError):
            NormalizedProblem(None, Orientation.POSITIVE_SIDE, F(1)).decided()


@given(st.tuples(*[big_coefficients] * 5), points, points)
@settings(max_examples=400)
def test_evaluate_ratio_matches_the_fraction_formula(coeffs, x, y):
    num, den = ratio_of(coeffs, x, y)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == fraction_formula(*coeffs, x, y)


@given(st.tuples(*[big_coefficients] * 4), points, points)
@settings(max_examples=100)
def test_evaluate_ratio_without_leading_term(coeffs, x, y):
    assert Fraction(*ratio_of((0, *coeffs), x, y)) == fraction_formula(0, *coeffs, x, y)


@pytest.mark.parametrize("x, y", [(0, 0), (0, F(-3, 7)), (F(5, 2), 0), (F(-1, 2**64), F(-3))])
def test_evaluate_at_axis_points(x, y):
    coeffs = (F(3, 4), -2, F(-7, 9), 5, F(1, 6))
    p = from_plain_coeffs(*coeffs)
    value = evaluate(p.form, x, y)
    assert type(value) is Fraction and p.scale * value == fraction_formula(*coeffs, x, y)


@pytest.mark.parametrize("args", [
    (1, 0, 0, 0, 1, 0.5, 1),
    (1, 0, 0, 0, 1, 1, 0.5),
    (1.0, 0, 0, 0, 1, 1, 1),
    (1, 0, 0, 0.25, 1, 1, 1),
])
def test_evaluate_of_plain_coefficients_rejects_floats(args):
    *coeffs, x, y = args
    with pytest.raises(TypeError):
        evaluate(from_plain_coeffs(*coeffs).form, x, y)


# -- the integer record of a monic form ---------------------------------------


@given(st.tuples(*[big_coefficients] * 4))
@settings(max_examples=200)
def test_cleared_record_is_the_lcm_clearing(coeffs):
    m = MonicQuartic(*coeffs)
    e4 = math.lcm(*(Fraction(c).denominator for c in coeffs))
    expected = (e4, *(Fraction(c) * e4 for c in coeffs))
    assert m.cleared == expected
    assert all(type(e) is int for e in m.cleared)
    assert m.cleared[0] > 0


def test_cleared_record_is_outside_eq_hash_and_repr():
    m = MonicQuartic(F(1, 2), F(-3, 4), 5, F(7, 6))
    assert m.cleared == (12, 6, -9, 60, 14)
    assert repr(m) == ("MonicQuartic(a3=Fraction(1, 2), a2=Fraction(-3, 4), "
                       "a1=Fraction(5, 1), a0=Fraction(7, 6))")
    assert hash(m) == hash((m.a3, m.a2, m.a1, m.a0))
    twin = MonicQuartic(F(1, 2), F(-3, 4), 5, F(7, 6))
    object.__setattr__(twin, "cleared", (1, 0, 0, 0, 0))
    assert twin == m and hash(twin) == hash(m)
    assert [f.name for f in dataclasses.fields(m) if f.compare] == ["a3", "a2", "a1", "a0"]


def test_every_construction_carries_the_record():
    m = MonicQuartic(F(1, 2), 0, 0, 1)
    assert dataclasses.replace(m, a0=F(1, 3)).cleared == (6, 3, 0, 0, 2)
    assert from_plain_coeffs(-4, 2, 0, 0, -1).form.cleared == (4, -2, 0, 0, 1)
    with pytest.raises(ValueError):
        dataclasses.replace(m, cleared=(1, 0, 0, 0, 0))


# -- the input record of from_plain_coeffs ------------------------------------


def lcm_record(a3, a2, a1, a0):
    """The record of the monic form by its definition: the lcm of the
    denominators, times each coefficient."""
    e4 = math.lcm(a3.denominator, a2.denominator, a1.denominator, a0.denominator)
    return (e4, *(int(a * e4) for a in (a3, a2, a1, a0)))


@given(st.tuples(*[big_coefficients] * 5))
@settings(max_examples=400)
def test_from_plain_record_is_the_lcm_record(coeffs):
    # both sides, and num/den up to 10^30/10^12
    e4, e3, e2, e1, e0 = map(Fraction, coeffs)
    p = from_plain_coeffs(*coeffs)
    assert p.input_record == clear_denominators(e4, e3, e2, e1, e0)
    assert all(type(k) is int for k in p.input_record)
    if e4 == 0:
        assert p.form is None
        big = p.input_record[0]
        assert tuple(Fraction(k, big) for k in p.input_record[2:]) == (e3, e2, e1, e0)
        return
    monic = (e3 / e4, e2 / e4, e1 / e4, e0 / e4)
    m = p.form
    assert (m.a3, m.a2, m.a1, m.a0) == monic
    assert all(type(a) is Fraction for a in (m.a3, m.a2, m.a1, m.a0))
    assert m.cleared == lcm_record(*monic) == MonicQuartic(*monic).cleared
    assert all(type(e) is int for e in m.cleared)
    assert m.invariants == MonicQuartic(*monic).invariants
    assert p.scale == abs(e4)
    assert p.orientation is (Orientation.POSITIVE_SIDE if e4 > 0
                             else Orientation.NEGATIVE_SIDE)


def test_input_record_is_outside_eq_and_repr():
    p = from_plain_coeffs(F(-1, 2), 0, F(3, 4), 0, 1)
    assert p.input_record == (4, -2, 0, 3, 0, 4)
    assert p.input_ratios == ((-1, 2), (0, 1), (3, 4), (0, 1), (1, 1))
    assert p.form.cleared == (2, 0, -3, 0, -4)
    twin = dataclasses.replace(p, input_record=None, input_ratios=None)
    assert twin == p and repr(twin) == repr(p)
    assert "input_record" not in repr(p) and "input_ratios" not in repr(p)
    assert from_plain_coeffs(0, 1, F(1, 3), 0, 2).input_record == (3, 0, 3, 1, 0, 6)


@given(st.tuples(*[big_coefficients] * 5), points, points)
@settings(max_examples=200)
def test_evaluate_ratio_of_the_input_record(coeffs, x, y):
    record = from_plain_coeffs(*coeffs).input_record
    value = evaluate_ratio(record, Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio())
    assert Fraction(*value) == fraction_formula(*coeffs, x, y)
