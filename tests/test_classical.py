from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import (
    Definiteness,
    MonicQuartic,
    classical_is_pd,
    decide_monic,
    quartic_root_nature,
    sign_of,
    to_weighted,
)
from quartic_certify.classical import _monic_quantities, _pd_criterion, classical_quantities
from quartic_certify.exactnum import ratio_text
from quartic_certify.forms import GeneralQuartic

F = Fraction


def test_quantities_first_golden_form():
    q = classical_quantities(GeneralQuartic(1, 0, 0, F(1, 4), 1))
    assert (q.G, q.H, q.I, q.J) == (F(1, 4), 0, 1, F(-1, 16))
    assert q.delta == F(229, 256)
    assert q.delta == q.I**3 - 27 * q.J**2


def test_quantities_squared_circle():
    # (x^2+y^2)^2 in weighted coordinates
    q = classical_quantities(GeneralQuartic(1, 0, F(1, 3), 0, 1))
    assert (q.G, q.H, q.I, q.J) == (0, F(1, 3), F(4, 3), F(8, 27))
    assert q.delta == 0 and q.aux == 0


def test_quantities_pure_power():
    q = classical_quantities(GeneralQuartic(1, 0, 0, 0, 0))
    assert (q.G, q.H, q.I, q.J, q.delta) == (0, 0, 0, 0, 0)


def test_is_pd_conditions():
    # condition (2): Delta > 0, H >= 0
    assert classical_is_pd(GeneralQuartic(1, 0, 0, F(1, 4), 1))
    # condition (1): the boundary equalities with H > 0
    assert classical_is_pd(GeneralQuartic(1, 0, F(1, 3), 0, 1))
    # a form with real roots satisfies no condition
    assert not classical_is_pd(GeneralQuartic(1, 0, F(-5, 6), 0, 4))


def test_requires_positive_leading():
    with pytest.raises(ValueError):
        classical_is_pd(GeneralQuartic(-1, 0, 0, 0, -1))
    with pytest.raises(ValueError):
        classical_is_pd(GeneralQuartic(0, 0, 1, 0, 1))


def test_agreement_with_pencil_decision(small_corpus):
    for m in small_corpus:
        expected = decide_monic(m).classification is Definiteness.POSITIVE_DEFINITE
        assert classical_is_pd(to_weighted(m)) == expected


def test_delta_negative_detects_single_conjugate_pair(small_corpus):
    for m in small_corpus:
        nature = quartic_root_nature(m)
        if nature.total_multiplicity() != (
            nature.real_simple + 2 * nature.conjugate_simple_pairs
        ):
            continue  # only the all-simple-roots regime
        delta = classical_quantities(to_weighted(m)).delta
        one_pair = (
            nature.conjugate_simple_pairs == 1 and nature.real_simple == 2
        )
        assert (sign_of(delta) < 0) == one_pair


def _fraction_quantities(v):
    """The quantities by the textbook formulas in Fractions: the reference
    the integer computation of `classical_quantities` must reproduce."""
    c0, c1, c2, c3, c4 = v.c0, v.c1, v.c2, v.c3, v.c4
    G = c0**2 * c3 - 3 * c0 * c1 * c2 + 2 * c1**3
    H = c0 * c2 - c1**2
    I = c0 * c4 - 4 * c1 * c3 + 3 * c2**2
    J = (
        c0 * (c2 * c4 - c3**2)
        - c1 * (c1 * c4 - c2 * c3)
        + c2 * (c1 * c3 - c2**2)
    )
    return G, H, I, J, I**3 - 27 * J**2, 12 * H**2 - c0**2 * I


_coefficient = st.one_of(
    st.integers(-50, 50),
    st.builds(F, st.integers(-1000, 1000), st.integers(1, 1000)),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)


@given(st.tuples(_coefficient, _coefficient, _coefficient, _coefficient, _coefficient))
@settings(max_examples=300, deadline=None)
def test_integer_quantities_equal_the_fraction_formulas(coeffs):
    # non-monic forms, plain ints, and 10^30-size numerators over 10^12
    v = GeneralQuartic(*coeffs)
    q = classical_quantities(v)
    got = (q.G, q.H, q.I, q.J, q.delta, q.aux)
    expected = _fraction_quantities(v)
    assert got == expected
    assert all(type(x) is Fraction for x in got)
    assert [str(x) for x in got] == [str(x) for x in expected]  # printed as before
    if v.c0 > 0:
        G, H, I, J, delta, aux = expected
        assert classical_is_pd(v) == (
            (delta == 0 and G == 0 and aux == 0 and H > 0)
            or (delta > 0 and H >= 0)
            or (delta > 0 and H < 0 and aux < 0)
        )


def _values(q):
    return q.G, q.H, q.I, q.J, q.delta, q.aux


@given(st.tuples(_coefficient, _coefficient, _coefficient, _coefficient))
@settings(max_examples=300, deadline=None)
def test_monic_record_quantities_equal_the_weighted_ones(coeffs):
    # a MonicQuartic is read from its integer record, with no clearing, as
    # integer ratios over positive denominators; every printed quantity and
    # the criterion on their numerators are those of the weighted form of
    # to_weighted
    m = MonicQuartic(*coeffs)
    got, expected = _monic_quantities(m), classical_quantities(to_weighted(m))
    assert all(den > 0 for _, den in got)
    assert [ratio_text(*q) for q in got] == [str(value) for value in _values(expected)]
    (G, _), (H, _), _, _, (delta, _), (aux, _) = got
    assert _pd_criterion(G, H, delta, aux) == classical_is_pd(to_weighted(m))


def test_monic_record_is_not_cleared_again(monkeypatch):
    import quartic_certify.classical as classical

    m = MonicQuartic(F(1, 2), F(-3, 4), 5, F(7, 6))
    expected = classical_quantities(to_weighted(m))

    def forbidden(*args):
        raise AssertionError("cleared again")

    monkeypatch.setattr(classical, "clear_ratios", forbidden)
    assert tuple(F(*q) for q in _monic_quantities(m)) == _values(expected)
