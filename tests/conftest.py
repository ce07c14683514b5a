"""Shared corpus builders for the test suite.

Everything is seeded so failures reproduce; coefficient sizes follow the
numerator/denominator <= 1000 regime the library is exercised at.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from quartic_certify import MonicQuartic, QuadExt
from quartic_certify.pencil import surd_parts


def quad_parts(value):
    """The parts of a QuadExt with their types, for exact identity checks."""
    return type(value.p), type(value.q), type(value.d), value.p, value.q, value.d


def surd_value(m, surd):
    """A value (a, b, den) of `lam0_surds(m)` as a QuadExt over the radicand
    d of m, from its `surd_parts`; m must have d >= 0."""
    p, q, d = surd_parts(m, *surd)
    return QuadExt(Fraction(*p), Fraction(*q), Fraction(*d))


def fraction_formula(e4, e3, e2, e1, e0, x, y):
    """e4 x^4 + e3 x^3 y + e2 x^2 y^2 + e1 x y^3 + e0 y^4 written out in
    Fraction arithmetic, term by term: the reference for a form's value
    that shares no code with the library's integer Horner."""
    e4, e3, e2, e1, e0, x, y = map(Fraction, (e4, e3, e2, e1, e0, x, y))
    return e4 * x**4 + e3 * x**3 * y + e2 * x**2 * y**2 + e1 * x * y**3 + e0 * y**4


def random_fraction(rng: random.Random, num: int = 1000, den: int = 1000) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_monic(rng: random.Random, num: int = 1000, den: int = 1000) -> MonicQuartic:
    return MonicQuartic(*(random_fraction(rng, num, den) for _ in range(4)))


def random_psd_square(rng: random.Random) -> MonicQuartic:
    """(x^2 + b xy + c y^2)^2: semidefinite by construction, and definite
    exactly when the inner quadratic has no real root."""
    b = random_fraction(rng, 30, 10)
    c = random_fraction(rng, 30, 10)
    return MonicQuartic(2 * b, b * b + 2 * c, 2 * b * c, c * c)


def random_indefinite_product(rng: random.Random) -> MonicQuartic:
    """(x - r1 y)(x - r2 y)(x^2 + c y^2) with r1 != r2 well separated and
    c > 0: changes sign across the simple root x = r1 y."""
    while True:
        r1 = random_fraction(rng, 40, 8)
        r2 = random_fraction(rng, 40, 8)
        if abs(r1 - r2) >= Fraction(1, 20):
            break
    c = abs(random_fraction(rng, 30, 10)) + 1
    s, p = r1 + r2, r1 * r2
    return MonicQuartic(-s, p + c, -c * s, c * p)


def mixed_corpus(seed: int, n_random: int, n_psd: int, n_indef: int) -> list[MonicQuartic]:
    rng = random.Random(seed)
    forms = [random_monic(rng) for _ in range(n_random)]
    forms += [random_psd_square(rng) for _ in range(n_psd)]
    forms += [random_indefinite_product(rng) for _ in range(n_indef)]
    return forms


@pytest.fixture(scope="session")
def small_corpus() -> list[MonicQuartic]:
    return mixed_corpus(seed=1105, n_random=300, n_psd=100, n_indef=100)


# Hypothesis strata: monic quartics f(x, 1) built from chosen roots, so the
# case is known by construction.  Roots are small rationals or ones with
# 10^30-size numerators over denominators up to 10^12.
root_rational = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)
_nonzero = root_rational.filter(bool)


def _times(*factors):
    """Product of polynomials given low-to-high."""
    out = [Fraction(1)]
    for factor in factors:
        acc = [Fraction(0)] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                acc[i + j] += a * b
        out = acc
    return out


def _linear(r):
    return [-r, Fraction(1)]


def _quadratic(a, b, square):
    """Monic with roots a +- b sqrt(square)."""
    return [a * a - b * b * square, -2 * a, Fraction(1)]


@st.composite
def _real_simple_pair(draw):
    """(factor, root keys): two distinct rational roots or a +- b sqrt(2)."""
    a, b = draw(root_rational), draw(_nonzero)
    if draw(st.booleans()):
        return _times(_linear(a), _linear(a + b)), {a, a + b}
    return _quadratic(a, b, 2), {("sqrt2", a, abs(b))}


@st.composite
def _conjugate_pair(draw):
    """(factor, key): a +- b i, b != 0."""
    a, b = draw(root_rational), draw(_nonzero)
    return _quadratic(a, b, -1), (a, abs(b))


@st.composite
def configured_form(draw, case_id):
    if case_id == 1:
        (p, keys), (q, more) = draw(_real_simple_pair()), draw(_real_simple_pair())
        assume(not keys & more)
        poly = _times(p, q)
    elif case_id == 2:
        (p, key), (q, other) = draw(_conjugate_pair()), draw(_conjugate_pair())
        assume(key != other)
        poly = _times(p, q)
    elif case_id == 3:
        poly = _times(draw(_real_simple_pair())[0], draw(_conjugate_pair())[0])
    elif case_id == 4:
        (p, keys), r = draw(_real_simple_pair()), draw(root_rational)
        assume(r not in keys)
        poly = _times(p, _linear(r), _linear(r))
    elif case_id == 5:
        r = draw(root_rational)
        poly = _times(draw(_conjugate_pair())[0], _linear(r), _linear(r))
    elif case_id == 6:
        r, s = draw(root_rational), draw(root_rational)
        assume(r != s)
        poly = _times(_linear(r), _linear(r), _linear(s), _linear(s))
    elif case_id == 7:
        p = draw(_conjugate_pair())[0]
        poly = _times(p, p)
    elif case_id == 8:
        r, s = draw(root_rational), draw(root_rational)
        assume(r != s)
        poly = _times(_linear(r), _linear(s), _linear(s), _linear(s))
    else:
        poly = _times(*[_linear(draw(root_rational))] * 4)
    c0, c1, c2, c3, _ = poly
    return MonicQuartic(c3, c2, c1, c0)
