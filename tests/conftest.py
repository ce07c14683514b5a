"""Shared corpus builders for the test suite.

Everything is seeded so failures reproduce; coefficient sizes follow the
numerator/denominator <= 1000 regime the library is exercised at.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quartic_certify import MonicQuartic


def quad_parts(value):
    """The parts of a QuadExt with their types, for exact identity checks."""
    return type(value.p), type(value.q), type(value.d), value.p, value.q, value.d


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
