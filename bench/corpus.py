"""Seeded corpora for the benchmark workloads.

Every form is drawn from a named stratum.  Where the construction fixes
the definiteness class (squares, products of definite quadratics, their
negations, y^2 * q, indefinite products) the expected verdict is recorded
with the form; the random strata record no expectation and are judged by
their certificate or witnesses alone.  The program under test only ever
sees the batch file written by `write_batch`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path

PD = "positive-definite"
PSD = "positive-semidefinite-not-definite"
ND = "negative-definite"
NSD = "negative-semidefinite-not-definite"
INDEF = "indefinite"
ZERO = "identically-zero"


@dataclass(frozen=True)
class Form:
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]  # e4 .. e0
    stratum: str
    expected: str | None  # verdict fixed by the construction, or None


# -- building blocks ---------------------------------------------------------


def _frac(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _pos_frac(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def _mul(p: tuple, q: tuple) -> tuple:
    """Product of two binary forms given as coefficient tuples, x-degree first."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _scaled(k: Fraction, coeffs: tuple) -> tuple:
    return tuple(k * c for c in coeffs)


def _negated(expected: str) -> str:
    return {PD: ND, PSD: NSD}[expected]


def _square(b: Fraction, c: Fraction) -> tuple[tuple, str]:
    """(x^2 + b xy + c y^2)^2: definite iff the inner quadratic has no real root."""
    inner = (Fraction(1), b, c)
    return _mul(inner, inner), PD if b * b < 4 * c else PSD


def _definite_quadratic(rng: random.Random, num: int, den: int) -> tuple:
    """a x^2 + b xy + c y^2 with a > 0 and b^2 < 4ac."""
    a = _pos_frac(rng, num, den)
    b = _frac(rng, num, den)
    c = b * b / (4 * a) + _pos_frac(rng, num, den)
    return (a, b, c)


# -- strata ------------------------------------------------------------------


def random_monic(rng, num=1000, den=1000) -> Form:
    return Form((Fraction(1),) + tuple(_frac(rng, num, den) for _ in range(4)),
                "random-monic", None)


def random_general(rng, num=1000, den=1000) -> Form:
    e4 = _pos_frac(rng, num, den) * rng.choice((1, -1))
    return Form((e4,) + tuple(_frac(rng, num, den) for _ in range(4)),
                "random-nonmonic", None)


def psd_square(rng) -> Form:
    coeffs, expected = _square(_frac(rng, 30, 10), _frac(rng, 30, 10))
    return Form(_scaled(_pos_frac(rng, 1000, 1000), coeffs), "psd-square", expected)


def indefinite_product(rng, same_sign: bool, root_num=40, root_den=8, c_num=30, c_den=10,
                       stratum="indefinite-product") -> Form:
    """(x - r1 y)(x - r2 y)(x^2 + c y^2), r1 != r2 nonzero, c > 0: a sign change at x = r1 y.

    Whether r1 and r2 share a sign is fixed by the caller: the witness search
    costs about ten times more when they do, so it is a stratum of its own.
    """
    while True:
        r1 = abs(_frac(rng, root_num, root_den))
        r2 = abs(_frac(rng, root_num, root_den))
        if r1 and r2 and r1 != r2:
            break
    sign = rng.choice((1, -1))
    r1, r2 = sign * r1, (sign if same_sign else -sign) * r2
    c = _pos_frac(rng, c_num, c_den)
    coeffs = _mul(_mul((Fraction(1), -r1), (Fraction(1), -r2)), (Fraction(1), Fraction(0), c))
    return Form(coeffs, f"{stratum}-{'one-side' if same_sign else 'split'}", INDEF)


def definite_product(rng) -> Form:
    coeffs = _mul(_definite_quadratic(rng, 30, 10), _definite_quadratic(rng, 30, 10))
    return Form(coeffs, "definite-product", PD)


def negative_side(rng) -> Form:
    """The negation of a square or of a definite product, at a random scale."""
    base = psd_square(rng) if rng.random() < 0.5 else definite_product(rng)
    k = -_pos_frac(rng, 1000, 1000)
    return Form(_scaled(k, base.coeffs), "negative-side", _negated(base.expected))


def y2_times_quadratic(rng) -> Form:
    """y^2 * q with q semidefinite of either sign: e4 = e3 = 0."""
    a = _pos_frac(rng, 30, 10)
    b = _frac(rng, 30, 10)
    c = b * b / (4 * a) + (_pos_frac(rng, 30, 10) if rng.random() < 0.7 else 0)
    sign = rng.choice((1, -1))
    zero = Fraction(0)
    return Form((zero, zero, sign * a, sign * b, sign * c), "y2-quadratic",
                PSD if sign > 0 else NSD)


def degenerate_leading(rng) -> Form:
    """e4 = 0: y * cubic (always indefinite) or y^2 * q with q of any kind."""
    zero = Fraction(0)
    if rng.random() < 0.6:
        e3 = _frac(rng, 1000, 1000) or Fraction(1)
        return Form((zero, e3) + tuple(_frac(rng, 1000, 1000) for _ in range(3)),
                    "degenerate-leading", INDEF)
    e2, e1, e0 = (_frac(rng, 1000, 1000) for _ in range(3))
    disc = e1 * e1 - 4 * e2 * e0
    if disc > 0:
        expected = INDEF
    elif e2 > 0 or e0 > 0:
        expected = PSD
    elif e2 < 0 or e0 < 0:
        expected = NSD
    else:
        expected = ZERO
    return Form((zero, zero, e2, e1, e0), "degenerate-leading", expected)


def big_psd_square(rng) -> Form:
    """(x^2 + b xy + c y^2)^2 with |b| <= 1e7 and |c| <= 1e9, times up to 1e12.

    Kept exactly as drawn: the exact verdicts are right, but the float circle
    oracle's fixed absolute band flags some of them as disagreements.
    """
    b = Fraction(rng.randint(-2 * 10**7, 2 * 10**7), 2)
    c = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 1000))
    coeffs, expected = _square(b, c)
    return Form(_scaled(Fraction(rng.randint(1, 10**12)), coeffs), "big-psd-square", expected)


def big_indefinite_product(rng) -> Form:
    """An indefinite product with roots of opposite sign up to 1e7 and c up to 1e15."""
    return indefinite_product(rng, same_sign=False, root_num=10**7, root_den=1000, c_num=10**15,
                              c_den=1000, stratum="big-indefinite-product")


# Stratum mix per workload, as (draw, count per 20 forms).  Why each workload
# exists is recorded in BENCHMARK.json.  mixed holds the five ROADMAP strata,
# large coefficients included.  Cost per form is bimodal: indefinite forms
# pay for the witness search.  About two thirds of the mixed forms are
# indefinite, which keeps the median latency away from the gap between the
# two modes, where it would jump from seed to seed.  Fixed counts of the
# cheap and the dear kind of indefinite product keep the mean cost from
# doing the same.
WORKLOADS = {
    "mixed": ((random_monic, 6), (random_general, 2), (psd_square, 2),
              (partial(indefinite_product, same_sign=False), 2),
              (partial(indefinite_product, same_sign=True), 3),
              (negative_side, 2), (degenerate_leading, 1),
              (big_psd_square, 1), (big_indefinite_product, 1)),
    "semidefinite": ((psd_square, 7), (definite_product, 5), (negative_side, 5),
                     (y2_times_quadratic, 3)),
}
UNIT = 20


def make_corpus(workload: str, seed: int, units: int) -> list[Form]:
    """`units` groups of UNIT forms of `workload`, each group in shuffled order.

    Every group holds the exact stratum mix, so any prefix of whole groups
    has fixed per-stratum counts; only the forms vary with the seed.
    """
    try:
        mix = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}") from None
    rng = random.Random(f"{workload}:{seed}")
    forms = []
    for _ in range(units):
        group = [draw(rng) for draw, count in mix for _ in range(count)]
        rng.shuffle(group)
        forms += group
    return forms


def strata_counts(forms: list[Form]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for form in forms:
        counts[form.stratum] = counts.get(form.stratum, 0) + 1
    return counts


def write_batch(forms: list[Form], path: Path) -> None:
    """One form per line, each coefficient as an exact "p/q" string."""
    path.write_text("".join(" ".join(str(c) for c in f.coeffs) + "\n" for f in forms),
                    encoding="utf-8")


def write_labels(forms: list[Form], path: Path) -> None:
    """Side file with the stratum counts and each line's label; never shown to the program."""
    path.write_text(json.dumps({
        "strata": strata_counts(forms),
        "lines": [{"stratum": f.stratum, "expected": f.expected} for f in forms],
    }), encoding="utf-8")
