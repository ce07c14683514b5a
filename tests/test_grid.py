"""Every small form: the height-H grid, each 5-tuple of integers in [-H, H]
but zero, run through the default `--batch` and `certify()`.

Each output line is proven by `bench/checker.py`, which uses nothing from
the library (loaded by path, and not edited here): a certificate must
rebuild its form and be semidefinite, and witnesses must have the claimed
exact signs.  No cross-check flag may be false, and `certify()` must give
each form the verdict of its line.  The census of verdicts and of the nine
cases is pinned, so a fault that every oracle shares still shows.  The grid
reaches cases 4, 5 and 8 and the e4 = 0 swaps, which the bench corpora
never reach.  The tier-1 suite runs H = 2; CI runs `grid_report(4)`.

A change of variables needs no oracle either: f(a x + b y, c x + d y) with
ad - bc != 0 has the verdict and the case of f, and -f the flipped verdict
and the same case.  `test_height_2_grid_substitutions` checks both on the
height-2 grid, across the e4 = 0 and monic routes (CI runs
`substitution_report(3)`), and `test_drawn_substitutions` on drawn shears
and swaps of random and large-coefficient forms.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import certify, classify_case
from quartic_certify.cli import main

CHECKER = Path(__file__).resolve().parents[1] / "bench" / "checker.py"

PD, ND = "positive-definite", "negative-definite"
PSD, NSD = "positive-semidefinite-not-definite", "negative-semidefinite-not-definite"

# verdicts and cases 1-9 (a form with e4 = 0 has none) of each grid
CENSUS = {
    2: {"verdicts": {PD: 325, ND: 325, PSD: 61, NSD: 61, "indefinite": 2352},
        "cases": dict(zip(range(1, 10), (52, 648, 1656, 48, 60, 10, 2, 20, 4)))},
    4: {"verdicts": {PD: 6898, ND: 6898, PSD: 362, NSD: 362, "indefinite": 44528},
        "cases": dict(zip(range(1, 10), (1496, 13784, 36232, 436, 400, 44, 12, 76, 8)))},
}


def _load_checker():
    spec = importlib.util.spec_from_file_location("checker", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


class _CheckedLines:
    """A standard output that checks each `--batch` line as it is written
    (one line per `write` call), so that no output is kept."""

    def __init__(self, forms: list[tuple[int, ...]], checker) -> None:
        self.forms, self.checker = forms, checker
        self.verdicts: Counter = Counter()
        self.cases: Counter = Counter()
        self.rejected: list[str] = []
        self.mismatched: list[str] = []
        self.summary = None

    def write(self, text: str) -> int:
        out = json.loads(text)
        if "summary" in out:
            self.summary = out["summary"]
            return len(text)
        coeffs = self.forms[out["line"] - 1]
        # the checker's arithmetic is exact on Fractions (on ints it divides in floats)
        problems = self.checker.check_line(out, [Fraction(c) for c in coeffs], None)
        if problems or self.checker.disagrees(out):
            self.rejected.append(f"{coeffs}: {problems or 'a cross-check disagreed'}")
        verdict = out["verdict"]
        self.verdicts[verdict] += 1
        if out["case"] is not None:
            self.cases[out["case"]["id"]] += 1
        if certify(*coeffs)[1].classification.value != verdict:
            self.mismatched.append(f"{coeffs}: certify() differs from {verdict}")
        return len(text)

    def flush(self) -> None:
        pass


def grid_report(height: int, directory: Path) -> dict:
    """The height-`height` grid through the default `--batch`: its exit code,
    the lines `bench/checker.py` rejects or on which a cross-check
    disagreed, the forms on which `certify()` gives another verdict, and the
    census of verdicts and cases; the batch file is written to `directory`."""
    forms = [c for c in itertools.product(range(-height, height + 1), repeat=5) if any(c)]
    path = directory / f"grid-{height}.txt"
    path.write_text("".join(" ".join(map(str, c)) + "\n" for c in forms), encoding="utf-8")
    lines = _CheckedLines(forms, _load_checker())
    code = main(["--batch", str(path)], stdout=lines)
    if lines.summary != dict(lines.verdicts):
        lines.rejected.append(f"summary {lines.summary}, lines {dict(lines.verdicts)}")
    return {"exit": code, "forms": len(forms), "rejected": lines.rejected,
            "mismatched": lines.mismatched, "verdicts": dict(lines.verdicts),
            "cases": dict(lines.cases)}


def expected_report(height: int) -> dict:
    return {"exit": 0, "forms": (2 * height + 1) ** 5 - 1, "rejected": [], "mismatched": [],
            **CENSUS[height]}


def test_height_2_grid(tmp_path):
    assert grid_report(2, tmp_path) == expected_report(2)


# (a, b, c, d) of f(x, y) -> f(a x + b y, c x + d y), each of nonzero
# determinant: swap, reflection, x -> x + y, y -> 3x + y, x -> 2x and
# (x, y) -> (x - 2y, 2x + y)
SUBSTITUTIONS = [(0, 1, 1, 0), (-1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 3, 1), (2, 0, 0, 1),
                 (1, -2, 2, 1)]


def substituted(coeffs: tuple[int, ...], a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """e4..e0 of f(a x + b y, c x + d y), f given by e4..e0, in integers."""
    out = [0] * 5
    for i, e in enumerate(coeffs):  # the term e x^(4 - i) y^i
        term = [e]
        for u, v in [(a, b)] * (4 - i) + [(c, d)] * i:  # times u x + v y
            term = [p * u + q * v for p, q in zip(term + [0], [0] + term)]
        out = [o + t for o, t in zip(out, term)]
    return tuple(out)


def verdict_and_case(coeffs: tuple[int, ...]):
    """The class of f and its case, read on f(y, x) when e4 = 0; None when
    e4 = e0 = 0, which a closed rule decides with no case."""
    problem, verdict = certify(*coeffs)
    decided = problem.decided()
    return verdict.classification, None if decided is None else classify_case(decided.form).case_id


# pairs (form, substitution) of each grid, and those that cross between the
# e4 = 0 route and the monic one
SUBSTITUTION_PAIRS = {2: {"pairs": 18744, "crossings": 2256},
                      3: {"pairs": 100836, "crossings": 8984}}


def substitution_report(height: int) -> dict:
    """The height-`height` grid under `SUBSTITUTIONS` and negation: the
    (form, substitution or "negated") pairs whose verdict or case is wrong,
    and the counts of `SUBSTITUTION_PAIRS`."""
    wrong, pairs, crossings = [], 0, 0
    for coeffs in itertools.product(range(-height, height + 1), repeat=5):
        if not any(coeffs):
            continue
        cls, case = verdict_and_case(coeffs)
        if verdict_and_case(tuple(-c for c in coeffs)) != (cls.flipped(), case):
            wrong.append((coeffs, "negated"))
        for matrix in SUBSTITUTIONS:
            image = substituted(coeffs, *matrix)
            other_cls, other_case = verdict_and_case(image)
            if other_cls is not cls or (None not in (case, other_case) and other_case != case):
                wrong.append((coeffs, matrix))
            pairs += 1
            crossings += (coeffs[0] == 0) != (image[0] == 0)
    return {"wrong": wrong, "pairs": pairs, "crossings": crossings}


def test_height_2_grid_substitutions():
    assert substitution_report(2) == {"wrong": [], **SUBSTITUTION_PAIRS[2]}


def _product(p: tuple[int, int, int], q: tuple[int, int, int]) -> tuple[int, ...]:
    """e4..e0 of the product of two binary quadratics, each given by its
    three coefficients."""
    (a, b, c), (d, e, f) = p, q
    return (a * d, a * e + b * d, a * f + b * e + c * d, b * f + c * e, c * f)


_quadratic = st.tuples(*[st.builds(lambda m, s: m * s, st.integers(2**189, 2**190 - 1),
                                   st.sampled_from((1, -1)))] * 3)
_shear = st.integers(-10**6, 10**6)


@given(st.one_of(st.tuples(*[st.integers(-10**6, 10**6)] * 5),
                 st.builds(_product, _quadratic, _quadratic)).filter(any),
       st.one_of(_shear.map(lambda k: (1, k, 0, 1)), _shear.map(lambda k: (1, 0, k, 1)),
                 st.just((0, 1, 1, 0))))
@settings(max_examples=300, deadline=None)
def test_drawn_substitutions(coeffs, matrix):
    # x -> x + k y, y -> y + k x and the swap, of random forms and of
    # products of two quadratics with 190-bit coefficients
    cls, case = verdict_and_case(coeffs)
    other_cls, other_case = verdict_and_case(substituted(coeffs, *matrix))
    assert other_cls is cls
    assert None in (case, other_case) or other_case == case
    assert verdict_and_case(tuple(-c for c in coeffs)) == (cls.flipped(), case)
