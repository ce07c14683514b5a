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
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from quartic_certify import certify
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
