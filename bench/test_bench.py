"""Tests of the benchmark itself: a tiny corpus end to end, the checker's
rejections, and agreement of the printed metrics with BENCHMARK.json."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checker
import corpus
import run

METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)(?:    # .*)?$")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def library():
    return run.Library()


def _batch_line(library, coeffs, tmp_path: Path) -> dict:
    path = tmp_path / "one.txt"
    corpus.write_batch([corpus.Form(tuple(map(Fraction, coeffs)), "test", None)], path)
    _, text, _ = run.run_batch(library.cli, path, [])
    return json.loads(text.splitlines()[0])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_corpus_end_to_end(trace, kind, tmp_path, capsys):
    result = run.run("semidefinite", 3, 0.01, trace, (1, 2, 3), tmp_path / "work")
    printed = capsys.readouterr().out.splitlines()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    declared = _declared(kind)
    lines = [METRIC_LINE.match(line) for line in printed if not line.startswith("#")]
    assert all(lines) and lines
    assert {m[1]: m[3] for m in lines} == declared
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        assert result["metrics"]["classifier.witness_search.calls_per_form"]["value"] == 0
        assert (tmp_path / "work" / "spans.json").exists()


def test_mixed_corpus_checks_clean(tmp_path, capsys):
    result = run.run("mixed", 5, 0.01, 1, (1, 1, 1), tmp_path / "work")
    capsys.readouterr()
    assert result["correct"]
    assert result["metrics"]["classifier.witness_search.calls_per_form"]["value"] > 0


def test_checker_accepts_and_rejects_certificate(library, tmp_path):
    coeffs = tuple(map(Fraction, (3, 0, 0, 1, 1)))  # 3x^4 + xy^3 + y^4
    out = _batch_line(library, coeffs, tmp_path)
    assert out["verdict"] == "positive-definite"
    assert checker.check_line(out, coeffs, "positive-definite") == []
    assert checker.check_line(out, coeffs, "indefinite")  # label mismatch

    tampered = copy.deepcopy(out)
    entry = tampered["certificate"][1][1]
    entry["p"] = str(Fraction(entry["p"]) + Fraction(1, 7))
    assert checker.check_line(tampered, coeffs, None)

    claimed = copy.deepcopy(out)  # a definite form claimed not definite
    claimed["verdict"] = "positive-semidefinite-not-definite"
    assert "no real zero: the form is definite" in checker.check_line(claimed, coeffs, None)


def test_checker_rejects_flipped_witness(library, tmp_path):
    coeffs = tuple(map(Fraction, (-2, 1, 3, 0, -1)))
    out = _batch_line(library, coeffs, tmp_path)
    assert out["verdict"] == "indefinite"
    assert checker.check_line(out, coeffs, "indefinite") == []

    swapped = copy.deepcopy(out)
    w = swapped["witnesses"]
    w["positive"], w["negative"] = w["negative"], w["positive"]
    assert checker.check_line(swapped, coeffs, None)

    flipped = copy.deepcopy(out)
    value = flipped["witnesses"]["negative"]["value"]
    flipped["witnesses"]["negative"]["value"] = str(-Fraction(value))
    assert checker.check_line(flipped, coeffs, None)


def test_checker_negative_side_and_degenerate(library, tmp_path):
    for coeffs in ((-1, -4, -6, -4, -1), (0, 0, -2, 1, -3), (-5, 0, -1, 0, 0)):
        coeffs = tuple(map(Fraction, coeffs))
        out = _batch_line(library, coeffs, tmp_path)
        assert out["verdict"].startswith("negative")
        assert checker.check_line(out, coeffs, None) == []


def test_corpus_is_seeded():
    a = corpus.make_corpus("mixed", 11, 2)
    assert a == corpus.make_corpus("mixed", 11, 2)
    assert a != corpus.make_corpus("mixed", 12, 2)
    assert corpus.strata_counts(a[:corpus.UNIT]) == {
        "random-monic": 6, "random-nonmonic": 2, "psd-square": 2,
        "indefinite-product-split": 2, "indefinite-product-one-side": 3,
        "negative-side": 2, "degenerate-leading": 1,
        "big-psd-square": 1, "big-indefinite-product-split": 1}


def test_fails_without_the_library(tmp_path):
    """Given only BENCHMARK.json and bench/, the command fails and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for source in run.HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
