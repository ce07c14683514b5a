"""Checks on the package source and on invariant checks that must hold
under an optimising interpreter (`python -O` drops `assert` statements)."""

import ast
import types
from fractions import Fraction
from pathlib import Path

import pytest

import quartic_certify
from quartic_certify import MonicQuartic, quartic_root_nature
from quartic_certify import _polyroots as pr
from quartic_certify.classifier import InconsistentCaseError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quartic_certify"


def test_no_assert_in_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def test_nonzero_division_remainder_raises(monkeypatch):
    # a "gcd" t - 2 that does not divide (t - 1)^2
    monkeypatch.setattr(pr, "poly_gcd", lambda a, b: pr.make_poly([Fraction(-2), Fraction(1)]))
    with pytest.raises(ArithmeticError):
        pr.squarefree_part(pr.make_poly([1, -2, 1]))  # (t - 1)^2


def test_root_profile_of_wrong_multiplicity_raises(monkeypatch):
    # a factor list that accounts for three of the quartic's four roots
    monkeypatch.setattr(pr, "squarefree_factors",
                        lambda poly: [(pr.make_poly([0, 0, 0, 1]), 1)])
    with pytest.raises(InconsistentCaseError):
        quartic_root_nature(MonicQuartic(0, 0, 0, 1))


def test_star_import_binds_the_public_names():
    # every public name of the package and nothing else: no submodule, and
    # not the `annotations` feature of its `from __future__` import
    exported = {name for name, value in vars(quartic_certify).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)
                and name != "annotations"}
    assert len(quartic_certify.__all__) == len(exported) == 32
    assert set(quartic_certify.__all__) == exported
    namespace: dict = {}
    exec("from quartic_certify import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == exported
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
