"""The value classes keep the behaviour of the frozen records they were
built as before: constructor parameters and defaults, repr text, == and
hash over the compared fields, and immutability."""

from fractions import Fraction

import pytest

from quartic_certify import (
    Definiteness,
    MonicQuartic,
    NormalizedProblem,
    PencilCubic,
    QuadExt,
    Sym3Matrix,
    Verdict,
)
from quartic_certify._polyroots import IsolatedRoot
from quartic_certify.classical import ClassicalQuantities
from quartic_certify.classifier import CubicRootProfile, IntersectionCase, QuarticRootNature
from quartic_certify.forms import GeneralQuartic, Orientation
from quartic_certify.pencil import CriticalParam

F = Fraction
FORM = MonicQuartic(F(1, 2), F(-3, 4), 5, F(7, 6))
FORM_TEXT = "MonicQuartic(a3=Fraction(1, 2), a2=Fraction(-3, 4), a1=Fraction(5, 1), a0=Fraction(7, 6))"

# (class, constructor arguments, repr text, the compared fields and their
# values in order, the fields left to their defaults and those defaults);
# the texts are those of the frozen records the classes were before.
# QuadExt's ==, hash and repr are its own, by value in Q(sqrt(d)).
RECORDS = [
    (QuadExt, (F(5),), "QuadExt(5)", None, {"q": 0, "d": 0}),
    (QuadExt, (F(1, 2), 3, 2), "QuadExt(1/2 + 3*sqrt(2))", None, {}),
    (MonicQuartic, (F(1, 2), F(-3, 4), 5, F(7, 6)), FORM_TEXT,
     {"a3": F(1, 2), "a2": F(-3, 4), "a1": F(5), "a0": F(7, 6)}, {}),
    (GeneralQuartic, (1, 2, 3, 4, F(5, 2)),
     "GeneralQuartic(c0=Fraction(1, 1), c1=Fraction(2, 1), c2=Fraction(3, 1), "
     "c3=Fraction(4, 1), c4=Fraction(5, 2))",
     {"c0": F(1), "c1": F(2), "c2": F(3), "c3": F(4), "c4": F(5, 2)}, {}),
    (NormalizedProblem, (FORM, Orientation.POSITIVE_SIDE, F(2)),
     f"NormalizedProblem(form={FORM_TEXT}, "
     "orientation=<Orientation.POSITIVE_SIDE: 'positive-side'>, scale=Fraction(2, 1))",
     {"form": FORM, "orientation": Orientation.POSITIVE_SIDE, "scale": F(2)},
     {"input_record": None, "input_ratios": None}),
    (PencilCubic, (1, F(1, 2), 3),
     "PencilCubic(b0=Fraction(1, 1), b1=Fraction(1, 2), b2=Fraction(3, 1))",
     {"b0": F(1), "b1": F(1, 2), "b2": F(3)}, {}),
    (Sym3Matrix, (1, 2, 3, 4, 5, 6), "Sym3Matrix(m11=1, m12=2, m13=3, m22=4, m23=5, m33=6)",
     {"m11": 1, "m12": 2, "m13": 3, "m22": 4, "m23": 5, "m33": 6}, {}),
    (CriticalParam, (F(3), None), "CriticalParam(radicand=Fraction(3, 1), value=None)",
     {"radicand": F(3), "value": None}, {}),
    (Verdict, (Definiteness.ZERO,),
     "Verdict(classification=<Definiteness.ZERO: 'identically-zero'>, certificate=None, "
     "witnesses=None, kernel=None)",
     {"classification": Definiteness.ZERO, "certificate": None, "witnesses": None,
      "kernel": None},
     {"certificate": None, "witnesses": None, "kernel": None}),
    (ClassicalQuantities, (1, 2, 3, 4, 5, 6),
     "ClassicalQuantities(G=1, H=2, I=3, J=4, delta=5, aux=6)",
     {"G": 1, "H": 2, "I": 3, "J": 4, "delta": 5, "aux": 6}, {}),
    (IntersectionCase, (3, "x"), "IntersectionCase(case_id=3, description='x')",
     {"case_id": 3, "description": "x"}, {}),
    (CubicRootProfile, (((F(1), 2),), (), None),
     "CubicRootProfile(rational_roots=((Fraction(1, 1), 2),), irrational_roots=(), "
     "conjugate_factor=None)",
     {"rational_roots": ((F(1), 2),), "irrational_roots": (), "conjugate_factor": None}, {}),
    (QuarticRootNature, (1, 2),
     "QuarticRootNature(real_simple=1, real_double=2, real_triple=0, real_quadruple=0, "
     "conjugate_simple_pairs=0, conjugate_double_pairs=0)",
     {"real_simple": 1, "real_double": 2, "real_triple": 0, "real_quadruple": 0,
      "conjugate_simple_pairs": 0, "conjugate_double_pairs": 0},
     {"real_triple": 0, "real_quadruple": 0, "conjugate_simple_pairs": 0,
      "conjugate_double_pairs": 0}),
    (IsolatedRoot, ((F(-2), F(0), F(1)), F(1), F(2)),
     "IsolatedRoot(poly=(Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1)), lo=Fraction(1, 1), "
     "hi=Fraction(2, 1))",
     {"poly": (F(-2), F(0), F(1)), "lo": F(1), "hi": F(2)}, {}),
]


@pytest.mark.parametrize("cls, args, text, compared, defaults", RECORDS,
                         ids=[f"{row[0].__name__}-{len(row[1])}" for row in RECORDS])
def test_value_classes_keep_their_record_behaviour(cls, args, text, compared, defaults):
    value = cls(*args)
    assert repr(value) == text
    twin = cls(*args)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    for name, default in defaults.items():
        assert getattr(value, name) == default
    if compared is not None:
        assert value.__eq__(compared) is NotImplemented and value != tuple(compared.values())
        assert tuple(getattr(value, name) for name in compared) == tuple(compared.values())
        assert hash(value) == hash(tuple(compared.values()))
        # each field, also one that is not compared, may be given by keyword
        assert cls(**compared) == cls(**{**compared, **defaults}) == value
    for name in (*(compared or ()), *defaults, "anything"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, *range(7))
    assert repr(value) == text
