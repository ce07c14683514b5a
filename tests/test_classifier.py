import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import (
    PD_CASES,
    PSD_CASES,
    Definiteness,
    MonicQuartic,
    PencilCubic,
    QuadExt,
    certify,
    circle_min_estimate,
    classify_case,
    cubic_root_profile,
    decide_monic,
    degenerate_conic_type,
    discriminant_case,
    evaluate,
    pencil_coeffs,
    pencil_matrix,
    quartic_root_nature,
    sign_of,
    table3_facts_hold,
    witness_search,
)
from quartic_certify import _polyroots as pr
from quartic_certify import classifier

from conftest import configured_form, random_monic, root_rational

F = Fraction

# deterministic full-branch coverage: one form per intersection case, each
# trusted only after the root oracle confirms its configuration
NINE_CASES = [
    (1, MonicQuartic(0, -5, 0, 4)),       # (x^2-y^2)(x^2-4y^2)
    (2, MonicQuartic(0, 0, 1, 1)),
    (3, MonicQuartic(0, 3, 0, -4)),       # (x^2-y^2)(x^2+4y^2)
    (4, MonicQuartic(-4, 3, 4, -4)),      # (x-y)(x+y)(x-2y)^2
    (5, MonicQuartic(1, 0, 1, 1)),
    (6, MonicQuartic(4, 2, -4, 1)),
    (7, MonicQuartic(-8, 26, -40, 25)),
    (7, MonicQuartic(0, 2, 0, 1)),        # (x^2+y^2)^2
    (8, MonicQuartic(0, -6, 8, -3)),      # (x-y)^3 (x+3y)
    (9, MonicQuartic(4, 6, 4, 1)),        # (x+y)^4
]


class TestCubicRootProfile:
    def test_double_plus_simple(self):
        profile = cubic_root_profile(PencilCubic(F(-16), F(4), F(1)))
        assert profile.rational_roots == ((F(-4), 1), (F(4), 2))
        assert not profile.conjugate_pair and not profile.irrational_roots

    def test_triple(self):
        profile = cubic_root_profile(PencilCubic(F(16), F(-12), F(3)))
        assert profile.rational_roots == ((F(4), 3),)

    def test_zero_cubic(self):
        profile = cubic_root_profile(PencilCubic(0, 0, 0))
        assert profile.rational_roots == ((F(0), 3),)

    def test_three_irrational_roots(self):
        # Example-type form with an irreducible resolvent cubic
        profile = cubic_root_profile(pencil_coeffs(MonicQuartic(0, 0, 1, 1)))
        assert profile.rational_roots == ()
        assert len(profile.irrational_roots) == 3
        assert not profile.conjugate_pair

    def test_conjugate_pair(self):
        profile = cubic_root_profile(pencil_coeffs(MonicQuartic(0, 3, 0, -4)))
        assert profile.conjugate_pair
        assert sum(k for _, k in profile.rational_roots) + len(profile.irrational_roots) == 1

    def test_reconstruction_and_multiplicity(self, small_corpus):
        for m in small_corpus[:150]:
            cubic = pencil_coeffs(m)
            profile = cubic_root_profile(cubic)
            g = pr.make_poly(cubic.as_poly())
            assert profile.total_multiplicity() == 3
            assert profile.reconstruct() == pr.monic(g)
            for root, mult in profile.rational_roots:
                deriv = g
                for _ in range(mult):
                    assert pr.evaluate(deriv, root) == 0
                    deriv = pr.derivative(deriv)
                assert pr.evaluate(deriv, root) != 0


class TestNineCases:
    @pytest.mark.parametrize("case_id,form", NINE_CASES)
    def test_constructed_suite(self, case_id, form):
        assert quartic_root_nature(form).implied_case() == case_id
        assert classify_case(form).case_id == case_id
        assert table3_facts_hold(form, case_id)

    def test_golden_cases(self):
        assert classify_case(MonicQuartic(0, 0, 1, 1)).case_id == 2
        assert classify_case(MonicQuartic(-8, 26, -40, 25)).case_id == 7
        assert classify_case(MonicQuartic(4, 6, 4, 1)).case_id == 9

    def test_correspondence_random(self, small_corpus):
        for m in small_corpus:
            case = classify_case(m)
            assert case.case_id == quartic_root_nature(m).implied_case()
            assert table3_facts_hold(m, case.case_id)

    def test_verdict_case_consistency(self, small_corpus):
        for m in small_corpus:
            cls = decide_monic(m).classification
            case_id = classify_case(m).case_id
            assert (cls is Definiteness.POSITIVE_DEFINITE) == (case_id in PD_CASES)
            semidefinite = cls in (
                Definiteness.POSITIVE_DEFINITE,
                Definiteness.POSITIVE_SEMIDEFINITE,
            )
            assert semidefinite == (case_id in PSD_CASES)


class TestIntegerCaseRoute:
    """`classify_case` reads the case off integer invariants; the root-nature
    oracle and the (lam0, g(lam0)) facts check it independently.  Cases 6, 7
    and 9 are the tau-boundary ones: a double or triple root of g at tau."""

    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_constructed_configurations(self, case_id, data):
        m = data.draw(configured_form(case_id))
        assert quartic_root_nature(m).implied_case() == case_id
        assert classify_case(m).case_id == case_id
        assert table3_facts_hold(m, case_id)

    @given(st.tuples(root_rational, root_rational, root_rational, root_rational))
    @settings(max_examples=150, deadline=None)
    def test_random_forms(self, coeffs):
        m = MonicQuartic(*coeffs)
        case_id = classify_case(m).case_id
        assert case_id == quartic_root_nature(m).implied_case()
        assert table3_facts_hold(m, case_id)

    def test_no_polynomial_arithmetic(self, monkeypatch, small_corpus):
        from quartic_certify import pencil

        def forbidden(*args):
            raise AssertionError("the case route built a polynomial")

        monkeypatch.setattr(pencil, "pencil_coeffs", forbidden)
        monkeypatch.setattr(classifier, "pencil_coeffs", forbidden)
        for name in ("make_poly", "poly_gcd", "sturm_chain"):
            monkeypatch.setattr(pr, name, forbidden)
        for case_id, form in NINE_CASES:
            assert classify_case(form).case_id == case_id
        for m in small_corpus:
            classify_case(m)


class TestDiscriminantCase:
    """`discriminant_case` reads the case off the discriminant sequence of
    the quartic itself; the root-nature oracle and the pencil's
    `classify_case` check it, on the strata of `TestIntegerCaseRoute`."""

    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_constructed_configurations(self, case_id, data):
        m = data.draw(configured_form(case_id))
        assert discriminant_case(m) == case_id
        assert quartic_root_nature(m).implied_case() == case_id
        assert classify_case(m).case_id == case_id

    @given(st.tuples(root_rational, root_rational, root_rational, root_rational))
    @settings(max_examples=150, deadline=None)
    def test_random_forms(self, coeffs):
        m = MonicQuartic(*coeffs)
        case_id = discriminant_case(m)
        assert case_id == quartic_root_nature(m).implied_case()
        assert case_id == classify_case(m).case_id

    def test_corpus(self, small_corpus):
        for case_id, form in NINE_CASES:
            assert discriminant_case(form) == case_id
        for m in small_corpus:
            assert discriminant_case(m) == classify_case(m).case_id

    def test_independent_of_the_pencil(self, monkeypatch, small_corpus):
        def forbidden(*args):
            raise AssertionError("the discriminant oracle used the pencil")

        for name in ("_invariants", "_surd_sign", "lam0_test", "pencil_coeffs",
                     "critical_param", "g_eval", "classify_case"):
            monkeypatch.setattr(classifier, name, forbidden)
        for name in ("make_poly", "poly_gcd", "sturm_chain"):
            monkeypatch.setattr(pr, name, forbidden)
        for case_id, form in NINE_CASES:
            assert discriminant_case(form) == case_id
        for m in small_corpus:
            discriminant_case(m)


class TestQuarticRootNature:
    def test_double_root_plus_pair(self):
        nature = quartic_root_nature(MonicQuartic(1, 0, 1, 1))
        assert nature.real_double == 1 and nature.conjugate_simple_pairs == 1

    def test_two_double_roots(self):
        nature = quartic_root_nature(MonicQuartic(4, 2, -4, 1))
        assert nature.real_double == 2

    def test_four_simple(self):
        nature = quartic_root_nature(MonicQuartic(0, -5, 0, 4))
        assert nature.real_simple == 4

    def test_total_multiplicity(self, small_corpus):
        for m in small_corpus[:200]:
            assert quartic_root_nature(m).total_multiplicity() == 4


class TestDegenerateMemberStructure:
    """Structural facts about each singular pencil member: a real line-pair
    forces its parameter <= tau, a conjugate pair forces >= tau, and a
    repeated line happens exactly at a multiple root equal to tau.
    Irreducible-cubic parameters are skipped (no quadratic extension holds
    them); quadratic-factor parameters are handled exactly."""

    @staticmethod
    def _exact_roots(profile):
        roots = [(root, mult) for root, mult in profile.rational_roots]
        by_factor = {}
        for iso in profile.irrational_roots:
            by_factor.setdefault(iso.poly, []).append(iso)
        for factor, isos in by_factor.items():
            if pr.degree(factor) != 2:
                continue  # cubic-field roots are not representable here
            b, c = factor[1], factor[0]
            disc = b * b - 4 * c
            for sign in (-1, 1):
                roots.append((QuadExt(-b / 2, F(sign, 2), disc), 1))
        return roots

    def test_structural_invariants(self, small_corpus):
        checked_pairs = checked_rank1 = 0
        for m in small_corpus + [f for _, f in NINE_CASES]:
            profile = cubic_root_profile(pencil_coeffs(m))
            tau = m.a3**2 / 4
            for lam, mult in self._exact_roots(profile):
                mat = pencil_matrix(m, lam)
                assert sign_of(mat.det()) == 0
                kind = degenerate_conic_type(mat)
                if kind == "real-line-pair":
                    assert mat.rank() == 2 and lam <= tau
                    checked_pairs += 1
                elif kind == "conjugate-line-pair":
                    assert mat.rank() == 2 and lam >= tau
                    checked_pairs += 1
                else:
                    assert mat.rank() <= 1
                    assert mult >= 2 and lam == tau
                    checked_rank1 += 1
                # converse of the repeated-line equivalence
                if isinstance(lam, Fraction) and mult >= 2 and lam == tau:
                    assert kind == "repeated-line"
        assert checked_pairs > 60 and checked_rank1 >= 2


class TestCircleOracle:
    def test_constant_on_circle(self):
        value, _ = circle_min_estimate(MonicQuartic(0, 2, 0, 1), 64)
        assert abs(value - 1.0) < 1e-12

    def test_quadruple_root_direction(self):
        value, arg = circle_min_estimate(MonicQuartic(4, 6, 4, 1), 10_000)
        assert abs(value) < 1e-9
        assert abs(arg - 3 * math.pi / 4) < 1e-3

    def test_indefinite_goes_negative(self):
        # with u = cos^2, f restricts to 10u^2 - 13u + 4: min -9/40 at u = 13/20
        value, _ = circle_min_estimate(MonicQuartic(0, -5, 0, 4), 10_000)
        assert abs(value - (-9 / 40)) < 1e-9

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError):
            circle_min_estimate(MonicQuartic(0, 0, 0, 0), 7)

    def test_never_contradicts_exact_verdict(self, small_corpus):
        for m in small_corpus[:300]:
            value, _ = circle_min_estimate(m, 1024)
            cls = decide_monic(m).classification
            if cls is Definiteness.INDEFINITE:
                assert value < 1e-6
            else:
                assert value > -1e-6


class TestWitnessSearch:
    def test_known_indefinite(self):
        m = MonicQuartic(0, -5, 0, 4)
        (px, py), (nx, ny) = witness_search(m)
        assert evaluate(m, px, py) > 0 and evaluate(m, nx, ny) < 0

    def test_difference_of_powers(self):
        m = MonicQuartic(0, 0, 0, -1)
        pos, neg = witness_search(m)
        assert pos == (1, 0)
        assert evaluate(m, *neg) < 0

    def test_small_negative_tail(self):
        m = MonicQuartic(0, 0, 0, F(-1, 100))
        pos, neg = witness_search(m)
        assert evaluate(m, *pos) > 0 and evaluate(m, *neg) < 0

    def test_rejects_semidefinite(self):
        with pytest.raises(ValueError):
            witness_search(MonicQuartic(0, 2, 0, 1))

    def test_random_indefinite_forms(self, small_corpus):
        rng = random.Random(61)
        seen = 0
        for m in small_corpus:
            if decide_monic(m).classification is not Definiteness.INDEFINITE:
                continue
            seen += 1
            (px, py), (nx, ny) = witness_search(m)
            assert evaluate(m, px, py) > 0 and evaluate(m, nx, ny) < 0
        assert seen > 50


@pytest.fixture
def sturm_calls(monkeypatch):
    """Forms for which witness_search took the exact Sturm fallback."""
    calls = []
    real = classifier._sturm_witness

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(classifier, "_sturm_witness", spy)
    return calls


class TestWitnessFallback:
    @pytest.mark.parametrize("exponent, fallbacks", [(20, 0), (40, 1), (60, 1), (100, 1)])
    @pytest.mark.parametrize("side", [1, -1])
    def test_tiny_dip(self, sturm_calls, exponent, fallbacks, side):
        # (x^2 - 2y^2)^2 - eps y^4 dips below 0 only within ~eps^(1/2) of
        # t = +-sqrt(2); below ~1e-32 no float-proposed rational lands there
        eps = F(1, 10**exponent)
        problem, verdict = certify(*(side * c for c in (1, 0, -4, 0, 4 - eps)))
        assert verdict.classification is Definiteness.INDEFINITE
        assert len(sturm_calls) == fallbacks
        pos, neg = verdict.witnesses
        assert evaluate(problem.form, *pos) > 0 and evaluate(problem.form, *neg) < 0

    def test_coefficient_beyond_float_range(self, sturm_calls):
        problem, verdict = certify(1, 0, 0, 0, -10**400)
        assert verdict.classification is Definiteness.INDEFINITE
        assert len(sturm_calls) == 1
        pos, neg = verdict.witnesses
        assert evaluate(problem.form, *pos) > 0 and evaluate(problem.form, *neg) < 0

    def test_corpus_needs_no_fallback(self, small_corpus, sturm_calls):
        indefinite = 0
        for m in small_corpus:
            verdict = decide_monic(m)
            if verdict.classification is Definiteness.INDEFINITE:
                indefinite += 1
                # short dyadic witnesses, not the float's full 53-bit ratio
                assert verdict.witnesses[1][0].denominator <= 2**16
        assert indefinite > 50
        assert sturm_calls == []
