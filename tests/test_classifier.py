import itertools
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
    Sym3Matrix,
    certify,
    circle_min_estimate,
    classify_case,
    cubic_root_profile,
    decide_monic,
    degenerate_conic_type,
    evaluate,
    pencil_coeffs,
    pencil_matrix,
    quartic_root_nature,
    sign_of,
    table3_facts_hold,
)
from quartic_certify import _polyroots as pr
from quartic_certify import classifier
from quartic_certify.classifier import discriminant_case, witness_search
from quartic_certify.forms import Orientation

from conftest import configured_form, fraction_formula, random_monic, root_rational

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

        def without_invariants(m):  # a copy whose pencil invariants cannot be read
            bare = MonicQuartic(m.a3, m.a2, m.a1, m.a0)
            object.__setattr__(bare, "invariants", None)
            return bare

        for name in ("lam0_test", "surd_sign", "pencil_coeffs",
                     "critical_param", "g_eval", "classify_case"):
            monkeypatch.setattr(classifier, name, forbidden)
        for name in ("make_poly", "poly_gcd", "sturm_chain"):
            monkeypatch.setattr(pr, name, forbidden)
        for case_id, form in NINE_CASES:
            assert discriminant_case(without_invariants(form)) == case_id
        for m in small_corpus:
            discriminant_case(without_invariants(m))


def _lcm_clearing(m):
    """(e4, e3, e2, e1, e0) by the lcm definition, independent of the record."""
    e4 = math.lcm(m.a3.denominator, m.a2.denominator, m.a1.denominator, m.a0.denominator)
    return (e4, *(int(a * e4) for a in (m.a3, m.a2, m.a1, m.a0)))


def _invariants_formula(m):
    e4, e3, e2, e1, e0 = _lcm_clearing(m)
    disc = 12 * e0 * e4 - 3 * e1 * e3 + e2 * e2
    if disc < 0:
        return e4, e2, disc, 0, 0
    n1 = 4 * e0 * e4 - e2 * e2 - e1 * e3
    n0 = -e1 * e1 * e4 + e1 * e2 * e3 - e0 * e3 * e3
    return e4, e2, disc, 8 * e2 * e4 - 3 * e3 * e3, 27 * n0 + 18 * n1 * e2 + 16 * e2**3


def _discriminant_case_formula(m):
    """The sign table of `discriminant_case` on the depressed quartic
    s^4 + p s^2 + q s + r of f(s - a3/4, 1), in Fractions; its sequence is a
    positive multiple of the integer one, so the signs agree."""
    a3, a2, a1, a0 = m.a3, m.a2, m.a1, m.a0
    p = a2 - 3 * a3**2 / 8
    q = a1 - a2 * a3 / 2 + a3**3 / 8
    r = a0 - a1 * a3 / 4 + a2 * a3**2 / 16 - 3 * a3**4 / 256
    d3 = -2 * p**3 + 8 * p * r - 9 * q**2
    d4 = (16 * p**4 * r - 4 * p**3 * q**2 - 128 * p**2 * r**2 + 144 * p * q**2 * r
          - 27 * q**4 + 256 * r**3)
    if d4 > 0:
        return 1 if d3 > 0 and p < 0 else 2
    if d4 < 0:
        return 3
    if d3 != 0:
        return 4 if d3 > 0 else 5
    if p < 0:
        return 6 if q == 0 else 8
    return 7 if p > 0 else 9


class TestIntegerRecord:
    """`MonicQuartic.invariants`, `discriminant_case` and `witness_search`
    read the form's integer record `MonicQuartic.cleared`; the first two
    give what their formulas give on integers cleared by the lcm
    definition, and the witness of an indefinite form has f < 0 in
    `Fraction` arithmetic that shares no code with the search."""

    def check(self, m):
        assert m.cleared == _lcm_clearing(m)
        assert m.invariants == _invariants_formula(m)
        disc = m.invariants[2]
        assert m.root == (math.isqrt(disc) if disc >= 0 and math.isqrt(disc) ** 2 == disc
                          else None)
        assert discriminant_case(m) == _discriminant_case_formula(m)
        if decide_monic(m).classification is Definiteness.INDEFINITE:
            (px, py), (nx, ny) = witness_search(m)
            coeffs = (1, m.a3, m.a2, m.a1, m.a0)
            assert fraction_formula(*coeffs, px, py) > 0 > fraction_formula(*coeffs, nx, ny)

    def test_corpus(self, small_corpus):
        for _, form in NINE_CASES:
            self.check(form)
        for m in small_corpus:
            self.check(m)
        # a case-4 form of large coefficients, negative near t = 6089152
        m = MonicQuartic(
            F(-21208168904409, 870736),
            F(6072116781752049749388791089, 27294522541056),
            F(-5365769929778643335131679942111920157855, 5941580844827234304),
            F(7112384685808485099661465259387241581799791118313225,
              5173548338501486688927744))
        assert evaluate(m, 6089152, 1) < 0
        self.check(m)

    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_constructed_configurations(self, case_id, data):
        self.check(data.draw(configured_form(case_id)))

    @given(st.tuples(root_rational, root_rational, root_rational, root_rational))
    @settings(max_examples=100, deadline=None)
    def test_random_forms(self, coeffs):
        self.check(MonicQuartic(*coeffs))


class TestTable3Facts:
    def test_reads_only_the_kernel_signs(self, monkeypatch, small_corpus):
        # the facts need the signs of lam0 - a3^2/4 and g(lam0), not the values
        forms = [form for _, form in NINE_CASES] + small_corpus
        expected = [[table3_facts_hold(m, case_id) for case_id in range(1, 10)] for m in forms]

        def forbidden(*args, **kwargs):
            raise AssertionError("lam0 or g(lam0) was built")

        monkeypatch.setattr(QuadExt, "_normalised", forbidden)
        assert [[table3_facts_hold(m, case_id) for case_id in range(1, 10)]
                for m in forms] == expected
        for case_id, form in NINE_CASES:
            assert table3_facts_hold(form, case_id)

    # the nine rows as the facts were first written, all nine built on each
    # call; the fast form evaluates only the asked row and must agree
    @staticmethod
    def _rows(slack, value):
        return {
            1: slack < 0 and value > 0,
            2: slack > 0 and value > 0,
            3: slack < 0 or (slack >= 0 and value < 0),
            4: slack < 0 and value >= 0,
            5: slack > 0 and value == 0,
            6: slack == 0 and value == 0,
            7: slack > 0 and value > 0,
            8: slack < 0 and value == 0,
            9: slack == 0 and value == 0,
        }

    def test_every_row_and_sign_pair(self):
        for slack in (-1, 0, 1):
            for value in (-1, 0, 1):
                rows = self._rows(slack, value)
                for case_id in range(1, 10):
                    assert classifier._case_facts_hold(case_id, slack, value) == rows[case_id], (
                        case_id, slack, value)
        # lam0 not real: only case 3 fits
        assert [classifier._case_facts_hold(case_id, None, None) for case_id in range(1, 10)] == [
            case_id == 3 for case_id in range(1, 10)]


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

    def test_full_rank_is_not_degenerate(self):
        with pytest.raises(ValueError):
            degenerate_conic_type(Sym3Matrix(F(1), F(0), F(0), F(1), F(0), F(1)))

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

    def test_height_3_monic_grid(self):
        # every x^4 + a3 x^3 y + .. + a0 y^4 with a3..a0 in [-3, 3]: each
        # indefinite form gets witnesses of exact signs, each other raises
        found = rejected = 0
        for coeffs in itertools.product(range(-3, 4), repeat=4):
            m = MonicQuartic(*coeffs)
            if decide_monic(m).classification is not Definiteness.INDEFINITE:
                with pytest.raises(ValueError):
                    witness_search(m)
                rejected += 1
                continue
            (px, py), (nx, ny) = witness_search(m)
            assert fraction_formula(1, *coeffs, px, py) > 0 > fraction_formula(1, *coeffs, nx, ny)
            found += 1
        assert (found, rejected) == (1894, 507)


@pytest.fixture
def kernel_reads(monkeypatch):
    """Forms for which witness_search read the kernel signs, which it does
    only after 64 rounds of bisection."""
    calls = []
    real = classifier.lam0_test

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(classifier, "lam0_test", spy)
    return calls


class TestWitnessFallback:
    """The hard inputs of the witness search: negative dips narrower than
    float resolution, dips beyond the float range, critical points that
    are multiple roots of p', and forms that are not indefinite."""

    @pytest.mark.parametrize("exponent, finer_than_float",
                             [(20, 0), (40, 1), (60, 1), (100, 1), (200, 1), (290, 1)])
    @pytest.mark.parametrize("side", [1, -1])
    def test_tiny_dip(self, exponent, finer_than_float, side):
        # (x^2 - 2y^2)^2 - eps y^4 dips below 0 only within ~eps^(1/2) of
        # t = +-sqrt(2); below ~1e-32 that is narrower than the float spacing
        # there, and the witness needs a denominator of more than 53 bits
        eps = F(1, 10**exponent)
        problem, verdict = certify(*(side * c for c in (1, 0, -4, 0, 4 - eps)))
        assert verdict.classification is Definiteness.INDEFINITE
        pos, neg = verdict.witnesses  # the search runs on this first read
        assert evaluate(problem.form, *pos) > 0 and evaluate(problem.form, *neg) < 0
        assert (neg[0].denominator.bit_length() > 53) == finer_than_float

    def test_coefficient_beyond_float_range(self):
        problem, verdict = certify(1, 0, 0, 0, -10**400)
        assert verdict.classification is Definiteness.INDEFINITE
        pos, neg = verdict.witnesses
        assert evaluate(problem.form, *pos) > 0 and evaluate(problem.form, *neg) < 0

    @pytest.mark.parametrize("coeffs", [
        (0, 0, 1, 0, -F(10**590)),
        (0, 0, -F(10**590), 0, 1),
        (0, 0, 1, 0, -F(1, 10**590)),
        (0, 1, 0, 0, -F(10**590)),
        (-F(10**590), 0, 1, 0, 0),
        (1, 0, -F(10**590), 0, 0),
    ])
    def test_dip_beyond_float_range(self, coeffs):
        # each form, or f(y, x) when e4 = 0, dips below 0 near |t| = 2^k with
        # |k| from 650 to 980, where its unscaled float coefficients
        # overflow or vanish; the search starts from Fujiwara's bound there
        problem, verdict = certify(*coeffs)
        assert verdict.classification is Definiteness.INDEFINITE
        (px, py), (nx, ny) = verdict.witnesses
        if problem.orientation is Orientation.NEGATIVE_SIDE:
            (px, py), (nx, ny) = (nx, ny), (px, py)
        assert fraction_formula(*coeffs, px, py) > 0 > fraction_formula(*coeffs, nx, ny)

    def test_definite_dip_raises(self, kernel_reads):
        # (x^2 - 2y^2)^2 + eps y^4 is positive definite: the bisection never
        # meets p < 0, and the kernel signs, read once after 64 rounds, stop it
        with pytest.raises(ValueError):
            witness_search(MonicQuartic(0, -4, 0, 4 + F(1, 10**100)))
        assert len(kernel_reads) == 1

    @pytest.mark.parametrize("m", [
        MonicQuartic(0, -4, 0, 4),      # (x^2 - 2y^2)^2: zeros at irrational minima
        MonicQuartic(4, 6, 4, 1),       # (x + y)^4: p' has a triple root
    ])
    def test_fallback_rejects_semidefinite(self, m):
        # bisection would never find p < 0 here; the kernel signs, or both
        # minima hit exactly, keep it total
        with pytest.raises(ValueError):
            witness_search(m)

    @pytest.mark.parametrize("m", [
        MonicQuartic(0, -2, 0, 0),      # x^4 - 2x^2y^2: p' = 4t(t^2 - 1), rational roots
        MonicQuartic(0, -6, 8, -3),     # (x - y)^3 (x + 3y): p' = 4(t - 1)^2 (t + 2)
        MonicQuartic(-4, 6, -4, 0),     # (x - y)^4 - y^4: p' = 4(t - 1)^3
    ])
    def test_fallback_on_structured_forms(self, m):
        _, (t, y) = witness_search(m)
        assert evaluate(m, t, y) < 0

    def test_fallback_on_random_indefinite_forms(self):
        rng = random.Random(18)
        seen = 0
        while seen < 300:
            m = random_monic(rng)
            if decide_monic(m).classification is not Definiteness.INDEFINITE:
                continue
            seen += 1
            _, (t, y) = witness_search(m)
            assert evaluate(m, t, y) < 0

    def test_corpus_needs_no_fallback(self, small_corpus, kernel_reads):
        indefinite = 0
        for m in small_corpus:
            verdict = decide_monic(m)
            if verdict.classification is Definiteness.INDEFINITE:
                indefinite += 1
                # short dyadic witnesses, found before the kernel signs are read
                assert verdict.witnesses[1][0].denominator <= 2**16
        assert indefinite > 50
        assert kernel_reads == []
