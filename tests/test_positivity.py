import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import (
    PD_CASES,
    PSD_CASES,
    Definiteness,
    MonicQuartic,
    QuadExt,
    Sym3Matrix,
    certify,
    critical_param,
    decide_monic,
    evaluate,
    NormalizedProblem,
    from_plain_coeffs,
    g_eval,
    pencil_coeffs,
    pencil_matrix,
    sign_of,
    sylvester_pd,
    sylvester_psd,
)

from quartic_certify import classifier
from quartic_certify.classifier import discriminant_case
from quartic_certify.forms import Orientation
from quartic_certify.pencil import (
    lam0_matrix, lam0_minor_signs, lam0_surds, lam0_test, surd_parts)
from quartic_certify.positivity import decide_problem

from conftest import (configured_form, fraction_formula, mixed_corpus, quad_parts,
                      random_fraction, random_monic, surd_value)

F = Fraction
D = Definiteness


def identity3():
    return Sym3Matrix(F(1), F(0), F(0), F(1), F(0), F(1))


class TestSylvester:
    def test_identity(self):
        assert sylvester_pd(identity3())
        assert sylvester_psd(identity3())

    def test_certificate_of_strictly_positive_form(self):
        m = MonicQuartic(0, 0, 1, 1)
        lam0 = critical_param(pencil_coeffs(m)).value
        assert sylvester_pd(pencil_matrix(m, lam0))

    def test_rank_one_matrix(self):
        gram = Sym3Matrix(F(1), F(2), F(1), F(4), F(2), F(1))
        assert not sylvester_pd(gram)  # second leading minor is 0
        assert sylvester_psd(gram)  # Gram matrix of (1, 2, 1)

    def test_needs_all_principal_minors(self):
        diag = Sym3Matrix(F(1), F(0), F(0), F(0), F(0), F(-1))
        assert not sylvester_psd(diag)
        zero = Sym3Matrix(*(F(0),) * 6)
        assert sylvester_psd(zero)


class TestDecideMonic:
    def test_definite(self):
        assert decide_monic(MonicQuartic(-8, 26, -40, 25)).classification is D.POSITIVE_DEFINITE

    def test_boundary(self):
        v = decide_monic(MonicQuartic(1, 0, 1, 1))
        assert v.classification is D.POSITIVE_SEMIDEFINITE
        assert v.certificate is not None and sylvester_psd(v.certificate)

    def test_indefinite_with_witnesses(self):
        m = MonicQuartic(0, -5, 0, 4)
        v = decide_monic(m)
        assert v.classification is D.INDEFINITE
        (px, py), (nx, ny) = v.witnesses
        assert evaluate(m, px, py) > 0
        assert evaluate(m, nx, ny) < 0

    def test_non_real_critical_param_is_indefinite(self):
        v = decide_monic(MonicQuartic(0, 0, 0, -1))
        assert v.classification is D.INDEFINITE


class TestNegativeSide:
    def test_nsd_example(self):
        p = from_plain_coeffs(-1, 6, -13, 24, -36)
        v = decide_problem(p)
        assert v.classification is D.NEGATIVE_SEMIDEFINITE
        cubic = pencil_coeffs(p.form)
        assert (cubic.b0, cubic.b1, cubic.b2) == (0, F(-169, 4), F(13, 2))
        lam0 = critical_param(cubic).value
        assert lam0 == 13 and g_eval(cubic, lam0) == 0

    def test_nd_example(self):
        # -(x^2+y^2)^2 reduces to (0, 2, 0, 1)
        p = from_plain_coeffs(-1, 0, -2, 0, -1)
        assert p.form == MonicQuartic(0, 2, 0, 1)
        v = decide_problem(p)
        assert v.classification is D.NEGATIVE_DEFINITE
        cubic = pencil_coeffs(p.form)
        lam0 = critical_param(cubic).value
        assert lam0 == F(8, 3) and g_eval(cubic, lam0) == F(64, 27)

    def test_indefinite(self):
        p = from_plain_coeffs(-1, 0, 0, 0, 1)
        assert decide_problem(p).classification is D.INDEFINITE

    def test_negative_side_formulas_match_flipped_pencil(self):
        # the negative-side quantities computed straight from the original
        # coefficients must equal the pencil of the flipped monic form
        rng = random.Random(37)
        for _ in range(200):
            a3, a2, a1, a0 = (random_fraction(rng, 60, 12) for _ in range(4))
            flipped = from_plain_coeffs(-1, a3, a2, a1, a0).form
            cubic = pencil_coeffs(flipped)
            assert cubic.b0 == (-(a1**2) - a1 * a2 * a3 + a0 * a3**2) / 4
            assert cubic.b1 == -(4 * a0 + a2**2 + a1 * a3) / 4
            assert cubic.b2 == -a2 / 2


class TestDegenerateLeading:
    def test_psd_product_of_squares(self):
        v = decide_problem(from_plain_coeffs(0, F(0), F(1), F(0), F(1)))
        assert v.classification is D.POSITIVE_SEMIDEFINITE
        assert sylvester_psd(v.certificate)

    def test_odd_cubic_indefinite(self):
        v = decide_problem(from_plain_coeffs(0, F(1), F(0), F(0), F(0)))
        assert v.classification is D.INDEFINITE
        (px, py), (nx, ny) = v.witnesses
        assert fraction_formula(0, 1, 0, 0, 0, px, py) > 0
        assert fraction_formula(0, 1, 0, 0, 0, nx, ny) < 0

    def test_negative_cubic(self):
        # y (-x^3 + 5 y^3) is decided as f(y, x) = 5 x^4 - x y^3, and its
        # witnesses are exchanged back to points of f
        e = (F(-1), F(0), F(0), F(5))
        v = decide_problem(from_plain_coeffs(0, *e))
        assert v.classification is D.INDEFINITE and v.kernel is None
        (px, py), (nx, ny) = v.witnesses
        assert fraction_formula(0, *e, px, py) > 0 > fraction_formula(0, *e, nx, ny)

    def test_large_cubic_clears_once(self, monkeypatch):
        # y (x^3 - 10^30 y^3): the input is cleared once, and f(y, x), which
        # decides it and gives its witnesses, is normalised from that record.
        # Every clearing of five rationals goes through forms.clear_ratios
        import quartic_certify.forms as forms

        calls = []
        real = forms.clear_ratios

        def counting(*ratios):
            calls.append(ratios)
            return real(*ratios)

        monkeypatch.setattr(forms, "clear_ratios", counting)
        e = (F(1), F(0), F(0), F(-10**30))
        v = decide_problem(from_plain_coeffs(0, *e))
        assert v.classification is D.INDEFINITE
        (px, py), (nx, ny) = v.witnesses
        assert calls == [((0, 1), (1, 1), (0, 1), (0, 1), (-10**30, 1))]
        assert fraction_formula(0, *e, px, py) > 0 > fraction_formula(0, *e, nx, ny)

    def test_decision_builds_one_verdict(self, monkeypatch):
        # y (x^3 - 4 x^2 y + 5 y^3) is decided by the kernel on f(y, x),
        # without a verdict on that form
        import quartic_certify.positivity as positivity

        built = []
        real = positivity._lazy_verdict

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(positivity, "_lazy_verdict", counting)
        for e in ((F(1), F(-4), F(0), F(5)), (F(0), F(1), F(2), F(1)),
                  (F(0), F(-1), F(0), F(-2))):
            built.clear()
            v = decide_problem(from_plain_coeffs(0, *e))
            assert len(built) == 1 and v.kernel is None
            assert_degenerate_verdict_proven(e, v)

    def test_perfect_square(self):
        v = decide_problem(from_plain_coeffs(0, F(0), F(1), F(2), F(1)))
        assert v.classification is D.POSITIVE_SEMIDEFINITE

    def test_nsd(self):
        v = decide_problem(from_plain_coeffs(0, F(0), F(-1), F(0), F(-2)))
        assert v.classification is D.NEGATIVE_SEMIDEFINITE

    def test_zero_form(self):
        v = decide_problem(from_plain_coeffs(0, F(0), F(0), F(0), F(0)))
        assert v.classification is D.ZERO
        assert sylvester_psd(v.certificate)

    def test_indefinite_quadratic(self):
        e = (F(0), F(1), F(0), F(-4))  # y^2 (x^2 - 4 y^2)
        v = decide_problem(from_plain_coeffs(0, *e))
        assert v.classification is D.INDEFINITE
        (px, py), (nx, ny) = v.witnesses
        assert fraction_formula(0, *e, px, py) > 0
        assert fraction_formula(0, *e, nx, ny) < 0

    def test_certificate_reproduces_form(self):
        rng = random.Random(41)
        for _ in range(100):
            e = [random_fraction(rng, 20, 6) for _ in range(4)]
            e[0] = F(0)
            v = decide_problem(from_plain_coeffs(0, *e))
            if v.certificate is None or v.classification is D.NEGATIVE_SEMIDEFINITE:
                continue
            x, y = random_fraction(rng, 9, 3), random_fraction(rng, 9, 3)
            assert v.certificate.form_value(x, y) == fraction_formula(0, *e, x, y)

    @given(st.tuples(*[st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12))] * 3),
           st.one_of(st.just(F(0)),
                     st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12))))
    @settings(max_examples=300, deadline=None)
    def test_verdict_is_proven_and_is_the_swapped_oracle(self, e321, e0):
        e = (*e321, e0)
        problem = from_plain_coeffs(0, *e)
        v = decide_problem(problem)
        assert_degenerate_verdict_proven(e, v)
        if e0 != 0:
            # the class of f(y, x) read off its discriminant sequence
            swapped = problem.decided()
            case_id = discriminant_case(swapped.form)
            cls = D.POSITIVE_SEMIDEFINITE if case_id in PSD_CASES else D.INDEFINITE
            if swapped.orientation is Orientation.NEGATIVE_SIDE:
                cls = cls.flipped()
            assert case_id not in PD_CASES and v.classification is cls

    def test_vanishing_end_coefficients_grid(self):
        # e4 = e0 = 0: f = x y (e3 x^2 + e2 x y + e1 y^2)
        for e3, e2, e1 in itertools.product(range(-2, 3), repeat=3):
            e = (F(e3), F(e2), F(e1), F(0))
            v = decide_problem(from_plain_coeffs(0, *e))
            if e3 or e1:
                assert v.classification is D.INDEFINITE
            elif e2:
                assert v.classification is (D.POSITIVE_SEMIDEFINITE if e2 > 0
                                            else D.NEGATIVE_SEMIDEFINITE)
            else:
                assert v.classification is D.ZERO
            assert_degenerate_verdict_proven(e, v)


def assert_degenerate_verdict_proven(e, verdict):
    """The verdict on f = (0, *e) is proven by what it carries: two points
    of opposite exact sign, or a PSD Gram matrix of f, or of -f for the
    negative class, equal to f at five distinct projective points, which
    pins a binary quartic."""
    cls = verdict.classification
    assert verdict.kernel is None
    if cls is D.INDEFINITE:
        assert verdict.certificate is None
        (px, py), (nx, ny) = verdict.witnesses
        assert fraction_formula(0, *e, px, py) > 0 > fraction_formula(0, *e, nx, ny)
        return
    assert verdict.witnesses is None
    assert cls in (D.POSITIVE_SEMIDEFINITE, D.NEGATIVE_SEMIDEFINITE, D.ZERO)
    assert (cls is D.ZERO) == (not any(e))
    mat = verdict.certificate
    assert sylvester_psd(mat)
    sign = -1 if cls is D.NEGATIVE_SEMIDEFINITE else 1
    for x, y in ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(-2, 3), F(5, 7)),
                 (F(3), F(-1, 2))):
        assert sign * mat.form_value(x, y) == fraction_formula(0, *e, x, y)


class TestCrossProperties:
    def test_matrix_test_agrees_with_inequality_test(self, small_corpus):
        for m in small_corpus:
            verdict = decide_monic(m)
            lam0 = critical_param(pencil_coeffs(m))
            if not lam0.is_real:
                assert verdict.classification is D.INDEFINITE
                continue
            mat = pencil_matrix(m, lam0.value)
            assert sylvester_pd(mat) == (verdict.classification is D.POSITIVE_DEFINITE)
            assert sylvester_psd(mat) == (
                verdict.classification
                in (D.POSITIVE_DEFINITE, D.POSITIVE_SEMIDEFINITE)
            )

    def test_certificate_soundness(self, small_corpus):
        rng = random.Random(43)
        for m in small_corpus:
            verdict = decide_monic(m)
            if verdict.certificate is None:
                continue
            assert sylvester_psd(verdict.certificate)
            for _ in range(3):
                x, y = random_fraction(rng, 9, 3), random_fraction(rng, 9, 3)
                assert verdict.certificate.form_value(x, y) == evaluate(m, x, y)

    def test_rank_one_boundary_certificates(self, small_corpus):
        hit = 0
        for m in small_corpus + [MonicQuartic(4, 2, -4, 1), MonicQuartic(4, 6, 4, 1)]:
            verdict = decide_monic(m)
            if verdict.certificate is None:
                continue
            lam0 = critical_param(pencil_coeffs(m)).value
            tau = m.a3**2 / 4
            if sign_of(lam0 - tau) != 0:
                continue
            hit += 1
            assert all(sign_of(x) == 0 for x in verdict.certificate.two_by_two_minors())
            assert m.a1 == (4 * m.a2 * m.a3 - m.a3**3) / 8
            assert m.a0 == (4 * m.a2 - m.a3**2) ** 2 / 64
        assert hit >= 2

    def test_duality(self):
        rng = random.Random(47)
        for _ in range(150):
            m = random_monic(rng, num=40, den=8)
            pos = decide_monic(m).classification
            negated = from_plain_coeffs(-1, -m.a3, -m.a2, -m.a1, -m.a0)
            assert negated.form == m  # the flip hands back the same monic form
            neg = decide_problem(negated).classification
            mapping = {
                D.POSITIVE_DEFINITE: D.NEGATIVE_DEFINITE,
                D.POSITIVE_SEMIDEFINITE: D.NEGATIVE_SEMIDEFINITE,
                D.INDEFINITE: D.INDEFINITE,
            }
            assert neg is mapping[pos]

    def test_positive_scaling_invariance(self):
        rng = random.Random(53)
        for _ in range(100):
            m = random_monic(rng, num=40, den=8)
            scale = abs(random_fraction(rng, 50, 10)) + F(1, 7)
            scaled = from_plain_coeffs(
                scale, scale * m.a3, scale * m.a2, scale * m.a1, scale * m.a0
            )
            assert scaled.form == m
            assert decide_problem(scaled).classification is decide_monic(m).classification


def _entries(mat):
    return (mat.m11, mat.m12, mat.m13, mat.m22, mat.m23, mat.m33)


class TestIntegerCertificate:
    """M(lam0) and its principal minor signs from the form's integers, against
    `pencil_matrix` and `principal_minor_signs` at the lam0 of `lam0_surds`."""

    def check(self, m) -> bool:
        """Whether m has a real lam0 and an indefinite verdict."""
        if lam0_test(m).slack is None:  # lam0 is not real
            return False
        reference = pencil_matrix(m, surd_value(m, lam0_surds(m)[0]))
        built = lam0_matrix(lam0_surds(m)[2], m)
        for ours, theirs in zip(_entries(built), _entries(reference)):
            assert type(ours) is type(theirs)
            if isinstance(ours, QuadExt):
                assert quad_parts(ours) == quad_parts(theirs)
            else:
                assert ours == theirs
        certificate = decide_monic(m).certificate
        assert certificate is None or _entries(certificate) == _entries(built)
        assert lam0_minor_signs(m) == Sym3Matrix(*_entries(reference)).principal_minor_signs
        return certificate is None

    def test_small_corpus(self, small_corpus):
        assert sum(self.check(m) for m in small_corpus) >= 20

    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nine_case_strata(self, case_id, data):
        self.check(data.draw(configured_form(case_id)))

    def test_non_real_lam0(self):
        with pytest.raises(ValueError):
            lam0_minor_signs(MonicQuartic(0, 0, 0, -1))  # x^4 - y^4: D = -12


def test_flipped_pairs_the_two_sides():
    assert D.POSITIVE_DEFINITE.flipped() is D.NEGATIVE_DEFINITE
    assert D.POSITIVE_SEMIDEFINITE.flipped() is D.NEGATIVE_SEMIDEFINITE
    for cls in D:
        assert cls.flipped().flipped() is cls
    assert D.INDEFINITE.flipped() is D.INDEFINITE and D.ZERO.flipped() is D.ZERO


def test_verdict_routing():
    assert decide_problem(from_plain_coeffs(0, 0, 0, 0, 0)).classification is D.ZERO
    assert decide_problem(from_plain_coeffs(3, 0, 0, 3, 3)).classification is D.POSITIVE_DEFINITE
    assert decide_problem(from_plain_coeffs(-2, 0, -4, 0, -2)).classification is D.NEGATIVE_DEFINITE


def test_inconsistent_problem_raises():
    # explicit checks, not asserts, so they also hold under python -O
    with pytest.raises(ValueError):
        decide_problem(NormalizedProblem(None, None, F(0)))
    with pytest.raises(ValueError):
        decide_problem(NormalizedProblem(None, Orientation.POSITIVE_SIDE, F(1)))


# -- the decision builds integer records; the exact values are views ---------


class TestViewsOnFirstRead:
    """`decide_problem` computes the integer records and the two kernel signs
    only; a3..a0, the certificate and the witnesses are built when first
    read, and lam0 and g(lam0) from `lam0_surds`, equal in value and type to
    the eager references."""

    @pytest.fixture
    def built(self, monkeypatch):
        """A list that gains one entry per Fraction or QuadExt built."""
        calls = []
        new, normalised, post_init = Fraction.__new__, QuadExt._normalised, QuadExt.__post_init__

        def counting_new(cls, *args, **kwargs):
            calls.append(("Fraction", args))
            return new(cls, *args, **kwargs)

        def counting_normalised(cls, *args):
            calls.append(("QuadExt", args))
            return normalised(*args)

        def counting_post_init(self):
            calls.append(("QuadExt", ()))
            post_init(self)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(QuadExt, "_normalised", classmethod(counting_normalised))
        monkeypatch.setattr(QuadExt, "__post_init__", counting_post_init)
        return calls

    @pytest.mark.parametrize("coeffs, cls", [
        ((1, 0, 0, 1, 1), D.POSITIVE_DEFINITE),  # lam0 irrational
        ((-1, 0, 4, 0, -4), D.NEGATIVE_SEMIDEFINITE),  # -(x^2 - 2 y^2)^2
        ((1, 0, -5, 0, 4), D.INDEFINITE),
    ])
    def test_decision_builds_no_fraction(self, built, coeffs, cls):
        problem = from_plain_coeffs(*(F(c) for c in coeffs))
        built.clear()
        verdict = decide_problem(problem)
        assert verdict.classification is cls
        assert built == []
        # the views are still there to read, and building them is counted
        m = problem.form
        kernel = verdict.kernel
        assert kernel == lam0_test(m) and kernel.slack is not None
        if cls is D.INDEFINITE:
            assert verdict.certificate is None
            pos, neg = verdict.witnesses
            assert evaluate(m, *pos) > 0 > evaluate(m, *neg)
        else:
            assert verdict.witnesses is None
            lam0 = lam0_matrix(lam0_surds(m)[2], m).m22
            assert _entries(verdict.certificate) == _entries(pencil_matrix(m, lam0))
        assert built

    @pytest.mark.parametrize("coeffs", [
        (3, -5, 2, 9, -1),
        (1, 0, 0, 1, 1),
        (-1, 0, 4, 0, -4),
        (0, 1, 2, 1, 3),  # decided as f(y, x)
        (0, 1, 0, -1, 0),  # e4 = e0 = 0: the closed rule
    ])
    def test_certify_of_integers_builds_no_fraction(self, built, coeffs):
        # each integer is taken as its ratio (n, 1), not as Fraction(n)
        problem, verdict = certify(*coeffs)
        assert built == []
        assert problem.input_ratios == tuple((c, 1) for c in coeffs)
        assert verdict.classification is certify(*map(F, coeffs))[1].classification

    @pytest.mark.parametrize("position", range(5))
    def test_certify_rejects_a_float(self, position):
        coeffs = [1, 0, 0, 1, 1]
        coeffs[position] = float(coeffs[position])
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            certify(*coeffs)

    @given(st.tuples(*[st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12))] * 5))
    @settings(max_examples=200, deadline=None)
    def test_views_equal_the_eager_references(self, coeffs):
        problem = from_plain_coeffs(*coeffs)
        if problem.form is not None:
            assert_views_equal_the_eager_references(problem)

    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_views_on_the_nine_case_strata(self, case_id, data):
        # the strata reach the semidefinite verdicts that random forms miss
        m = data.draw(configured_form(case_id))
        lead = data.draw(st.builds(F, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6)))
        assert_views_equal_the_eager_references(
            from_plain_coeffs(lead, *(lead * a for a in (m.a3, m.a2, m.a1, m.a0))))

    def test_witnesses_come_through_the_classifier_module(self, monkeypatch):
        # the verdict looks witness_search up on the module when it is read
        planted = ((F(1), F(0)), (F(1), F(1)))
        monkeypatch.setattr(classifier, "witness_search", lambda m: planted)
        assert decide_monic(MonicQuartic(0, -5, 0, 4)).witnesses is planted

    def test_negative_side_verdict_is_the_flipped_monic_verdict(self):
        m = MonicQuartic(0, -4, 0, 4)  # (x^2 - 2 y^2)^2
        p = from_plain_coeffs(-1, 0, 4, 0, -4)
        assert p.form == m
        ours, monic = decide_problem(p), decide_monic(m)
        assert ours.classification is monic.classification.flipped()
        assert ours.kernel == monic.kernel
        assert ours.certificate == monic.certificate and ours.witnesses is None


def assert_views_equal_the_eager_references(problem):
    m = problem.form
    verdict = decide_problem(problem)
    e4, *rest = m.cleared
    # a3..a0, and the floats the critical-point witness first proposes from
    # them, unscaled (a failed proposal is retried at rescaled coefficients)
    coefficients = (m.a3, m.a2, m.a1, m.a0)
    assert coefficients == tuple(Fraction(e, e4) for e in rest)
    assert all(type(a) is Fraction for a in coefficients)
    assert tuple(e / e4 for e in rest) == tuple(float(a) for a in coefficients)
    with mock.patch.object(classifier, "_cubic_real_roots",
                           wraps=classifier._cubic_real_roots) as proposed:
        classifier._critical_point_witness(m)
    assert proposed.call_args_list[0].args == (0.75 * float(m.a3), 0.5 * float(m.a2),
                                               0.25 * float(m.a1))
    # lam0 and g(lam0)
    cubic = pencil_coeffs(m)
    lam0 = critical_param(cubic)
    lam0_surd, g_surd, _ = lam0_surds(m)
    radicand = Fraction(*surd_parts(m, *lam0_surd)[2])
    assert radicand == lam0.radicand
    if not lam0.is_real:
        assert verdict.kernel == (None, None)
    else:
        assert quad_parts(surd_value(m, lam0_surd)) == quad_parts(lam0.value)
        assert quad_parts(surd_value(m, g_surd)) == quad_parts(g_eval(cubic, lam0.value))
    # the certificate, or the witnesses
    if verdict.classification is D.INDEFINITE:
        assert verdict.certificate is None
        assert verdict.witnesses == classifier.witness_search(m)
        return
    assert verdict.witnesses is None
    reference = pencil_matrix(m, lam0.value)
    for ours, theirs in zip(_entries(verdict.certificate), _entries(reference)):
        assert type(ours) is type(theirs)
        if isinstance(ours, QuadExt):
            assert quad_parts(ours) == quad_parts(theirs)
        else:
            assert ours == theirs
