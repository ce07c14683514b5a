import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_certify import (
    Definiteness,
    MonicQuartic,
    QuadExt,
    Sym3Matrix,
    critical_param,
    decide_degenerate_leading,
    decide_monic,
    decide_negative_side,
    decide_problem,
    evaluate,
    evaluate_plain,
    NormalizedProblem,
    Orientation,
    from_plain_coeffs,
    g_eval,
    pencil_coeffs,
    pencil_matrix,
    sign_of,
    sylvester_pd,
    sylvester_psd,
)

from quartic_certify import positivity
from quartic_certify.pencil import lam0_minor_signs, lam0_test

from conftest import (configured_form, mixed_corpus, quad_parts, random_fraction,
                      random_monic)

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
        v = decide_negative_side(p.form)
        assert v.classification is D.NEGATIVE_SEMIDEFINITE
        cubic = pencil_coeffs(p.form)
        assert (cubic.b0, cubic.b1, cubic.b2) == (0, F(-169, 4), F(13, 2))
        lam0 = critical_param(cubic).value
        assert lam0 == 13 and g_eval(cubic, lam0) == 0

    def test_nd_example(self):
        # -(x^2+y^2)^2 reduces to (0, 2, 0, 1)
        p = from_plain_coeffs(-1, 0, -2, 0, -1)
        assert p.form == MonicQuartic(0, 2, 0, 1)
        v = decide_negative_side(p.form)
        assert v.classification is D.NEGATIVE_DEFINITE
        cubic = pencil_coeffs(p.form)
        lam0 = critical_param(cubic).value
        assert lam0 == F(8, 3) and g_eval(cubic, lam0) == F(64, 27)

    def test_indefinite(self):
        p = from_plain_coeffs(-1, 0, 0, 0, 1)
        assert decide_negative_side(p.form).classification is D.INDEFINITE

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
        v = decide_degenerate_leading(F(0), F(1), F(0), F(1))
        assert v.classification is D.POSITIVE_SEMIDEFINITE
        assert sylvester_psd(v.certificate)

    def test_odd_cubic_indefinite(self):
        v = decide_degenerate_leading(F(1), F(0), F(0), F(0))
        assert v.classification is D.INDEFINITE
        (px, py), (nx, ny) = v.witnesses
        assert evaluate_plain(0, 1, 0, 0, 0, px, py) > 0
        assert evaluate_plain(0, 1, 0, 0, 0, nx, ny) < 0

    def test_negative_cubic_needs_doubling(self):
        # y (-x^3 + 5 y^3): f(1, 1) = 4 has the sign of -e3 t^3 at t = 1, so
        # the search doubles to t = 2, and e3 < 0 swaps the two witnesses
        v = decide_degenerate_leading(F(-1), F(0), F(0), F(5))
        assert v.classification is D.INDEFINITE
        assert v.witnesses == ((F(-1), F(1)), (F(2), F(1)))
        assert evaluate_plain(0, -1, 0, 0, 5, F(-1), F(1)) == 6
        assert evaluate_plain(0, -1, 0, 0, 5, F(2), F(1)) == -3

    def test_large_cubic_clears_once(self, monkeypatch):
        # y (x^3 - 10^30 y^3): the search doubles t from 1 to 2^34, the first
        # power of two past 10^10, on the form cleared once
        import quartic_certify.positivity as positivity

        calls = []
        real = positivity.clear_denominators

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(positivity, "clear_denominators", counting)
        e = (F(1), F(0), F(0), F(-10**30))
        v = decide_degenerate_leading(*e)
        assert v.classification is D.INDEFINITE
        assert v.witnesses == ((F(2**34), F(1)), (F(-1), F(1)))
        assert len(calls) == 1
        assert evaluate_plain(0, *e, F(2**33), F(1)) < 0 < evaluate_plain(0, *e, F(2**34), F(1))

    def test_perfect_square(self):
        v = decide_degenerate_leading(F(0), F(1), F(2), F(1))
        assert v.classification is D.POSITIVE_SEMIDEFINITE

    def test_nsd(self):
        v = decide_degenerate_leading(F(0), F(-1), F(0), F(-2))
        assert v.classification is D.NEGATIVE_SEMIDEFINITE

    def test_zero_form(self):
        v = decide_degenerate_leading(F(0), F(0), F(0), F(0))
        assert v.classification is D.ZERO
        assert sylvester_psd(v.certificate)

    def test_indefinite_quadratic(self):
        e = (F(0), F(1), F(0), F(-4))  # y^2 (x^2 - 4 y^2)
        v = decide_degenerate_leading(*e)
        assert v.classification is D.INDEFINITE
        (px, py), (nx, ny) = v.witnesses
        assert evaluate_plain(0, *e, px, py) > 0
        assert evaluate_plain(0, *e, nx, ny) < 0

    def test_certificate_reproduces_form(self):
        rng = random.Random(41)
        for _ in range(100):
            e = [random_fraction(rng, 20, 6) for _ in range(4)]
            e[0] = F(0)
            v = decide_degenerate_leading(*e)
            if v.certificate is None or v.classification is D.NEGATIVE_SEMIDEFINITE:
                continue
            x, y = random_fraction(rng, 9, 3), random_fraction(rng, 9, 3)
            assert v.certificate.form_value(x, y) == evaluate_plain(0, *e, x, y)


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
            neg = decide_negative_side(negated.form).classification
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
    `pencil_matrix` and `principal_minor_signs` at the kernel's lam0."""

    def check(self, m) -> bool:
        """Whether m has a real lam0 and an indefinite verdict."""
        lam0 = lam0_test(m).lam0
        if not lam0.is_real:
            return False
        reference = pencil_matrix(m, lam0.value)
        built = positivity._certificate(m, lam0)
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
        decide_problem(NormalizedProblem(None, None, F(0), degenerate_leading=True))
    with pytest.raises(ValueError):
        decide_problem(NormalizedProblem(None, Orientation.POSITIVE_SIDE, F(1),
                                         degenerate_leading=False))
    with pytest.raises(ValueError):
        positivity._quadratic_sign_witnesses(F(0), F(0), F(1))  # y^2: one sign
