import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartic_certify import (
    MonicQuartic,
    PencilCubic,
    QuadExt,
    base_matrices,
    boundary_identity_check,
    critical_param,
    cubic_root_profile,
    decide_monic,
    discriminant_g,
    evaluate,
    from_plain_coeffs,
    g_eval,
    pencil_coeffs,
    pencil_matrix,
    sign_of,
    Sym3Matrix,
    sylvester_pd,
    sylvester_psd,
)
from quartic_certify import pencil
from quartic_certify.exactnum import MismatchedRadicandError
from quartic_certify.forms import Orientation
from quartic_certify.pencil import (
    CriticalParam, Lam0Test, lam0_matrix, lam0_surds, lam0_test, surd_parts)
from quartic_certify.positivity import decide_problem

from conftest import configured_form, quad_parts, random_fraction, random_monic, surd_value

F = Fraction

EX1 = MonicQuartic(0, 0, 1, 1)
EX2 = MonicQuartic(-8, 26, -40, 25)
EX3 = MonicQuartic(1, 0, 1, 1)
EX4 = MonicQuartic(4, 2, -4, 1)
EX5 = MonicQuartic(4, 6, 4, 1)


class TestPencilCoeffs:
    def test_example_forms(self):
        assert pencil_coeffs(EX1) == PencilCubic(F(-1, 4), F(1), F(0))
        assert pencil_coeffs(EX2) == PencilCubic(F(1280), F(-224), F(13))
        assert pencil_coeffs(MonicQuartic(0, 0, 0, 0)) == PencilCubic(0, 0, 0)

    def test_more_examples(self):
        assert pencil_coeffs(EX3) == PencilCubic(F(-1, 2), F(3, 4), F(0))
        assert pencil_coeffs(EX4) == PencilCubic(F(-16), F(4), F(1))
        assert pencil_coeffs(EX5) == PencilCubic(F(16), F(-12), F(3))


class TestPencilMatrix:
    def test_rank_one_member(self):
        mat = pencil_matrix(EX5, F(4))
        assert mat.rows() == (
            (1, 2, 1),
            (2, 4, 2),
            (1, 2, 1),
        )
        assert mat.rank() == 1

    def test_rank_extremes(self):
        assert Sym3Matrix(F(1), F(0), F(0), F(1), F(0), F(1)).rank() == 3
        assert Sym3Matrix(*[F(0)] * 6).rank() == 0

    def test_corner_vanishes_at_a2(self):
        m = MonicQuartic(3, F(7, 2), -1, 5)
        assert pencil_matrix(m, m.a2).m13 == 0

    def test_lambda_zero_gives_first_base_conic(self):
        a1, a2 = base_matrices(EX1)
        assert pencil_matrix(EX1, F(0)) == a1
        assert a1.rows() == ((1, 0, 0), (0, 0, F(1, 2)), (0, F(1, 2), 1))
        assert a2.rows() == ((0, 0, F(-1, 2)), (0, 1, 0), (F(-1, 2), 0, 0))


class TestGEval:
    def test_rational_point(self):
        assert g_eval(pencil_coeffs(EX2), F(56, 3)) == F(64, 27)

    def test_quadratic_extension_point(self):
        lam = QuadExt(F(0), F(2, 3), F(3))  # 2/sqrt(3)
        assert g_eval(pencil_coeffs(EX1), lam) == QuadExt(F(-1, 4), F(4, 9), F(3))

    def test_boundary_zero(self):
        assert g_eval(pencil_coeffs(EX5), F(4)) == 0


class TestCriticalParam:
    def test_irrational(self):
        lam0 = critical_param(PencilCubic(F(-1, 4), F(1), F(0)))
        assert lam0.is_real and lam0.radicand == 3
        assert lam0.value == QuadExt(F(0), F(2, 3), F(3))

    def test_perfect_square_collapse(self):
        lam0 = critical_param(PencilCubic(F(1280), F(-224), F(13)))
        assert lam0.radicand == 4
        assert lam0.value.is_rational and lam0.value.as_fraction() == F(56, 3)

    def test_non_real(self):
        # f = x^4 - y^4 has b1 = -1, b2 = 0, so the radicand is -3
        cubic = pencil_coeffs(MonicQuartic(0, 0, 0, -1))
        assert (cubic.b1, cubic.b2) == (-1, 0)
        lam0 = critical_param(cubic)
        assert not lam0.is_real and lam0.radicand == -3 and lam0.value is None


class TestDiscriminant:
    def test_triple_root_vanishes(self):
        assert discriminant_g(PencilCubic(F(16), F(-12), F(3))) == 0
        assert discriminant_g(PencilCubic(0, 0, 0)) == 0

    def test_three_distinct_real_roots_positive(self):
        assert discriminant_g(PencilCubic(F(-1, 4), F(1), F(0))) == F(229, 256)

    def test_repeated_root_vanishes(self):
        assert discriminant_g(PencilCubic(F(-16), F(4), F(1))) == 0
        assert discriminant_g(PencilCubic(F(1280), F(-224), F(13))) == 0


class TestBoundaryIdentity:
    def test_examples(self):
        assert boundary_identity_check(EX4) == (F(0), F(0))
        assert boundary_identity_check(EX1) == (F(-1, 4), F(-1, 4))
        assert boundary_identity_check(MonicQuartic(0, 0, 0, 0)) == (F(0), F(0))


class TestIdentities:
    def test_representation_and_determinant(self):
        rng = random.Random(23)
        for _ in range(300):
            m = random_monic(rng, num=60, den=12)
            cubic = pencil_coeffs(m)
            lam = random_fraction(rng, 40, 8)
            mat = pencil_matrix(m, lam)
            assert mat.det() == g_eval(cubic, lam)
            x, y = random_fraction(rng, 12, 4), random_fraction(rng, 12, 4)
            assert mat.form_value(x, y) == evaluate(m, x, y)

    def test_boundary_identity_random(self):
        rng = random.Random(29)
        for _ in range(300):
            lhs, rhs = boundary_identity_check(random_monic(rng, num=60, den=12))
            assert lhs == rhs

    def test_stationarity_of_lambda0(self):
        rng = random.Random(31)
        seen_real = 0
        for _ in range(400):
            cubic = pencil_coeffs(random_monic(rng, num=60, den=12))
            lam0 = critical_param(cubic)
            if not lam0.is_real:
                continue
            seen_real += 1
            # g'(lam0) = (-3/4 lam0 + 2 b2) lam0 + b1 vanishes
            assert (F(-3, 4) * lam0.value + 2 * cubic.b2) * lam0.value + cubic.b1 == 0
            other = QuadExt(F(4, 3) * cubic.b2, F(-2, 3), lam0.radicand)
            assert lam0.value >= other
        assert seen_real > 50

    def test_discriminant_sign_matches_root_profile(self, small_corpus):
        for m in small_corpus:
            cubic = pencil_coeffs(m)
            profile = cubic_root_profile(cubic)
            assert (sign_of(discriminant_g(cubic)) < 0) == profile.conjugate_pair


def assert_kernel_matches_field_route(m: MonicQuartic):
    """lam0_test's signs and lam0_surds' lam0 and g(lam0) against the
    Q(sqrt(d)) route: equal values with identical parts, and the same two
    signs.  Returns the signs, lam0 of the integer route, as a
    CriticalParam, and its g(lam0), None when lam0 is not real."""
    test = lam0_test(m)
    cubic = pencil_coeffs(m)
    lam0 = critical_param(cubic)
    lam0_surd, g_surd, _ = lam0_surds(m)
    radicand = F(*surd_parts(m, *lam0_surd)[2])
    assert radicand == lam0.radicand
    if not lam0.is_real:
        assert (test.slack, test.value) == (None, None)
        return test, CriticalParam(radicand, None), None
    ours, g_ours = surd_value(m, lam0_surd), surd_value(m, g_surd)
    g_lam0 = g_eval(cubic, lam0.value)
    assert ours == lam0.value and quad_parts(ours) == quad_parts(lam0.value)
    assert g_ours == g_lam0 and quad_parts(g_ours) == quad_parts(g_lam0)
    assert quad_parts(lam0_matrix(lam0_surds(m)[2], m).m22) == quad_parts(lam0.value)
    assert test.slack == sign_of(lam0.value - m.a3**2 / 4)
    assert test.value == sign_of(g_lam0)
    return test, CriticalParam(radicand, ours), g_ours


def assert_verdict_records_kernel(m: MonicQuartic, verdict):
    """The verdict's kernel is lam0_test's record, and the lam0 and g(lam0)
    kept on m are those of a fresh copy of m."""
    test = lam0_test(m)
    assert verdict.kernel == test and type(verdict.kernel) is Lam0Test
    fresh = MonicQuartic(m.a3, m.a2, m.a1, m.a0)
    for ours, theirs in zip(lam0_surds(m)[:2], lam0_surds(fresh)[:2]):
        assert ours == theirs
        if test.slack is not None:
            assert quad_parts(surd_value(m, ours)) == quad_parts(surd_value(fresh, theirs))


_big = st.integers(-10**30, 10**30)
_num = st.integers(-10**6, 10**6)
_den = st.integers(1, 10**12)
_fraction = st.builds(F, _num, _den)


class TestLam0Kernel:
    """The integer kernel against critical_param, g_eval and sign_of."""

    def test_small_corpus(self, small_corpus):
        seen = {"non-real": 0, "irrational": 0, "rational": 0}
        for m in small_corpus:
            _, lam0, _ = assert_kernel_matches_field_route(m)
            assert_verdict_records_kernel(m, decide_monic(m))
            if not lam0.is_real:
                seen["non-real"] += 1
            elif lam0.value.is_rational:
                seen["rational"] += 1
            else:
                seen["irrational"] += 1
        assert min(seen.values()) >= 20, seen

    @given(_fraction, _fraction, _fraction, _fraction)
    @settings(max_examples=150, deadline=None)
    def test_random_denominators_up_to_1e12(self, a3, a2, a1, a0):
        assert_kernel_matches_field_route(MonicQuartic(a3, a2, a1, a0))

    @given(_big, _big, _big, _big)
    @settings(max_examples=150, deadline=None)
    def test_coefficients_of_size_1e30(self, a3, a2, a1, a0):
        assert_kernel_matches_field_route(MonicQuartic(a3, a2, a1, a0))

    @given(_fraction, _fraction, _fraction, st.builds(F, st.integers(1, 10**6), _den))
    @settings(max_examples=100, deadline=None)
    def test_negative_radicand(self, a3, a2, a1, excess):
        # d = (12 a0 - 3 a1 a3 + a2^2) / 4 < 0
        a0 = (3 * a1 * a3 - a2 * a2) / 12 - excess
        _, lam0, _ = assert_kernel_matches_field_route(MonicQuartic(a3, a2, a1, a0))
        assert lam0.radicand < 0

    @given(_fraction, _fraction, _fraction)
    @settings(max_examples=100, deadline=None)
    def test_zero_radicand(self, a3, a2, a1):
        a0 = (3 * a1 * a3 - a2 * a2) / 12
        _, lam0, _ = assert_kernel_matches_field_route(MonicQuartic(a3, a2, a1, a0))
        assert lam0.radicand == 0 and lam0.value.is_rational

    @given(_fraction, _fraction)
    @settings(max_examples=100, deadline=None)
    def test_psd_squares_have_rational_lam0(self, b, c):
        # (x^2 + b xy + c y^2)^2: d = (b^2 - 4c)^2 / 4 is a square
        m = MonicQuartic(2 * b, b * b + 2 * c, 2 * b * c, c * c)
        test, lam0, g_lam0 = assert_kernel_matches_field_route(m)
        assert lam0.value.is_rational and g_lam0.is_rational
        assert test.slack >= 0 and test.value >= 0

    @given(_fraction, _fraction, _fraction, _fraction)
    @settings(max_examples=100, deadline=None)
    def test_square_radicand(self, a3, a2, a1, s):
        a0 = (4 * s * s + 3 * a1 * a3 - a2 * a2) / 12  # d = s^2
        _, lam0, _ = assert_kernel_matches_field_route(MonicQuartic(a3, a2, a1, a0))
        assert lam0.value.is_rational

    @given(st.builds(F, st.integers(-10**6, -1), _den), _fraction, _fraction, _fraction, _fraction)
    @settings(max_examples=100, deadline=None)
    def test_negative_side_verdict_records_kernel(self, e4, e3, e2, e1, e0):
        problem = from_plain_coeffs(e4, e3, e2, e1, e0)
        assert problem.orientation is Orientation.NEGATIVE_SIDE
        assert_kernel_matches_field_route(problem.form)
        assert_verdict_records_kernel(problem.form, decide_problem(problem))


def assert_signs_match_field_minors(mat: Sym3Matrix) -> tuple[int, ...]:
    """principal_minor_signs of a fresh copy against the Q(sqrt(d)) minors."""
    fresh = Sym3Matrix(mat.m11, mat.m12, mat.m13, mat.m22, mat.m23, mat.m33)
    signs = fresh.principal_minor_signs
    assert signs == tuple(sign_of(x) for x in mat.principal_minors())
    return signs


def _quad(d):
    """Entries p + q sqrt(d) with small rational parts, q often 0."""
    part = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
    return st.builds(lambda p, q: QuadExt(p, q, d), part, st.one_of(st.just(F(0)), part))


def _outer(u, v):
    """The symmetric matrix u v^T + v u^T over entries of Q(sqrt(d))."""
    return Sym3Matrix(2 * u[0] * v[0], u[0] * v[1] + v[0] * u[1], u[0] * v[2] + v[0] * u[2],
                      2 * u[1] * v[1], u[1] * v[2] + v[1] * u[2], 2 * u[2] * v[2])


class TestPrincipalMinorSigns:
    """The integer signs over Z[sqrt(N)] against sign_of on the QuadExt minors."""

    def test_small_corpus(self, small_corpus):
        seen = {"irrational": 0, "rational": 0, "zero": 0}
        for m in small_corpus:
            if lam0_test(m).slack is None:  # lam0 is not real
                continue
            lam0 = lam0_matrix(lam0_surds(m)[2], m).m22
            certificate = decide_monic(m).certificate
            if certificate is not None:
                assert_signs_match_field_minors(certificate)
            signs = assert_signs_match_field_minors(pencil_matrix(m, lam0))
            seen["rational" if lam0.is_rational else "irrational"] += 1
            seen["zero"] += 0 in signs
        assert min(seen.values()) >= 20, seen

    @given(_fraction, _fraction, _fraction, _fraction)
    @settings(max_examples=150, deadline=None)
    def test_pencil_matrix_of_indefinite_forms(self, a3, a2, a1, a0):
        m = MonicQuartic(a3, a2, a1, a0)
        lam0 = critical_param(pencil_coeffs(m))
        assume(lam0.is_real and decide_monic(m).certificate is None)
        signs = assert_signs_match_field_minors(pencil_matrix(m, lam0.value))
        assert any(s < 0 for s in signs)  # M(lam0) of an indefinite form is not PSD

    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chosen_root_forms(self, case_id, data):
        # numerators up to 10^30 over denominators up to 10^12
        m = data.draw(configured_form(case_id))
        if lam0_test(m).slack is not None:
            lam0 = surd_value(m, lam0_surds(m)[0])
            assert_signs_match_field_minors(pencil_matrix(m, lam0))

    @given(_fraction, _fraction, _fraction, _fraction)
    @settings(max_examples=100, deadline=None)
    def test_square_radicand(self, a3, a2, a1, s):
        a0 = (4 * s * s + 3 * a1 * a3 - a2 * a2) / 12  # d = s^2: every entry rational
        m = MonicQuartic(a3, a2, a1, a0)
        mat = pencil_matrix(m, critical_param(pencil_coeffs(m)).value)
        assert not isinstance(mat.m22, QuadExt) or mat.m22.is_rational
        assert_signs_match_field_minors(mat)

    @pytest.mark.parametrize("d", [F(5, 3), F(12)])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_hand_built_over_a_fractional_or_unreduced_radicand(self, d, data):
        # d = 5/3 clears to N = 15 over m = 3; d = 12 keeps N = 12
        entries = st.tuples(*[_quad(d)] * 3)
        u, v = data.draw(entries), data.draw(entries)
        mat = Sym3Matrix(*data.draw(st.tuples(*[_quad(d)] * 6)))
        assert_signs_match_field_minors(mat)
        assert_signs_match_field_minors(mat.negated())
        rank2 = assert_signs_match_field_minors(_outer(u, v))  # det = 0
        assert rank2[6] == 0
        gram = Sym3Matrix(u[0] * u[0], u[0] * u[1], u[0] * u[2],
                          u[1] * u[1], u[1] * u[2], u[2] * u[2])  # u u^T: rank <= 1
        assert assert_signs_match_field_minors(gram)[3:] == (0, 0, 0, 0)
        assert_signs_match_field_minors(gram.negated())

    def test_special_matrices(self):
        diag = Sym3Matrix(F(1), F(0), F(0), F(0), F(0), F(-1))
        assert assert_signs_match_field_minors(diag) == (1, 0, -1, 0, -1, 0, 0)
        zero = Sym3Matrix(*(F(0),) * 6)
        assert assert_signs_match_field_minors(zero) == (0,) * 7
        root3 = QuadExt(F(0), F(1), F(3))
        gram = Sym3Matrix(F(1), root3, F(2), F(3), 2 * root3, F(4))  # of (1, sqrt 3, 2)
        assert assert_signs_match_field_minors(gram) == (1, 1, 1, 0, 0, 0, 0)
        assert assert_signs_match_field_minors(gram.negated()) == (-1, -1, -1, 0, 0, 0, 0)

    def test_mismatched_radicands_raise(self):
        root2, root3 = QuadExt(F(1), F(1), F(2)), QuadExt(F(1), F(1), F(3))
        mat = Sym3Matrix(F(1), root2, F(0), root3, F(0), F(1))
        with pytest.raises(MismatchedRadicandError):
            mat.principal_minors()
        with pytest.raises(MismatchedRadicandError):
            mat.principal_minor_signs

    def test_computed_once_per_matrix(self, monkeypatch):
        mat = pencil_matrix(EX1, critical_param(pencil_coeffs(EX1)).value)
        assert sylvester_pd(mat) and sylvester_psd(mat)
        monkeypatch.setattr(pencil, "surd_sign", None)  # a second computation would fail
        assert sylvester_pd(mat) and sylvester_psd(mat)
