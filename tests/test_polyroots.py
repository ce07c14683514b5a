import math
import random
from fractions import Fraction

from quartic_certify import _polyroots as pr

F = Fraction


def poly_from_roots(roots):
    acc = pr.make_poly([F(1)])
    for r in roots:
        acc = pr.poly_mul(acc, pr.make_poly([-F(r), F(1)]))
    return acc


def test_divmod_reconstructs():
    rng = random.Random(3)
    for _ in range(100):
        a = pr.make_poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)])
        b = pr.make_poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)])
        if not b:
            continue
        q, r = pr.poly_divmod(a, b)
        assert pr._poly_sub(a, pr.poly_mul(q, b)) == r
        assert pr.degree(r) < pr.degree(b)


def test_squarefree_factors_known():
    # (x-1)^2 (x+2)
    p = pr.poly_mul(poly_from_roots([1, 1]), poly_from_roots([-2]))
    factors = pr.squarefree_factors(p)
    assert sorted((pr.degree(f), k) for f, k in factors) == [(1, 1), (1, 2)]
    # (x-4)^3
    p = poly_from_roots([4, 4, 4])
    assert pr.squarefree_factors(p) == [(pr.make_poly([F(-4), F(1)]), 3)]


def test_squarefree_reconstruction_random():
    rng = random.Random(5)
    for _ in range(80):
        roots = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        p = poly_from_roots(roots)
        acc = pr.make_poly([F(1)])
        for f, k in pr.squarefree_factors(p):
            for _ in range(k):
                acc = pr.poly_mul(acc, f)
        assert acc == p


def test_rational_roots_no_factoring():
    # roots with large coprime numerators and denominators
    roots = [F(997, 61), F(-1000003, 7), F(0)]
    p = poly_from_roots(roots)
    assert pr.rational_roots(p) == sorted(roots)


def test_rational_roots_mixed_with_irrational():
    # (x - 1/2)(x^2 - 2)
    p = pr.poly_mul(poly_from_roots([F(1, 2)]), pr.make_poly([F(-2), F(0), F(1)]))
    assert pr.rational_roots(p) == [F(1, 2)]


def midpoint(iso: pr.IsolatedRoot) -> float:
    """The float midpoint of iso refined below width 1e-17."""
    iso = iso.refined(F(1, 10**17))
    return float((iso.lo + iso.hi) / 2)


def test_isolation_three_irrational_roots():
    # x^3 - 4x + 1: irreducible over Q with three real roots
    p = pr.make_poly([F(1), F(-4), F(0), F(1)])
    assert pr.rational_roots(p) == []
    exact, roots = pr.isolate_real_roots(p)
    assert exact == [] and len(roots) == 3
    approx = sorted(midpoint(r) for r in roots)
    for a in approx:
        assert abs(a**3 - 4 * a + 1) < 1e-9
    # pairwise disjoint and ordered
    for r1, r2 in zip(roots, roots[1:]):
        assert r1.hi <= r2.lo


def test_isolation_records_a_root_hit_by_bisection():
    # x^3 - 2x: Cauchy bound 3, so the first midpoint is the root 0
    p = pr.make_poly([F(0), F(-2), F(0), F(1)])
    exact, roots = pr.isolate_real_roots(p)
    assert exact == [F(0)]
    assert len(roots) == 2
    for iso, sign in zip(roots, (-1, 1)):
        # closures clear of the exact root; one sign change of x^2 - 2
        assert not iso.lo <= 0 <= iso.hi
        assert pr.evaluate(iso.poly, iso.lo) * pr.evaluate(iso.poly, iso.hi) < 0
        assert abs(midpoint(iso) - sign * math.sqrt(2)) < 1e-12
    assert roots[0].hi <= roots[1].lo


def test_count_distinct_real_roots():
    assert pr.count_distinct_real_roots(pr.make_poly([F(1), F(0), F(1)])) == 0
    assert pr.count_distinct_real_roots(pr.make_poly([F(-2), F(0), F(1)])) == 2
    assert pr.count_distinct_real_roots(poly_from_roots([1, 2, 3, 4])) == 4
    # multiplicities count once
    assert pr.count_distinct_real_roots(poly_from_roots([1, 1, 2])) == 2
