#!/usr/bin/env python3
"""Cross-validate the pencil criterion on a random corpus.

Three independent checks per form: the classical invariant-based positive
definiteness test, a direct Sylvester test on the certificate matrix, and
a float minimum of the form on the unit circle (advisory only).
"""

import random
import sys
from collections import Counter
from fractions import Fraction

from quartic_certify import (
    Definiteness,
    MonicQuartic,
    circle_min_estimate,
    classical_is_pd,
    classify_case,
    critical_param,
    decide_monic,
    pencil_coeffs,
    pencil_matrix,
    sylvester_pd,
    to_weighted,
)

rng = random.Random(2025)
N = 2000

verdicts = Counter()
cases = Counter()
worst_gap = 0.0
disagreements = []  # counted, not asserted: the demo checks under python -O too
for _ in range(N):
    m = MonicQuartic(*(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(4)))
    verdict = decide_monic(m).classification
    verdicts[verdict.value] += 1
    cases[classify_case(m).case_id] += 1

    is_pd = verdict is Definiteness.POSITIVE_DEFINITE
    if classical_is_pd(to_weighted(m)) != is_pd:
        disagreements.append(("classical", m))

    lam0 = critical_param(pencil_coeffs(m))
    if lam0.is_real and sylvester_pd(pencil_matrix(m, lam0.value)) != is_pd:
        disagreements.append(("sylvester", m))

    minimum, _ = circle_min_estimate(m, 1024)
    if verdict is Definiteness.INDEFINITE:
        agrees = minimum < 1e-6
    else:
        agrees = minimum > -1e-6
        worst_gap = min(worst_gap, minimum)
    if not agrees:
        disagreements.append(("circle minimum", m))

if disagreements:
    for check, m in disagreements:
        print(f"{check} disagrees on {m}")
    sys.exit(f"{len(disagreements)} cross-check disagreements in {N} random forms")
print(f"{N} random forms, zero cross-check disagreements")
print("verdicts:", dict(verdicts))
print("cases:", dict(sorted(cases.items())))
print(f"worst circle-minimum float error on semidefinite forms: {worst_gap:.2e}")
