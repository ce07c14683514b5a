"""Exact definiteness certificates for binary quartic forms.

The decision kernel is entirely exact (arbitrary-precision rationals and
arithmetic in real quadratic extensions); floats appear only in the
advisory circle minimum, in proposing witnesses that exact arithmetic then
checks, and in decimal renderings of exact values.

Typical use:

    >>> from quartic_certify import certify
    >>> problem, verdict = certify(1, 0, 0, 1, 1)
    >>> verdict.classification.value
    'positive-definite'
"""

from __future__ import annotations

from .classical import ClassicalQuantities, classical_is_pd, classical_quantities
from .classifier import (
    CASE_DESCRIPTIONS,
    PD_CASES,
    PSD_CASES,
    CubicRootProfile,
    InconsistentCaseError,
    IntersectionCase,
    QuarticRootNature,
    circle_min_estimate,
    classify_case,
    cubic_root_profile,
    degenerate_conic_type,
    discriminant_case,
    quartic_root_nature,
    table3_facts_hold,
    witness_search,
)
from .exactnum import QuadExt, Rational, parse_rational, sign_of, to_decimal
from .forms import (
    GeneralQuartic,
    MonicQuartic,
    NormalizedProblem,
    Orientation,
    evaluate,
    evaluate_plain,
    from_plain_coeffs,
    from_weighted,
    to_weighted,
)
from .pencil import (
    CriticalParam,
    PencilCubic,
    Sym3Matrix,
    base_matrices,
    boundary_identity_check,
    critical_param,
    discriminant_g,
    g_eval,
    pencil_coeffs,
    pencil_matrix,
)
from .positivity import (
    Definiteness,
    Verdict,
    decide_degenerate_leading,
    decide_monic,
    decide_negative_side,
    decide_problem,
    sylvester_pd,
    sylvester_psd,
)

__version__ = "0.1.0"


def certify(e4, e3, e2, e1, e0) -> tuple[NormalizedProblem, Verdict]:
    """Normalise plain coefficients and decide their definiteness."""
    problem = from_plain_coeffs(e4, e3, e2, e1, e0)
    return problem, decide_problem(problem)
