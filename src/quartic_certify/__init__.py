"""Exact definiteness certificates for binary quartic forms.

The decision kernel is exact integer arithmetic on the form's cleared
coefficients; the paper's objects, in rationals and real quadratic
extensions Q(sqrt(d)), are an exact reference layer over it.  The
certificates and witnesses are exact too; floats appear only in the
advisory circle minimum.

Typical use:

    >>> from quartic_certify import certify
    >>> problem, verdict = certify(1, 0, 0, 1, 1)
    >>> verdict.classification.value
    'positive-definite'
"""

from __future__ import annotations

from .classical import classical_is_pd
from .classifier import (
    PD_CASES,
    PSD_CASES,
    circle_min_estimate,
    classify_case,
    cubic_root_profile,
    degenerate_conic_type,
    quartic_root_nature,
    table3_facts_hold,
)
from .exactnum import QuadExt, sign_of, to_decimal
from .forms import (
    MonicQuartic,
    NormalizedProblem,
    evaluate,
    from_plain_coeffs,
    to_weighted,
)
from .pencil import (
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
    decide_monic,
    sylvester_pd,
    sylvester_psd,
)
from . import positivity  # certify calls positivity.decide_problem, not a package export

__all__ = [
    "certify",
    "classical_is_pd",
    "PD_CASES", "PSD_CASES", "circle_min_estimate", "classify_case", "cubic_root_profile",
    "degenerate_conic_type", "quartic_root_nature", "table3_facts_hold",
    "QuadExt", "sign_of", "to_decimal",
    "MonicQuartic", "NormalizedProblem", "evaluate", "from_plain_coeffs", "to_weighted",
    "PencilCubic", "Sym3Matrix", "base_matrices", "boundary_identity_check", "critical_param",
    "discriminant_g", "g_eval", "pencil_coeffs", "pencil_matrix",
    "Definiteness", "Verdict", "decide_monic", "sylvester_pd", "sylvester_psd",
]

__version__ = "0.1.0"


def certify(e4, e3, e2, e1, e0) -> tuple[NormalizedProblem, Verdict]:
    """Normalise plain coefficients and decide their definiteness."""
    problem = from_plain_coeffs(e4, e3, e2, e1, e0)
    return problem, positivity.decide_problem(problem)
