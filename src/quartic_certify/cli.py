"""Command line front end: `quartic-certify [FLAGS] e4 e3 e2 e1 e0`.

Coefficients are exact: "p/q" fractions or finite decimals, never floats.
The tool prints a human readable summary (or a JSON report with --json),
cross-checks the verdict against the classical criterion, a direct
Sylvester test on the certificate, and a numeric circle minimum, and exits
with

    0   positive or negative definite
    1   semidefinite boundary (including the identically zero form)
    2   indefinite
    64  malformed coefficient input
    70  an internal cross-check disagreed (never expected in a release)

Exact values come first in the JSON report; decimal fields are renderings
of the exact values at --precision significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .classical import classical_is_pd, classical_quantities
from .classifier import classify_case, circle_min_estimate_plain, table3_facts_hold
from .exactnum import QuadExt, parse_rational, to_decimal
from .forms import (
    NormalizedProblem,
    Orientation,
    evaluate_plain,
    from_plain_coeffs,
    to_weighted,
)
from .pencil import critical_param, g_eval, pencil_coeffs, pencil_matrix
from .positivity import (
    Definiteness,
    Verdict,
    decide_problem,
    sylvester_pd,
    sylvester_psd,
)

EXIT_DEFINITE = 0
EXIT_BOUNDARY = 1
EXIT_INDEFINITE = 2
EXIT_PARSE = 64
EXIT_DISAGREEMENT = 70

_EXIT_BY_CLASS = {
    Definiteness.POSITIVE_DEFINITE: EXIT_DEFINITE,
    Definiteness.NEGATIVE_DEFINITE: EXIT_DEFINITE,
    Definiteness.POSITIVE_SEMIDEFINITE: EXIT_BOUNDARY,
    Definiteness.NEGATIVE_SEMIDEFINITE: EXIT_BOUNDARY,
    Definiteness.ZERO: EXIT_BOUNDARY,
    Definiteness.INDEFINITE: EXIT_INDEFINITE,
}

ORACLE_SAMPLES = 4096
ORACLE_TOLERANCE = 1e-6


class CoefficientError(ValueError):
    def __init__(self, position: int, text: str):
        super().__init__(f"coefficient #{position} ({'e4 e3 e2 e1 e0'.split()[position - 1]}): "
                         f"cannot parse {text!r} as a rational")
        self.position = position


def _frac_str(x: Fraction) -> str:
    return str(x)


def _scalar_json(value: QuadExt | Fraction | None, digits: int) -> dict | None:
    if value is None:
        return None
    if isinstance(value, Fraction):
        value = QuadExt(value)
    return {
        "p": _frac_str(value.p),
        "q": _frac_str(value.q),
        "d": _frac_str(value.d),
        "decimal": to_decimal(value, digits),
    }


@dataclass
class Report:
    coefficients: tuple[Fraction, ...]
    problem: NormalizedProblem
    verdict: Verdict
    digits: int
    include_case: bool
    crosscheck: bool

    def build(self) -> tuple[dict, int]:
        """Assemble the JSON-ready dict and the process exit code."""
        cls = self.verdict.classification
        out: dict = {
            "input": [_frac_str(c) for c in self.coefficients],
            "orientation": self.problem.orientation.value if self.problem.orientation else None,
            "verdict": cls.value,
            "lambda0": None,
            "g_lambda0": None,
            "a3_sq_over_4": None,
            "case": None,
            "certificate": None,
            "classical": None,
            "oracle": None,
            "witnesses": None,
            "agreement": {"classical": None, "oracle": None, "sylvester": None},
        }

        form = self.problem.form
        if form is not None:
            cubic = pencil_coeffs(form)
            lam0 = critical_param(cubic)
            out["a3_sq_over_4"] = _frac_str(form.a3**2 / 4)
            if lam0.is_real:
                out["lambda0"] = _scalar_json(lam0.value, self.digits)
                out["g_lambda0"] = _scalar_json(g_eval(cubic, lam0.value), self.digits)
            else:
                out["lambda0"] = {"p": None, "q": None,
                                  "d": _frac_str(lam0.radicand), "decimal": None}
                out["g_lambda0"] = None
            if self.include_case:
                case = classify_case(form)
                out["case"] = {"id": case.case_id, "description": case.description}

        if self.verdict.certificate is not None:
            out["certificate"] = [
                [_scalar_json(entry, self.digits) for entry in row]
                for row in self.verdict.certificate.rows()
            ]

        if self.verdict.witnesses is not None:
            out["witnesses"] = self._witnesses_json()

        disagreement = False
        if self.crosscheck:
            disagreement = self._run_crosschecks(out, form)

        code = EXIT_DISAGREEMENT if disagreement else _EXIT_BY_CLASS[cls]
        return out, code

    def _witnesses_json(self) -> dict:
        # witnesses certify the decided (normalised) form; report them
        # against the original input coefficients so they stand alone
        flip = self.problem.orientation is Orientation.NEGATIVE_SIDE
        pos, neg = self.verdict.witnesses
        if flip:
            pos, neg = neg, pos
        out = {}
        for label, (x, y) in (("positive", pos), ("negative", neg)):
            value = evaluate_plain(*self.coefficients, x, y)
            out[label] = {"x": _frac_str(x), "y": _frac_str(y), "value": _frac_str(value)}
        return out

    def _run_crosschecks(self, out: dict, form) -> bool:
        cls = self.verdict.classification
        agreement = out["agreement"]

        if form is not None:
            positive_side_pd = cls in (
                Definiteness.POSITIVE_DEFINITE,
                Definiteness.NEGATIVE_DEFINITE,
            )
            quantities = classical_quantities(to_weighted(form))
            agreement["classical"] = classical_is_pd(to_weighted(form)) == positive_side_pd
            out["classical"] = {
                "G": _frac_str(quantities.G),
                "H": _frac_str(quantities.H),
                "I": _frac_str(quantities.I),
                "J": _frac_str(quantities.J),
                "Delta": _frac_str(quantities.delta),
                "aux": _frac_str(quantities.aux),
                "pd": classical_is_pd(to_weighted(form)),
            }

            lam0 = critical_param(pencil_coeffs(form))
            if lam0.is_real:
                mat = pencil_matrix(form, lam0.value)
                semidefinite = cls in (
                    Definiteness.POSITIVE_DEFINITE,
                    Definiteness.NEGATIVE_DEFINITE,
                    Definiteness.POSITIVE_SEMIDEFINITE,
                    Definiteness.NEGATIVE_SEMIDEFINITE,
                )
                agreement["sylvester"] = (
                    sylvester_pd(mat) == positive_side_pd
                    and sylvester_psd(mat) == semidefinite
                )
            else:
                agreement["sylvester"] = cls is Definiteness.INDEFINITE

            if self.include_case and out["case"] is not None:
                agreement["case_facts"] = table3_facts_hold(form, out["case"]["id"])

        # the oracle runs on the normalised (positive-side) problem; a form
        # that does not fit in floats skips it, leaving "oracle" null
        coeffs = self._normalized_coefficients()
        try:
            minimum, _ = circle_min_estimate_plain(coeffs, ORACLE_SAMPLES)
        except OverflowError:
            minimum = math.nan
        if math.isfinite(minimum):
            out["oracle"] = {"circle_min": minimum, "samples": ORACLE_SAMPLES}
            if cls is Definiteness.INDEFINITE:
                agreement["oracle"] = minimum < ORACLE_TOLERANCE
            else:
                agreement["oracle"] = minimum > -ORACLE_TOLERANCE

        return any(flag is False for flag in agreement.values())

    def _normalized_coefficients(self) -> tuple[Fraction, ...]:
        if self.problem.degenerate_leading:
            coeffs = (Fraction(0),) + self.problem.degenerate_coeffs
            # degenerate forms are decided unflipped; flip a negative verdict
            if self.verdict.classification is Definiteness.NEGATIVE_SEMIDEFINITE:
                coeffs = tuple(-c for c in coeffs)
            return coeffs
        return self.problem.form.coefficients()


def _scalar_text(entry: dict) -> str:
    if entry["q"] == "0":
        exact = entry["p"]
    else:
        sign = "-" if entry["q"].startswith("-") else "+"
        exact = f"{entry['p']} {sign} {entry['q'].lstrip('-')}*sqrt({entry['d']})"
    if entry["decimal"] == exact:
        return exact
    return f"{exact} = {entry['decimal']}"


def _render_text(out: dict) -> str:
    lines = [f"form: {' '.join(out['input'])}"]
    if out["orientation"]:
        lines.append(f"orientation: {out['orientation']}")
    lines.append(f"verdict: {out['verdict']}")
    lam0 = out["lambda0"]
    if lam0 is not None:
        if lam0["p"] is None:
            lines.append(f"lambda0: non-real (radicand {lam0['d']} < 0)")
        else:
            lines.append(f"lambda0: {_scalar_text(lam0)}")
    if out["g_lambda0"] is not None:
        lines.append(f"g(lambda0): {_scalar_text(out['g_lambda0'])}")
    if out["a3_sq_over_4"] is not None:
        lines.append(f"a3^2/4: {out['a3_sq_over_4']}")
    if out["case"] is not None:
        lines.append(f"case: {out['case']['id']} ({out['case']['description']})")
    if out["certificate"] is not None:
        lines.append("certificate (PSD Gram matrix of the normalised form):")
        for row in out["certificate"]:
            rendered = []
            for entry in row:
                if entry["q"] == "0":
                    rendered.append(entry["p"])
                else:
                    sign = "-" if entry["q"].startswith("-") else "+"
                    mag = entry["q"].lstrip("-")
                    rendered.append(f"{entry['p']} {sign} {mag}*sqrt({entry['d']})")
            lines.append("  [" + ", ".join(rendered) + "]")
    if out["witnesses"] is not None:
        w = out["witnesses"]
        lines.append(
            f"witnesses: f({w['positive']['x']}, {w['positive']['y']}) = "
            f"{w['positive']['value']} > 0, "
            f"f({w['negative']['x']}, {w['negative']['y']}) = "
            f"{w['negative']['value']} < 0"
        )
    if out["classical"] is not None:
        c = out["classical"]
        lines.append(
            f"classical: G={c['G']} H={c['H']} I={c['I']} J={c['J']} "
            f"Delta={c['Delta']} aux={c['aux']} pd={c['pd']}"
        )
    if out["oracle"] is not None:
        lines.append(f"oracle circle min: {out['oracle']['circle_min']:.6g}")
    flags = {k: v for k, v in out["agreement"].items() if v is not None}
    if flags:
        lines.append("agreement: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    return "\n".join(lines)


def _parse_coefficients(raw: list[str]) -> tuple[Fraction, ...]:
    coeffs = []
    for i, text in enumerate(raw, start=1):
        try:
            coeffs.append(parse_rational(text))
        except ValueError:
            raise CoefficientError(i, text) from None
    return tuple(coeffs)


def _run_one(coeffs: tuple[Fraction, ...], args) -> tuple[dict, int]:
    problem = from_plain_coeffs(*coeffs)
    verdict = decide_problem(problem)
    report = Report(
        coefficients=coeffs,
        problem=problem,
        verdict=verdict,
        digits=args.precision,
        include_case=args.case,
        crosscheck=not args.no_crosscheck,
    )
    return report.build()


def _run_batch(args, stdout) -> int:
    counts: dict[str, int] = {}
    worst = 0
    parse_failed = False
    try:
        with open(args.batch, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        print(f"error: cannot read {args.batch}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 5:
            print(json.dumps({"line": lineno, "error": f"expected 5 coefficients, got {len(fields)}"}),
                  file=stdout)
            parse_failed = True
            continue
        try:
            coeffs = _parse_coefficients(fields)
        except CoefficientError as exc:
            print(json.dumps({"line": lineno, "error": str(exc)}), file=stdout)
            parse_failed = True
            continue
        out, code = _run_one(coeffs, args)
        out["line"] = lineno
        print(json.dumps(out), file=stdout)
        counts[out["verdict"]] = counts.get(out["verdict"], 0) + 1
        if code == EXIT_DISAGREEMENT:
            worst = EXIT_DISAGREEMENT
    print(json.dumps({"summary": counts}), file=stdout)
    if worst == EXIT_DISAGREEMENT:
        return EXIT_DISAGREEMENT
    if parse_failed:
        return EXIT_PARSE
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quartic-certify",
        description="Decide definiteness of e4*x^4 + e3*x^3*y + e2*x^2*y^2 "
        "+ e1*x*y^3 + e0*y^4 exactly, with a verifiable certificate.",
    )
    parser.add_argument("coefficients", nargs="*", metavar="COEFF",
                        help='five coefficients e4 e3 e2 e1 e0, each "p/q" or a decimal')
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--batch", metavar="FILE",
                        help="process FILE with one form per line (JSON-lines output)")
    parser.add_argument("--no-crosscheck", action="store_true",
                        help="skip the classical criterion and the numeric oracle")
    parser.add_argument("--precision", type=int, default=12, metavar="N",
                        help="significant digits for decimal renderings (default 12)")
    parser.add_argument("--case", action=argparse.BooleanOptionalAction, default=True,
                        help="include the nine-case classification (default on)")
    return parser


def _escape_negative_coefficients(argv: list[str]) -> list[str]:
    """Insert "--" before the first token that reads as a negative number
    (or fraction), so forms with a negative leading coefficient parse
    without the caller writing "--" by hand.  Flags must precede values."""
    if "--" in argv:
        return argv
    for i, tok in enumerate(argv):
        if len(tok) > 1 and tok[0] == "-" and (tok[1].isdigit() or tok[1] == "."):
            return argv[:i] + ["--"] + argv[i:]
    return argv


def main(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_escape_negative_coefficients(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.precision < 1:
        print("error: --precision must be >= 1", file=sys.stderr)
        return EXIT_PARSE

    if args.batch is not None:
        if args.coefficients:
            print("error: --batch and positional coefficients are mutually exclusive",
                  file=sys.stderr)
            return EXIT_PARSE
        return _run_batch(args, stdout)

    if len(args.coefficients) != 5:
        print(f"error: expected 5 coefficients, got {len(args.coefficients)}",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        coeffs = _parse_coefficients(args.coefficients)
    except CoefficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    out, code = _run_one(coeffs, args)
    if args.json:
        print(json.dumps(out, indent=2), file=stdout)
    else:
        print(_render_text(out), file=stdout)
    if code == EXIT_DISAGREEMENT:
        print("internal cross-check disagreement; do not trust this build",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
