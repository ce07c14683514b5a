"""Command line front end: `quartic-certify [FLAGS] e4 e3 e2 e1 e0`.

Coefficients are exact: "p/q" fractions or finite decimals, never floats.
The tool prints a human readable summary (or a JSON report with --json),
cross-checks the verdict against the classical criterion, a direct
Sylvester test on the certificate, and the case read off the quartic's
discriminant sequence, all in exact arithmetic (no float sets an exit
code), and exits with

    0   positive or negative definite
    1   semidefinite boundary (including the identically zero form)
    2   indefinite
    64  malformed or oversize input: a decimal exponent beyond +-1000, more
        than 2000 bits in the five numerators and denominators together, or
        a --precision outside 1..10000
    70  an internal cross-check disagreed, or a batch line raised an
        internal error (never expected in a release)

Exact values come first in the JSON report; a decimal field is the exact
value rounded half-even once to --precision significant digits (no guard
digits, no second rounding).  For a monic form, lam0, g(lam0) and the
certificate are rendered from the integers of their one home,
`pencil.lam0_surds` (by `pencil.surd_parts`), one tuple per form, which
the Sylvester check reads too.  A form with e4 = 0 is decided as f(y, x),
the problem's `decided()`, which the oracle reads too; its certificate
entries (`positivity.degenerate_entries`) have the same shape, and its
lam0, g(lam0), a3^2/4, case, classical and Sylvester checks, which would
describe f(y, x), are null.

A form goes from its tokens to its report as integers: each token is
parsed to a reduced ratio (num, den) by `exactnum.parse_ratio`, the five
are cleared once into the problem's `input_record` (`forms.from_ratios`),
the report prints `input` from that record and each witness value by
integer Horner (`forms.evaluate_ratio`), both with `exactnum.ratio_text`.
A line of integer or p/q tokens builds no `Fraction`, save the witness
coordinates that an indefinite one prints.  Each `--batch` output line,
an error line too, is written with one `write` call, as `json.dumps`
would spell it.  A form's line is written from its fixed layout
(`_line_text`): each distinct value is spelled once and joined in place,
and only the case description is escaped, as every other string of the
report is digits, letters, "/", "+", "-" or "."; the generic encoder
writes only the error lines and the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

# classical_quantities, classical_is_pd, circle_min_estimate_plain and
# table3_facts_hold stay bound for bench/spans.py to wrap
from .classical import (  # noqa: F401
    _monic_quantities,
    _pd_criterion,
    classical_is_pd,
    classical_quantities,
)
from .classifier import (  # noqa: F401
    PD_CASES,
    PSD_CASES,
    _case_facts_hold,
    circle_min_estimate_plain,
    classify_case,
    discriminant_case,
    table3_facts_hold,
)
# parse_rational, from_plain_coeffs and to_decimal stay bound for
# bench/spans.py to wrap
from .exactnum import (  # noqa: F401
    parse_ratio, parse_rational, ratio_decimal, ratio_text, surd_decimal, to_decimal)
from .forms import (  # noqa: F401
    NormalizedProblem, Orientation, evaluate_ratio, from_plain_coeffs, from_ratios)
# pencil_coeffs, critical_param, g_eval and pencil_matrix stay bound for
# bench/spans.py to wrap
from .pencil import (  # noqa: F401
    critical_param,
    g_eval,
    lam0_minor_signs,
    lam0_surds,
    pencil_coeffs,
    pencil_matrix,
    surd_parts,
)
# sylvester_pd and sylvester_psd stay bound for bench/spans.py to wrap
from .positivity import (  # noqa: F401
    Definiteness,
    Verdict,
    decide_problem,
    degenerate_entries,
    signs_pd,
    signs_psd,
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

# larger forms are rejected: derived exact values would pass the int-to-str limit
MAX_FORM_BITS = 2000
# a larger --precision is rejected: one rendering at 10^5 digits takes seconds
MAX_PRECISION = 10_000


class InputError(ValueError):
    """Input that is rejected: exit 64, or an error line in a batch."""


class CoefficientError(InputError):
    def __init__(self, position: int, reason: str):
        super().__init__(f"coefficient #{position} ({'e4 e3 e2 e1 e0'.split()[position - 1]}): "
                         f"{reason}")
        self.position = position


def _surd_json(form, surd, d_text: str, digits: int, q_text: str | None = None) -> dict:
    """The JSON of a value (a, b, den) of `lam0_surds(form)`: p and q from
    its `surd_parts`, d the form's radicand as spelled once, d_text, and q
    as q_text when the caller knows its spelling.  A rational value is
    rendered from its integers, b = 0 without the form."""
    a, b, den = surd
    if b:
        p, q, _ = surd_parts(form, a, b, den)
        if q[0]:
            return {"p": ratio_text(*p), "q": q_text or ratio_text(*q), "d": d_text,
                    "decimal": surd_decimal(a, b, form.invariants[2], den, digits)}
        a, den = p
    return {"p": ratio_text(a, den), "q": "0", "d": "0", "decimal": ratio_decimal(a, den, digits)}


@dataclass
class Report:
    problem: NormalizedProblem
    verdict: Verdict
    digits: int
    include_case: bool
    crosscheck: bool

    def build(self) -> tuple[dict, int]:
        """Assemble the JSON-ready dict and the process exit code."""
        cls = self.verdict.classification
        big, *cleared = self.problem.input_record
        out: dict = {
            "input": [ratio_text(k, big) for k in cleared],
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
            e4, e3 = form.cleared[:2]
            out["a3_sq_over_4"] = ratio_text(e3 * e3, 4 * e4 * e4)
            lam0, g_lam0, entries = lam0_surds(form)
            d_text = ratio_text(form.invariants[2], 4 * e4 * e4)  # d, spelled once per line
            if form.invariants[2] < 0:
                out["lambda0"] = {"p": None, "q": None, "d": d_text, "decimal": None}
            else:
                # lam0 = (4 e2 + 2 sqrt(D)) / (6 e4): q = 4 e4 / (6 e4) unless D is a square
                out["lambda0"] = _surd_json(form, lam0, d_text, self.digits, "2/3")
                out["g_lambda0"] = _surd_json(form, g_lam0, d_text, self.digits)
            if self.include_case:
                case = classify_case(form)
                out["case"] = {"id": case.case_id, "description": case.description}

        # every verdict but an indefinite one carries a certificate; asking
        # the verdict for it would build the matrix of a monic form
        if cls is not Definiteness.INDEFINITE:
            # six distinct entries, each rendered once, laid out as the rows
            if form is None:  # e4 = 0: six entries of the same shape, all rational
                m11, m12, m13, m22, m23, m33 = (_surd_json(None, entry, None, self.digits)
                                                for entry in degenerate_entries(self.problem))
            else:
                # m11 = 6 e4 / (6 e4) = 1, m13 = (e2 - sqrt(D)) / (6 e4) has
                # q = -1/3 unless D is a square, and m22 is lam0, rendered above
                _, m12, m13, _, m23, m33 = entries
                digits = self.digits
                m11 = {"p": "1", "q": "0", "d": "0", "decimal": "1"}
                m12 = _surd_json(form, m12, d_text, digits)
                m13 = _surd_json(form, m13, d_text, digits, "-1/3")
                m22 = out["lambda0"]
                m23 = _surd_json(form, m23, d_text, digits)
                m33 = _surd_json(form, m33, d_text, digits)
            out["certificate"] = [[m11, m12, m13], [m12, m22, m23], [m13, m23, m33]]

        if self.verdict.witnesses is not None:
            out["witnesses"] = self._witnesses_json()

        disagreement = False
        if self.crosscheck:
            disagreement = self._run_crosschecks(out)

        code = EXIT_DISAGREEMENT if disagreement else _EXIT_BY_CLASS[cls]
        return out, code

    def _witnesses_json(self) -> dict:
        # witnesses certify the decided (normalised) form; report them
        # against the original input coefficients, from the input's integer
        # record, so they stand alone, each value an integer ratio
        record = self.problem.input_record
        flip = self.problem.orientation is Orientation.NEGATIVE_SIDE
        pos, neg = self.verdict.witnesses
        if flip:
            pos, neg = neg, pos
        out = {}
        for label, (x, y) in (("positive", pos), ("negative", neg)):
            value = evaluate_ratio(record, (x.numerator, x.denominator),
                                   (y.numerator, y.denominator))
            out[label] = {"x": str(x), "y": str(y), "value": ratio_text(*value)}
        return out

    def _run_crosschecks(self, out: dict) -> bool:
        agreement = out["agreement"]
        # the checks read the problem the decision read, f(y, x) when
        # e4 = 0 != e0, and none of them runs when e4 = e0 = 0
        problem = self.problem.decided()
        if problem is None:
            return False
        # the verdict as a class of that problem's positive-side form
        cls = self.verdict.classification
        if problem.orientation is Orientation.NEGATIVE_SIDE:
            cls = cls.flipped()
        definite = cls is Definiteness.POSITIVE_DEFINITE
        semidefinite = definite or cls is Definiteness.POSITIVE_SEMIDEFINITE

        form = self.problem.form
        if form is not None:
            quantities = _monic_quantities(form)
            (G, _), (H, _), _, _, (delta, _), (aux, _) = quantities
            pd = _pd_criterion(G, H, delta, aux)
            agreement["classical"] = pd == definite
            out["classical"] = dict(zip(("G", "H", "I", "J", "Delta", "aux"),
                                        (ratio_text(*q) for q in quantities)), pd=pd)

            # the principal minor signs of M(lam0), the certificate when there
            # is one, read off the integer matrix 6 e4 M(lam0) over Z[sqrt(D)]
            if form.invariants[2] >= 0:
                signs = lam0_minor_signs(form)
                agreement["sylvester"] = (
                    signs_pd(signs) == definite and signs_psd(signs) == semidefinite
                )
            else:
                agreement["sylvester"] = cls is Definiteness.INDEFINITE

            if self.include_case and out["case"] is not None:
                kernel = self.verdict.kernel
                agreement["case_facts"] = _case_facts_hold(out["case"]["id"], kernel.slack,
                                                           kernel.value)

        case_id = discriminant_case(problem.form)
        out["oracle"] = {"discriminant_case": case_id}
        agreement["oracle"] = (
            definite == (case_id in PD_CASES)
            and semidefinite == (case_id in PSD_CASES)
            and (out["case"] is None or out["case"]["id"] == case_id)
        )

        return any(flag is False for flag in agreement.values())


def _exact_text(entry: dict) -> str:
    if entry["q"] == "0":
        return entry["p"]
    sign = "-" if entry["q"].startswith("-") else "+"
    return f"{entry['p']} {sign} {entry['q'].lstrip('-')}*sqrt({entry['d']})"


def _scalar_text(entry: dict) -> str:
    exact = _exact_text(entry)
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
            lines.append("  [" + ", ".join(_exact_text(entry) for entry in row) + "]")
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
        lines.append(f"oracle discriminant case: {out['oracle']['discriminant_case']}")
    flags = {k: v for k, v in out["agreement"].items() if v is not None}
    if flags:
        lines.append("agreement: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    return "\n".join(lines)


def _parse_coefficients(raw: list[str]) -> list[tuple[int, int]]:
    """The five coefficients as reduced integer ratios (num, den), den > 0."""
    ratios = []
    for i, text in enumerate(raw, start=1):
        try:
            ratios.append(parse_ratio(text))
        except ValueError as exc:
            raise CoefficientError(i, str(exc)) from None
    bits = sum(num.bit_length() + den.bit_length() for num, den in ratios)
    if bits > MAX_FORM_BITS:
        raise InputError(f"form too large: its numerators and denominators take {bits} bits, "
                         f"more than {MAX_FORM_BITS}")
    return ratios


def _run_one(ratios: list[tuple[int, int]], args) -> tuple[dict, int]:
    problem = from_ratios(*ratios)
    verdict = decide_problem(problem)
    report = Report(
        problem=problem,
        verdict=verdict,
        digits=args.precision,
        include_case=args.case,
        crosscheck=not args.no_crosscheck,
    )
    return report.build()


@contextlib.contextmanager
def _stdin_lines():
    """Standard input as text lines, decoded as a batch file is."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # a text stream with no bytes beneath it
        yield sys.stdin
        return
    lines = io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape")
    try:
        yield lines
    finally:
        lines.detach()  # leaves stdin open


# the encoder of json.dumps(obj), but with no check for circular
# references, which its fresh dicts cannot hold; it writes the error lines
# and the summary, and `_line_text` writes the lines of forms
_encode_line = json.JSONEncoder(check_circular=False).encode

_JSON_FLAG = {None: "null", True: "true", False: "false"}


def _text_or_null(text: str | None) -> str:
    return "null" if text is None else f'"{text}"'


def _entry_text(entry: dict) -> str:
    """A value {"p", "q", "d", "decimal"} of the report as JSON; p, q and
    decimal are null together, in a lambda0 that is not real."""
    p, q, d, decimal = entry.values()
    if p is None:
        return f'{{"p": null, "q": null, "d": "{d}", "decimal": null}}'
    return f'{{"p": "{p}", "q": "{q}", "d": "{d}", "decimal": "{decimal}"}}'


def _line_text(out: dict) -> str:
    """The `--batch` line of a form's report, `out` of `Report.build` with
    its "line" number set, spelled as `json.dumps(out)` spells it.

    It is written from the report's fixed layout: each key in the order
    `Report.build` gives it, each distinct value spelled once (an entry of
    the symmetric certificate once for its two places, and a monic form's
    m22 as its lambda0) and joined in place.  Every string but the case
    description is digits, letters, "/", "+", "-" or "." (a ratio, a
    decimal, an enum value), which JSON spells unescaped between quotes.
    """
    lam0 = out["lambda0"]
    lam0_text = "null" if lam0 is None else _entry_text(lam0)
    g_lam0 = out["g_lambda0"]
    case = out["case"]
    if case is not None:
        case = (f'{{"id": {case["id"]}, '
                f'"description": {encode_basestring_ascii(case["description"])}}}')
    certificate = out["certificate"]
    if certificate is not None:
        (m11, m12, m13), (_, m22, m23), (_, _, m33) = certificate
        m12, m13, m23 = _entry_text(m12), _entry_text(m13), _entry_text(m23)
        m22 = lam0_text if m22 is lam0 else _entry_text(m22)
        certificate = (f"[[{_entry_text(m11)}, {m12}, {m13}], [{m12}, {m22}, {m23}], "
                       f"[{m13}, {m23}, {_entry_text(m33)}]]")
    classical = out["classical"]
    if classical is not None:
        g, h, i, j, delta, aux, pd = classical.values()
        classical = (f'{{"G": "{g}", "H": "{h}", "I": "{i}", "J": "{j}", "Delta": "{delta}", '
                     f'"aux": "{aux}", "pd": {_JSON_FLAG[pd]}}}')
    oracle = out["oracle"]
    if oracle is not None:
        oracle = f'{{"discriminant_case": {oracle["discriminant_case"]}}}'
    witnesses = out["witnesses"]
    if witnesses is not None:
        (px, py, pv), (nx, ny, nv) = (w.values() for w in witnesses.values())
        witnesses = (f'{{"positive": {{"x": "{px}", "y": "{py}", "value": "{pv}"}}, '
                     f'"negative": {{"x": "{nx}", "y": "{ny}", "value": "{nv}"}}}}')
    flags = out["agreement"]
    agreement = (f'"classical": {_JSON_FLAG[flags["classical"]]}, '
                 f'"oracle": {_JSON_FLAG[flags["oracle"]]}, '
                 f'"sylvester": {_JSON_FLAG[flags["sylvester"]]}')
    if "case_facts" in flags:
        agreement += f', "case_facts": {_JSON_FLAG[flags["case_facts"]]}'
    inputs = '", "'.join(out["input"])
    return (f'{{"input": ["{inputs}"], '
            f'"orientation": {_text_or_null(out["orientation"])}, '
            f'"verdict": "{out["verdict"]}", "lambda0": {lam0_text}, '
            f'"g_lambda0": {"null" if g_lam0 is None else _entry_text(g_lam0)}, '
            f'"a3_sq_over_4": {_text_or_null(out["a3_sq_over_4"])}, "case": {case or "null"}, '
            f'"certificate": {certificate or "null"}, "classical": {classical or "null"}, '
            f'"oracle": {oracle or "null"}, "witnesses": {witnesses or "null"}, '
            f'"agreement": {{{agreement}}}, "line": {out["line"]}}}')


def _run_batch(args, stdout) -> int:
    """Process the forms of args.batch ("-" for stdin), one per line, as
    the file is read.  A line that fails, for bad input (exit 64) or an
    internal error (exit 70), gives an error line and the batch goes on."""
    def write(obj: dict) -> None:  # an error or summary line, in one call
        stdout.write(_encode_line(obj) + "\n")

    counts: dict[str, int] = {}
    worst = 0
    parse_failed = False
    try:
        # UTF-8, with a byte that is not UTF-8 kept as a lone surrogate, so
        # that only its own line fails
        handle = (_stdin_lines() if args.batch == "-"
                  else open(args.batch, encoding="utf-8", errors="surrogateescape"))
    except OSError as exc:
        print(f"error: cannot read {args.batch}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with handle as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate: an undecodable byte
                    write({"line": lineno, "error": "not valid UTF-8"})
                    parse_failed = True
                    continue
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            fields = body.split()
            if len(fields) != 5:
                error = f"expected 5 coefficients, got {len(fields)}"
                write({"line": lineno, "error": error})
                parse_failed = True
                continue
            try:
                out, code = _run_one(_parse_coefficients(fields), args)
            except InputError as exc:
                write({"line": lineno, "error": str(exc)})
                parse_failed = True
                continue
            except Exception as exc:  # a defect: report it and go on
                import traceback  # only a defect reaches here

                print(f"internal error on line {lineno}:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                error = f"internal error: {type(exc).__name__}: {exc}"
                write({"line": lineno, "error": error})
                worst = EXIT_DISAGREEMENT
                continue
            out["line"] = lineno
            stdout.write(_line_text(out) + "\n")  # one JSON line, in one call
            counts[out["verdict"]] = counts.get(out["verdict"], 0) + 1
            if code == EXIT_DISAGREEMENT:
                worst = EXIT_DISAGREEMENT
    write({"summary": counts})
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
                        help='process FILE ("-" for stdin) with one form per line '
                        "(JSON-lines output)")
    parser.add_argument("--no-crosscheck", action="store_true",
                        help="skip the cross-checks: the classical criterion, the Sylvester "
                        "test, the case facts and the discriminant oracle")
    parser.add_argument("--precision", type=int, default=12, metavar="N",
                        help="significant digits for decimal renderings "
                        f"(default 12, at most {MAX_PRECISION})")
    parser.add_argument("--case", action=argparse.BooleanOptionalAction, default=True,
                        help="include the nine-case classification (default on)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process."""
    return build_parser()


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
        args = _parser().parse_args(_escape_negative_coefficients(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not 1 <= args.precision <= MAX_PRECISION:
        print(f"error: --precision must be between 1 and {MAX_PRECISION}", file=sys.stderr)
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
        ratios = _parse_coefficients(args.coefficients)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    out, code = _run_one(ratios, args)
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
