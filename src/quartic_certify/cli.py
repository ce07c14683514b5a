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
    70  an internal cross-check disagreed, or a form raised an internal
        error (never expected in a release)
    74  standard output could not be written: closed by its reader (silent),
        or failing, as a full device does ("error: cannot write output: ...")

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
which keeps them as its `input_ratios`.  The report prints `input` from
those ratios, with no gcd, and each witness value by integer Horner on the
record (`forms.evaluate_ratio`) with `exactnum.ratio_text`.  A line of
integer or p/q tokens builds no `Fraction`, save the witness abscissa that
an indefinite one prints when it is not 0; `classifier.witness_search`
finds it by integer bisection, with no float.

The report has one layout, the JSON text that `Report.build` writes from
the integers, as `json.dumps` would spell it: each distinct value is
spelled once and joined in place, and only the nine case texts are
escaped, once, at import (`_CASE_TEXT`), as every other string of the
report is digits, letters, "/", "+", "-" or ".".  A `--batch` line is that
text with its "line" number added, written with one `write` call (an
error line too); `--json` prints the text re-read and indented, and the
text output is rendered from it re-read.  The generic encoder writes only the error lines and the summary.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import sys
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
    CASE_DESCRIPTIONS,
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
    _NEGATIVE_SIDE, NormalizedProblem, Orientation, evaluate_ratio, from_plain_coeffs, from_ratios)
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
    _INDEFINITE, _ND, _NSD, _PD, _PSD, _ZERO,
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
EXIT_IOERR = 74

_EXIT_BY_CLASS = {_PD: EXIT_DEFINITE, _ND: EXIT_DEFINITE, _PSD: EXIT_BOUNDARY,
                  _NSD: EXIT_BOUNDARY, _ZERO: EXIT_BOUNDARY, _INDEFINITE: EXIT_INDEFINITE}
# each value read once, as `.value` costs 0.1 us (Python 3.11); members hash by identity
_VERDICT_TEXT = {cls: cls.value for cls in Definiteness}
_ORIENTATION_TEXT = {None: "null", **{side: f'"{side.value}"' for side in Orientation}}

# larger forms are rejected: derived exact values would pass the int-to-str limit
MAX_FORM_BITS = 2000
# a larger --precision is rejected: one rendering at 10^5 digits takes seconds
MAX_PRECISION = 10_000


class InputError(ValueError):
    """Input that is rejected: exit 64, or an error line in a batch."""


def _surd_text(form, surd, d_text: str, digits: int, q_text: str | None = None) -> str:
    """The JSON text of a value (a, b, den) of `lam0_surds(form)`: p and q
    from its `surd_parts`, d the form's radicand as spelled once, d_text,
    and q as q_text when the caller knows its spelling.  A rational value
    is rendered from its integers, b = 0 without the form."""
    a, b, den = surd
    if b:
        p, q, _ = surd_parts(form, a, b, den)
        if q[0]:
            return (f'{{"p": "{ratio_text(*p)}", "q": "{q_text or ratio_text(*q)}", '
                    f'"d": "{d_text}", '
                    f'"decimal": "{surd_decimal(a, b, form.invariants[2], den, digits)}"}}')
        a, den = p
    return (f'{{"p": "{ratio_text(a, den)}", "q": "0", "d": "0", '
            f'"decimal": "{ratio_decimal(a, den, digits)}"}}')


_JSON_FLAG = {None: "null", True: "true", False: "false"}

# the JSON text of each of the nine cases, its description escaped once
_CASE_TEXT = {case_id: f'{{"id": {case_id}, "description": {encode_basestring_ascii(text)}}}'
              for case_id, text in CASE_DESCRIPTIONS.items()}


class Report:
    def __init__(self, problem: NormalizedProblem, verdict: Verdict, digits: int,
                 include_case: bool, crosscheck: bool) -> None:
        self.problem = problem
        self.verdict = verdict
        self.digits = digits
        self.include_case = include_case
        self.crosscheck = crosscheck

    def build(self) -> tuple[str, int]:
        """The report as one JSON text, as `json.dumps` would spell it (the
        layout of the module docstring), and the process exit code.  An
        entry of the symmetric certificate is spelled once for its two
        places, and a monic form's m22 is its lambda0's text."""
        cls = self.verdict.classification
        lam0 = g_lam0 = a3_sq = case = certificate = witnesses = classical = oracle = "null"
        case_id = None

        form = self.problem.form
        if form is not None:
            e4, e3 = form.cleared[:2]
            a3_sq = f'"{ratio_text(e3 * e3, 4 * e4 * e4)}"'
            lam0_surd, g_surd, entries = lam0_surds(form)
            d_text = ratio_text(form.invariants[2], 4 * e4 * e4)  # d, spelled once per report
            if form.invariants[2] < 0:
                lam0 = f'{{"p": null, "q": null, "d": "{d_text}", "decimal": null}}'
            else:
                # lam0 = (4 e2 + 2 sqrt(D)) / (6 e4): q = 4 e4 / (6 e4) unless D is a square
                lam0 = _surd_text(form, lam0_surd, d_text, self.digits, "2/3")
                g_lam0 = _surd_text(form, g_surd, d_text, self.digits)
            if self.include_case:
                case_id = classify_case(form).case_id
                case = _CASE_TEXT[case_id]

        # every verdict but an indefinite one carries a certificate; asking
        # the verdict for it would build the matrix of a monic form
        if cls is not _INDEFINITE:
            # six distinct entries, each rendered once, laid out as the rows
            if form is None:  # e4 = 0: six entries of the same shape, all rational
                m11, m12, m13, m22, m23, m33 = (_surd_text(None, entry, None, self.digits)
                                                for entry in degenerate_entries(self.problem))
            else:
                # m11 = 6 e4 / (6 e4) = 1, m13 = (e2 - sqrt(D)) / (6 e4) has
                # q = -1/3 unless D is a square, and m22 is lam0, rendered above
                _, m12, m13, _, m23, m33 = entries
                digits = self.digits
                m11 = '{"p": "1", "q": "0", "d": "0", "decimal": "1"}'
                m12 = _surd_text(form, m12, d_text, digits)
                m13 = _surd_text(form, m13, d_text, digits, "-1/3")
                m22 = lam0
                m23 = _surd_text(form, m23, d_text, digits)
                m33 = _surd_text(form, m33, d_text, digits)
            certificate = (f"[[{m11}, {m12}, {m13}], [{m12}, {m22}, {m23}], "
                           f"[{m13}, {m23}, {m33}]]")

        if self.verdict.witnesses is not None:
            witnesses = self._witnesses_text()

        agreement = {"classical": None, "oracle": None, "sylvester": None}
        if self.crosscheck:
            classical, oracle = self._run_crosschecks(agreement, case_id)

        inputs = '", "'.join([str(num) if den == 1 else f"{num}/{den}"
                              for num, den in self.problem.input_ratios])
        flags = ", ".join(f'"{name}": {_JSON_FLAG[flag]}' for name, flag in agreement.items())
        text = (f'{{"input": ["{inputs}"], '
                f'"orientation": {_ORIENTATION_TEXT[self.problem.orientation]}, '
                f'"verdict": "{_VERDICT_TEXT[cls]}", "lambda0": {lam0}, "g_lambda0": {g_lam0}, '
                f'"a3_sq_over_4": {a3_sq}, "case": {case}, "certificate": {certificate}, '
                f'"classical": {classical}, "oracle": {oracle}, "witnesses": {witnesses}, '
                f'"agreement": {{{flags}}}}}')
        code = EXIT_DISAGREEMENT if False in agreement.values() else _EXIT_BY_CLASS[cls]
        return text, code

    def _witnesses_text(self) -> str:
        # witnesses certify the decided (normalised) form; report them
        # against the original input coefficients, from the input's integer
        # record, so they stand alone, each value an integer ratio
        record = self.problem.input_record
        flip = self.problem.orientation is _NEGATIVE_SIDE
        pos, neg = self.verdict.witnesses
        if flip:
            pos, neg = neg, pos
        texts = []
        for label, (x, y) in (("positive", pos), ("negative", neg)):
            value = evaluate_ratio(record, (x.numerator, x.denominator),
                                   (y.numerator, y.denominator))
            texts.append(f'"{label}": {{"x": "{x}", "y": "{y}", "value": "{ratio_text(*value)}"}}')
        return f"{{{', '.join(texts)}}}"

    def _run_crosschecks(self, agreement: dict, case_id: int | None) -> tuple[str, str]:
        """Set the agreement flags, given the reported case id, and return
        the JSON texts of "classical" and "oracle"."""
        # the checks read the problem the decision read, f(y, x) when
        # e4 = 0 != e0, and none of them runs when e4 = e0 = 0
        problem = self.problem.decided()
        if problem is None:
            return "null", "null"
        # the verdict as a class of that problem's positive-side form
        cls = self.verdict.classification
        if problem.orientation is _NEGATIVE_SIDE:
            cls = cls.flipped()
        definite = cls is _PD
        semidefinite = definite or cls is _PSD

        classical = "null"
        form = self.problem.form
        if form is not None:
            g, h, i, j, delta, aux = _monic_quantities(form)
            pd = _pd_criterion(g[0], h[0], delta[0], aux[0])
            agreement["classical"] = pd == definite
            classical = (f'{{"G": "{ratio_text(*g)}", "H": "{ratio_text(*h)}", '
                         f'"I": "{ratio_text(*i)}", "J": "{ratio_text(*j)}", '
                         f'"Delta": "{ratio_text(*delta)}", "aux": "{ratio_text(*aux)}", '
                         f'"pd": {_JSON_FLAG[pd]}}}')

            # the principal minor signs of M(lam0), the certificate when there
            # is one, read off the integer matrix 6 e4 M(lam0) over Z[sqrt(D)]
            if form.invariants[2] >= 0:
                signs = lam0_minor_signs(form)
                agreement["sylvester"] = (
                    signs_pd(signs) == definite and signs_psd(signs) == semidefinite
                )
            else:
                agreement["sylvester"] = cls is _INDEFINITE

            if case_id is not None:
                agreement["case_facts"] = _case_facts_hold(case_id, *self.verdict.kernel)

        oracle_case = discriminant_case(problem.form)
        agreement["oracle"] = (
            definite == (oracle_case in PD_CASES)
            and semidefinite == (oracle_case in PSD_CASES)
            and (case_id is None or case_id == oracle_case)
        )
        return classical, f'{{"discriminant_case": {oracle_case}}}'


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
    for i, (text, name) in enumerate(zip(raw, ("e4", "e3", "e2", "e1", "e0")), start=1):
        try:
            ratios.append(parse_ratio(text))
        except ValueError as exc:
            raise InputError(f"coefficient #{i} ({name}): {exc}") from None
    bits = sum(num.bit_length() + den.bit_length() for num, den in ratios)
    if bits > MAX_FORM_BITS:
        raise InputError(f"form too large: its numerators and denominators take {bits} bits, "
                         f"more than {MAX_FORM_BITS}")
    return ratios


def _run_form(tokens: list[str], args, lineno: int | None = None) -> tuple[str | None, int, str]:
    """Run one form from its coefficient tokens: its report's JSON text, exit
    code and outcome, the verdict's value.  A form with no report gives None,
    64 (rejected input) or 70 (an internal error, its traceback on stderr
    after a batch line's number) and, as its outcome, the error message."""
    try:
        if len(tokens) != 5:
            raise InputError(f"expected 5 coefficients, got {len(tokens)}")
        problem = from_ratios(*_parse_coefficients(tokens))
        verdict = decide_problem(problem)
        report = Report(problem, verdict, digits=args.precision, include_case=args.case,
                        crosscheck=not args.no_crosscheck)
        return (*report.build(), _VERDICT_TEXT[verdict.classification])
    except InputError as exc:
        return None, EXIT_PARSE, str(exc)
    except Exception as exc:  # a defect: report it, and a batch goes on
        import traceback  # only a defect reaches here

        if lineno is not None:
            print(f"internal error on line {lineno}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None, EXIT_DISAGREEMENT, f"internal error: {type(exc).__name__}: {exc}"


# the encoder of json.dumps(obj), but with no check for circular
# references, which its fresh dicts cannot hold; it writes the error lines
# and the summary, and a form's line is the text of `Report.build`
_encode_line = json.JSONEncoder(check_circular=False).encode


def _batch_lines(name: str):
    """The lines of the batch input, name or "-" for stdin (left open), read
    as they are asked for, in UTF-8, a byte that is not UTF-8 kept as a lone
    surrogate (only its line fails) and a leading byte-order mark dropped.
    An OSError of opening or reading it, not a write's, raises `InputError`."""
    try:
        if name != "-":
            with open(name, encoding="utf-8-sig", errors="surrogateescape") as lines:
                yield from lines
        elif sys.stdin is None:  # started with stdin closed
            raise OSError(errno.EBADF, "standard input is closed")
        elif getattr(sys.stdin, "buffer", None) is None:  # text with no bytes beneath it
            yield from sys.stdin
        else:
            lines = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig",
                                     errors="surrogateescape")
            try:
                yield from lines
            finally:
                lines.detach()  # leaves stdin open
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from None


def _run_batch(args, stdout) -> int:
    """Process the forms of args.batch ("-" for stdin), one per line, as
    the file is read.  A line that fails, for bad input (exit 64) or an
    internal error (exit 70), gives an error line and the batch goes on.
    Input that cannot be opened or read exits 64, with no summary."""
    def write(obj: dict) -> None:  # an error or summary line, in one call
        stdout.write(_encode_line(obj) + "\n")

    counts: dict[str, int] = {}
    severity = 0  # the highest of 64 (rejected input) and 70 (a defect) seen
    try:
        for lineno, line in enumerate(_batch_lines(args.batch), start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate: an undecodable byte
                    write({"line": lineno, "error": "not valid UTF-8"})
                    severity = max(severity, EXIT_PARSE)
                    continue
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            text, code, outcome = _run_form(body.split(), args, lineno)
            if text is None:
                write({"line": lineno, "error": outcome})
            else:
                stdout.write(f'{text[:-1]}, "line": {lineno}}}\n')  # one JSON line, in one call
                counts[outcome] = counts.get(outcome, 0) + 1
            if code >= EXIT_PARSE:
                severity = max(severity, code)
    except InputError as exc:  # raised by _batch_lines: `_run_form` keeps its own
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    write({"summary": counts})
    return severity


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
    without the caller writing "--" by hand.  Flags must precede values;
    the value of --precision (or a prefix from "--p") is not a coefficient."""
    if "--" in argv:
        return argv
    for i, (prev, tok) in enumerate(zip([""] + argv, argv)):
        if (len(tok) > 1 and tok[0] == "-" and (tok[1].isdigit() or tok[1] == ".")
                and not (prev.startswith("--p") and "=" not in prev)):
            return argv[:i] + ["--"] + argv[i:]
    return argv


def main(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(_escape_negative_coefficients(argv))
        if not 1 <= args.precision <= MAX_PRECISION:
            raise _UsageError(f"--precision must be between 1 and {MAX_PRECISION}")
        if args.batch is not None and args.coefficients:
            raise _UsageError("--batch and positional coefficients are mutually exclusive")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.batch is not None:
            code = _run_batch(args, stdout)
        else:
            text, code, outcome = _run_form(args.coefficients, args)
            if text is None:
                print(f"error: {outcome}", file=sys.stderr)
            else:
                out = json.loads(text)
                print(json.dumps(out, indent=2) if args.json else _render_text(out), file=stdout)
                if code == EXIT_DISAGREEMENT:
                    print("internal cross-check disagreement; do not trust this build",
                          file=sys.stderr)
        stdout.flush()
    except OSError as exc:  # a write or the flush of standard output failed
        if not isinstance(exc, BrokenPipeError):  # a closed pipe stays silent
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        if stdout is sys.stdout:
            # keep the interpreter's exit flush of the failed stream quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_IOERR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
