import dataclasses
import errno
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartic_certify import (
    Definiteness,
    QuadExt,
    critical_param,
    from_plain_coeffs,
    g_eval,
    pencil_coeffs,
    pencil_matrix,
    to_decimal,
)
from quartic_certify.cli import MAX_PRECISION, Report, main
from quartic_certify.classifier import discriminant_case
from quartic_certify.exactnum import parse_rational, ratio_text
from quartic_certify.positivity import decide_problem

from conftest import configured_form, fraction_formula

F = Fraction

# the golden forms of tests/test_golden.py: every verdict class on both
# sides, degenerate-leading, large and fractional forms and input spellings
GOLDEN_FORMS = Path(__file__).resolve().parent / "data" / "golden_forms.txt"


# the modules that bind the pencil functions: those whose bindings
# bench/spans.py wraps, and pencil itself
PENCIL_BINDERS = [importlib.import_module(f"quartic_certify.{name}")
                  for name in ("cli", "positivity", "classifier", "pencil")]


def run(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(["--json", *argv])
    return code, json.loads(text)


class TestExitCodes:
    def test_definite(self):
        code, out = run_json(["1", "0", "0", "1", "1"])
        assert code == 0
        assert out["verdict"] == "positive-definite"
        assert out["case"]["id"] == 2

    def test_boundary(self):
        code, out = run_json(["1", "4", "6", "4", "1"])
        assert code == 1
        assert out["verdict"] == "positive-semidefinite-not-definite"
        assert out["case"]["id"] == 9

    def test_negative_semidefinite(self):
        code, out = run_json(["-1", "6", "-13", "24", "-36"])
        assert code == 1
        assert out["verdict"] == "negative-semidefinite-not-definite"
        assert out["orientation"] == "negative-side"

    def test_indefinite(self):
        code, out = run_json(["1", "0", "-5", "0", "4"])
        assert code == 2
        assert out["witnesses"] is not None

    def test_zero_form_is_boundary(self):
        code, out = run_json(["0", "0", "0", "0", "0"])
        assert code == 1
        assert out["verdict"] == "identically-zero"

    def test_parse_error(self, capsys):
        assert main(["1", "2", "x", "4", "5"]) == 64
        assert "coefficient #3" in capsys.readouterr().err
        # a limit, not the syntax, rejects this one, and the message says so
        assert main(["1", "0", "0", "0", "1e2000"]) == 64
        err = capsys.readouterr().err
        assert "coefficient #5 (e0): decimal exponent of '1e2000' beyond +-1000" in err

    def test_large_psd_square_is_boundary(self):
        # (x^2 + b xy + c y^2)^2 has a circle minimum near -1.5e-5 in
        # floats; the exact oracle sees its two real double roots, so the
        # correct semidefinite verdict exits 1, not 70
        b, c = F(1608007, 2), F(-379623983, 118)
        coeffs = (1, 2 * b, b * b + 2 * c, 2 * b * c, c * c)
        code, out = run_json([str(x) for x in coeffs])
        assert out["verdict"] == "positive-semidefinite-not-definite"
        assert out["oracle"] == {"discriminant_case": 6}
        assert out["agreement"]["oracle"] is True
        assert code == 1

    def test_oversize_form_rejected(self, capsys):
        # 250-digit numerators and denominators: far beyond 2000 bits
        big = "7" * 250 + "/1" + "0" * 249  # coprime, so nothing cancels
        assert main([big] * 5) == 64
        assert "too large" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        assert main(["1", "2", "3"]) == 64

    def test_internal_error_exits_70(self, monkeypatch, capsys):
        # a defect in a single form exits 70, as on a batch line, and not 1,
        # the code of the semidefinite verdict this form has
        import quartic_certify.cli as cli

        def fails(problem):
            raise ZeroDivisionError("planted defect")

        monkeypatch.setattr(cli, "decide_problem", fails)
        for flags in ([], ["--json"]):
            assert run([*flags, "1", "4", "6", "4", "1"]) == (70, "")
            err = capsys.readouterr().err
            assert err.startswith("Traceback (most recent call last):\n")
            assert err.endswith("\nerror: internal error: ZeroDivisionError: planted defect\n")

    @pytest.mark.parametrize("argv", [
        ["--frobnicate", "1", "0", "0", "1", "1"],
        ["--precision", "abc", "1", "0", "0", "1", "1"],
    ])
    def test_usage_error_exits_64(self, argv, capsys):
        assert main(argv) == 64
        assert capsys.readouterr().err.startswith("error: ")

    def test_argv_that_already_holds_double_dash(self):
        code, out = run_json(["--", "-1", "0", "0", "-1", "-1"])
        assert code == 0
        assert out["verdict"] == "negative-definite"

    def test_negative_fraction_coefficient(self):
        code, _ = run(["-1/2", "0", "0", "0", "-1/2"])
        assert code == 0  # negative definite


class TestJsonReport:
    def test_exact_fields_round_trip(self):
        _, out = run_json(["1", "0", "0", "1/4", "0.25"])
        echoed = [parse_rational(s) for s in out["input"]]
        assert echoed == [1, 0, 0, F(1, 4), F(1, 4)]
        lam = out["lambda0"]
        for key in ("p", "q", "d"):
            parse_rational(lam[key])  # "p/q" strings re-parse exactly

    def test_decimal_matches_exact(self):
        _, out = run_json(["1", "0", "0", "1", "1"])
        lam = out["lambda0"]
        p, q, d = (parse_rational(lam[key]) for key in ("p", "q", "d"))
        import math

        approx = float(p) + float(q) * math.sqrt(float(d))
        assert abs(float(lam["decimal"]) - approx) < 1e-11

    def test_certificate_decimal_next_to_a_tie(self):
        # m33 = e0 = 0.1234567890125 + 10^-70 lies just above a tie at 12
        # digits; a quotient first rounded to 50 digits lands on the tie
        # and then rounds to even, ...012
        e0 = F(1234567890125, 10**13) + F(1, 10**70)
        code, out = run_json(["1", "0", "0", "0", str(e0)])
        assert code == 0
        assert out["certificate"][2][2]["p"] == str(e0)
        assert out["certificate"][2][2]["decimal"] == "0.123456789013"

    def test_witness_values_check_out(self):
        _, out = run_json(["-2", "0", "10", "0", "-8"])
        w = out["witnesses"]
        coeffs = [parse_rational(s) for s in out["input"]]
        for label, expected in (("positive", 1), ("negative", -1)):
            x = parse_rational(w[label]["x"])
            y = parse_rational(w[label]["y"])
            value = fraction_formula(*coeffs, x, y)
            assert value == parse_rational(w[label]["value"])
            assert (1 if value > 0 else -1) == expected

    def test_each_exact_value_rendered_once(self, monkeypatch):
        # lam0 is irrational here, and the certificate's m22 is lam0 itself:
        # lambda0, g_lambda0 and six certificate entries are seven values.
        # m11 of a monic form is the constant 1, spelled without rendering;
        # the others are rendered from the kernel's integers: the three
        # irrational ones (lambda0, g_lambda0 and m13) by surd_decimal, the
        # three other rational ones by ratio_decimal
        import quartic_certify.cli as cli

        rational, irrational = [], []
        real_rational, real_irrational = cli.ratio_decimal, cli.surd_decimal

        def counting_rational(*args):
            rational.append(args)
            return real_rational(*args)

        def counting_irrational(*args):
            irrational.append(args)
            return real_irrational(*args)

        monkeypatch.setattr(cli, "ratio_decimal", counting_rational)
        monkeypatch.setattr(cli, "surd_decimal", counting_irrational)
        code, out = run_json(["1", "0", "0", "1", "1"])
        assert code == 0 and out["lambda0"]["q"] != "0"
        assert len(rational) == 3 and len(irrational) == 3
        assert all(type(arg) is int for args in rational + irrational for arg in args)
        assert out["certificate"][1][1] == out["lambda0"]
        assert out["certificate"][0][0] == {"p": "1", "q": "0", "d": "0", "decimal": "1"}

    def test_certificate_entries_are_scalars(self):
        _, out = run_json(["1", "-8", "26", "-40", "25"])
        cert = out["certificate"]
        assert len(cert) == 3 and all(len(row) == 3 for row in cert)
        assert cert[1][1]["p"] == "56/3"

    def test_agreement_flags_all_true(self):
        for coeffs in (["1", "0", "0", "1", "1"], ["1", "0", "-5", "0", "4"],
                       ["-1", "6", "-13", "24", "-36"], ["0", "1", "0", "1", "0"]):
            code, out = run_json(coeffs)
            assert code != 70
            assert all(v is not False for v in out["agreement"].values())

    def test_degenerate_negative_semidefinite_oracle_agrees(self):
        # -(x^2 + y^2) y^2: the oracle must see the sign-flipped form
        code, out = run_json(["0", "0", "-1", "0", "-1"])
        assert code == 1
        assert out["verdict"] == "negative-semidefinite-not-definite"
        assert out["agreement"]["oracle"] is True

    @pytest.mark.parametrize("coeffs,case_id", [
        (["0", "0", "-1", "0", "-1"], 5),  # read as -x^2 (x^2 + y^2)
        (["0", "0", "1", "2", "1"], 6),    # read as x^2 (x + y)^2
        (["0", "1", "0", "0", "3"], 3),    # read as 3 x^4 + x y^3
        (["0", "1", "0", "1", "0"], None),  # x y (x^2 + y^2): e4 = e0 = 0
        (["0", "0", "0", "0", "0"], None),
    ])
    def test_degenerate_leading_reads_the_swapped_form(self, coeffs, case_id):
        code, out = run_json(coeffs)
        assert code != 70
        if case_id is None:
            assert out["oracle"] is None and out["agreement"]["oracle"] is None
        else:
            assert out["oracle"] == {"discriminant_case": case_id}
            assert out["agreement"]["oracle"] is True

    def test_oracle_runs_beyond_float_range(self):
        # no float is involved: the exact oracle runs beyond the float range
        code, out = run_json(["1", "0", "0", "0", "1e400"])
        assert code == 0
        assert out["verdict"] == "positive-definite"
        assert out["oracle"] == {"discriminant_case": 2}
        assert out["agreement"]["oracle"] is True
        assert all(v is not False for v in out["agreement"].values())

    def test_no_crosscheck_skips_oracles(self):
        _, out = run_json(["--no-crosscheck", "1", "0", "0", "1", "1"])
        assert out["classical"] is None and out["oracle"] is None
        assert all(v is None for v in out["agreement"].values())

    def test_precision_flag(self):
        _, out = run_json(["--precision", "30", "1", "0", "0", "1", "1"])
        assert len(out["lambda0"]["decimal"].replace(".", "")) == 30

    def test_precision_bound(self, capsys):
        code, out = run_json(["--precision", str(MAX_PRECISION), "1", "0", "0", "1", "1"])
        assert code == 0
        assert len(out["lambda0"]["decimal"].replace(".", "")) == MAX_PRECISION
        for value in (MAX_PRECISION + 1, 0):
            assert run(["--precision", str(value), "1", "0", "0", "1", "1"]) == (64, "")
            assert f"between 1 and {MAX_PRECISION}" in capsys.readouterr().err

    def test_negative_precision_names_the_bound(self, capsys):
        # the value of --precision, or of an abbreviation of it, is not
        # taken for a negative coefficient
        for flag in ("--precision", "--prec", "--p"):
            for form in (["1", "0", "0", "1", "1"], ["-1", "0", "0", "-1", "-1"]):
                assert run([flag, "-3", *form]) == (64, "")
                assert capsys.readouterr().err == (
                    f"error: --precision must be between 1 and {MAX_PRECISION}\n")

    def test_no_case_flag(self):
        _, out = run_json(["--no-case", "1", "0", "0", "1", "1"])
        assert out["case"] is None


def _reference_json(value, digits):
    """The JSON of an exact value, from its Fraction or QuadExt parts."""
    p, q, d = (value.p, value.q, value.d) if isinstance(value, QuadExt) else (value, 0, 0)
    return {"p": str(p), "q": str(q), "d": str(d), "decimal": to_decimal(value, digits)}


def assert_report_equals_the_reference(coeffs, digits):
    """lambda0, g_lambda0 and the nine certificate cells of the report, which
    are rendered from the integers of `pencil.lam0_surds`, against the
    Q(sqrt(d)) route: `critical_param`, `g_eval` and `pencil_matrix`."""
    problem = from_plain_coeffs(*coeffs)
    verdict = decide_problem(problem)
    text, _ = Report(problem, verdict, digits, include_case=False, crosscheck=False).build()
    out = json.loads(text)
    # the input, rendered from the problem's integer record
    assert out["input"] == [str(c) for c in coeffs]
    m = problem.form
    cubic = pencil_coeffs(m)
    lam0 = critical_param(cubic)
    if not lam0.is_real:
        assert out["lambda0"] == {"p": None, "q": None, "d": str(lam0.radicand), "decimal": None}
        assert out["g_lambda0"] is None
        return
    assert out["lambda0"] == _reference_json(lam0.value, digits)
    assert out["g_lambda0"] == _reference_json(g_eval(cubic, lam0.value), digits)
    if verdict.classification is Definiteness.INDEFINITE:
        assert out["certificate"] is None
        return
    rows = pencil_matrix(m, lam0.value).rows()
    assert out["certificate"] == [[_reference_json(entry, digits) for entry in row]
                                  for row in rows]


_huge = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12))


class TestReportAgainstTheReference:
    @pytest.mark.parametrize("case_id", range(1, 10))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_nine_case_strata(self, case_id, data):
        # the strata reach the semidefinite verdicts, which carry a
        # certificate; a lead of either sign reaches both sides
        m = data.draw(configured_form(case_id))
        lead = data.draw(st.builds(F, st.integers(-10**6, 10**6).filter(bool),
                                   st.integers(1, 10**6)))
        coeffs = (lead, *(lead * a for a in (m.a3, m.a2, m.a1, m.a0)))
        assert_report_equals_the_reference(coeffs, data.draw(st.integers(1, 45)))

    @given(st.tuples(_huge.filter(bool), _huge, _huge, _huge, _huge), st.integers(1, 45))
    @settings(max_examples=150, deadline=None)
    def test_random_forms(self, coeffs, digits):
        assert_report_equals_the_reference(coeffs, digits)


_small = st.builds(F, st.integers(-1000, 1000), st.integers(1, 1000))
# five of these take 1,505 to 1,955 bits
_large = st.one_of(st.integers(2**300, 2**390), st.integers(-2**390, -2**300))


@st.composite
def _line_form(draw):
    """Coefficients (e4, e3, e2, e1, e0) from a stratum that reaches a part
    of the line's layout, on either side: e4 = 0, a radicand D < 0 (lambda0
    not real), D a perfect square (every value rational), PSD squares (a
    certificate), random forms, and coefficients near the 2,000-bit limit."""
    stratum = draw(st.sampled_from(
        ["random", "e4 = 0", "D < 0", "D square", "psd square", "large", "large psd square"]))
    if stratum == "random":
        coeffs = draw(st.tuples(*[_small] * 5))
    elif stratum == "e4 = 0":
        coeffs = (0, *draw(st.tuples(*[_small] * 4)))
    elif stratum in ("D < 0", "D square"):
        # D = 12 e4 e0 - 3 e3 e1 + e2^2, up to a square factor: -t or s^2
        e4, (e3, e2, e1) = draw(_small.filter(bool)), draw(st.tuples(*[_small] * 3))
        t = draw(_small.filter(bool))
        t = -abs(t) if stratum == "D < 0" else t * t
        coeffs = (e4, e3, e2, e1, (t + 3 * e3 * e1 - e2 * e2) / (12 * e4))
    elif stratum == "large":
        coeffs = draw(st.tuples(*[_large] * 5))
    else:  # k (x^2 + b xy + c y^2)^2
        part = _large.map(lambda n: n >> 270) if stratum == "large psd square" else _small
        k, b, c = draw(part.filter(bool)), draw(part), draw(part)
        coeffs = (k, 2 * k * b, k * (b * b + 2 * c), 2 * k * b * c, k * c * c)
    if draw(st.booleans()):
        coeffs = tuple(-c for c in coeffs)
    return coeffs


# every string of a form's line but the case description: ratios, decimals
# and enum values, which JSON spells unescaped
_UNESCAPED = re.compile(r"[0-9A-Za-z/+\-.]*")


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _strings(item)


class TestLineText:
    @given(_line_form(), st.sampled_from([(True, True), (True, False), (False, False)]),
           st.sampled_from([1, 12, 40]), st.integers(1, 1000))
    @settings(max_examples=300, deadline=None)
    def test_spelled_as_json_dumps(self, coeffs, flags, digits, lineno):
        # flags: the default, --no-crosscheck, --no-crosscheck --no-case
        import quartic_certify.cli as cli

        tokens = [str(c) for c in coeffs]
        try:
            ratios = cli._parse_coefficients(tokens)
        except cli.InputError:  # beyond the 2,000-bit limit
            assume(False)
        problem = cli.from_ratios(*ratios)
        include_case, crosscheck = flags
        text, code = Report(problem, decide_problem(problem), digits, include_case,
                            crosscheck).build()
        out = json.loads(text)
        assert json.dumps(out) == text
        # the same form as line `lineno` of a batch, after lineno - 1 blank lines
        argv = ["--precision", str(digits), *([] if include_case else ["--no-case"]),
                *([] if crosscheck else ["--no-crosscheck"]), "--batch", "-"]
        with mock.patch("sys.stdin", io.StringIO("\n" * (lineno - 1) + " ".join(tokens))):
            batch_code, batch = run(argv)
        line = batch.splitlines()[0]
        assert json.dumps(json.loads(line)) == line
        assert json.loads(line) == {**out, "line": lineno}
        assert batch_code == (70 if code == 70 else 0)
        plain = {**out, "case": None}
        assert all(_UNESCAPED.fullmatch(text) for text in _strings(plain)), plain


class TestBatch:
    NOT_UTF8 = b"1 0 0 1 1\n\xff\xfe 0 0 1 1\n1 4 6 4 1\n"

    def _check_not_utf8(self, code, text):
        assert code == 64
        rows = [json.loads(line) for line in text.splitlines()]
        assert rows[0]["line"] == 1 and rows[0]["verdict"] == "positive-definite"
        assert rows[1] == {"line": 2, "error": "not valid UTF-8"}
        assert rows[2]["line"] == 3
        assert rows[3] == {"summary": {"positive-definite": 1,
                                       "positive-semidefinite-not-definite": 1}}

    def test_line_not_utf8_continues(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_bytes(self.NOT_UTF8)
        self._check_not_utf8(*run(["--batch", str(path)]))

    def test_stdin_line_not_utf8_continues(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(self.NOT_UTF8), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        self._check_not_utf8(*run(["--batch", "-"]))
        assert not stdin.closed  # the batch leaves stdin open

    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize("forms", [b"1 0 0 1 1\n1 0 -5 0 4\n", GOLDEN_FORMS.read_bytes()],
                             ids=["form-first", "golden"])
    def test_leading_byte_order_mark_is_dropped(self, forms, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(forms)
        marked.write_bytes(self.BOM + forms)
        assert run(["--batch", str(marked)]) == run(["--batch", str(plain)])

    def test_stdin_leading_byte_order_mark_is_dropped(self, monkeypatch):
        forms = b"1 0 0 1 1\n1 0 -5 0 4\n"
        outputs = []
        for data in (forms, self.BOM + forms):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            outputs.append(run(["--batch", "-"]))
        assert outputs[1] == outputs[0] and outputs[0][0] == 0

    def test_byte_order_mark_after_the_first_line_is_an_error(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_bytes(b"1 0 0 1 1\n" + self.BOM + b"1 0 0 1 1\n")
        code, text = run(["--batch", str(path)])
        rows = [json.loads(line) for line in text.splitlines()]
        assert code == 64 and rows[0]["verdict"] == "positive-definite"
        assert rows[1] == {"line": 2, "error": "coefficient #1 (e4): not a rational number: "
                                               r"'\ufeff1'"}
        assert rows[2] == {"summary": {"positive-definite": 1}}

    def test_golden_file(self):
        code, text = run(["--batch", str(GOLDEN_FORMS)])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        verdicts = [r["verdict"] for r in rows if "verdict" in r]
        pd, nd, ind, zero = ("positive-definite", "negative-definite", "indefinite",
                             "identically-zero")
        psd, nsd = "positive-semidefinite-not-definite", "negative-semidefinite-not-definite"
        assert verdicts == [
            pd, nd, pd, psd, psd, nsd, nsd, psd, psd, ind, ind, nsd, ind, ind,
            ind, psd, nsd, ind, pd, pd, zero,
            pd, ind, ind, psd, ind, nd,  # the input spellings
            ind, ind, pd,  # cases 4 and 8, and a certificate entry near -1e-30
            ind, ind, ind, ind, psd, nsd,  # e4 = e0 = 0: the closed rules
            ind, ind,  # e4 = 0 with f(y, x) on the negative side
        ]
        summary = rows[-1]["summary"]
        assert summary["positive-definite"] == 6
        assert summary["positive-semidefinite-not-definite"] == 7

    def test_precision_bound(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n")
        code, text = run(["--precision", str(MAX_PRECISION), "--batch", str(path)])
        assert code == 0
        assert len(json.loads(text.splitlines()[0])["lambda0"]["decimal"]) == MAX_PRECISION + 1
        # rejected before the file is opened: a missing file reads the same
        for batch in (path, tmp_path / "missing.txt"):
            for value in (MAX_PRECISION + 1, 0):
                assert run(["--precision", str(value), "--batch", str(batch)]) == (64, "")
                assert str(MAX_PRECISION) in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        code, text = run(["--batch", str(tmp_path / "missing.txt")])
        assert (code, text) == (64, "")
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="closes stdin through /bin/sh")
    def test_closed_stdin(self):
        # started with standard input closed, "--batch -" cannot read it: the
        # error of an unreadable file, exit 64, and no traceback
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(["/bin/sh", "-c", 'exec "$0" -m quartic_certify.cli --batch - <&-',
                               sys.executable], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (64, b"")
        assert proc.stderr.startswith(b"error: cannot read -: ")
        assert proc.stderr.count(b"\n") == 1

    class FailingReader:
        """A standard input whose read fails after its first line."""

        def __iter__(self):
            yield "1 0 0 1 1\n"
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    def test_read_error_after_a_line(self, monkeypatch, capsys):
        # a failed read is unreadable input, as a failed open is: exit 64 and
        # one line on stderr, no traceback and no summary, and the line
        # already written stays
        monkeypatch.setattr(sys, "stdin", self.FailingReader())
        code, text = run(["--batch", "-"])
        assert code == 64
        assert [json.loads(line)["verdict"] for line in text.splitlines()] == ["positive-definite"]
        assert capsys.readouterr().err == (
            f"error: cannot read -: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n")

    def test_read_error_and_write_error(self, monkeypatch, capsys):
        # the write of the first line fails before the read does: exit 74
        monkeypatch.setattr(sys, "stdin", self.FailingReader())
        assert main(["--batch", "-"], stdout=TestClosedOutput.Full()) == 74
        assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, text = run(["--batch", str(path)])
        assert code == 0
        assert json.loads(text.splitlines()[-1]) == {"summary": {}}

    def test_malformed_line_continues(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1 0 0 1 1\nnot a form\n1 0 0 0 1e2000\n1 4 6 4 1\n")
        code, text = run(["--batch", str(path)])
        assert code == 64
        rows = [json.loads(line) for line in text.splitlines()]
        assert "error" in rows[1]
        assert set(rows[2]) == {"line", "error"} and rows[2]["line"] == 3  # exponent cap
        assert rows[2]["error"] == ("coefficient #5 (e0): decimal exponent of '1e2000' "
                                    "beyond +-1000")
        assert rows[0]["verdict"] == "positive-definite"
        assert rows[3]["verdict"] == "positive-semidefinite-not-definite"
        assert rows[4] == {"summary": {"positive-definite": 1,
                                       "positive-semidefinite-not-definite": 1}}

    def test_oracle_runs_beyond_float_range(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 0 1e400\n1 0 0 0 -1e400\n1 0 0 1 1\n")
        code, text = run(["--batch", str(path)])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert [r["verdict"] for r in rows[:3]] == [
            "positive-definite", "indefinite", "positive-definite"]
        assert [r["oracle"] for r in rows[:3]] == [
            {"discriminant_case": 2}, {"discriminant_case": 3}, {"discriminant_case": 2}]
        assert all(r["agreement"]["oracle"] is True for r in rows[:3])

    def test_report_reads_the_verdict_record(self, monkeypatch, tmp_path):
        # the report and the cross-checks reuse lam0, g(lam0) and the
        # certificate of the verdict instead of recomputing them through the
        # Q(sqrt(d)) route, under any of its bindings
        path = tmp_path / "forms.txt"
        path.write_text(GOLDEN_FORMS.read_text(encoding="utf-8") + "1 0 -5 0 4\n1 0 3 0 -4\n")
        expected = run(["--batch", str(path)])

        def forbidden(*args):
            raise AssertionError("recomputed in the report")

        for module in PENCIL_BINDERS:
            for name in ("pencil_coeffs", "critical_param", "g_eval"):
                monkeypatch.setattr(module, name, forbidden)
        assert run(["--batch", str(path)]) == expected

    def test_closed_forms_taken_once_per_line(self, monkeypatch, tmp_path):
        # the report, the sylvester flag and the certificate read one tuple
        # of pencil.lam0_surds per monic line, under any of its bindings:
        # each call returns the very tuple the first one built
        import quartic_certify.pencil as pencil

        returned = []  # holds every tuple, so no id is reused
        real = pencil.lam0_surds

        def counting(m):
            returned.append(real(m))
            return returned[-1]

        for module in PENCIL_BINDERS:
            if hasattr(module, "lam0_surds"):
                monkeypatch.setattr(module, "lam0_surds", counting)
        path = tmp_path / "form.txt"
        seen = set()
        for line in GOLDEN_FORMS.read_text(encoding="utf-8").splitlines():
            fields = line.split("#", 1)[0].split()
            if not fields or parse_rational(fields[0]) == 0:
                continue
            path.write_text(line + "\n")
            returned.clear()
            code, text = run(["--batch", str(path)])
            row = json.loads(text.splitlines()[0])
            assert code == 0 and row["agreement"]["sylvester"] is not None, line
            assert returned and len({id(surds) for surds in returned}) == 1, line
            seen.add(row["verdict"])
        assert len(seen) == 5  # every class a monic form takes

    def test_sylvester_reads_the_integer_minor_signs(self, monkeypatch, tmp_path):
        # the sylvester flag reads the minor signs of 6 e4 M(lam0) over
        # Z[sqrt(D)] (lam0_minor_signs), and the certificate is built from the
        # form's integers: no matrix is cleared and no QuadExt minor is built
        from quartic_certify import Sym3Matrix

        path = tmp_path / "forms.txt"
        path.write_text(GOLDEN_FORMS.read_text(encoding="utf-8") + "1 0 -5 0 4\n1 0 3 0 -4\n")
        expected = [run([*flags, "--batch", str(path)])
                    for flags in ([], ["--no-crosscheck"], ["--no-crosscheck", "--no-case"])]

        def forbidden(self):
            raise AssertionError("a QuadExt minor was built")

        monkeypatch.setattr(Sym3Matrix, "principal_minors", forbidden)
        monkeypatch.setattr(Sym3Matrix, "det", forbidden)
        monkeypatch.setattr(Sym3Matrix, "principal_minor_signs", property(forbidden))
        for module in PENCIL_BINDERS:
            if hasattr(module, "pencil_matrix"):
                monkeypatch.setattr(module, "pencil_matrix", forbidden)
        assert [run([*flags, "--batch", str(path)])
                for flags in ([], ["--no-crosscheck"], ["--no-crosscheck", "--no-case"])
                ] == expected
        rows = [json.loads(line) for line in expected[0][1].splitlines()[:-1]]
        # a degenerate-leading form has no pencil
        assert [r["agreement"]["sylvester"] for r in rows] == [
            None if r["input"][0] == "0" else True for r in rows]

    def test_internal_error_is_isolated_to_its_line(self, monkeypatch, tmp_path, capsys):
        import quartic_certify.cli as cli
        from quartic_certify.classifier import InconsistentCaseError

        real = cli.classify_case

        def fails_on_the_second_form(form):
            if form.a0 == 4:
                raise InconsistentCaseError("planted defect")
            return real(form)

        monkeypatch.setattr(cli, "classify_case", fails_on_the_second_form)
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n1 0 -5 0 4\n1 4 6 4 1\n")
        code, text = run(["--batch", str(path)])
        assert code == 70
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 4
        assert rows[0]["line"] == 1 and rows[0]["verdict"] == "positive-definite"
        assert rows[1] == {"line": 2,
                           "error": "internal error: InconsistentCaseError: planted defect"}
        assert rows[2]["line"] == 3
        assert rows[2]["verdict"] == "positive-semidefinite-not-definite"
        assert rows[3] == {"summary": {"positive-definite": 1,
                                       "positive-semidefinite-not-definite": 1}}
        err = capsys.readouterr().err
        assert err.startswith("internal error on line 2:\nTraceback")
        assert "planted defect" in err

    def test_stdin(self, monkeypatch, tmp_path):
        forms = "1 0 0 1 1\n\n1 0 -5 0 4\n1 4 6 4 1\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(forms))
        code, text = run(["--batch", "-"])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert [(r["line"], r["verdict"]) for r in rows[:3]] == [
            (1, "positive-definite"), (3, "indefinite"),
            (4, "positive-semidefinite-not-definite")]
        assert rows[3] == {"summary": {"positive-definite": 1, "indefinite": 1,
                                       "positive-semidefinite-not-definite": 1}}
        path = tmp_path / "forms.txt"
        path.write_text(forms)
        assert run(["--batch", str(path)]) == (code, text)

    def test_each_line_is_one_write(self, tmp_path):
        # form lines, error lines of every kind and the summary: each is one
        # write call, spelled as json.dumps spells it
        class Writes(io.StringIO):
            def __init__(self):
                super().__init__()
                self.calls = []

            def write(self, text):
                self.calls.append(text)
                return super().write(text)

        path = tmp_path / "forms.txt"
        path.write_bytes(b"1 0 0 1 1\n1 2\nx 0 0 0 1\n\xff 0 0 0 1\n1 0 -5 0 4\n"
                         b"0 1 0 0 1\n")
        out = Writes()
        assert main(["--batch", str(path)], stdout=out) == 64
        lines = out.getvalue().splitlines(keepends=True)
        assert out.calls == lines and len(lines) == 7
        assert all(line == json.dumps(json.loads(line)) + "\n" for line in lines)

    @pytest.mark.parametrize("flags", [[], ["--no-crosscheck"], ["--no-crosscheck", "--no-case"]])
    def test_form_lines_skip_the_generic_encoder(self, monkeypatch, flags, tmp_path):
        # the generic encoder writes the error lines and the summary only;
        # every form line is written by _line_text
        import quartic_certify.cli as cli

        encoded = []
        real = cli._encode_line

        def counting(obj):
            encoded.append(obj)
            return real(obj)

        monkeypatch.setattr(cli, "_encode_line", counting)
        path = tmp_path / "forms.txt"
        path.write_bytes(GOLDEN_FORMS.read_bytes() + b"1 2\nx 0 0 0 1\n\xff 0 0 0 1\n")
        code, text = run([*flags, "--batch", str(path)])
        assert code == 64
        rows = [json.loads(line) for line in text.splitlines()]
        errors = [row for row in rows if "error" in row]
        assert len(errors) == 3 and sum("verdict" in row for row in rows) > 30
        assert encoded == [*errors, rows[-1]] and "summary" in rows[-1]

    def test_batch_rejects_positional_coefficients(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n")
        assert main(["--batch", str(path), "1", "0", "0", "1", "1"]) == 64


class TestClosedOutput:
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_single_form_exits_74(self, flags, capsys):
        assert main([*flags, "1", "0", "0", "1", "1"], stdout=self.Closed()) == 74
        assert capsys.readouterr().err == ""

    def test_batch_exits_74(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n1 0 -5 0 4\n")
        assert main(["--batch", str(path)], stdout=self.Closed()) == 74
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="open descriptors are listed in /proc/self/fd")
    def test_closed_real_stdout_leaves_no_descriptor_open(self, monkeypatch):
        # a standard output that is a pipe whose read end is closed: main
        # points it at os.devnull and closes the descriptor it opened for that
        read, write = os.pipe()
        os.close(read)
        stdout = open(write, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            before = sorted(os.listdir("/proc/self/fd"))
            assert main(["1", "0", "0", "1", "1"]) == 74
            assert sorted(os.listdir("/proc/self/fd")) == before
        finally:
            stdout.close()

    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_single_form_write_error_exits_74(self, flags, capsys):
        # any other failed write exits 74 too, with one line on stderr
        assert main([*flags, "1", "0", "0", "1", "1"], stdout=self.Full()) == 74
        assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    def test_batch_write_error_exits_74(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n1 0 -5 0 4\n")
        assert main(["--batch", str(path)], stdout=self.Full()) == 74
        assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--batch", str(GOLDEN_FORMS)], ["1", "0", "0", "0", "1"]],
                             ids=["batch", "single"])
    def test_full_device(self, argv):
        # every write to /dev/full fails with ENOSPC: exit 74, one line on
        # stderr and no traceback, and the exit flush stays quiet
        src = Path(__file__).resolve().parents[1] / "src"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "quartic_certify.cli", *argv],
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  stdout=full, stderr=subprocess.PIPE, timeout=120)
        assert (proc.returncode, proc.stderr) == (
            74, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode())

    def test_reader_closes_the_real_stdout(self, tmp_path):
        # more output than a pipe holds, read up to its first line: the
        # write to the closed pipe exits 74, and the exit flush stays quiet
        src = Path(__file__).resolve().parents[1] / "src"
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n" * 5000)
        proc = subprocess.Popen([sys.executable, "-m", "quartic_certify.cli", "--batch", str(path)],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert b'"verdict": "positive-definite"' in proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (74, b"")


@st.composite
def _spelled_rational(draw):
    """A token and the rational it spells: an integer or a ratio, reduced or
    not, with a sign or a "+", zero-padded ("007", "-0"), or a decimal with
    or without an exponent."""
    num, den = draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**4))
    signs = ["", "+", "-"] if num == 0 else ["-"] if num < 0 else ["", "+"]
    sign, pad = draw(st.sampled_from(signs)), "0" * draw(st.integers(0, 3))
    mag = abs(num)
    kind = draw(st.sampled_from(["integer", "ratio", "decimal", "exponent"]))
    if kind == "integer":
        return f"{sign}{pad}{mag}", F(num)
    if kind == "ratio":
        k = draw(st.integers(1, 40))
        return f"{sign}{pad}{mag * k}/{pad}{den * k}", F(num, den)
    if kind == "decimal":  # mag / 10^places, trailing zeros kept
        places = draw(st.integers(1, 6))
        digits = str(mag).rjust(places + 1, "0")
        return f"{sign}{pad}{digits[:-places]}.{digits[-places:]}", F(num, 10**places)
    exp = draw(st.integers(-8, 8))
    return f"{sign}{pad}{mag}{draw(st.sampled_from('eE'))}{exp}", num * F(10)**exp


class TestFrontEnd:
    def test_witness_values_come_from_the_input_record(self, tmp_path):
        # each reported value is f at the witness, for the input as given
        rng = random.Random(23)
        lines = [" ".join(f"{rng.randint(-60, 60)}/{rng.randint(1, 9)}" for _ in range(5))
                 for _ in range(150)]
        path = tmp_path / "forms.txt"
        path.write_text(GOLDEN_FORMS.read_text(encoding="utf-8") + "\n".join(lines) + "\n")
        code, text = run(["--no-crosscheck", "--batch", str(path)])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()[:-1]]
        checked = 0
        for row in rows:
            if row["witnesses"] is None:
                continue
            coeffs = [parse_rational(c) for c in row["input"]]
            for w in row["witnesses"].values():
                x, y = parse_rational(w["x"]), parse_rational(w["y"])
                assert parse_rational(w["value"]) == fraction_formula(*coeffs, x, y)
                checked += 1
        assert checked > 100

    @given(st.lists(_spelled_rational(), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_input_is_the_reduced_ratio(self, spelled):
        # "input" prints each coefficient reduced, as ratio_text of the
        # problem's input record gives it, however the token spells it
        import quartic_certify.cli as cli

        tokens = [text for text, _ in spelled]
        problem = cli.from_ratios(*cli._parse_coefficients(tokens))
        big, *cleared = problem.input_record
        expected = [ratio_text(k, big) for k in cleared]
        assert expected == [str(value) for _, value in spelled]
        code, out = run_json(tokens)
        assert out["input"] == expected
        text, _ = Report(problem, decide_problem(problem), 12, True, True).build()
        assert json.loads(text)["input"] == expected

    def test_pencil_invariants_taken_once_per_form(self, monkeypatch, tmp_path):
        # the verdict, the case, the case facts, the report and the Sylvester
        # signs all read the invariants taken once for the monic form; a
        # degenerate-leading line takes them once, for the swapped form that
        # decides it and renders its certificate, unless e0 = 0 as well
        import quartic_certify.forms as forms

        calls = []
        real = forms._pencil_invariants

        def counting(*record):
            calls.append(record)
            return real(*record)

        monkeypatch.setattr(forms, "_pencil_invariants", counting)
        path = tmp_path / "form.txt"
        monic = 0
        for line in GOLDEN_FORMS.read_text(encoding="utf-8").splitlines():
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            e4, *_, e0 = map(parse_rational, fields)
            path.write_text(line + "\n")
            calls.clear()
            assert run(["--batch", str(path)])[0] == 0
            assert len(calls) == (1 if e4 != 0 or e0 != 0 else 0), line
            monic += e4 != 0
        assert monic >= 20

    def test_degenerate_leading_input_cleared_once(self, monkeypatch):
        # the cross-checks read 0 1 2 1 3 swapped, as 3 x^4 + x^3 y + 2 x^2 y^2
        # + x y^3, normalised from the reversed input record, and its cubic
        # witnesses are checked on the same record.  Every clearing of five
        # rationals, clear_denominators' too, goes through forms.clear_ratios
        import quartic_certify.forms as forms

        oracle = discriminant_case(from_plain_coeffs(3, 1, 2, 1, 0).form)
        calls = []
        real = forms.clear_ratios

        def counting(*ratios):
            calls.append(ratios)
            return real(*ratios)

        monkeypatch.setattr(forms, "clear_ratios", counting)
        code, out = run_json(["0", "1", "2", "1", "3"])
        assert code == 2 and calls == [((0, 1), (1, 1), (2, 1), (1, 1), (3, 1))]
        assert out["oracle"] == {"discriminant_case": oracle}
        assert out["agreement"]["oracle"] is True

    @pytest.mark.parametrize("flags", [[], ["--no-crosscheck"]])
    def test_degenerate_leading_line_builds_one_swapped_problem(self, monkeypatch, flags):
        # the decision, the certificate or witnesses and the oracle all read
        # the one problem of f(y, x) that the decision normalised
        import quartic_certify.forms as forms

        calls = []
        real = forms._normalised

        def counting(record):
            calls.append(record)
            return real(record)

        monkeypatch.setattr(forms, "_normalised", counting)
        for coeffs in (["0", "1", "2", "1", "3"], ["0", "0", "1", "2", "1"]):
            calls.clear()
            code, out = run_json([*flags, *coeffs])
            assert (out["witnesses"] if code == 2 else out["certificate"]) is not None
            big, *record = calls[0]
            assert calls == [(big, *record), (big, *record[::-1])]

    def test_kernel_signs_taken_once_per_form(self, monkeypatch, tmp_path):
        # the case facts read the verdict's kernel signs: the two surd signs
        # of lam0 are taken once per monic line, by the decision
        import quartic_certify.classifier as classifier
        import quartic_certify.pencil as pencil
        import quartic_certify.positivity as positivity

        calls = []
        real = pencil.lam0_test

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(positivity, "lam0_test", counting)
        monkeypatch.setattr(classifier, "lam0_test", counting)
        path = tmp_path / "form.txt"
        taken = 0
        for line in GOLDEN_FORMS.read_text(encoding="utf-8").splitlines():
            if not line.split("#", 1)[0].split():
                continue
            path.write_text(line + "\n")
            calls.clear()
            assert run(["--batch", str(path)])[0] == 0
            assert len(calls) <= 1, line
            taken += len(calls)
        assert taken >= 15

    def test_parser_is_built_once(self, monkeypatch):
        import quartic_certify.cli as cli

        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert run_json(["1", "0", "0", "1", "1"])[0] == 0
            # no parsed option carries over to the next call
            code, text = run(["--no-crosscheck", "-1", "0", "0", "-1", "-1"])
            assert code == 0 and text.startswith("form: -1 0 0 -1 -1\n")
            assert "classical:" not in text
            assert run(["--precision", "0", "1", "0", "0", "1", "1"]) == (64, "")
            assert run(["1", "0", "0", "1", "1"])[1].splitlines()[-1].startswith("agreement:")
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()


_FAST_TOKEN = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


class TestBatchLineBuildsNoFraction:
    """A `--batch` line goes from its tokens to its JSON line as integers:
    parsed to ratios, cleared once, decided and reported from the records.
    The one `Fraction` a monic line builds is the witness abscissa t of an
    indefinite verdict; a degenerate-leading line builds none but the
    witness coordinates that it prints.  A decimal token builds more."""

    @pytest.fixture
    def built(self, monkeypatch):
        """A list that gains one entry per Fraction built."""
        calls = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        return calls

    @pytest.mark.parametrize("flags", [[], ["--no-crosscheck"], ["--no-crosscheck", "--no-case"]])
    def test_monic_line(self, built, flags, tmp_path):
        path = tmp_path / "form.txt"
        seen = set()
        for line in GOLDEN_FORMS.read_text(encoding="utf-8").splitlines():
            fields = line.split("#", 1)[0].split()
            if not fields or not all(_FAST_TOKEN.fullmatch(f) for f in fields):
                continue
            if parse_rational(fields[0]) == 0:
                continue
            path.write_text(line + "\n")
            built.clear()
            code, text = run(["--batch", str(path), *flags])
            row = json.loads(text.splitlines()[0])
            assert code == 0 and "error" not in row, line
            if row["verdict"] == "indefinite":
                # t itself: the abscissa of the negative point of the
                # decided form, which is the positive one on the negative side
                side = "negative" if row["orientation"] == "positive-side" else "positive"
                assert len(built) == 1, line
                assert str(Fraction(*built[0])) == row["witnesses"][side]["x"]
            else:
                assert built == [], line
            seen.add((row["verdict"], row["orientation"]))
        # every class a monic form takes, and indefinite on both sides
        assert len({verdict for verdict, _ in seen}) == 5
        assert {("indefinite", "positive-side"), ("indefinite", "negative-side")} <= seen

    @pytest.mark.parametrize("flags", [[], ["--no-crosscheck"], ["--no-crosscheck", "--no-case"]])
    def test_degenerate_leading_line(self, built, flags, tmp_path):
        path = tmp_path / "form.txt"
        lines = ["0 1 0 1 0", "0 0 -3 0 0", "0 2 -7 5 0"]  # e4 = e0 = 0 as well
        lines += GOLDEN_FORMS.read_text(encoding="utf-8").splitlines()
        seen = set()
        for line in lines:
            fields = line.split("#", 1)[0].split()
            if not fields or not all(_FAST_TOKEN.fullmatch(f) for f in fields):
                continue
            if parse_rational(fields[0]) != 0:
                continue
            path.write_text(line + "\n")
            built.clear()
            code, text = run(["--batch", str(path), *flags])
            made = built[:]  # before the checks below build their own
            row = json.loads(text.splitlines()[0])
            assert code == 0 and "error" not in row, line
            printed = set()
            if row["verdict"] == "indefinite":
                printed = {parse_rational(w[axis]) for w in row["witnesses"].values()
                           for axis in ("x", "y")}
            assert {Fraction(*args) for args in made} <= printed, line
            seen.add((row["verdict"], parse_rational(fields[4]) == 0))
        # the swapped route and the closed rule, each semidefinite and indefinite
        assert {("indefinite", False), ("positive-semidefinite-not-definite", False),
                ("negative-semidefinite-not-definite", False), ("indefinite", True),
                ("negative-semidefinite-not-definite", True), ("identically-zero", True)} <= seen


class TestDisagreementPath:
    def test_forced_crosscheck_failure_exits_70(self, monkeypatch):
        import quartic_certify.cli as cli

        monkeypatch.setattr(cli, "_pd_criterion", lambda *signs: True)
        code, out = run_json(["1", "0", "-5", "0", "4"])  # indefinite form
        assert code == 70
        assert out["agreement"]["classical"] is False

    def test_batch_propagates_disagreement(self, monkeypatch, tmp_path):
        import quartic_certify.cli as cli

        monkeypatch.setattr(cli, "_pd_criterion", lambda *signs: True)
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n1 0 -5 0 4\n")
        code, _ = run(["--batch", str(path)])
        assert code == 70

    @pytest.mark.parametrize("flags,flag", [([], False), (["--no-case"], True)])
    def test_oracle_disagreement_exits_70(self, monkeypatch, flags, flag):
        import quartic_certify.cli as cli

        # a definite form (case 2) with a wrong case that is definite too:
        # only the comparison with the reported case can catch it
        monkeypatch.setattr(cli, "discriminant_case", lambda m: 7)
        code, out = run_json([*flags, "1", "0", "0", "1", "1"])
        assert out["agreement"]["oracle"] is flag
        assert code == (0 if flag else 70)
        # a wrong verdict class is caught with or without the case
        monkeypatch.setattr(cli, "discriminant_case", lambda m: 3)
        code, out = run_json([*flags, "1", "0", "0", "1", "1"])
        assert out["agreement"]["oracle"] is False and code == 70


    def test_wrong_side_class_fails_every_flag(self, monkeypatch):
        import quartic_certify.cli as cli

        # a positive-side PD form reported ND: the verdict's class on the
        # decided side is wrong for all three checks, not for the oracle alone
        decide = cli.decide_problem
        monkeypatch.setattr(cli, "decide_problem", lambda problem: dataclasses.replace(
            decide(problem), classification=Definiteness.NEGATIVE_DEFINITE))
        code, out = run_json(["1", "0", "0", "1", "1"])
        assert out["verdict"] == "negative-definite"
        assert out["agreement"]["classical"] is False
        assert out["agreement"]["sylvester"] is False
        assert out["agreement"]["oracle"] is False
        assert code == 70


class TestWithoutNumpy:
    def test_batch_and_circle_oracle_with_numpy_blocked(self):
        # the package runs on the standard library alone: with numpy made
        # unimportable, a default --batch (every cross-check) prints the
        # golden expectation, and the advisory circle minimum still runs
        src = Path(__file__).resolve().parents[1] / "src"
        script = ("import io, sys\n"
                  "sys.modules['numpy'] = None\n"
                  "from quartic_certify import MonicQuartic, circle_min_estimate\n"
                  "from quartic_certify.cli import main\n"
                  "out = io.StringIO()\n"
                  "code = main(['--batch', sys.argv[1]], stdout=out)\n"
                  "assert code == 0, code\n"
                  "assert out.getvalue() == open(sys.argv[2], encoding='utf-8').read()\n"
                  "value, _ = circle_min_estimate(MonicQuartic(0, -5, 0, 4), 4096)\n"
                  "assert abs(value + 9 / 40) < 1e-9, value\n")
        golden = GOLDEN_FORMS.parent / "golden_full.jsonl"
        proc = subprocess.run([sys.executable, "-c", script, str(GOLDEN_FORMS), str(golden)],
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestImportPath:
    def test_batch_loads_neither_polyroots_nor_traceback(self):
        # a fresh interpreter runs the golden batch in the three modes
        # without loading the root-isolation module, which only the test
        # oracles and the exact witness fallback use, or traceback, which
        # only an internal error uses; the oracle still imports it on call
        src = Path(__file__).resolve().parents[1] / "src"
        script = ("import io, sys\n"
                  "from quartic_certify.cli import main\n"
                  "for flags, name in (([], 'full'), (['--no-crosscheck'], 'nocheck'),\n"
                  "                    (['--no-crosscheck', '--no-case'], 'verdict')):\n"
                  "    out = io.StringIO()\n"
                  "    assert main([*flags, '--batch', sys.argv[1]], stdout=out) == 0\n"
                  "    golden = f'{sys.argv[2]}/golden_{name}.jsonl'\n"
                  "    assert out.getvalue() == open(golden, encoding='utf-8').read(), name\n"
                  "loaded = {'quartic_certify._polyroots', 'traceback'} & set(sys.modules)\n"
                  "assert not loaded, loaded\n"
                  "from quartic_certify import MonicQuartic, quartic_root_nature\n"
                  "assert quartic_root_nature(MonicQuartic(0, -5, 0, 4)).real_simple == 4\n")
        proc = subprocess.run([sys.executable, "-c", script, str(GOLDEN_FORMS),
                               str(GOLDEN_FORMS.parent)],
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestTextOutput:
    def test_summary_lines(self):
        code, text = run(["1", "0", "0", "1", "1"])
        assert code == 0
        assert "verdict: positive-definite" in text
        assert "case: 2" in text
        assert "lambda0:" in text
        assert "oracle discriminant case: 2" in text

    def test_non_real_lambda0_line(self):
        code, text = run(["1", "0", "0", "0", "-1"])
        assert code == 2
        assert "lambda0: non-real (radicand -3 < 0)" in text.splitlines()

    def test_exit_code_is_function_of_verdict(self):
        # same verdict class, same exit code, crosscheck on or off
        for flags in ([], ["--no-crosscheck"]):
            assert run([*flags, "1", "0", "0", "1", "1"])[0] == 0
            assert run([*flags, "1", "4", "6", "4", "1"])[0] == 1
            assert run([*flags, "1", "0", "-5", "0", "4"])[0] == 2
