import io
import json
from fractions import Fraction

from quartic_certify import evaluate_plain, parse_rational
from quartic_certify.cli import main

F = Fraction

GOLDEN_LINES = """\
# the six reference forms
1 0 0 1 1
1 -8 26 -40 25
1 1 0 1 1
1 4 2 -4 1
1 4 6 4 1
-1 6 -13 24 -36
"""


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

    def test_wrong_arity(self, capsys):
        assert main(["1", "2", "3"]) == 64

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

    def test_witness_values_check_out(self):
        _, out = run_json(["-2", "0", "10", "0", "-8"])
        w = out["witnesses"]
        coeffs = [parse_rational(s) for s in out["input"]]
        for label, expected in (("positive", 1), ("negative", -1)):
            x = parse_rational(w[label]["x"])
            y = parse_rational(w[label]["y"])
            value = evaluate_plain(*coeffs, x, y)
            assert value == parse_rational(w[label]["value"])
            assert (1 if value > 0 else -1) == expected

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

    def test_oracle_skipped_beyond_float_range(self):
        code, out = run_json(["1", "0", "0", "0", "1e400"])
        assert code == 0
        assert out["verdict"] == "positive-definite"
        assert out["oracle"] is None and out["agreement"]["oracle"] is None
        assert all(v is not False for v in out["agreement"].values())

    def test_no_crosscheck_skips_oracles(self):
        _, out = run_json(["--no-crosscheck", "1", "0", "0", "1", "1"])
        assert out["classical"] is None and out["oracle"] is None
        assert all(v is None for v in out["agreement"].values())

    def test_precision_flag(self):
        _, out = run_json(["--precision", "30", "1", "0", "0", "1", "1"])
        assert len(out["lambda0"]["decimal"].replace(".", "")) == 30

    def test_no_case_flag(self):
        _, out = run_json(["--no-case", "1", "0", "0", "1", "1"])
        assert out["case"] is None


class TestBatch:
    def test_golden_file(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text(GOLDEN_LINES)
        code, text = run(["--batch", str(path)])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        verdicts = [r["verdict"] for r in rows if "verdict" in r]
        assert verdicts == [
            "positive-definite",
            "positive-definite",
            "positive-semidefinite-not-definite",
            "positive-semidefinite-not-definite",
            "positive-semidefinite-not-definite",
            "negative-semidefinite-not-definite",
        ]
        summary = rows[-1]["summary"]
        assert summary["positive-definite"] == 2
        assert summary["positive-semidefinite-not-definite"] == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, text = run(["--batch", str(path)])
        assert code == 0
        assert json.loads(text.splitlines()[-1]) == {"summary": {}}

    def test_malformed_line_continues(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1 0 0 1 1\nnot a form\n1 4 6 4 1\n")
        code, text = run(["--batch", str(path)])
        assert code == 64
        rows = [json.loads(line) for line in text.splitlines()]
        assert "error" in rows[1]
        assert rows[0]["verdict"] == "positive-definite"
        assert rows[2]["verdict"] == "positive-semidefinite-not-definite"

    def test_oracle_skipped_beyond_float_range(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 0 1e400\n1 0 0 0 -1e400\n1 0 0 1 1\n")
        code, text = run(["--batch", str(path)])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert [r["verdict"] for r in rows[:3]] == [
            "positive-definite", "indefinite", "positive-definite"]
        for row in rows[:2]:
            assert row["oracle"] is None and row["agreement"]["oracle"] is None
        assert rows[2]["agreement"]["oracle"] is True

    def test_batch_rejects_positional_coefficients(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n")
        assert main(["--batch", str(path), "1", "0", "0", "1", "1"]) == 64


class TestDisagreementPath:
    def test_forced_crosscheck_failure_exits_70(self, monkeypatch):
        import quartic_certify.cli as cli

        monkeypatch.setattr(cli, "classical_is_pd", lambda v: True)
        code, out = run_json(["1", "0", "-5", "0", "4"])  # indefinite form
        assert code == 70
        assert out["agreement"]["classical"] is False

    def test_batch_propagates_disagreement(self, monkeypatch, tmp_path):
        import quartic_certify.cli as cli

        monkeypatch.setattr(cli, "classical_is_pd", lambda v: True)
        path = tmp_path / "forms.txt"
        path.write_text("1 0 0 1 1\n1 0 -5 0 4\n")
        code, _ = run(["--batch", str(path)])
        assert code == 70


class TestTextOutput:
    def test_summary_lines(self):
        code, text = run(["1", "0", "0", "1", "1"])
        assert code == 0
        assert "verdict: positive-definite" in text
        assert "case: 2" in text
        assert "lambda0:" in text

    def test_exit_code_is_function_of_verdict(self):
        # same verdict class, same exit code, crosscheck on or off
        for flags in ([], ["--no-crosscheck"]):
            assert run([*flags, "1", "0", "0", "1", "1"])[0] == 0
            assert run([*flags, "1", "4", "6", "4", "1"])[0] == 1
            assert run([*flags, "1", "0", "-5", "0", "4"])[0] == 2
