r"""Byte-identical output on a fixed set of forms.

`tests/data/golden_forms.txt` holds about forty forms: every verdict
class on both sides, the degenerate-leading cubic and quadratic forms, a
non-real lam0, a large and a fractional form, and the zero form.  The
expected `--batch` output of each CLI mode, and of the default mode at
`--precision 40` and `--precision 1`, is checked in beside it; a refactor
that changes one byte of any report fails here.  To regenerate after an
intended output change, run each mode with `--batch` and write its stdout
to the matching file.

The single-form reports are checked in too: `golden_json.txt` (`--json`)
and `golden_text.txt` (the text output) hold, for each form, the command
line, its stdout and its exit code.  From the repository root, with `$opt`
"--json" or empty and `$out` the matching file,

    grep -v '^#' tests/data/golden_forms.txt | while read -r form; do
      code=0
      echo "\$ quartic-certify" $opt $form
      PYTHONPATH=src python -m quartic_certify.cli $opt $form || code=$?
      echo "exit $code"
    done > "$out"

writes it.
"""

import io
from pathlib import Path

import pytest

from quartic_certify.cli import main

DATA = Path(__file__).resolve().parent / "data"
FORMS = DATA / "golden_forms.txt"


@pytest.mark.parametrize("flags, expected", [
    ([], "golden_full.jsonl"),
    (["--no-crosscheck"], "golden_nocheck.jsonl"),
    (["--no-crosscheck", "--no-case"], "golden_verdict.jsonl"),
    # 40 digits widen surd_decimal's scale on the line whose m13 is about -1e-30
    (["--precision", "40"], "golden_p40.jsonl"),
    # at one digit three rational renders on the file are exact ties, to even
    (["--precision", "1"], "golden_p1.jsonl"),
])
def test_batch_output_is_byte_identical(flags, expected):
    buf = io.StringIO()
    code = main([*flags, "--batch", str(FORMS)], stdout=buf)
    assert code == 0
    assert buf.getvalue() == (DATA / expected).read_text(encoding="utf-8")


@pytest.mark.parametrize("flags, expected", [
    (["--json"], "golden_json.txt"),
    ([], "golden_text.txt"),
])
def test_single_form_output_is_byte_identical(flags, expected):
    transcript = []
    for line in FORMS.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        tokens = line.split()
        buf = io.StringIO()
        code = main([*flags, *tokens], stdout=buf)
        transcript.append(" ".join(["$ quartic-certify", *flags, *tokens]) + "\n"
                          + buf.getvalue() + f"exit {code}\n")
    assert "".join(transcript) == (DATA / expected).read_text(encoding="utf-8")
