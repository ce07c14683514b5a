"""Byte-identical `--batch` output on a fixed set of forms.

`tests/data/golden_forms.txt` holds about twenty forms: every verdict
class on both sides, the degenerate-leading cubic and quadratic forms, a
non-real lam0, a large and a fractional form, and the zero form.  The
expected output of each CLI mode, and of the default mode at
`--precision 40` and `--precision 1`, is checked in beside it; a refactor
that changes one byte of any report fails here.  To regenerate after an
intended output change, run each mode with `--batch` and write its stdout
to the matching file.
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
