r"""The demos print the checked-in transcript.

`tests/data/golden_demos.txt` holds, for each demo, the command line, its
stdout and its exit code.  Each demo runs here in a fresh interpreter, as
a reader runs it.  From the repository root,

    for demo in demos/*.py; do
      code=0
      echo "\$ python $demo"
      PYTHONPATH=src python "$demo" || code=$?
      echo "exit $code"
    done > tests/data/golden_demos.txt

writes it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_demos.txt"
DEMOS = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "demos").glob("*.py"))


def golden_transcripts() -> dict[str, str]:
    """Each demo's part of the golden file, from its command line to its
    exit code, keyed by the demo's path."""
    parts = GOLDEN.read_text(encoding="utf-8").split("$ python ")
    return {part.split("\n", 1)[0]: "$ python " + part for part in parts[1:]}


def test_every_demo_has_a_transcript():
    assert sorted(golden_transcripts()) == DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_byte_identical(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, demo], cwd=ROOT, env=env, capture_output=True,
                         timeout=120)
    transcript = f"$ python {demo}\n" + run.stdout.decode("utf-8") + f"exit {run.returncode}\n"
    assert transcript == golden_transcripts()[demo]
