"""Fresh-interpreter probe, started by run.py as a child process.

    python3 probe.py SRC_DIR ONE_LINE_FILE [BATCH_FILE OUTPUT_FILE]

Imports the library (numpy included), makes one `certify` call and one
one-line `--batch` call, then prints "ready".  With BATCH_FILE it goes on
to run that file through `--batch` with default flags, writing the output
to OUTPUT_FILE, and prints its own peak RSS in MiB and the batch's exit
code.
"""

import io
import resource
import sys

sys.path.insert(0, sys.argv[1])

from quartic_certify import certify, cli  # noqa: E402

certify(1, 0, 0, 1, 1)
if cli.main(["--batch", sys.argv[2]], stdout=io.StringIO()) not in (0, 70):
    sys.exit("probe: one-line batch failed")
print("ready", flush=True)

if len(sys.argv) > 3:
    with open(sys.argv[4], "w", encoding="utf-8") as sink:
        code = cli.main(["--batch", sys.argv[3]], stdout=sink)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, code, flush=True)
