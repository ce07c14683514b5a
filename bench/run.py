"""Benchmark of quartic-certify: seeded batch workloads, checked outputs.

    python3 bench/run.py --workload mixed --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  The workload's seeded corpus is written under `bench/.work/`, and
the shipped entry points are driven from this one process and thread, a
closed loop with one client:

* `quartic_certify.cli.main(["--batch", FILE, ...])` on blocks of 20 forms
  from the start of the corpus, in three modes (default flags;
  --no-crosscheck; --no-crosscheck --no-case),
* `quartic_certify.certify(e4, e3, e2, e1, e0)` on every form.

The corpus is swept in rounds until `--seconds` have passed, each round
visiting every block in every mode and every form with certify().  The
output stream given to cli.main notes when each JSON line is written, so a
batch call splits into one time per line.  Each line's time is the fastest
of its rounds, and a form's certify() latency the fastest of its calls,
timed with the cyclic garbage collector paused as timeit does.
The machine this was tuned on is shared, and its speed varies in bursts;
short units repeated across the whole run find its quiet moments, which
long units and single passes do not.

With `--trace 0` the end-to-end metrics are printed.  Set-up time comes
from fresh child interpreters (probe.py), the last of which also runs the
whole corpus as one default-mode batch for peak RSS and fail_rate.  With
`--trace 1` the batch blocks run in default mode alternately untraced and
with the span wrappers of spans.py installed, giving per-layer metrics per
form.  checker.py checks every output of the first round and of the child's
batch; later rounds must repeat them exactly.  The last line of standard
output is one JSON object; the exit code is nonzero if any output is wrong.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLOCK = 20  # forms per timed --batch call
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 150

# corpus size per workload in groups of corpus.UNIT forms: (forms timed in
# batch mode, forms timed with certify(), whole corpus; each a prefix of the
# next).  In a 50 s run on a 2.1 GHz Xeon core this gives 15-20 rounds, so
# each unit has that many repeats.  certify() sees more forms, because its
# tail percentile rests on them.  fail_rate and peak RSS come from one
# untimed batch of the whole corpus, large enough to hold fail_rate steady.
UNITS = {"mixed": (15, 45, 75), "semidefinite": (30, 95, 95)}

MODES = {
    "full": [],
    "nocheck": ["--no-crosscheck"],
    "verdict": ["--no-crosscheck", "--no-case"],
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_full_forms_per_s": "forms/s",
    "batch_nocheck_forms_per_s": "forms/s",
    "batch_verdict_forms_per_s": "forms/s",
    "certify_p50_us": "us",
    "certify_tail_us": "us",
    "agree_rate": "share",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric, _, stat, _ in spans.LAYER_METRICS:
        units[metric] = "calls" if stat == "calls" else "us"
    units["trace_overhead"] = "ratio"
    return units


class Library:
    """The package under test, imported from the checkout's src/ directory."""

    def __init__(self) -> None:
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import quartic_certify
        from quartic_certify import classifier, cli, positivity

        if src not in Path(quartic_certify.__file__).resolve().parents:
            raise ImportError(f"quartic_certify was imported from {quartic_certify.__file__}")

        self.certify = quartic_certify.certify
        self.cli = cli
        self.modules = {"cli": cli, "positivity": positivity, "classifier": classifier}


class Workspace:
    """The corpus of one run and the files written for it."""

    def __init__(self, workload: str, seed: int, units: tuple[int, int, int], directory: Path):
        batch_units, certify_units, all_units = units
        self.forms = corpus.make_corpus(workload, seed, all_units)
        self.certified = certify_units * corpus.UNIT  # forms timed with certify()
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.dir = directory
        self.blocks = []  # (path, first form index, form count)
        for b, start in enumerate(range(0, batch_units * corpus.UNIT, BLOCK)):
            path = directory / f"block{b:04d}.txt"
            corpus.write_batch(self.forms[start:start + BLOCK], path)
            self.blocks.append((path, start, BLOCK))
        # certify() forms are swept in as many chunks as there are blocks
        step = math.ceil(self.certified / len(self.blocks))
        self.chunks = [range(i, min(i + step, self.certified))
                       for i in range(0, self.certified, step)]
        self.all_forms = directory / "corpus.txt"
        corpus.write_batch(self.forms, self.all_forms)
        self.full_output = directory / "corpus.out.jsonl"
        self.one_line = directory / "one.txt"
        corpus.write_batch(self.forms[:1], self.one_line)
        corpus.write_labels(self.forms, directory / "labels.json")

    @property
    def batch_forms(self) -> int:
        return sum(count for _, _, count in self.blocks)


class Outputs:
    """First-round output of every timed unit, and how later rounds compared."""

    def __init__(self) -> None:
        self.first: dict[tuple[str, int], tuple[str, int]] = {}
        self.runs: dict[tuple[str, int], int] = {}
        self.mismatched_forms = 0

    def record(self, key: tuple[str, int], output, forms: int) -> None:
        self.runs[key] = self.runs.get(key, 0) + 1
        if key not in self.first:
            self.first[key] = output
        elif self.first[key] != output:
            self.mismatched_forms += forms

    def attempted(self) -> int:
        return sum(runs * (BLOCK if key[0] in MODES else 1) for key, runs in self.runs.items())


class LineClock(io.StringIO):
    """Output stream for cli.main that notes when each output line ends."""

    def __init__(self) -> None:
        super().__init__()
        self.marks: list[float] = []

    def write(self, text: str) -> int:
        written = super().write(text)
        if text.endswith("\n"):
            self.marks.append(time.perf_counter())
        return written


def run_batch(cli, path: Path, flags: list[str]) -> tuple[list[float], str, int]:
    """One --batch call; returns its start, the time each output line ended
    and its end, then the output and the exit code."""
    out = LineClock()
    start = time.perf_counter()
    code = cli.main(["--batch", str(path), *flags], stdout=out)
    return [start, *out.marks, time.perf_counter()], out.getvalue(), code


def durations(marks: list[float]) -> list[float]:
    """Time to each output line from the previous one (from the start for the
    first line; the last is from the summary line to the return)."""
    return [b - a for a, b in zip(marks, marks[1:])]


def fastest(best: list[float] | None, times: list[float]) -> list[float]:
    """Per-line fastest times over repeats."""
    if best is None:
        return times
    return [min(a, b) for a, b in zip(best, times)]


class Sweep:
    """Rounds over the corpus until `seconds` have passed, at least one whole.

    Each round moves this process to the next CPU it may use.  On a shared
    machine one CPU is often slow for seconds while the other is not, and
    a line's fastest round then comes from whichever was quick.  In 16
    interleaved pairs of short runs on a busy 2-vCPU VM, rotation cut the
    quartile spread of batch throughput from 33% to 21%.
    """

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.rounds = 0

    def __iter__(self):
        allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        try:
            while self.rounds == 0 or time.perf_counter() < self.deadline:
                if len(allowed) > 1:
                    os.sched_setaffinity(0, {allowed[self.rounds % len(allowed)]})
                yield self.rounds
                self.rounds += 1
        finally:
            if len(allowed) > 1:
                os.sched_setaffinity(0, allowed)

    def over(self) -> bool:
        """Whether to stop within the current round."""
        return self.rounds > 0 and time.perf_counter() >= self.deadline


def measure_end_to_end(lib, ws: Workspace, seconds: float, outputs: Outputs) -> dict:
    """Fastest time per output line of each (mode, block), and fastest
    certify() latency per form."""
    certify, cli = lib.certify, lib.cli
    best: dict[str, list] = {mode: [None] * len(ws.blocks) for mode in MODES}
    latency = [math.inf] * ws.certified
    clock = time.perf_counter
    sweep = Sweep(seconds)
    for _ in sweep:
        for b, (path, _, count) in enumerate(ws.blocks):
            if sweep.over():
                break
            for mode, flags in MODES.items():
                marks, text, code = run_batch(cli, path, flags)
                best[mode][b] = fastest(best[mode][b], durations(marks))
                outputs.record((mode, b), (text, code), count)
            # The cyclic GC is off while certify() is timed, as in timeit.  A
            # collection comes at a fixed allocation count, so it can land on
            # the same forms in every round, and then the fastest call does
            # not shed it: the p99 of one seed moved by 45% with its phase.
            gc.disable()
            try:
                for i in ws.chunks[b] if b < len(ws.chunks) else ():
                    coeffs = ws.forms[i].coeffs
                    start = clock()
                    _, verdict = certify(*coeffs)
                    elapsed = clock() - start
                    latency[i] = min(latency[i], elapsed)
                    outputs.record(("certify", i), verdict.classification.value, 1)
            finally:
                gc.enable()
            gc.collect()
    totals = {mode: sum(sum(times) for times in per_block) for mode, per_block in best.items()}
    return {"batch_s": totals, "latency": latency, "rounds": sweep.rounds}


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50.0


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure_setup(ws: Workspace) -> tuple[list[float], float, int]:
    """Fresh interpreter to first verdict, SETUP_PROBES times.  The last probe
    goes on to run the whole corpus as one default-mode batch, writing
    ws.full_output; returns the set-up times, that probe's peak RSS in MiB
    and the batch's exit code."""
    probe = [sys.executable, str(HERE / "probe.py"), str(ROOT / "src"), str(ws.one_line)]
    times, rss, batch_code = [], math.nan, -1
    for i in range(SETUP_PROBES):
        last = i == SETUP_PROBES - 1
        extra = [str(ws.all_forms), str(ws.full_output)] if last else []
        start = time.perf_counter()
        with subprocess.Popen(probe + extra, stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                times.append(time.perf_counter() - start)
                rest = proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        if last:
            rss, batch_code = float(rest.split()[0]), int(rest.split()[1])
    return times, rss, batch_code


def measure_layers(lib, ws: Workspace, seconds: float, outputs: Outputs) -> dict:
    """Alternate untraced and traced default-mode runs of every block.

    Spans are grouped by the output line being worked on when they
    started; each (block, line) keeps its fastest round per metric."""
    cli = lib.cli
    tracer = spans.Tracer()
    untraced: list = [None] * len(ws.blocks)
    traced: list = [None] * len(ws.blocks)
    best: dict[tuple[int, int], dict[str, float]] = {}
    first_round: list[list] = []
    counts: dict[str, float] = {}
    sweep = Sweep(seconds)
    for rounds in sweep:
        for b, (path, _, count) in enumerate(ws.blocks):
            if sweep.over():
                break
            marks, text, code = run_batch(cli, path, MODES["full"])
            untraced[b] = fastest(untraced[b], durations(marks))
            outputs.record(("full", b), (text, code), count)
            with spans.installed(tracer, lib.modules):
                marks, text, code = run_batch(cli, path, MODES["full"])
            traced[b] = fastest(traced[b], durations(marks))
            outputs.record(("full", b), (text, code), count)
            block_spans = tracer.take()
            ends = marks[1:]
            by_line = spans.layer_totals(block_spans, lambda s: bisect.bisect(ends, s[3]))
            for line, totals in by_line.items():
                kept = best.setdefault((b, line), {})
                for metric, value in totals.items():
                    kept[metric] = min(value, kept.get(metric, math.inf))
                    if rounds == 0:
                        counts[metric] = counts.get(metric, 0) + value
            if rounds == 0:
                first_round += block_spans
    spans.Tracer.dump(first_round, ws.dir / "spans.json")

    n = ws.batch_forms
    metrics = {}
    for metric, _, stat, _ in spans.LAYER_METRICS:
        if stat == "calls":  # exact: the first round ran every block once
            metrics[metric] = counts.get(metric, 0) / n
            continue
        total = 1e6 * sum(kept.get(metric, 0.0) for kept in best.values())
        if stat == "us_per_call":
            calls = counts.get(metric.replace("us_per_call", "calls_per_form"), 0)
            metrics[metric] = total / calls if calls else 0.0
        else:
            metrics[metric] = total / n
    metrics["trace_overhead"] = sum(map(sum, traced)) / sum(map(sum, untraced))
    return {"metrics": metrics, "rounds": sweep.rounds}


class Check:
    """Tally of output lines checked by checker.py."""

    def __init__(self, ws: Workspace) -> None:
        self.ws = ws
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[int, str] = {}  # form index -> verified default-mode verdict
        self.disagreeing: dict[str, int] = {}

    def problem(self, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(text)

    def batch_output(self, label: str, text: str, code: int, start: int, count: int,
                     repeats: int = 1, tally: bool = False) -> None:
        """Check one --batch output for forms start .. start + count - 1; with
        `tally`, count its disagreeing lines per stratum."""
        try:
            lines = [json.loads(line) for line in text.splitlines()]
        except json.JSONDecodeError as exc:
            lines = [exc]
        if len(lines) != count + 1 or not isinstance(lines[-1], dict) or "summary" not in lines[-1]:
            self.failed += count * repeats
            self.problem(f"{label}: {len(lines)} output lines for {count} forms")
            return
        any_disagreement = False
        for i, out in enumerate(lines[:-1], start):
            form = self.ws.forms[i]
            issues = checker.check_line(out, form.coeffs, form.expected)
            verdict = out.get("verdict")
            if self.verdicts.setdefault(i, verdict) != verdict:
                issues.append(f"verdict {verdict}, default mode gave {self.verdicts[i]}")
            if checker.disagrees(out):
                any_disagreement = True
                if tally:
                    self.disagreeing[form.stratum] = self.disagreeing.get(form.stratum, 0) + 1
            if issues:
                self.failed += repeats
                self.problem(f"{label}, line {i - start + 1} ({form.stratum}): {'; '.join(issues)}")
        expected_code = 70 if any_disagreement else 0
        if code != expected_code:
            self.failed += count * repeats
            self.problem(f"{label}: exit code {code}, expected {expected_code}")

    def timed_outputs(self, outputs: Outputs) -> None:
        for key in sorted(k for k in outputs.first if k[0] in MODES):
            (text, code), (mode, b) = outputs.first[key], key
            _, start, count = self.ws.blocks[b]
            self.batch_output(f"{mode} block {b}", text, code, start, count, outputs.runs[key])
        for (kind, i), verdict in outputs.first.items():
            if kind == "certify" and verdict != self.verdicts.get(i):
                self.failed += outputs.runs[(kind, i)]
                self.problem(f"certify() line {i + 1}: {verdict}, batch gave {self.verdicts.get(i)}")
        if outputs.mismatched_forms:
            self.failed += outputs.mismatched_forms
            self.problem(f"{outputs.mismatched_forms} forms gave different output on a repeat")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}" + (f"    # {note}" if note else ""))


def run(workload: str, seed: int, seconds: float, trace: int,
        units: tuple[int, int, int], work: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    lib = Library()
    ws = Workspace(workload, seed, units, work)
    outputs = Outputs()
    check = Check(ws)
    print(f"# workload {workload}, seed {seed}: {len(ws.forms)} forms, the first "
          f"{ws.certified} timed with certify(), the first {ws.batch_forms} of those "
          f"also in {len(ws.blocks)} batch blocks; strata per "
          f"{corpus.UNIT} {json.dumps(corpus.strata_counts(ws.forms[:corpus.UNIT]))}")
    if trace:
        layers = measure_layers(lib, ws, seconds, outputs)
        check.timed_outputs(outputs)
        print(f"# traced run: {layers['rounds']} rounds; spans of the first in "
              f"{os.path.relpath(ws.dir / 'spans.json', ROOT)}")
        units_of = per_layer_units()
        values = layers["metrics"]
        notes = {}
    else:
        setup_times, rss, batch_code = measure_setup(ws)
        check.batch_output("corpus", ws.full_output.read_text(encoding="utf-8"),
                           batch_code, 0, len(ws.forms), tally=True)
        e2e = measure_end_to_end(lib, ws, seconds, outputs)
        check.timed_outputs(outputs)
        n, nc, nb = len(ws.forms), ws.certified, ws.batch_forms
        p = tail_percentile(nc)
        fails = sum(check.disagreeing.values())
        units_of = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setup_times),
            "batch_full_forms_per_s": nb / e2e["batch_s"]["full"],
            "batch_nocheck_forms_per_s": nb / e2e["batch_s"]["nocheck"],
            "batch_verdict_forms_per_s": nb / e2e["batch_s"]["verdict"],
            "certify_p50_us": 1e6 * statistics.median(e2e["latency"]),
            "certify_tail_us": 1e6 * nearest_rank(e2e["latency"], p),
            "agree_rate": 1 - fails / n,
            "peak_rss_mib": rss,
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh interpreters",
            "batch_full_forms_per_s": f"{nb} forms, fastest of {e2e['rounds']} rounds per line",
            "certify_p50_us": f"{nc} forms, fastest call of each",
            "certify_tail_us": f"p{p:g} of {nc} forms, {nc - math.ceil(p / 100 * nc)} beyond",
            "agree_rate": f"fail_rate = {fails}/{n} = {fails / n:.4f}, "
                          f"by stratum {json.dumps(check.disagreeing)}",
            "peak_rss_mib": f"one --batch of all {n} forms",
        }
    metrics = {}
    for name, value in values.items():
        emit(name, value, units_of[name], notes.get(name, ""))
        metrics[name] = {"value": value, "unit": units_of[name]}
    for problem in check.problems:
        print(f"# WRONG OUTPUT: {problem}")
    attempted = outputs.attempted() + (0 if trace else len(ws.forms))  # + the probe's batch
    return {"correct": check.failed == 0, "attempted": attempted,
            "failed": check.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     UNITS[args.workload], HERE / ".work" / f"{args.workload}-{args.seed}")
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
