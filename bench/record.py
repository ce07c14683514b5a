"""Run the benchmark over several seeds and record the figures.

    python3 bench/record.py --label baseline --seeds 1-10

For every workload, runs `run.py --trace 0` once per seed and
`run.py --trace 1` for the first seed, then writes
`bench/BENCH_<label>.json`: per end-to-end metric the ten values, their
median, quartiles and quartile spread (IQR over median), and the per-layer
figures of the traced run.  Workloads and run length are those of
BENCHMARK.json.  A change that claims a speedup records one file before and
one after, with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if "#" in line]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help='"1-10" or "1,4,9"')
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)

    record = {"label": args.label, "commit": _commit(), "python": platform.python_version(),
              "machine": platform.processor() or platform.machine(), "cpus": os.cpu_count(),
              "seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            runs.append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: {time.perf_counter() - started:.1f} s", flush=True)
        traced = run_once(workload, seeds[0], 1)
        end_to_end = {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs])
                      for m in SPEC["end_to_end"]}
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
            "notes": runs[0]["notes"] + traced["notes"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for name, s in end_to_end.items():
            print(f"  {name:28s} median {s['median']:12.6g}  spread {s['spread']:.4f}")
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
