#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload em3d --seeds 1-10 [--seconds 20]
        [--trace 0] [--json out.json]

For every metric: the median of the per-seed values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as
a share of the median, next to the metric's bound in BENCHMARK.json.
Runs are sequential, so host timings do not contend with each other.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", args.trace]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        digest = lines[0].split("digests=")[-1] if lines else "?"
        result = json.loads(lines[-1]) if lines else {}
        print(f"seed {seed}: exit {p.returncode} correct={result.get('correct')}"
              f" digest={digest}", file=sys.stderr)
        runs.append({"seed": seed, "exit": p.returncode, "digest": digest,
                     "result": result})
    names = list(runs[0]["result"].get("metrics", {}))
    print(f"{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            sp = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            sp = "       -"
        b = bounds.get(name)
        print(f"{name:28} {med:14.6g} {sp} {b if b is not None else '':>6}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
