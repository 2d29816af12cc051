#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload once per seed and
reports, for each end-to-end metric, the median and the inter-quartile
spread as a share of the median, against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload paper --seconds 30 --seeds 1 2 3 4 5 [--sets 2]

A spread above a third of the bound is flagged (`setup_s` is exempt: its
spread is not judged, only its median). With `--sets 2` the seeds run
twice and the second set's median must not be worse than the first's by
more than the bound, which is how a change is judged against its parent.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def run_set(bench, args):
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
        result = json.loads(last)
        ok = result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={ok} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [run_set(bench, args) for _ in range(args.sets)]
    flagged = False
    for m in bench["end_to_end"]:
        for i, values in enumerate(sets):
            xs = values[m["name"]]
            sp = stats.spread(xs) if len(xs) >= 2 else 0.0
            flag = m["name"] != "setup_s" and sp > m["bound"] / 3
            if i and stats.regressed(sets[0][m["name"]], xs, m["bound"], m["better"]):
                flag = True
                print(f"{m['name']}: set {i + 1} regressed against set 1")
            flagged |= flag
            print(f"{m['name']:<12} set {i + 1} median {statistics.median(xs):<12.6g} "
                  f"spread {sp:6.2%} bound {m['bound']:.0%}{'  <-- flagged' if flag else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
