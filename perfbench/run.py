#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ovlsim.

    python3 perfbench/run.py --workload {paper,tune,serve} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the repository root. Builds `ovlsim` and the in-process harness
(`perfbench/harness`) into `$CARGO_TARGET_DIR` (default `.bench_build`),
then:

* `--trace 0` times the workload through the real `ovlsim` binary for
  about S seconds and prints the end-to-end metrics;
* `--trace 1` makes the traced run of every workload and prints the
  per-layer metrics (named `<workload>.<layer>.<stat>`).

Every output is checked; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. METRICS.md describes each
metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import batch
import procs
import serve
import spans

WORKLOADS = ["paper", "tune", "serve"]
DEFAULT_SEED = 7

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
}

# Per-layer statistics reported, per workload: (layer, [stats]). On
# `paper` and `tune` the call and record counts are the campaign runner's
# own asks, so a change to the runner moves them. On `serve` the harness
# asks once per request, so those counts follow from the request mix and
# only times and rates are reported.
CAMPAIGN_LAYERS = [
    ("tracer.trace", ["calls", "records", "busy_s"]),
    ("tracer.transform", ["calls", "records", "busy_s"]),
    ("core.index", ["calls", "records", "busy_s"]),
    ("core.compile", ["calls", "records", "busy_s"]),
    ("lab.campaign", ["wall_s"]),
    ("lab.report", ["busy_s"]),
    ("dimemas.replay", ["records", "busy_s", "records_per_s"]),
]
LAYER_STATS = {
    "paper": CAMPAIGN_LAYERS,
    "tune": CAMPAIGN_LAYERS,
    "serve": [
        ("dimemas.replay", ["busy_s", "records_per_s"]),
        ("dimemas.parse", ["busy_s", "bytes_per_s"]),
        ("core.codec.decode", ["busy_s", "bytes_per_s"]),
        ("core.index", ["busy_s"]),
        ("core.compile", ["busy_s"]),
        ("lab.attribution", ["busy_s", "records_per_s"]),
        ("lab.sweep", ["busy_s", "records_per_s"]),
        ("lab.report", ["busy_s"]),
        ("session.request", ["busy_s"]),
    ],
}
STAT_UNITS = {
    "calls": "count", "records": "count", "busy_s": "s", "wall_s": "s",
    "covered_s": "s", "records_per_s": "1/s", "bytes_per_s": "B/s",
}
# Store shelves whose builds and hits `paper` and `tune` report.
CAMPAIGN_SHELVES = ("traces", "indexes", "programs")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Context:
    def __init__(self, args):
        self.root = Path(__file__).resolve().parent.parent
        self.seed = args.seed
        self.smoke = args.smoke
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["OVLSIM_THREADS"] = str(self.threads)
        target = Path(self.env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else self.root / target
        self.ovlsim = self.target / "release" / "ovlsim"
        self.harness = self.target / "release" / "perfbench-harness"
        self.work = self.root / ".bench_work" / f"{args.workload}-{os.getpid()}"
        # Passes per run and set-ups per run: medians over several damp the
        # noise of a shared host.
        self.min_passes = 1 if args.smoke else 3


def build(ctx):
    """Builds both programs from source; False when the sources are absent
    or do not compile."""
    if not (ctx.root / "Cargo.toml").is_file():
        log("perfbench: no Cargo.toml at the repository root; nothing to build")
        return False
    for extra in (["--bin", "ovlsim"], ["--manifest-path", "perfbench/harness/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--locked"] + extra
        done = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: `{' '.join(cmd)}` failed")
            return False
    return True


def source_digest(root):
    """Identifies the code measured when git is not available: a digest of
    every source file the build reads."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("src", "crates", "vendor"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def host(ctx):
    git = subprocess.run(
        ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ctx.root, capture_output=True, text=True
    )
    lines = git.stdout.split()
    # Only this repository's own commit names the code; a checkout without
    # git (or inside some other repository) gets a digest of its sources.
    own = git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ctx.root
    version = procs.run([str(ctx.ovlsim), "--version"], ctx.root, ctx.env, 30.0)
    return {
        "nproc": ctx.threads,
        "OVLSIM_THREADS": ctx.env["OVLSIM_THREADS"],
        "commit": lines[1] if own else source_digest(ctx.root),
        "ovlsim_version": version.out.decode().strip(),
    }


def make(ctx, name):
    return serve.Serve(ctx, log) if name == "serve" else batch.Batch(ctx, name)


def layer_metrics(name, traced):
    """Per-layer metrics of one workload's traced run."""
    per_run = []
    counts = []
    for info, rows in traced["runs"]:
        first, *rest = traced["roots"]
        layers, wall, covered = spans.layers(rows, first)
        for root in rest:
            layers.update(spans.layers(rows, root)[0])
        values = {"trace.wall_s": wall, "trace.covered_s": covered}
        # Every count is deterministic, reported or not.
        deterministic = {"cache": info["cache"], "disk": info["disk"]}
        for layer, st in layers.items():
            deterministic[f"{layer}.calls"] = st["calls"]
            deterministic[f"{layer}.work"] = st["work"]
        for layer, keys in LAYER_STATS[name]:
            st = layers.get(layer, {"calls": 0, "work": 0, "busy_s": 0.0, "wall_s": 0.0})
            for k in keys:
                if k.endswith("_per_s"):
                    values[f"{layer}.{k}"] = st["work"] / st["busy_s"] if st["busy_s"] else 0.0
                elif k in ("busy_s", "wall_s", "calls"):
                    values[f"{layer}.{k}"] = st[k]
                else:
                    values[f"{layer}.{k}"] = st["work"]
        per_run.append(values)
        counts.append(deterministic)
    problems = list(traced["problems"])
    if any(c != counts[0] for c in counts):
        problems.append(f"{name}: deterministic counters differ between traced passes")
    out = {}
    for key in per_run[0]:
        unit = STAT_UNITS[key.rsplit(".", 1)[1]]
        # Counts repeat exactly (checked above); times are medians.
        value = per_run[0][key] if unit == "count" else statistics.median(r[key] for r in per_run)
        out[f"{name}.{key}"] = (value, unit)
    wall = out[f"{name}.trace.wall_s"][0]
    covered = out[f"{name}.trace.covered_s"][0]
    e2e, untraced = traced["e2e_wall_s"], traced["untraced_wall_s"]
    out[f"{name}.trace.e2e_wall_s"] = (e2e, "s")
    out[f"{name}.trace.untraced_wall_s"] = (untraced, "s")
    out[f"{name}.trace.covered_share"] = (covered / e2e, "ratio")
    out[f"{name}.trace.overhead_ratio"] = (wall / untraced, "ratio")
    # The differences are reported but are no metrics: either may be
    # negative when host noise exceeds them.
    print(f"{name}: uncovered {e2e - covered:.4f} s of the untraced wall {e2e:.4f} s; "
          f"tracing overhead {wall - untraced:.4f} s")
    if name != "serve":
        c = counts[0]["cache"]
        for shelf in CAMPAIGN_SHELVES:
            out[f"{name}.session.store.{shelf}.hits"] = (c[shelf]["hits"], "count")
            out[f"{name}.session.store.{shelf}.builds"] = (c[shelf]["builds"], "count")
        out[f"{name}.session.store.bundles.builds"] = (c["bundles"]["builds"], "count")
    for key, value in traced.get("extra", {}).items():
        out[f"{name}.{key}"] = value
    return out, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args()
    ctx = Context(args)
    if not build(ctx):
        return 2
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        info = host(ctx)
        print("host " + json.dumps(info, sort_keys=True))
        if args.trace == 0:
            res = make(ctx, args.workload).measure(args.seconds, log)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in res["metrics"].items()}
            attempted, failed = res["attempted"], res["failed"]
        else:
            metrics, attempted, failed = {}, 0, 0
            order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
            for name in order:
                traced = make(ctx, name).traced(log)
                layer, problems = layer_metrics(name, traced)
                metrics.update(layer)
                attempted += traced["attempted"]
                failed += min(len(problems), traced["attempted"])
                for p in problems:
                    log(p)
            metrics = dict(sorted(metrics.items()))
        print(f"failed_frac {failed / attempted} ratio ({failed} of {attempted} operations)")
        for key, (value, unit) in metrics.items():
            print(f"{key} {value} {unit}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        if args.trace == 1:
            kept = ctx.root / ".bench_work" / "spans"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir(parents=True)
            for f in ctx.work.glob("spans-*.json"):
                shutil.move(str(f), str(kept / f.name))
        shutil.rmtree(ctx.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
