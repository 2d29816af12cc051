#!/usr/bin/env python3
"""Sanity- and regression-check a perf_snapshot JSON file.

Usage:
    python3 ci/check_snapshot.py BENCH_ci.json BENCH_baseline.json [BENCH_trajectory.md]

Three layers of checking:

1. Structural sanity (always): every ``*speedup*`` field and every
   ``scaling_*`` field except ``scaling_note`` must be a finite positive
   number, and at least MIN_SPEEDUP_FIELDS of them must exist — a schema
   change that silently drops the speedup fields should fail loudly, not
   pass vacuously.

2. Absolute floors: engine-vs-engine speedups that the design guarantees
   must clear a floor even on the noisiest CI runner. Today that is the
   compiled executor on the 196-rank contention corpus, measured against
   the naive reference engine; CI gates at >= 6x. Why 6: on two 2-CPU
   containers the corpus read compiled/naive 7.5-10.9x (median 9.6, seven
   runs) and 8.4-10.8x (median 9.4, six runs), while an event-by-event
   executor with full-FIFO rescans (no node-local pumps, what the deleted
   prepared engine ran at) read 1.7-2.0x and 1.2-1.7x naive. A collapse
   of the node-local pumps therefore lands far below 6 and fails. The
   quiescent-window fast-forwarding the executor once ran on top of them
   played no part in the ratio: counted on this corpus, it retired no
   burst and served no event pop, and with it deleted the ratio read
   9.6-14.3x (median 11.0, eight runs on a 2-CPU container) against
   7.2-15.0x (median 10.3, fifteen runs) with it. The floor is
   deliberately not a literal translation of the former ">= 4x the
   event-by-event executor" gate:
   4 x (1.2-2.0) = 4.8-8.1x naive moves with that executor's own noise
   and reaches into the run-to-run spread of the compiled/naive ratio,
   so it would flake.

3. Baseline comparison (required): each speedup field present in *both*
   snapshots must not collapse below ``TOLERANCE * baseline``. The
   tolerance is deliberately generous — CI runners are noisy, shared, and
   differently-provisioned, so this gate only catches *gross* regressions
   (an engine accidentally falling back to a slow path), not few-percent
   drift. Absolute records/sec fields are never compared: they track host
   speed, not code quality. A missing or unparsable baseline is a hard
   failure: a gate that cannot load its reference is not a gate.

When a third path is given, a compact markdown table of every speedup
field (baseline vs. this run) is written there, so the uploaded CI
artifact carries the perf trajectory alongside the raw JSON. The same
file then lists the numbers every committed ``BENCH_pr*.json`` at the
repository root rests its claim on: one row per workload and metric,
parent vs. change. Those rows are rendered only, never gated.

Exit status: 0 ok, 1 check failed, 2 usage error.
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

MIN_SPEEDUP_FIELDS = 4
# A speedup may shrink to a third of its recorded baseline before we call
# it a regression. Speedups are ratios of two measurements on the same
# host, so they are far more stable than raw throughput — but 3x headroom
# still absorbs the worst CI-runner noise observed in practice.
TOLERANCE = 1.0 / 3.0

# Absolute floors, independent of the baseline: these ratios are design
# guarantees, so even a stale baseline must not let them slide.
FLOORS = {
    "replay_contention.speedup_vs_naive": 6.0,
}


def walk(prefix, node, out):
    """Collects {dotted.path: value} for every checkable numeric field."""
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            walk(path, value, out)
        elif "speedup" in key or (key.startswith("scaling_") and key != "scaling_note"):
            out[path] = value


def check_sanity(snap):
    fields = {}
    walk("", snap, fields)
    failures = []
    for path, value in sorted(fields.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failures.append(f"{path} is not numeric: {value!r}")
        elif not (math.isfinite(value) and value > 0):
            failures.append(f"{path} = {value} (want finite and > 0)")
    if len(fields) < MIN_SPEEDUP_FIELDS:
        failures.append(
            f"only {len(fields)} speedup/scaling fields found "
            f"(want >= {MIN_SPEEDUP_FIELDS}); snapshot schema changed?"
        )
    return fields, failures


def check_floors(fields):
    failures = []
    for path, floor in sorted(FLOORS.items()):
        value = fields.get(path)
        if value is None:
            failures.append(f"{path} is missing but has a hard floor of {floor}")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if value < floor:
                failures.append(f"{path} = {value} is below the hard CI floor {floor}")
    return failures


def check_against_baseline(fields, baseline):
    base_fields = {}
    walk("", baseline, base_fields)
    failures = []
    compared = 0
    for path, base_value in sorted(base_fields.items()):
        if "speedup" not in path.rsplit(".", 1)[-1]:
            continue  # scaling_* wall-clock ratios are host-dependent
        if path not in fields:
            continue  # schema may gain/lose sections between PRs
        value = fields[path]
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # already reported by check_sanity; < would TypeError

        compared += 1
        floor = base_value * TOLERANCE
        if value < floor:
            failures.append(
                f"{path} = {value} is a gross regression vs baseline "
                f"{base_value} (floor {floor:.2f})"
            )
    if compared == 0:
        # A gate that compares nothing is not a gate: the baseline's
        # schema no longer overlaps the snapshot's (or the wrong file was
        # passed) — fail loudly instead of vacuously passing.
        failures.append(
            "no speedup fields overlap between snapshot and baseline; "
            "regenerate BENCH_baseline.json or fix the field names"
        )
    return compared, failures


def write_trajectory(path, fields, base_fields, snap_name, base_name):
    """Writes a markdown table of every speedup field: baseline vs. now."""

    def fmt(value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return f"{value:.2f}"
        return "—"

    rows = []
    for key in sorted(set(fields) | set(base_fields)):
        if "speedup" not in key.rsplit(".", 1)[-1]:
            continue
        now = fields.get(key)
        base = base_fields.get(key)
        if isinstance(now, (int, float)) and isinstance(base, (int, float)) and base:
            ratio = f"{now / base:.2f}x"
        else:
            ratio = "—"
        rows.append(f"| `{key}` | {fmt(base)} | {fmt(now)} | {ratio} |")
    lines = [
        "# Perf trajectory",
        "",
        f"Speedup ratios: committed `{base_name}` vs. this run's `{snap_name}`.",
        "Speedups are same-host measurement pairs, so they are comparable",
        "across runners; absolute records/sec are not, and are omitted.",
        "",
        "| field | baseline | this run | vs baseline |",
        "|---|---:|---:|---:|",
        *rows,
        "",
    ]
    history = pr_history(Path(__file__).resolve().parent.parent)
    lines += history_table(history)
    with open(path, "w") as f:
        f.write("\n".join(lines))
    print(
        f"ok: wrote {len(rows)}-row trajectory table and {len(history)} committed "
        f"perf-claim rows to {path}"
    )


def pr_history(root):
    """Rows `(pr, workload, metric, parent, change)` of every committed
    `BENCH_pr<N>.json` under `root`, in PR order: per workload, the
    medians of its end-to-end metrics over the alternating perfbench
    pairs, then the medians of its per-layer metrics over the traced
    passes of each side."""
    rows = []
    found = []
    for path in root.glob("BENCH_pr*.json"):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)
        if m:
            found.append((int(m.group(1)), path))
    for pr, path in sorted(found):
        for workload, data in json.loads(path.read_text())["workloads"].items():
            pairs = data.get("pairs", [])
            runs = {side: [pair.get(side, {}) for pair in pairs] for side in ("parent", "change")}
            rows += median_rows(pr, workload, runs, len(pairs))
            traced = data.get("traced", {})
            runs = {side: traced.get(side, []) for side in ("parent", "change")}
            rows += median_rows(pr, workload, runs, len(runs["parent"]))
    return rows


def median_rows(pr, workload, runs, count):
    """One row per metric the parent's runs carry: each side's median, or
    None where a side has no value for it."""
    rows = []
    for metric in sorted({k for run in runs["parent"] for k in run}):
        sides = []
        for side in ("parent", "change"):
            values = [run[metric] for run in runs[side] if metric in run]
            sides.append(statistics.median(values) if values else None)
        rows.append((pr, workload, f"{metric} (median of {count})", *sides))
    return rows


def history_table(rows):
    """The markdown lines of `pr_history`'s rows."""

    def fmt(value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return f"{value:.4g}"
        return "—"

    lines = [
        "## Committed perf claims",
        "",
        "Each `BENCH_pr<N>.json` holds the parent and change values a perf",
        "change was measured at, on the host its file names.",
        "",
    ]
    if not rows:
        return lines + ["No `BENCH_pr*.json` is committed.", ""]
    lines += [
        "| PR | workload | metric | parent | change | ratio |",
        "|---:|---|---|---:|---:|---:|",
    ]
    for pr, workload, metric, parent, change in rows:
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (parent, change)
        )
        ratio = f"{change / parent:.3f}" if numeric and parent else "—"
        lines.append(
            f"| {pr} | {workload} | `{metric}` | {fmt(parent)} | {fmt(change)} | {ratio} |"
        )
    return lines + [""]


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        snap = json.load(open(argv[1]))
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load snapshot {argv[1]}: {e}", file=sys.stderr)
        return 1

    fields, failures = check_sanity(snap)
    if not failures:
        print(f"ok: {len(fields)} speedup/scaling fields finite and positive")

    floor_failures = check_floors(fields)
    failures.extend(floor_failures)
    if not floor_failures:
        print(f"ok: {len(FLOORS)} hard engine floor(s) cleared")

    # The baseline is mandatory: silently skipping the regression gate when
    # the file is missing or corrupt would let any collapse through.
    try:
        baseline = json.load(open(argv[2]))
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"cannot load required baseline {argv[2]}: {e}")
        baseline = None

    if baseline is not None:
        compared, base_failures = check_against_baseline(fields, baseline)
        failures.extend(base_failures)
        if not base_failures:
            print(
                f"ok: {compared} speedup fields within {1 / TOLERANCE:.0f}x "
                f"of {argv[2]}"
            )
        if len(argv) == 4:
            base_fields = {}
            walk("", baseline, base_fields)
            write_trajectory(argv[3], fields, base_fields, argv[1], argv[2])

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
