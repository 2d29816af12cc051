"""The `paper` and `tune` workloads: cold `ovlsim campaign run` passes of a
generated spec, each report checked byte for byte."""

import json
import re
import statistics
import time

import procs
import stats

SMOKE_EDITS = [
    (r"(?m)^apps .*$", "apps nas-cg sweep3d"),
    (r"(?m)^classes .*$", "classes S"),
    (r"(?m)^bandwidths .*$", "bandwidths list 1e8 1e9"),
    (r"(?m)^tune budget .*$", "tune budget 4"),
]


class Batch:
    def __init__(self, ctx, name):
        self.ctx = ctx
        self.name = name
        # Both specs run as committed, so every report must equal its golden.
        # `tune.campaign` keeps its `tune seed 7`: the tuner's seed decides
        # how many candidates it replays and how dear each is, and every
        # benchmark seed must ask for the same work.
        text = (ctx.root / "examples" / "campaigns" / f"{name}.campaign").read_text()
        if ctx.smoke:
            for pattern, line in SMOKE_EDITS:
                text = re.sub(pattern, line, text)
        self.spec = ctx.work / f"{name}.campaign"
        self.spec.write_text(text)
        golden = ctx.root / "examples" / "campaigns" / "golden" / f"{name}.report.json"
        self.expected = None if ctx.smoke else golden.read_bytes()
        self.out = ctx.work / "out"

    def check(self, report):
        """Problems with one pass's report bytes (empty when correct)."""
        if self.expected is None:
            self.expected = report
        problems = []
        if report != self.expected:
            problems.append(f"{self.name} report differs from the expected bytes")
        if self.name == "tune":
            for row in json.loads(report)["rows"]:
                if row["tuned_ps"] > row["overlapped_ps"]:
                    problems.append(f"tune lost to uniform linear overlap on {row['app']}")
        return problems

    def cli_pass(self):
        """One `ovlsim campaign run`; returns (Finished, problems)."""
        fin = procs.run(
            [str(self.ctx.ovlsim), "campaign", "run", str(self.spec), "--out", str(self.out)],
            self.ctx.root, self.ctx.env, 120.0,
        )
        if not fin.ok:
            return fin, [f"campaign run exited {fin.code}: {fin.err[-400:]!r}"]
        report = (self.out / f"{self.name}.report.json").read_bytes()
        return fin, self.check(report)

    def setup_s(self):
        fin = procs.run(
            [str(self.ctx.harness), "setup", str(self.spec)],
            self.ctx.root, self.ctx.env, 120.0,
        )
        if not fin.ok:
            raise RuntimeError(f"harness setup failed: {fin.err[-400:]!r}")
        return json.loads(fin.out)["setup_s"]

    def measure(self, seconds, log):
        # An untimed first pass fills the page cache with the binary and
        # the goldens; users pay that once, not per campaign.
        fin, problems = self.cli_pass()
        failed = bool(problems)
        setups, walls, rss = [], [], []
        start = time.monotonic()
        while len(walls) < self.ctx.min_passes or time.monotonic() - start < seconds:
            # One set-up per pass, so set-up and pass see the same host noise.
            setups.append(self.setup_s())
            fin, problems = self.cli_pass()
            walls.append(fin.wall_s)
            rss.append(fin.maxrss_mb)
            failed += bool(problems)
            for p in problems:
                log(p)
        # Every pass does identical work, so the slow passes of a run are
        # host noise; a run of 10-20 passes resolves the upper quartile
        # steadily, and no percentile above it with ten samples beyond.
        upper = stats.percentile(walls, 0.75)
        log(f"{self.name}: {len(walls)} passes; walls {[round(w, 3) for w in walls]}")
        return {
            "attempted": len(walls) + 1,
            "failed": failed,
            "metrics": {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss),
                "req_p50_ms": statistics.median(walls) * 1e3,
                "req_p99_ms": upper * 1e3,
            },
        }

    def harness_pass(self, traced):
        report = self.ctx.work / f"inproc-{self.name}.report.json"
        spans_file = self.ctx.work / f"spans-{self.name}-{int(traced)}.json"
        fin = procs.run(
            [str(self.ctx.harness), "campaign", str(self.spec), str(int(traced)),
             str(report), str(spans_file)],
            self.ctx.root, self.ctx.env, 120.0,
        )
        if not fin.ok:
            raise RuntimeError(f"harness campaign failed: {fin.err[-400:]!r}")
        return json.loads(fin.out), report.read_bytes(), spans_file

    def traced(self, log):
        """The traced pass: layer spans of in-process passes, set against
        untraced CLI passes and untraced in-process passes. The first root
        is the campaign, the second its replay phase."""
        problems, walls, untraced, runs = [], [], [], []
        # The three kinds of pass alternate, so all see the same noise.
        for _ in range(2):
            fin, found = self.cli_pass()
            problems += found
            walls.append(fin.wall_s)
            info, report, _ = self.harness_pass(False)
            problems += self.check(report)
            untraced.append(info["wall_s"])
            info, report, spans_file = self.harness_pass(True)
            problems += self.check(report)
            runs.append((info, json.loads(spans_file.read_text())))
        return {
            "e2e_wall_s": statistics.median(walls),
            "untraced_wall_s": statistics.median(untraced),
            "runs": runs,
            "roots": ["bench.campaign", "bench.replay"],
            "problems": problems,
            "attempted": 6,
        }
