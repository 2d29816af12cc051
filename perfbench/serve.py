"""The `serve` workload: a seeded request mix against `ovlsim serve`.

Each pass spawns a fresh server (in the traced run over a fresh
`--cache-dir`), fills its cache with a warm-up (each cached, analyze and
sweep body once), then sends the timed requests from closed-loop clients
and shuts the server down.
Every pass sends the same bodies, so its answers must repeat byte for byte.
"""

import json
import random
import re
import statistics
import threading
import time

import procs
import stats

APPS = ["nas-bt", "nas-cg", "pop", "alya", "specfem", "sweep3d"]
# Closed-loop clients (at most `nproc`). One: a second Python client on a
# two-CPU host contends with the server it measures.
CLIENTS = 1
KINDS = ["replay_cached", "replay_dim", "replay_ovlb", "analyze", "sweep"]
# Generated sources: traced and compiled during the warm-up.
GEN_RANKS, GEN_ITERS = 16, 2
# Inline traces: small enough that parse/decode and compile weigh against
# the replay itself.
INLINE_RANKS, INLINE_ITERS = 4, 2
# Requests of each kind per timed pass, 1000 in all so that p99 has ten
# samples beyond it. There is no record of real traffic to weigh the kinds
# by, so the four request types (cached replay, inline replay, analyze,
# sweep) weigh the same, the inline replays split evenly between `dim`
# text and `ovlb_hex`, and every type cycles through every app.
MIX = {"replay_cached": 250, "replay_dim": 125, "replay_ovlb": 125, "analyze": 250, "sweep": 250}
SMOKE_MIX = {"replay_cached": 4, "replay_dim": 2, "replay_ovlb": 2, "analyze": 4, "sweep": 4}


# Bandwidth of the inline and analyze requests (the CLI's default).
BANDWIDTH = 250000000


def generated(app, mode):
    return {"app": app, "class": "S", "ranks": GEN_RANKS, "iterations": GEN_ITERS, "mode": mode}


class Corpus:
    """The seeded request bodies of one run, plus the answers known ahead."""

    def __init__(self, ctx, log):
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        d = ctx.work / "corpus"
        d.mkdir(parents=True, exist_ok=True)
        mix = SMOKE_MIX if ctx.smoke else MIX
        base = {}
        for app in APPS:
            prefix = d / app
            self.cli(["trace", "gen", app, str(prefix), "S", str(INLINE_RANKS), str(INLINE_ITERS)])
            base[app] = (d / f"{app}.original.dim").read_text()
        self.warm = []  # (kind, body)
        self.timed = []
        self.expected = {}  # body -> answer bytes
        self.first_sight = {}  # body -> check for the first answer seen

        # Bandwidths are fixed: replay cost depends on them, and every seed
        # must ask for the same amount of work. The seed picks the inline
        # traces' contents and the order of the requests.
        cached = [
            {"source": generated(app, "original"), "bandwidth": bw, "latency_us": 5}
            for app in APPS for bw in (100000000, 1000000000)
        ]
        for body in cached:
            self.warm.append(("replay_cached", body))

        # Analyze the generated sources; the CLI analyzes the same trace
        # written out by `trace gen`.
        analyze = []
        for app in APPS:
            bw = BANDWIDTH
            body = {"source": generated(app, "original"), "bandwidth": bw, "latency_us": 5}
            analyze.append(body)
            self.warm.append(("analyze", body))
            prefix, out = d / f"gen-{app}", d / f"analysis-{app}"
            self.cli(["trace", "gen", app, str(prefix), "S", str(GEN_RANKS), str(GEN_ITERS)])
            dim = d / f"gen-{app}.original.dim"
            self.cli(["analyze", str(dim), str(bw), "5", "--out", str(out)])
            name = re.search(r"(?m)^name (\S+)", dim.read_text()).group(1)
            self.expected[self.key(body)] = (out / f"{name}.analysis.json").read_bytes()

        sweeps = [
            {
                "original": generated(app, "original"),
                "overlapped": generated(app, "linear"),
                "bandwidths": [10000000, 100000000, 1000000000, 10000000000],
                "latency_us": 5,
            }
            for app in APPS
        ]
        for body in sweeps:
            self.warm.append(("sweep", body))

        timed = []
        for kind in KINDS:
            for k in range(mix[kind]):
                if kind == "replay_cached":
                    timed.append((kind, cached[k % len(cached)]))
                elif kind == "analyze":
                    timed.append((kind, analyze[k % len(analyze)]))
                elif kind == "sweep":
                    timed.append((kind, sweeps[k % len(sweeps)]))
                else:
                    timed.append((kind, self.inline(d, base, kind, k, rng)))
        rng.shuffle(timed)
        self.timed = timed
        log(f"serve: corpus of {len(self.warm)} warm-up and {len(self.timed)} timed requests")

    def cli(self, args):
        fin = procs.run([str(self.ctx.ovlsim)] + args, self.ctx.root, self.ctx.env, 60.0)
        if not fin.ok:
            raise RuntimeError(f"ovlsim {' '.join(args[:2])} failed: {fin.err[-400:]!r}")

    def inline(self, d, base, kind, k, rng):
        """A trace no other request carries: an app's small trace renamed,
        with its first burst lengthened, as `dim` text or `.ovlb` hex."""
        app = APPS[k % len(APPS)]
        name = f"{app}.{kind}.s{self.ctx.seed}.{k}"
        extra = 1 + rng.randrange(1000)
        text = re.sub(r"(?m)^name .*$", f"name {name}", base[app], count=1)
        text = re.sub(r"(?m)^burst (\d+)$", lambda m: f"burst {int(m.group(1)) + extra}", text, count=1)
        if kind == "replay_dim":
            source = {"dim": text}
        else:
            dim, ovlb = d / f"{name}.dim", d / f"{name}.ovlb"
            dim.write_text(text)
            self.cli(["trace", "convert", str(dim), str(ovlb)])
            source = {"ovlb_hex": ovlb.read_bytes().hex()}
        body = {"source": source, "bandwidth": BANDWIDTH, "latency_us": 5}
        self.first_sight[self.key(body)] = (name, INLINE_RANKS)
        return body

    @staticmethod
    def key(body):
        return json.dumps(body, sort_keys=True)

    def check(self, kind, body, status, answer):
        """Problems with one answer (empty when correct)."""
        if status != 200:
            return [f"{kind}: HTTP {status}: {answer[:200]!r}"]
        key = self.key(body)
        if key not in self.expected:
            problem = self.sanity(kind, body, answer)
            if problem:
                return [problem]
            self.expected[key] = answer
        if answer != self.expected[key]:
            return [f"{kind}: answer differs from an earlier answer to the same body"]
        return []

    def sanity(self, kind, body, answer):
        try:
            j = json.loads(answer)
        except ValueError:
            return f"{kind}: answer is not JSON"
        if kind == "sweep":
            return None if len(j["points"]) == len(body["bandwidths"]) else "sweep: wrong point count"
        if j["total_ps"] <= 0:
            return f"{kind}: non-positive makespan"
        sight = self.first_sight.get(self.key(body))
        if sight and (j["trace"], len(j["rank_finish_ps"])) != sight:
            return f"{kind}: answered for trace {j['trace']} instead of {sight[0]}"
        return None

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for warm, lines in ((True, self.warm), (False, self.timed)):
                for kind, body in lines:
                    route = "/" + kind.split("_")[0]
                    f.write(json.dumps({"route": route, "warm": warm, "body": body}) + "\n")


def send(port, kind, body):
    route = "/" + kind.split("_")[0]
    t = time.perf_counter()
    try:
        status, answer = procs.request(port, "POST", route, json.dumps(body))
    except OSError as e:
        status, answer = 0, str(e).encode()
    return status, answer, time.perf_counter() - t


class Serve:
    def __init__(self, ctx, log):
        self.ctx = ctx
        self.corpus = Corpus(ctx, log)
        self.passes = 0
        self.counters = None

    def one_pass(self, disk):
        """Spawn, warm up, send the timed mix, stop. Returns the pass record.
        With `disk`, the server gets a fresh `--cache-dir`, deleted with the
        work directory when the run ends."""
        cache = self.ctx.work / f"cache-{self.passes}" if disk else None
        self.passes += 1
        problems = []
        t0 = time.perf_counter()
        server = procs.Server(
            str(self.ctx.ovlsim), cache and str(cache), self.ctx.root, self.ctx.env
        )
        try:
            answers = []
            for kind, body in self.corpus.warm:
                status, answer, _ = send(server.port, kind, body)
                problems += self.corpus.check(kind, body, status, answer)
                answers.append(answer)
            setup = time.perf_counter() - t0
            results = [None] * len(self.corpus.timed)
            cursor = iter(range(len(results)))
            lock = threading.Lock()

            def client():
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    results[i] = send(server.port, *self.corpus.timed[i])

            clients = [threading.Thread(target=client) for _ in range(CLIENTS)]
            t1 = time.perf_counter()
            for c in clients:
                c.start()
            for c in clients:
                c.join()
            wall = time.perf_counter() - t1
            _, status_body = procs.request(server.port, "GET", "/status")
            threads_end, vm_hwm = server.proc_status()
        finally:
            fin = server.stop()
        if not fin.ok:
            problems.append(f"serve exited {fin.code}: {fin.err[-400:]!r}")
        for (kind, body), (status, answer, _) in zip(self.corpus.timed, results):
            problems += self.corpus.check(kind, body, status, answer)
            answers.append(answer)
        info = json.loads(status_body)
        counters = {"cache": info["cache"], "disk": info.get("disk")}
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            problems.append(f"serve counters changed between passes: {counters} vs {self.counters}")
        return {
            "setup_s": setup, "wall_s": wall, "rss_mb": fin.maxrss_mb, "results": results,
            "problems": problems, "answers": answers, "counters": counters,
            "threads_end": threads_end, "vm_hwm_mb": vm_hwm,
        }

    def measure(self, seconds, log):
        # The timed passes keep the cache in memory. With `--cache-dir` on
        # the ext4 host (online discard) this benchmark was tuned on, the
        # inline replays' median rose from 1.1 ms (cache on tmpfs) to 1.8 ms,
        # then 2.5 ms in the next run, as earlier runs' deleted cache files
        # were discarded: the disk's history, not the program, set the
        # latency. The traced run keeps the disk cache and its counters.
        passes = []
        start = time.monotonic()
        while len(passes) < self.ctx.min_passes or time.monotonic() - start < seconds:
            passes.append(self.one_pass(disk=False))
        attempted = sum(len(p["results"]) for p in passes)
        failed = 0
        for p in passes:
            failed += len(p["problems"])
            for problem in p["problems"][:5]:
                log(problem)
        # Percentiles over every request of the run: a stall that hits a few
        # requests of one pass moves a pooled p99 less than that pass's own.
        lat = [r[2] for p in passes for r in p["results"]]
        rank, p99 = stats.tail(lat)
        log(f"serve: {len(passes)} passes of {len(self.corpus.timed)} requests, "
            f"p{rank * 100:.1f} of {len(lat)} latencies")
        return {
            "attempted": attempted,
            "failed": min(failed, attempted),
            "metrics": {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(p["setup_s"] for p in passes),
                "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                "req_p50_ms": statistics.median(lat) * 1e3,
                "req_p99_ms": p99 * 1e3,
            },
        }

    def harness_pass(self, corpus_file, traced):
        tag = f"{int(traced)}-{self.passes}"
        self.passes += 1
        cache = self.ctx.work / f"cache-inproc-{tag}"
        answers = self.ctx.work / f"answers-{tag}.json"
        spans_file = self.ctx.work / f"spans-serve-{tag}.json"
        fin = procs.run(
            [str(self.ctx.harness), "serve", str(corpus_file), str(cache), str(int(traced)),
             str(answers), str(spans_file), str(CLIENTS)],
            self.ctx.root, self.ctx.env, 150.0,
        )
        if not fin.ok:
            raise RuntimeError(f"harness serve failed: {fin.err[-400:]!r}")
        return json.loads(fin.out), [a.encode() for a in json.loads(answers.read_text())], spans_file

    def traced(self, log):
        """HTTP passes for the route and process numbers, alternating with
        in-process passes of the same bodies, untraced and traced, so all
        three see the same noise."""
        corpus_file = self.ctx.work / "corpus.jsonl"
        self.corpus.write_jsonl(corpus_file)
        problems, https, untraced, runs = [], [], [], []
        for _ in range(2):
            http = self.one_pass(disk=True)
            problems += http["problems"]
            https.append(http)
            for traced in (False, True):
                info, answers, spans_file = self.harness_pass(corpus_file, traced)
                if answers != http["answers"]:
                    problems.append("in-process answers differ from the server's")
                if traced:
                    runs.append((info, json.loads(spans_file.read_text())))
                else:
                    untraced.append(info["wall_s"])
        extra = {}
        for kind in KINDS:
            mine = [r[2] for http in https
                    for (k, _), r in zip(self.corpus.timed, http["results"]) if k == kind]
            extra[f"session.serve.{kind}.p50_ms"] = (statistics.median(mine) * 1e3, "ms")
        # Counters repeat across passes (checked by `one_pass`).
        for shelf in ("traces", "indexes", "programs"):
            c = http["counters"]["cache"][shelf]
            extra[f"session.store.{shelf}.hits"] = (c["hits"], "count")
            extra[f"session.store.{shelf}.builds"] = (c["builds"], "count")
            total = c["hits"] + c["loads"] + c["builds"]
            extra[f"session.store.{shelf}.hit_ratio"] = (c["hits"] / total if total else 0.0, "ratio")
        # A fresh cache directory per pass: nothing is loaded or quarantined.
        extra["session.disk.stores"] = (http["counters"]["disk"]["stores"], "count")
        extra["session.serve.threads_end"] = (max(h["threads_end"] for h in https), "count")
        extra["session.serve.vm_hwm_mb"] = (statistics.median(h["vm_hwm_mb"] for h in https), "MB")
        return {
            "e2e_wall_s": statistics.median(h["wall_s"] for h in https),
            "untraced_wall_s": statistics.median(untraced),
            "runs": runs,
            "roots": ["bench.pass"],
            "problems": problems,
            "attempted": sum(len(h["results"]) for h in https) + 4,
            "extra": extra,
        }
