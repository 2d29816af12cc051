"""Per-layer numbers from the spans the in-process harness records.

A span row is `[name, start_ns, end_ns, id, parent, thread, work]`. Names
starting with `bench.` are the benchmark's own roots, not layers. A coordinator
is a layer that mostly waits on the layers it calls, often on other
threads: it owns only the instants when no other layer runs.
"""

from collections import defaultdict

# `run_campaign_with`: its self time is the per-point loop, whose workers
# the spans of the tuner's pipeline calls run on.
COORDINATORS = ("lab.campaign",)


def self_segments(spans):
    """Splits every thread's timeline into `(start, end, span)` pieces, each
    owned by the innermost span open on that thread at the time."""
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s[5]].append(s)
    pieces = []
    for rows in by_thread.values():
        # Outer spans first when two start together.
        rows.sort(key=lambda s: (s[1], -s[2]))
        stack = []  # [span, resume time]
        for s in rows:
            while stack and stack[-1][0][2] <= s[1]:
                close(stack, pieces)
            if stack:
                top = stack[-1]
                if s[1] > top[1]:
                    pieces.append((top[1], s[1], top[0]))
            stack.append([s, s[1]])
            # `s` runs until it or a child ends; the parent resumes after.
        while stack:
            close(stack, pieces)
    return pieces


def close(stack, pieces):
    span, resume = stack.pop()
    if span[2] > resume:
        pieces.append((resume, span[2], span))
    if stack:
        stack[-1][1] = max(stack[-1][1], span[2])


def wall_shares(pieces):
    """Wall time per span name. At each instant the layer pieces running
    share that instant equally, so the layer shares add up to the wall time
    some layer was running. A coordinator gets only the instants when no other
    layer runs, and a `bench.` root only those when no layer or coordinator
    runs: while its workers are busy it is waiting on them."""
    events = []
    for start, end, span in pieces:
        events.append((start, 1, span[0]))
        events.append((end, -1, span[0]))
    events.sort(key=lambda e: (e[0], e[1]))
    active = defaultdict(int)
    shares = defaultdict(float)
    last = None
    for t, kind, name in events:
        if last is not None and t > last:
            running = {n: k for n, k in active.items() if k}
            layer = {n: k for n, k in running.items()
                     if not n.startswith("bench.") and n not in COORDINATORS}
            coordinator = {n: k for n, k in running.items() if n in COORDINATORS}
            owners = layer or coordinator or running
            total = sum(owners.values())
            for n, k in owners.items():
                shares[n] += (t - last) * k / total / 1e9
        active[name] += kind
        last = t
    return dict(shares)


def root_of(spans):
    """Maps each span id to the id of its root span."""
    parent = {s[3]: s[4] for s in spans}
    roots = {}
    for sid in parent:
        r = sid
        while parent.get(r, 0):
            r = parent[r]
        roots[sid] = r
    return roots


def layers(spans, root_name):
    """Per-layer calls, work and busy (self) seconds, and each layer's share
    of the wall time under the root span named `root_name`.

    Returns `(layers, root_wall_s, covered_s)`: `covered_s` is the wall time
    under the root that some layer, not the root itself, was running.
    """
    roots = root_of(spans)
    root_ids = {s[3] for s in spans if s[0] == root_name}
    if not root_ids:
        raise ValueError(f"no `{root_name}` span")
    under = [s for s in spans if roots[s[3]] in root_ids]
    pieces = self_segments(under)
    stats = defaultdict(lambda: {"calls": 0, "work": 0, "busy_s": 0.0, "wall_s": 0.0})
    for s in under:
        if not s[0].startswith("bench."):
            stats[s[0]]["calls"] += 1
            stats[s[0]]["work"] += s[6]
    for start, end, span in pieces:
        if not span[0].startswith("bench."):
            stats[span[0]]["busy_s"] += (end - start) / 1e9
    for name, share in wall_shares(pieces).items():
        if not name.startswith("bench."):
            stats[name]["wall_s"] = share
    root_wall = sum((s[2] - s[1]) / 1e9 for s in under if s[3] in root_ids)
    covered = sum(v["wall_s"] for v in stats.values())
    return dict(stats), root_wall, covered
