#!/usr/bin/env python3
"""Smoke-test a running ``ovlsim serve`` instance over loopback HTTP.

Usage:
    python3 ci/serve_smoke.py PORT VERSION SPEC_FILE GOLDEN_REPORT [--expect-warm]

Checks, in order:

1. ``GET /status`` answers 200 within a startup deadline, identifies
   itself as the ``ovlsim`` service, and reports exactly VERSION (the
   string ``ovlsim --version`` printed — the CLI and the server must
   never disagree about what build is running).
2. ``POST /campaign`` with the spec file's text returns the campaign
   report **byte-identical** to the committed golden: the server path
   reuses the exact CLI report serialization, so goldens gate it too.
3. A second identical ``POST /campaign`` is byte-identical to the first
   and builds nothing on any shelf (bundles, traces, indexes, programs):
   every artifact is served from the session's content-addressed store.
4. ``POST /sweep`` of the spec's first app, class and mode (the original
   against the overlapped variant) answers 200 with one point per
   bandwidth and builds nothing on any shelf: it replays the programs the
   campaign left, the overlapped one under its generator descriptor.
5. ``POST /shutdown`` answers ``{"ok":true}`` and the listener actually
   goes away.

With ``--expect-warm`` (a server restarted over a populated
``--cache-dir``), the first campaign must already be served entirely from
the persistent cache: every shelf's build counter stays at zero.

Exit status: 0 ok, 1 check failed, 2 usage/IO error.
"""

import http.client
import json
import sys
import time

STARTUP_DEADLINE_S = 30.0
SHELVES = ("bundles", "traces", "indexes", "programs")


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def request(port, method, path, body=None):
    """One round-trip; returns (status, raw body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def builds(port):
    """The build counter of every artifact shelf, from ``GET /status``."""
    _, body = request(port, "GET", "/status")
    cache = json.loads(body)["cache"]
    return {shelf: cache[shelf]["builds"] for shelf in SHELVES}


def first_sweep(spec):
    """A ``/sweep`` body for the spec's first app, class and mode, with the
    spec's rank and iteration overrides."""
    keys = {}
    for line in spec.splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            keys[words[0]] = words[1:]
    source = {"app": keys["apps"][0], "class": keys["classes"][0]}
    for key in ("ranks", "iterations"):
        if key in keys:
            source[key] = int(keys[key][0])
    return {
        "original": dict(source, mode="original"),
        "overlapped": dict(source, mode=keys["modes"][0]),
        "bandwidths": [1e8, 1e9],
        "latency_us": 5,
    }


def wait_for_status(port):
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    while True:
        try:
            return request(port, "GET", "/status")
        except OSError:
            if time.monotonic() >= deadline:
                fail(f"server did not come up on port {port}")
            time.sleep(0.1)


def main():
    if len(sys.argv) not in (5, 6) or (len(sys.argv) == 6 and sys.argv[5] != "--expect-warm"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    expect_warm = len(sys.argv) == 6
    port = int(sys.argv[1])
    version = sys.argv[2]
    with open(sys.argv[3], "rb") as f:
        spec = f.read().decode("utf-8")
    with open(sys.argv[4], "rb") as f:
        golden = f.read()

    status, body = wait_for_status(port)
    if status != 200:
        fail(f"/status answered {status}: {body!r}")
    info = json.loads(body)
    if info.get("service") != "ovlsim":
        fail(f"/status service field: {body!r}")
    if info.get("version") != version:
        fail(f"/status version {info.get('version')!r} != CLI version {version!r}")

    campaign_body = json.dumps({"spec": spec})
    status, first = request(port, "POST", "/campaign", campaign_body)
    if status != 200:
        fail(f"/campaign answered {status}: {first[:400]!r}")
    if first != golden:
        fail(
            "campaign response is not byte-identical to the golden "
            f"({len(first)} vs {len(golden)} bytes)"
        )
    _, mid = request(port, "GET", "/status")
    builds_before = builds(port)
    if expect_warm:
        rebuilt = {
            shelf: counters["builds"]
            for shelf, counters in json.loads(mid)["cache"].items()
            if isinstance(counters, dict) and counters["builds"]
        }
        if rebuilt:
            fail(
                f"warm restart rebuilt artifacts: {rebuilt}; a populated "
                "--cache-dir must serve every artifact from disk"
            )

    status, second = request(port, "POST", "/campaign", campaign_body)
    if status != 200 or second != first:
        fail("repeated campaign diverged from the first response")
    builds_after = builds(port)
    if builds_after != builds_before:
        fail(
            f"repeat campaign rebuilt artifacts ({builds_before} -> {builds_after}); "
            "the content-addressed cache should have served every artifact"
        )

    sweep = first_sweep(spec)
    status, body = request(port, "POST", "/sweep", json.dumps(sweep))
    if status != 200:
        fail(f"/sweep answered {status}: {body[:400]!r}")
    points = json.loads(body).get("points")
    if not isinstance(points, list) or len(points) != len(sweep["bandwidths"]):
        fail(f"/sweep answered no point per bandwidth: {body[:400]!r}")
    builds_swept = builds(port)
    if builds_swept != builds_after:
        fail(
            f"sweep of the campaign's first group built artifacts ({builds_after} -> "
            f"{builds_swept}); it should replay the programs the campaign left"
        )

    status, body = request(port, "POST", "/shutdown")
    if status != 200 or body != b'{"ok":true}':
        fail(f"/shutdown answered {status}: {body!r}")
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    while time.monotonic() < deadline:
        try:
            request(port, "GET", "/status")
            time.sleep(0.1)
        except OSError:
            warm = ", zero warm rebuilds" if expect_warm else ""
            print(
                "serve_smoke: ok (status, golden-byte campaign, "
                f"cache reuse{warm}, sweep of a campaign group, shutdown)"
            )
            return
    fail("listener still accepting connections after /shutdown")


if __name__ == "__main__":
    main()
