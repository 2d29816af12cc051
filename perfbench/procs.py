"""Child processes: always drained, always reaped, killed on a timeout.

`ovlsim` panics when its stdout is closed under it, so every pipe is read
to the end by its own thread. Each child is reaped with `os.wait4`, which
gives that child's own peak resident set size.
"""

import http.client
import os
import queue
import re
import subprocess
import threading
import time


class Finished:
    def __init__(self, code, out, err, wall_s, maxrss_mb, timed_out):
        self.code = code
        self.out = out
        self.err = err
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.timed_out = timed_out

    @property
    def ok(self):
        return self.code == 0 and not self.timed_out


class Child:
    """A running child whose stdout and stderr are drained line by line."""

    def __init__(self, argv, cwd, env):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.lines = queue.Queue()
        self.out, self.err = [], []
        self.readers = [
            threading.Thread(target=self._drain, args=(self.proc.stdout, self.out, True)),
            threading.Thread(target=self._drain, args=(self.proc.stderr, self.err, False)),
        ]
        for t in self.readers:
            t.start()
        self._reaped = False
        self._lock = threading.Lock()

    def _drain(self, pipe, sink, forward):
        for line in pipe:
            sink.append(line)
            if forward:
                self.lines.put(line)
        pipe.close()
        if forward:
            self.lines.put(None)

    def _kill(self):
        with self._lock:
            if not self._reaped:
                self.proc.kill()

    def wait(self, timeout):
        """Reaps the child, killing it first if it outlives `timeout`."""
        timer = threading.Timer(timeout, self._kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
            with self._lock:
                self._reaped = True
        finally:
            timer.cancel()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for t in self.readers:
            t.join()
        timed_out = self.proc.returncode == -9 and wall >= timeout
        return Finished(
            self.proc.returncode, b"".join(self.out), b"".join(self.err), wall,
            usage.ru_maxrss / 1024.0, timed_out,
        )


def run(argv, cwd, env, timeout):
    return Child(argv, cwd, env).wait(timeout)


def request(port, method, path, body=None, timeout=60.0):
    """One HTTP round trip; returns (status, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


SERVING = re.compile(rb"serving on http://127\.0\.0\.1:(\d+)")


class Server:
    """One `ovlsim serve` process, from spawn to a confirmed exit; with a
    disk cache when `cache_dir` is given."""

    def __init__(self, binary, cache_dir, cwd, env, deadline_s=30.0):
        argv = [binary, "serve", "--port", "0"]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        self.child = Child(argv, cwd, env)
        self.port = None
        end = time.monotonic() + deadline_s
        while self.port is None:
            try:
                line = self.child.lines.get(timeout=max(0.0, end - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.child.wait(5.0)
                raise RuntimeError("ovlsim serve did not announce its port")
            m = SERVING.search(line)
            if m:
                self.port = int(m.group(1))
        while True:
            try:
                status, _ = request(self.port, "GET", "/status", timeout=5.0)
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > end:
                self.stop()
                raise RuntimeError("ovlsim serve did not answer /status")
            time.sleep(0.01)

    def proc_status(self):
        """`Threads` and `VmHWM` (MB) of the live server, from /proc."""
        fields = {}
        with open(f"/proc/{self.child.proc.pid}/status") as f:
            for line in f:
                key, _, value = line.partition(":")
                fields[key] = value.split()
        return int(fields["Threads"][0]), int(fields["VmHWM"][0]) / 1024.0

    def stop(self, timeout=30.0):
        """Asks for `/shutdown`, then reaps the process; a server that does
        not exit within `timeout` is killed so it cannot wedge later runs."""
        try:
            request(self.port, "POST", "/shutdown", timeout=5.0)
        except OSError:
            pass
        return self.child.wait(timeout)
