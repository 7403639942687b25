"""The serve_mix workload: a seeded request mix, the mc_serve daemon under
test, and a single-process open-loop generator.

The generator (perfbench_harness loadgen, one process, one thread) sends
each request at its due time whether or not earlier ones have been
answered (independent users), so a stalled daemon builds a queue, and every
latency is measured from the request's due time, not from when the
generator got round to sending it. How late the generator itself ran is
reported beside the latencies.
"""

import json
import os
import random
import socket
import struct
import subprocess
import time

COMBOS = ["dgemm", "sgemm", "hgemm", "hss", "hhs", "i8gemm"]

# Injected faults whose outcomes are deterministic per request: the
# injector is seeded from the canonical request key, so the same request
# fails (or retries its way to success) identically on every replay.
INJECT_SPECS = ["oom=0.5", "hip=0.3", "ecc=0.2", "throttle=0.5"]

# The mix is synthetic: no recorded mc_serve traffic exists, so each share
# below is chosen to exercise one feature of the daemon while the default
# path (a square or decode-shaped gemm on a persistent connection) stays
# the majority. Requests come in two classes that are offered in separate
# phases, never blended, so no metric depends on a guessed ratio between
# them:
#   in-process  no inject spec; runs on a slot thread.
#   worker      an inject spec (round-robin over INJECT_SPECS), so the
#               default --isolate=faulted runs it in a forked worker. Every
#               worker request is drawn afresh (repeats are rare), so
#               coalescing almost never shortens the forked path.
# Shares are exact in every block of 10 (hot keys) or 50 (connections)
# consecutive arrivals, so a seed changes which requests come when but not
# how much work of each kind a run holds.
HOT_DECK = {True: 3, False: 7}   # 30% on HOT_KEYS keys: enough repeats that
HOT_KEYS = 4                     # coalescing and plan-cache hits happen
POOL_KEYS = 48                   # the rest: 48 keys, each seen ~every 70
ONESHOT_DECK = {True: 1, False: 49}  # 2%: connection set-up and reader
                                     # threads, without connect() dominating
SWEEP_SHARE = 0.1     # a sweep is 3-5 grid points; kept a minority
DECODE_SHARE = 0.5    # gemm shapes: square or decode-shaped, evenly
BATCH_SHARE = 0.3     # the strided-batched path, as a minority
TENANTS = 4           # tenant names for admission (no cap is set)
# reps are uniform over 1-10 (the protocol's default is 10).


def _deck(rng, counts):
    """Endless seeded draws hitting each key exactly counts[key] times in
    every sum(counts.values()) draws."""
    while True:
        cards = [key for key, n in counts.items() for _ in range(n)]
        rng.shuffle(cards)
        yield from cards


def _template(rng, inject=None):
    """One request body (without id) drawn from the mix."""
    req = {"combo": rng.choice(COMBOS), "reps": rng.randint(1, 10)}
    if rng.random() < SWEEP_SHARE:
        req["kind"] = "sweep"
        req["n"] = rng.choice([128, 256, 512])
        req["sweep_max_n"] = req["n"] * 2 ** rng.randint(2, 4)
    else:
        req["kind"] = "gemm"
        if rng.random() >= DECODE_SHARE:
            req["n"] = rng.choice([128, 256, 512, 1024, 2048, 4096])
        else:  # decode-shaped: a few rows against a wide weight matrix
            req["m"] = rng.choice([1, 8, 16, 64])
            req["n"] = req["k"] = rng.choice([768, 2048])
        if rng.random() < BATCH_SHARE:
            req["batch"] = rng.choice([4, 16, 64])
    if inject:
        req["inject"] = inject
    return req


class Mix:
    """The seeded request stream. Every request gets a unique id; draws
    happen in call order, so the same seed and the same calls give the
    same requests."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.pool = [_template(self.rng) for _ in range(POOL_KEYS)]
        self.hot = [_template(self.rng) for _ in range(HOT_KEYS)]
        self.hot_deck = _deck(self.rng, HOT_DECK)
        self.oneshots = _deck(self.rng, ONESHOT_DECK)
        self.count = 0

    def body(self, worker, prefix="q"):
        """One request document (JSON text) of the given class."""
        rng = self.rng
        if worker:
            body = _template(rng, INJECT_SPECS[self.count %
                                               len(INJECT_SPECS)])
        else:
            body = dict(rng.choice(self.hot if next(self.hot_deck)
                                   else self.pool))
        body["id"] = "%s%d" % (prefix, self.count)
        body["tenant"] = "t%d" % rng.randrange(TENANTS)
        self.count += 1
        return json.dumps(body, separators=(",", ":"))

    def arrivals(self, worker, rate, duration):
        """Poisson arrivals at @p rate for @p duration seconds: a list of
        (due_sec, oneshot, body), due_sec from the start of the phase."""
        out = []
        t = self.rng.expovariate(rate)
        while t < duration:
            out.append((t, next(self.oneshots), self.body(worker)))
            t += self.rng.expovariate(rate)
        return out


def frame(text):
    data = text.encode()
    return struct.pack(">I", len(data)) + data


def proc_status(pid):
    """VmHWM/VmPeak (KiB) and thread count of a live process."""
    fields = {}
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "VmPeak", "Threads"):
                    fields[key] = int(value.split()[0])
    except OSError:
        pass
    return fields


class Daemon:
    """One mc_serve process on a Unix socket in the run directory."""

    def __init__(self, binary, run_dir, args, env):
        self.socket = os.path.join(run_dir, "mc.sock")
        self.ready = os.path.join(run_dir, "mc.ready")
        for path in (self.socket, self.ready):
            if os.path.exists(path):
                os.unlink(path)
        self.log = open(os.path.join(run_dir, "mc_serve.log"), "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", self.socket, "--ready-file", self.ready]
            + args, stdout=self.log, stderr=self.log, env=env)
        self.peak = {"VmHWM": 0, "VmPeak": 0, "Threads": 0}
        self.rusage = None

    def wait_ready(self, timeout=30.0):
        """Seconds from spawn until the ready file exists and a ping is
        answered."""
        deadline = self.start + timeout
        while not os.path.exists(self.ready):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("mc_serve did not become ready")
            time.sleep(0.0005)
        reply = self.call({"kind": "ping", "id": "ready"})
        if '"code":"Ok"' not in reply.replace(" ", ""):
            raise RuntimeError("mc_serve ping failed: " + reply)
        return time.perf_counter() - self.start

    def call(self, request, timeout=30.0):
        """One blocking request on its own connection."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(self.socket)
            s.sendall(frame(json.dumps(request)))
            data = b""
            while len(data) < 4 or len(data) < 4 + struct.unpack(
                    ">I", data[:4])[0]:
                chunk = s.recv(65536)
                if not chunk:
                    raise RuntimeError("mc_serve closed the connection")
                data += chunk
            return data[4:].decode()

    def sample(self):
        status = proc_status(self.proc.pid)
        for key in self.peak:
            self.peak[key] = max(self.peak[key], status.get(key, 0))

    def stop(self):
        """Graceful shutdown; returns the daemon's exit status."""
        if self.proc.poll() is None:
            self.sample()
            try:
                self.call({"kind": "shutdown", "id": "bye"}, timeout=10.0)
            except (OSError, RuntimeError):
                self.proc.terminate()
        # The daemon joins every connection's reader thread on the way
        # out, which takes seconds after thousands of connections.
        deadline = time.perf_counter() + 60.0
        while self.proc.returncode is None:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            elif time.perf_counter() > deadline:
                self.proc.kill()
                deadline += 60.0
            else:
                time.sleep(0.002)
        self.log.close()
        return self.proc.returncode


def drive(harness, daemon, mode, items, connections, timeout_sec,
          run_dir):
    """Run the harness's load generator against @p daemon.

    @p items are (due_sec, oneshot, body) in send order; mode is "open"
    (send at due times) or "closed" (one request in flight per
    connection). Samples the daemon's /proc status while it runs.
    Returns one record per item: dict(due, sent, done, outstanding,
    response); times in seconds from the generator's start, done None when
    unanswered.
    """
    schedule = os.path.join(run_dir, "schedule.tsv")
    out = os.path.join(run_dir, "responses.tsv")
    with open(schedule, "w") as f:
        for due, oneshot, body in items:
            f.write("%d\t%d\t%s\n" % (round(due * 1e6), oneshot, body))
    proc = subprocess.Popen([harness, "loadgen", mode, daemon.socket,
                             schedule, str(connections), str(timeout_sec),
                             out])
    while proc.poll() is None:
        daemon.sample()
        time.sleep(0.05)
    if proc.returncode != 0:
        raise RuntimeError("load generator failed (exit %d)"
                           % proc.returncode)
    records = []
    with open(out) as f:
        for (due, _, _), line in zip(items, f):
            sent, done, outstanding, response = line.rstrip(
                "\n").split("\t", 3)
            records.append({"due": due, "sent": int(sent) / 1e6,
                            "done": None if done == "-" else int(done) / 1e6,
                            "outstanding": int(outstanding),
                            "response": response})
    return records
