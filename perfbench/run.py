#!/usr/bin/env python3
"""The repository benchmark: two workloads run against the built binaries
as a user runs them, with their outputs checked.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each run brings the binaries it
needs in .bench_build up to date with `cmake --build` (the first also
configures; the harness target joins the repository's own CMake tree
through perfbench/project_hook.cmake).

Workloads
  figures      every paper figure, table, ablation and extension bench
               (22 binaries; not the google-benchmark micro_library)
               through mc_suite, with host verification on: default sizes,
               except ext_quant_transformer at --maxseq=512. Float
               verification dominates; the int8 chain rides along. The
               seed only orders the plan.
  serve_mix    one mc_serve daemon driven by a seeded, synthetic request
               mix (see loadgen.py) in two classes offered in separate
               phases: forked-worker requests (those carrying an inject
               spec) at a nominal rate, up a ladder of rates and in closed
               loop, then in-process requests. No host GEMM runs here, so
               kernel work should not move it.

ext_quant_transformer runs inside figures rather than as a workload of its
own: its time is mostly the single-threaded, cache-bound scalar int8
reference, and on the shared reference host its medians drifted by 2x
between runs minutes apart, beyond any bound a comparison could use.

Outputs are checked in the same command: every bench's stdout must equal
its golden (perfbench/golden, recorded from the seed commit) byte for byte,
and every serve response must equal an in-process serve::executePayload
replay of the same request. Every mismatch, shed, timeout or failed bench
counts in `failed` (fail_frac = failed / attempted) and makes the command
exit nonzero.

End-to-end metrics (--trace 0) for every workload. An "operation" is one
bench process on figures and one request on serve_mix.
  wall_s       median wall time of one pass over the workload's fixed
               work: an mc_suite run, or a closed-loop pass of a fixed
               batch of forked-worker requests by CLOSED_CONNECTIONS
               clients
  setup_s      median time until the system under test accepts work: an
               mc_suite run of the plan with every bench asked for --help
               (supervisor and process start-up, no sweep), or daemon spawn
               to ready file with the first ping answered
  peak_rss_mb  peak resident set of the process under test: the largest
               bench process (median over passes), or the daemon
  lat_p50_ms, lat_p95_ms
               latency of one operation run in a supervised child process:
               a bench asked for --help in the set-up runs (mc_suite spawns,
               supervises and reaps it), or a forked-worker request from
               its due time at the nominal WORKER_RATE, after the warm-up
  slo_rps      figures: bench runs completed per second; serve_mix: the
               forked-worker rate at which p95 crosses LATENCY_LIMIT_MS,
               interpolated between the last ladder rate that meets the
               limit (nothing shed, lost or failed, no growing backlog) and
               the first that does not
The tail is p95, the highest percentile with at least ten samples beyond
it (a few hundred operations per run). Bench runs at default sizes are too
few for a tail (22 a pass, a handful of them seconds long); their times
are in wall_s and the traced run's bench.*.s. In-process
requests are checked and their latency printed, but it is no end-to-end
metric (see INPROC_RATE); the traced run reports it per layer.

Per-layer metrics (--trace 1) come from a separate traced run: one
untraced pass (for the manifest, stats and process figures) and an
in-process replay of the same inputs by perfbench_harness, which records a
span around each call into hip/sim, blas, exec and serve. The Chrome trace
and the rollup are left in .bench_runs/<workload>/. Layers a workload does
not exercise report 0. On figures the kernel split of verification comes
from a second replay of each check's GEMMs, and the traced run fails when
the replayed benches' spans drift from their untraced durations by more
than DRIFT_LIMIT.
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import loadgen  # noqa: E402

# ---- Pinned settings --------------------------------------------------------
# Every knob that defaults to "all hardware threads" or to a host-scaled
# value is set here, at or below the 4 hardware threads of the reference
# host, so results from different hosts compare.
VERIFY_THREADS = 4          # benches' --verify-threads (0 = all threads)
JOBS = 1                    # benches' --jobs
QUANT_MAXSEQ = 512          # ext_quant_transformer --maxseq
SERVE_SLOTS = 1             # mc_serve --slots (see below)
SERVE_QUEUE_DEPTH = 256     # mc_serve --queue-depth
SERVE_CONNECTIONS = 3       # persistent open-loop connections
ENV_PINS = {"MC_TUNE": "off", "MC_SIMD": "avx512", "MC_PACK_CACHE": "64"}
#
# One slot: with four, some forked-worker requests went unanswered until
# the 60 s worker watchdog, most likely because the fork happened while
# another slot thread held a lock the child needs (the shared plan
# cache's). That is a daemon defect to fix, not a load to measure: the
# workload has to be one on which every request is answered.

# serve_mix phases. Each is one run of the open-loop generator; the daemon
# drains between them. Durations are shares of --seconds.
#
# In-process requests at one fixed rate, at which the daemon's threads stay
# busy (at 300-2000 req/s the latency was mostly thread wake-up). Their
# latency is a few tens of microseconds of work plus host scheduling, and
# on the shared 4-vCPU reference host it moved with the other tenants'
# load: over ten runs the IQR/median was 1.0 for p50 and 0.36 for a
# closed-loop pass of 20000 requests, beyond any usable bound. So the class
# is checked, printed and traced (serve.inproc.*), but no end-to-end metric
# rests on it. Its capacity is above 20000 req/s, more than one generator
# thread offers, so it has no ladder.
INPROC_RATE = 8000.0
INPROC_SHARE = 0.1
# Forked-worker requests: each holds the one slot for the worker's
# ~10.6 ms (a 10 ms poll), so the class's capacity is about 90 req/s on
# the reference host. The nominal rate is about a fifth of that; the ladder
# runs from about half of it in steps of 1.25x and stops at the first rate
# that misses the limit (the seed commit's p95 crosses it at 65-80 req/s).
WORKER_RATE = 20.0
WORKER_SHARE = 0.35
WORKER_LADDER = [45.0 * 1.25 ** i for i in range(10)]   # 45 ... 335 req/s
RUNG_SHARE = 0.15
LATENCY_LIMIT_MS = 60.0     # p95 limit a ladder rate must meet
WARMUP_SEC = 0.5            # excluded from each phase's latencies
LAG_LIMIT_MS = 20.0         # generator lateness p99 beyond this, in any
                            # phase: the run is invalid
CLOSED_REQUESTS = 100       # distinct forked-worker requests per pass
CLOSED_CONNECTIONS = 4      # closed-loop clients, one request in flight each
CLOSED_PASSES = 5
TRACE_INPROC = 3000         # in-process requests the traced replay re-runs
SETUP_REPS = 12
WORKER_SAMPLE = 32          # distinct requests timed forked vs in process
# Largest share by which the traced replay of the replayed benches may
# differ from their untraced durations (one pass each, so host noise is in
# it too), plus, per bench, the process start and supervisor poll that the
# in-process replay does not pay.
DRIFT_LIMIT = 0.3
DRIFT_SPAWN_S = 0.05

FIGURE_BENCHES = [
    "table1_shapes", "table2_latency", "fig3_throughput_scaling",
    "fig4_peak_comparison", "fig5_power", "fig6_gemm_fp", "fig7_gemm_mixed",
    "fig8_mfma_ratio", "fig9_flop_model", "ablation_dvfs",
    "ablation_heuristic", "ablation_tilesize", "ablation_hgemm_emulation",
    "ablation_powercap", "ext_generations", "ext_ml_datatypes",
    "ext_roofline", "ext_node_scaling", "ext_batched_gemm",
    "ext_async_power", "ext_blas_survey", "ext_quant_transformer"]
SMOKE_FIGURE_BENCHES = ["table1_shapes", "fig6_gemm_fp", "fig7_gemm_mixed",
                        "ext_quant_transformer"]
JOBS_BENCHES = {
    "fig3_throughput_scaling", "fig6_gemm_fp", "fig7_gemm_mixed",
    "fig8_mfma_ratio", "fig9_flop_model", "ext_batched_gemm",
    "ext_blas_survey", "ext_generations", "ext_ml_datatypes",
    "ext_quant_transformer", "ext_roofline"}
VERIFY_BENCHES = {
    "fig6_gemm_fp", "fig7_gemm_mixed", "ext_batched_gemm",
    "ext_blas_survey", "ext_generations", "ext_quant_transformer"}
# Benches the traced run replays in process, and their metric names.
REPLAYED = {"fig6_gemm_fp": "fig6", "fig7_gemm_mixed": "fig7",
            "ext_batched_gemm": "ext_batched_gemm",
            "ext_quant_transformer": "ext_quant_transformer"}

COMBOS = ["dgemm", "sgemm", "hgemm", "hss", "hhs", "i8gemm"]

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("lat_p50_ms", "ms"), ("lat_p95_ms", "ms"),
              ("slo_rps", "req/s")]

# (name, unit, the end-to-end metric it should move, on which workload)
PER_LAYER = [
    ("hip.runtime.p50_us", "us", "serve.inproc.p50_ms"),
    ("sim.run.count", "count", "serve.inproc.p50_ms"),
    ("sim.run.p50_us", "us", "serve.inproc.p50_ms"),
    ("sim.run.total_s", "s", "serve.inproc.p50_ms; ~0 elsewhere"),
    ("sim.device_s", "s", "none: simulated seconds, must repeat exactly"),
    ("blas.plan.hits", "count", "serve.inproc.p50_ms"),
    ("blas.plan.misses", "count", "serve.inproc.p50_ms"),
    ("blas.verify.total_s", "s", "wall_s on figures"),
    ("blas.verify.self_s", "s", "wall_s on figures"),
] + [(f"blas.gemm.{c}.{m}", u, "wall_s on figures")
     for c in COMBOS
     for m, u in (("total_s", "s"), ("gmacs", "GMAC/s"), ("macs", "count"))
] + [
    ("blas.i8ref.total_s", "s", "wall_s on figures"),
    ("blas.pack.hits", "count", "wall_s on figures"),
    ("blas.pack.misses", "count", "wall_s on figures"),
    ("blas.pack.bytes", "B", "peak_rss_mb"),
    ("exec.suite.overhead_s", "s", "wall_s on figures"),
    ("bench.fig6.s", "s", "wall_s on figures"),
    ("bench.fig7.s", "s", "wall_s on figures"),
    ("bench.ext_batched_gemm.s", "s", "wall_s on figures"),
    ("bench.ext_quant_transformer.s", "s", "wall_s on figures"),
    ("bench.other.s", "s", "wall_s on figures"),
    ("serve.parse.p50_us", "us", "serve.inproc.p50_ms"),
    ("serve.respond.p50_us", "us", "serve.inproc.p50_ms"),
    ("serve.frame.p50_us", "us", "serve.inproc.p50_ms"),
    ("serve.execute.p50_us", "us", "serve.inproc.p50_ms"),
    ("serve.execute.p99_us", "us", "serve.inproc.p99_ms"),
    ("serve.worker.p50_ms", "ms", "lat_p50_ms, wall_s and slo_rps on "
                                  "serve_mix"),
    ("serve.worker.overhead_ms", "ms", "lat_p50_ms, wall_s and slo_rps on "
                                       "serve_mix"),
    ("serve.wait.p50_ms", "ms", "serve.inproc.p50_ms"),
    ("serve.wait.p99_ms", "ms", "lat_p95_ms and slo_rps on serve_mix"),
    ("serve.runs.worker", "count", "lat_p95_ms on serve_mix"),
    ("serve.runs.in_process", "count", "serve.inproc.p50_ms"),
    ("serve.runs.coalesced", "count", "serve.inproc.p50_ms"),
    ("serve.inproc.p50_ms", "ms", "none: in-process latency at INPROC_RATE"),
    ("serve.inproc.p99_ms", "ms", "none: in-process latency at INPROC_RATE"),
    ("sut.cpu_s", "s", "wall_s"),
    ("sut.threads_peak", "count", "peak_rss_mb"),
    ("sut.vm_peak_mb", "MiB", "peak_rss_mb"),
    ("loadgen.lag_p99_ms", "ms", "none: run validity"),
    ("trace.coverage", "ratio", "none: closure of the trace, >= 0.95"),
    ("trace.overhead_s", "s", "none: traced minus untraced time (figures:"
                              " within DRIFT_LIMIT)"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 1, no result line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def sut_env():
    env = dict(os.environ)
    env.update(ENV_PINS)
    return env


# ---- Build ------------------------------------------------------------------

def build(root):
    for needed in ("CMakeLists.txt", "src", "bench", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit("perfbench: %s is not a source checkout (no %s)"
                             % (root, needed))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "project_hook.cmake")])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count()),
                  "--target"] + FIGURE_BENCHES +
                 ["mc_suite", "mc_serve", "perfbench_harness"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out) != 0:
                with open(build_log) as f:
                    tail = f.readlines()[-30:]
                raise SystemExit("perfbench: build failed:\n" + "".join(tail))
    return build_dir


def provenance(root, build_dir, seed, completion):
    cpu = {"model": "unknown", "flags": []}
    wanted = {"sse2", "sse4_2", "avx", "avx2", "fma", "f16c", "avx512f",
              "avx512bw", "avx512vl", "avx512dq", "avx512_vnni", "asimd"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu["model"] == "unknown":
                    cpu["model"] = value.strip()
                elif key in ("flags", "Features") and not cpu["flags"]:
                    cpu["flags"] = sorted(wanted & set(value.split()))
    except OSError:
        pass
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                         line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    git = ""
    if os.path.exists(os.path.join(root, ".git")):
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root,
            capture_output=True, text=True)
        git = describe.stdout.strip() if describe.returncode == 0 else ""
    return {
        "nproc": os.cpu_count(), "cpu": cpu["model"],
        "cpu_flags": cpu["flags"], "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_describe": git or "unavailable (not a git checkout)",
        "seed": seed, "completion": completion,
        "pins": {"verify_threads": VERIFY_THREADS, "jobs": JOBS,
                 "quant_maxseq": QUANT_MAXSEQ, "serve_slots": SERVE_SLOTS,
                 "serve_queue_depth": SERVE_QUEUE_DEPTH,
                 "serve_connections": SERVE_CONNECTIONS,
                 "closed_connections": CLOSED_CONNECTIONS, "env": ENV_PINS}}


# ---- Suite workloads ----------------------------------------------------------

def bench_argv(build_dir, name, smoke):
    argv = [os.path.join(build_dir, "bench", name)]
    if name in JOBS_BENCHES:
        argv.append("--jobs=%d" % JOBS)
    if name in VERIFY_BENCHES:
        argv.append("--verify-threads=%d" % VERIFY_THREADS)
    if name == "ext_quant_transformer":
        argv.append("--maxseq=%d" % (128 if smoke else QUANT_MAXSEQ))
    if smoke and name in ("fig6_gemm_fp", "fig7_gemm_mixed"):
        argv.append("--maxn=256")
    return argv


def write_plan(path, benches, build_dir, smoke, help_only=False):
    with open(path, "w") as f:
        f.write("# mcchar suite plan v1\n")
        for name in benches:
            argv = bench_argv(build_dir, name, smoke)
            if help_only:
                argv = argv[:1] + ["--help"]
            f.write("bench %s deadline=170 : %s\n"
                    % (name, " ".join('"%s"' % a for a in argv)))


def children(pid):
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as f:
            return [int(c) for c in f.read().split()]
    except OSError:
        return []


def run_suite(build_dir, plan, run_dir, sample=False):
    """One mc_suite run; returns wall seconds, rusage and /proc peaks."""
    os.makedirs(run_dir)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [os.path.join(build_dir, "tools", "mc_suite"), "--plan", plan,
         "--run-dir", run_dir, "--quiet", "--attempts", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=sut_env())
    peaks = {"Threads": 0, "VmPeak": 0}
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG if sample else 0)
        if pid:
            break
        for child in children(proc.pid):
            status_now = loadgen.proc_status(child)
            for key in peaks:
                peaks[key] = max(peaks[key], status_now.get(key, 0))
        time.sleep(0.02)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(run_dir, "manifest.json")) as f:
        manifest = json.load(f)
    return wall, rusage, peaks, manifest


def check_suite(run_dir, manifest, golden_dir, tamper):
    """Compare each bench's stdout with its golden; returns (failures,
    completion-line labels)."""
    failures = []
    labels = {}
    for entry in manifest["benches"]:
        name = entry["name"]
        if entry["outcome"] != "ok":
            failures.append("%s: %s" % (name, entry["code"]))
            continue
        with open(os.path.join(run_dir, entry["stdout_log"]), "rb") as f:
            got = f.read()
        with open(os.path.join(golden_dir, name + ".out"), "rb") as f:
            want = f.read()
        if tamper and name == manifest["benches"][0]["name"]:
            want = want[:-1] + bytes([want[-1] ^ 1])
        if got != want:
            failures.append("%s: stdout differs from its golden" % name)
        with open(os.path.join(run_dir, entry["stderr_log"])) as f:
            for line in f:
                if line.startswith("[mcchar] complete"):
                    for field in ("simd", "tuned"):
                        m = re.search(r"\b%s=(\S+)" % field, line)
                        if m:
                            labels.setdefault(field, set()).add(m.group(1))
    return failures, labels


def suite_workload(args, build_dir, run_root):
    smoke = args.smoke
    benches = list(SMOKE_FIGURE_BENCHES if smoke else FIGURE_BENCHES)
    golden_dir = os.path.join(HERE, "golden", "smoke" if smoke else "")
    # The bench inputs are the paper's fixed defaults; the seed only
    # decides the order of the plan.
    random.Random(args.seed).shuffle(benches)
    plan = os.path.join(run_root, "suite.plan")
    write_plan(plan, benches, build_dir, smoke)
    help_plan = os.path.join(run_root, "setup.plan")
    write_plan(help_plan, benches, build_dir, smoke, help_only=True)

    setups = []
    spawns = []  # supervised --help processes, spawn to reap (ms)
    for rep in range(SETUP_REPS):
        wall, _, _, manifest = run_suite(
            build_dir, help_plan, os.path.join(run_root, "setup%d" % rep))
        if not all(b["outcome"] == "ok" for b in manifest["benches"]):
            raise BenchError("a bench failed to start (--help)")
        setups.append(wall)
        spawns += [b["attempts"][-1]["duration_sec"] * 1e3
                   for b in manifest["benches"]]

    rounds = []
    failures = []
    labels = {}
    start = time.perf_counter()
    while True:
        rdir = os.path.join(run_root, "round%d" % len(rounds))
        wall, rusage, peaks, manifest = run_suite(
            build_dir, plan, rdir, sample=args.trace)
        if args.record_goldens:
            os.makedirs(golden_dir, exist_ok=True)
            for entry in manifest["benches"]:
                shutil.copyfile(os.path.join(rdir, entry["stdout_log"]),
                                os.path.join(golden_dir,
                                             entry["name"] + ".out"))
        fails, seen = check_suite(rdir, manifest, golden_dir, args.tamper ==
                                  "golden")
        failures += fails
        for key, values in seen.items():
            labels.setdefault(key, set()).update(values)
        rounds.append({"wall": wall, "rusage": rusage, "peaks": peaks,
                       "manifest": manifest})
        # Start another pass while it would end within half a pass of
        # the measuring time.
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + wall / 2 > args.seconds:
            break

    durations = [b["attempts"][-1]["duration_sec"]
                 for r in rounds for b in r["manifest"]["benches"]]
    walls = [r["wall"] for r in rounds]
    result = {
        "attempted": len(durations), "failures": failures,
        "labels": {k: "+".join(sorted(v)) for k, v in labels.items()},
        "metrics": {
            "wall_s": (statistics.median(walls), len(walls)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (statistics.median(
                r["rusage"].ru_maxrss / 1024.0 for r in rounds), len(rounds)),
            "lat_p50_ms": (percentile(spawns, 0.50), len(spawns)),
            "lat_p95_ms": (percentile(spawns, 0.95), len(spawns)),
            "slo_rps": ((len(durations) - len(failures)) / sum(walls),
                        len(durations)),
        }}
    if args.trace:
        result["layers"] = trace_suite(args, build_dir, run_root, benches,
                                       rounds[0])
    return result


def span(rollup, name, field, default=0.0):
    return rollup["spans"].get(name, {}).get(field, default)


def trace_suite(args, build_dir, run_root, benches, untraced):
    # A fixed order, not the plan's: sums such as sim.device_s must repeat
    # bit for bit whatever the seed.
    replayed = [b for b in REPLAYED if b in benches]
    prefix = os.path.join(run_root, "trace")
    cmd = [os.path.join(build_dir, "perfbench_harness"), "trace-suite",
           prefix, str(VERIFY_THREADS), "256" if args.smoke else "65536",
           str(128 if args.smoke else QUANT_MAXSEQ)] + replayed
    if subprocess.call(cmd, env=sut_env()) != 0:
        raise BenchError("traced replay failed")
    with open(prefix + ".rollup.json") as f:
        rollup = json.load(f)
    counters = rollup["counters"]
    by_bench = {b["name"]: b["attempts"][-1]["duration_sec"]
                for b in untraced["manifest"]["benches"]}
    layers = {
        "hip.runtime.p50_us": span(rollup, "hip.runtime", "p50_us"),
        "sim.run.count": span(rollup, "sim.run", "count", 0),
        "sim.run.p50_us": span(rollup, "sim.run", "p50_us"),
        "sim.run.total_s": span(rollup, "sim.run", "total_s"),
        "sim.device_s": counters.get("sim.device_s", 0.0),
        "blas.plan.hits": counters.get("blas.plan.hits", 0),
        "blas.plan.misses": counters.get("blas.plan.misses", 0),
        "blas.verify.total_s": span(rollup, "blas.verify", "total_s"),
        "blas.i8ref.total_s": span(rollup, "blas.i8ref", "total_s"),
        "blas.pack.hits": counters.get("blas.pack.hits", 0),
        "blas.pack.misses": counters.get("blas.pack.misses", 0),
        "blas.pack.bytes": counters.get("blas.pack.bytes", 0),
        "exec.suite.overhead_s": untraced["wall"] - sum(by_bench.values()),
        "bench.other.s": sum(v for k, v in by_bench.items()
                             if k not in REPLAYED),
        "sut.cpu_s": untraced["rusage"].ru_utime +
                     untraced["rusage"].ru_stime,
        "sut.threads_peak": untraced["peaks"]["Threads"],
        "sut.vm_peak_mb": untraced["peaks"]["VmPeak"] / 1024.0,
        "trace.coverage": rollup["coverage"],
    }
    for bench, short in REPLAYED.items():
        layers["bench.%s.s" % short] = by_bench.get(bench, 0.0)
    for combo in COMBOS:
        total = span(rollup, "blas.gemm." + combo, "total_s")
        macs = counters.get("blas.gemm.%s.macs" % combo, 0)
        layers["blas.gemm.%s.total_s" % combo] = total
        layers["blas.gemm.%s.macs" % combo] = macs
        layers["blas.gemm.%s.gmacs" % combo] = macs / total / 1e9 \
            if total > 0 else 0.0
    # GemmEngine::verify's own time after the GEMMs it runs: the replayed
    # kernels are the same calls on the same shapes and operands.
    kernels = layers["blas.i8ref.total_s"] + sum(
        layers["blas.gemm.%s.total_s" % c] for c in COMBOS)
    layers["blas.verify.self_s"] = layers["blas.verify.total_s"] - kernels
    # The replay drifts from what the benches do when its point spans stop
    # matching the untraced bench durations.
    traced = sum(span(rollup, "point." + b, "total_s") for b in replayed)
    untraced_s = sum(by_bench[b] for b in replayed)
    layers["trace.overhead_s"] = traced - untraced_s
    problems = []
    if rollup["coverage"] < 0.95:
        problems.append("trace coverage %.4f below 0.95" % rollup["coverage"])
    if abs(traced - untraced_s) > DRIFT_LIMIT * untraced_s + \
            DRIFT_SPAWN_S * len(replayed):
        problems.append("replayed benches took %.3f s traced against %.3f s "
                        "untraced, beyond %.0f%%"
                        % (traced, untraced_s, 100 * DRIFT_LIMIT))
    # Where the traced run's time went; the kernel replay is not part of
    # what the benches do, so it is left out of the base.
    base = rollup["wall_s"] - span(rollup, "blas.verify.replay", "total_s")
    log("[perfbench] traced run %.3f s, coverage %.4f, of the bench replay"
        " (%.3f s): blas.verify %.1f%% (self %.1f%%), sim.run %.2f%%,"
        " hip.runtime %.3f%%"
        % (rollup["wall_s"], rollup["coverage"], base,
           100 * layers["blas.verify.total_s"] / base,
           100 * layers["blas.verify.self_s"] / base,
           100 * layers["sim.run.total_s"] / base,
           100 * span(rollup, "hip.runtime", "total_s") / base))
    return layers, problems


# ---- serve_mix ----------------------------------------------------------------

DAEMON_ARGS = ["--slots", str(SERVE_SLOTS),
               "--queue-depth", str(SERVE_QUEUE_DEPTH),
               "--isolate", "faulted", "--plan-cache-cap", "1024",
               "--pack-cache-mb", "64", "--worker-deadline-sec", "60"]


def replay_expected(build_dir, run_dir, bodies):
    """Expected response bytes by id, from the in-process replay."""
    path = os.path.join(run_dir, "requests.jsonl")
    with open(path, "w") as f:
        f.write("".join(b + "\n" for b in bodies))
    out = subprocess.run([os.path.join(build_dir, "perfbench_harness"),
                          "replay", path], capture_output=True, text=True,
                         env=sut_env())
    if out.returncode != 0:
        raise BenchError("in-process replay failed: " + out.stderr)
    expected = {}
    for line in out.stdout.splitlines():
        expected[json.loads(line)["id"]] = line
    return expected


def code_of(response):
    m = re.search(r'"code": ?"(\w+)"', response)
    return m.group(1) if m else ""


def request_id(body):
    return json.loads(body)["id"]


def summarize(name, rate, duration, items, records, expected):
    """Latency, lateness and outcome figures of one open-loop phase."""
    warmup = min(WARMUP_SEC, duration / 4)
    for rec, (_, _, body) in zip(records, items):
        rec["id"] = request_id(body)
        rec["body"] = body
    warm = [r for r in records if r["due"] >= warmup]
    lat = [(r["done"] - r["due"]) * 1e3 for r in warm if r["done"]
           is not None]
    shed = [r["id"] for r in records if r["done"] is not None and
            code_of(r["response"]) == "ResourceExhausted" and
            code_of(expected[r["id"]]) != "ResourceExhausted"]
    lost = [r["id"] for r in records if r["done"] is None]
    bad = [r for r in records if r["done"] is not None and
           r["response"] != expected[r["id"]] and r["id"] not in shed]
    # Little's law: while every request meets the limit, at most rate x
    # limit are outstanding; more at the end of the phase means the
    # backlog grew.
    fifth = max(1, len(warm) // 5)
    backlog_grew = bool(warm) and statistics.median(
        r["outstanding"] for r in warm[-fifth:]) > \
        rate * LATENCY_LIMIT_MS / 1e3
    phase = {"name": name, "rate": rate, "n": len(lat),
             "p50_ms": percentile(lat, 0.50) if lat else float("inf"),
             "p95_ms": percentile(lat, 0.95) if lat else float("inf"),
             "p99_ms": percentile(lat, 0.99) if lat else float("inf"),
             "lag_p99_ms": percentile(
                 [(r["sent"] - r["due"]) * 1e3 for r in records], 0.99)
             if records else 0.0,
             "shed": shed, "lost": lost, "bad": bad,
             "backlog_grew": backlog_grew, "records": records,
             "warm": warm}
    phase["meets"] = (phase["p95_ms"] <= LATENCY_LIMIT_MS and not shed and
                      not lost and not bad and not backlog_grew)
    print("%-10s %7.1f req/s: n=%d p50=%.3f ms p95=%.3f ms p99=%.3f ms "
          "lag_p99=%.3f ms shed=%d lost=%d backlog_grew=%s -> %s"
          % (name, rate, phase["n"], phase["p50_ms"], phase["p95_ms"],
             phase["p99_ms"], phase["lag_p99_ms"], len(shed), len(lost),
             backlog_grew,
             "meets SLO" if phase["meets"] else "misses SLO"))
    if phase["lag_p99_ms"] > LAG_LIMIT_MS:
        raise BenchError("invalid run: the generator fell behind at %.1f "
                         "req/s (lag p99 %.1f ms > %.1f ms)"
                         % (rate, phase["lag_p99_ms"], LAG_LIMIT_MS))
    return phase


def slo_rate(ladder):
    """The rate at which p95 crosses LATENCY_LIMIT_MS: log-log
    interpolation between the last phase that meets the SLO and the next,
    which misses it; the last rate when every phase meets it; 0 when the
    first misses."""
    passed = [p for p in ladder if p["meets"]]
    if not passed:
        return 0.0
    low = passed[-1]
    if low is ladder[-1]:
        return low["rate"]
    high = ladder[ladder.index(low) + 1]
    if high["p95_ms"] <= LATENCY_LIMIT_MS:
        return low["rate"]  # missed for sheds or backlog, not latency
    frac = (math.log(LATENCY_LIMIT_MS) - math.log(low["p95_ms"])) / (
        math.log(high["p95_ms"]) - math.log(low["p95_ms"]))
    return low["rate"] * (high["rate"] / low["rate"]) ** frac


def serve_workload(args, build_dir, run_root):
    seconds = args.seconds
    harness = os.path.join(build_dir, "perfbench_harness")
    binary = os.path.join(build_dir, "tools", "mc_serve")
    mix = loadgen.Mix(args.seed)
    closed = [mix.body(True, "c")
              for _ in range(CLOSED_REQUESTS // (10 if args.smoke else 1))]
    inproc = mix.arrivals(False, INPROC_RATE, seconds * INPROC_SHARE)
    worker = mix.arrivals(True, WORKER_RATE, seconds * WORKER_SHARE)
    rungs = [(rate, mix.arrivals(True, rate, seconds * RUNG_SHARE))
             for rate in WORKER_LADDER]
    # The expected responses come first, so the replay does not compete
    # with the daemon for the CPU.
    expected = replay_expected(
        build_dir, run_root, closed + [item[2] for phase in
                                       [inproc, worker] +
                                       [r for _, r in rungs]
                                       for item in phase])

    setups = []
    for _ in range(SETUP_REPS - 1):
        daemon = loadgen.Daemon(binary, run_root, DAEMON_ARGS, sut_env())
        try:
            setups.append(daemon.wait_ready())
        finally:
            daemon.stop()
    daemon = loadgen.Daemon(binary, run_root, DAEMON_ARGS, sut_env())
    passes = []
    ladder = []

    def offer(name, rate, items, duration):
        records = loadgen.drive(harness, daemon, "open", items,
                                SERVE_CONNECTIONS, 10.0, run_root)
        return summarize(name, rate, duration, items, records, expected)

    try:
        setups.append(daemon.wait_ready())
        # Forked-worker phases first: fork slows down as the daemon's
        # address space grows, and every closed connection leaves its
        # reader thread's stack mapped (the in-process phase's one-shot
        # connections took the worker p50 from 10.6 to 16.7 ms).
        ladder.append(offer("worker", WORKER_RATE, worker,
                            seconds * WORKER_SHARE))
        for rate, items in ([] if args.trace else rungs):
            if not ladder[-1]["meets"]:
                break
            ladder.append(offer("worker", rate, items,
                                seconds * RUNG_SHARE))
        for _ in range(0 if args.trace else CLOSED_PASSES):
            recs = loadgen.drive(
                harness, daemon, "closed", [(0.0, False, b) for b in closed],
                CLOSED_CONNECTIONS, 60.0, run_root)
            # First send to last answer, on the generator's clock.
            wall = max(r["done"] for r in recs if r["done"] is not None) \
                - min(r["sent"] for r in recs)
            passes.append((wall, recs))
        nominal = offer("in-process", INPROC_RATE, inproc,
                        seconds * INPROC_SHARE)
        stats = json.loads(daemon.call({"kind": "stats", "id": "stats"}))
    finally:
        exit_code = daemon.stop()
    if exit_code != 0:
        raise BenchError("mc_serve exited %d" % exit_code)

    phases = [nominal] + ladder
    if args.tamper == "payload" and nominal["records"][0]["response"]:
        rec = nominal["records"][0]
        rec["response"] = rec["response"].replace('"id": "', '"id": "x', 1)
        nominal["bad"].append(rec)
    failures = []
    mismatches = open(os.path.join(run_root, "mismatches.txt"), "w")
    checked = [(b, r) for _, recs in passes for b, r in zip(closed, recs)]
    checked += [(r["body"], r) for p in phases for r in p["bad"]]
    for body, rec in checked:
        rid = request_id(body)
        if rec["response"] != expected[rid]:
            failures.append("%s: response differs from replay" % rid)
            mismatches.write("request  %s\ngot      %s\nexpected %s\n"
                             % (body, rec["response"], expected[rid]))
    mismatches.close()
    # Load may shed or delay requests on the upper ladder rates (they then
    # miss the SLO); at the nominal rates every request must be answered.
    for phase in phases[:2]:
        failures += ["%s: shed or unanswered at a nominal rate" % rid
                     for rid in phase["shed"] + phase["lost"]]

    worker_phase = ladder[0]
    walls = [w for w, _ in passes]
    result = {
        "attempted": sum(len(p["records"]) for p in phases) +
                     len(closed) * len(passes),
        "failures": failures,
        "labels": {},
        "metrics": {
            "wall_s": (statistics.median(walls) if walls else 0.0,
                       len(walls)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (daemon.peak["VmHWM"] / 1024.0, 1),
            "lat_p50_ms": (worker_phase["p50_ms"], worker_phase["n"]),
            "lat_p95_ms": (worker_phase["p95_ms"], worker_phase["n"]),
            "slo_rps": (slo_rate(ladder), len(ladder)),
        }}
    if args.trace:
        traced = nominal["warm"][:TRACE_INPROC] + worker_phase["records"]
        result["layers"] = trace_serve(
            build_dir, run_root, daemon, stats, traced, nominal,
            max(p["lag_p99_ms"] for p in phases))
    return result


def trace_serve(build_dir, run_root, daemon, stats, records, inproc,
                lag_p99_ms):
    path = os.path.join(run_root, "traced.jsonl")
    with open(path, "w") as f:
        f.write("".join(r["body"] + "\n" for r in records))
    prefix = os.path.join(run_root, "trace")
    cmd = [os.path.join(build_dir, "perfbench_harness"), "trace-serve",
           prefix, path, str(WORKER_SAMPLE)]
    if subprocess.call(cmd, env=sut_env()) != 0:
        raise BenchError("traced replay failed")
    with open(prefix + ".rollup.json") as f:
        rollup = json.load(f)
    with open(prefix + ".trace.json") as f:
        events = json.load(f)["traceEvents"]
    execute_ms = {}
    for ev in events:
        if ev["name"] == "serve.execute":
            execute_ms[ev["args"]["id"]] = ev["dur"] / 1e3
    overhead = rollup["counters"].get("serve.worker.overhead_ms", 0.0)
    waits = []
    latency_sum = 0.0
    for index, rec in enumerate(records):
        if rec["done"] is None:
            continue
        latency = (rec["done"] - rec["due"]) * 1e3
        latency_sum += latency / 1e3
        service = execute_ms.get(index, 0.0)
        if '"inject"' in rec["body"]:
            service += overhead
        waits.append(latency - service)
    payload = stats["payload"]
    usage = daemon.rusage
    layers = {
        "hip.runtime.p50_us": span(rollup, "hip.runtime", "p50_us"),
        "sim.run.count": span(rollup, "sim.run", "count", 0),
        "sim.run.p50_us": span(rollup, "sim.run", "p50_us"),
        "sim.run.total_s": span(rollup, "sim.run", "total_s"),
        "sim.device_s": rollup["counters"].get("sim.device_s", 0.0),
        "blas.plan.hits": payload["plan_cache"]["hits"],
        "blas.plan.misses": payload["plan_cache"]["misses"],
        "blas.pack.hits": payload["pack_cache"]["hits"],
        "blas.pack.misses": payload["pack_cache"]["misses"],
        "blas.pack.bytes": payload["pack_cache"]["bytes"],
        "serve.parse.p50_us": span(rollup, "serve.parse", "p50_us"),
        "serve.respond.p50_us": span(rollup, "serve.respond", "p50_us"),
        "serve.frame.p50_us": span(rollup, "serve.frame", "p50_us"),
        "serve.execute.p50_us": span(rollup, "serve.execute", "p50_us"),
        "serve.execute.p99_us": span(rollup, "serve.execute", "p99_us"),
        "serve.worker.p50_ms": span(rollup, "serve.worker", "p50_us") / 1e3,
        "serve.worker.overhead_ms": overhead,
        "serve.wait.p50_ms": percentile(waits, 0.50) if waits else 0.0,
        "serve.wait.p99_ms": percentile(waits, 0.99) if waits else 0.0,
        "serve.runs.worker": payload["runs"]["worker"],
        "serve.runs.in_process": payload["runs"]["in_process"],
        "serve.runs.coalesced": payload["runs"]["coalesced"],
        "serve.inproc.p50_ms": inproc["p50_ms"],
        "serve.inproc.p99_ms": inproc["p99_ms"],
        "sut.cpu_s": usage.ru_utime + usage.ru_stime,
        "sut.threads_peak": daemon.peak["Threads"],
        "sut.vm_peak_mb": daemon.peak["VmPeak"] / 1024.0,
        "loadgen.lag_p99_ms": lag_p99_ms,
        "trace.coverage": rollup["coverage"],
        "trace.overhead_s": span(rollup, "serve.request", "total_s") -
                            latency_sum,
    }
    log("[perfbench] traced replay %.3f s, coverage %.4f"
        % (rollup["wall_s"], rollup["coverage"]))
    # Every call runs inside a top-level span, so coverage is structural
    # here; the replay is held to the daemon by the byte-equal responses.
    problems = []
    if rollup["coverage"] < 0.95:
        problems.append("trace coverage %.4f below 0.95" % rollup["coverage"])
    return layers, problems


# ---- Main ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Smoke-test switches (perfbench/smoke.py): tiny sizes, and a
    # deliberately altered golden or payload that must be caught.
    parser.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tamper", choices=["golden", "payload"],
                        help=argparse.SUPPRESS)
    # Rewrite perfbench/golden from this checkout's bench outputs (only
    # on the commit whose outputs define correctness).
    parser.add_argument("--record-goldens", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = build(root)
    run_root = os.path.join(root, ".bench_runs", args.workload)
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)
    try:
        if args.workload == "serve_mix":
            result = serve_workload(args, build_dir, run_root)
        else:
            result = suite_workload(args, build_dir, run_root)
    except BenchError as err:
        log("perfbench: %s" % err)
        return 1

    prov = provenance(root, build_dir, args.seed, result["labels"])
    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in result["failures"]:
        print("FAILED " + failure)
    failed = len(result["failures"])
    attempted = max(1, result["attempted"])
    print("fail_frac %.6f (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    metrics = {}
    if args.trace:
        layers, problems = result["layers"]
        for name, unit, moves in PER_LAYER:
            value = layers.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
            print("%-32s %16.9g %-7s moves %s" % (name, value, unit, moves))
        for problem in problems:
            log("perfbench: " + problem)
        if problems:
            return 1
    else:
        for name, unit in END_TO_END:
            value, samples = result["metrics"][name]
            metrics[name] = {"value": value, "unit": unit}
            print("%-12s %14.6f %-6s (n=%d)" % (name, value, unit, samples))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
