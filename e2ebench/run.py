#!/usr/bin/env python3
"""End-to-end benchmark of the tdt tools (see README.md).

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload sweep|transform|serve --seed N \
        --seconds S --trace 0|1 [--quick]

It builds the tools and the benchmark's harness into .bench_build/, makes
the workload's inputs from the seed, times whole operations for S seconds
(--trace 0) or runs the traced layer attribution (--trace 1), checks every
output against computations made apart from the program, and prints one
JSON result object as the last line of stdout. A failed check exits 1;
a build or set-up failure exits 2 without a result.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "tdt")
TOOLS = os.path.join(BUILD, "src", "tools")
HARNESS = os.path.join(BUILD, "e2ebench")
TARGETS = ["gtracer", "dinerosim", "tdtune", "tdtd", "tdt_refsim", "tdt_layers"]
JOBS = 2            # --jobs of every sweep, tdtd --workers, client connections
SETUP_REPEATS = 3   # set-ups per run; setup_s is their median
TOLERANCE = 0.10    # |unattributed| / operation wall time allowed (README)

END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
    "maccess_per_s": "M/s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trace.read.busy_ms": "ms", "trace.read.mrec_per_s": "M/s",
    "trace.write.busy_ms": "ms", "trace.write.mb": "MB",
    "trace.fanout.worker_busy_ms": "ms", "trace.fanout.stalls": "count",
    "trace.fanout.idle_waits": "count",
    "core.transform.busy_ms": "ms", "core.plan.hit_ratio": "ratio",
    "core.transform.fit_ratio": "ratio", "core.diag.mb": "MB",
    "core.transform.rewritten": "count", "core.transform.inserted": "count",
    "core.transform.skipped": "count",
    "cache.sim.busy_ms": "ms", "cache.sim.ns_per_access": "ns",
    "cache.sim.accesses": "count", "cache.sim.misses": "count",
    "analysis.profile.busy_ms": "ms", "analysis.candidates": "count",
    "analysis.rank.busy_ms": "ms", "analysis.rank.ms_per_candidate": "ms",
    "service.rpc.overhead_ms": "ms", "service.memo.hit_ratio": "ratio",
    "service.memo.hit_p50_ms": "ms", "service.memo.hit_p90_ms": "ms",
    "service.queue.max_depth": "count", "service.busy_rejects": "count",
    "tracer.gen.busy_ms": "ms", "tracer.gen.mrec_per_s": "M/s",
    "layers.unattributed_ms": "ms", "layers.trace_overhead_ms": "ms",
}


class SetupError(Exception):
    """The benchmark could not build or set up; no result is printed."""


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def tool(name):
    return os.path.join(TOOLS, name)


def harness(name):
    return os.path.join(HARNESS, name)


# ------------------------------------------------------------------ build

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise SetupError("no CMakeLists.txt at the checkout root; run from "
                         "the root of a tdt source checkout")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "e2ebench-build.log")
    with open(logf, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cfg = ["cmake", "-S", ROOT, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF",
                   "-DCMAKE_PROJECT_tdt_INCLUDE=" +
                   os.path.join(HERE, "hook.cmake")]
            if subprocess.call(cfg, stdout=out, stderr=out) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise SetupError(f"cmake configure failed (log: {logf})")
        cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
               "--target"] + TARGETS
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise SetupError(f"build failed (log: {logf})")


# -------------------------------------------------------------- processes

class Proc:
    def __init__(self, code, wall_s, cpu_s, rss_mb, out, err):
        self.code, self.wall_s, self.cpu_s = code, wall_s, cpu_s
        self.rss_mb, self.out, self.err = rss_mb, out, err


def run(argv, out_path=None, err_path=None):
    """Runs argv to completion; returns exit code, wall, CPU and peak RSS
    of that process alone (wait4), and its captured stdout/stderr."""
    out_f = open(out_path, "w+b") if out_path else subprocess.PIPE
    err_f = open(err_path, "w+b") if err_path else subprocess.PIPE
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out_f, stderr=err_f)
        if out_path and err_path:
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            out = err = b""
        else:
            # Pipes must be drained while the child runs; rusage of the
            # child alone still comes from wait4 after communicate().
            out, err = p.communicate()
            ru = None
        wall = time.perf_counter() - t0
    finally:
        for f in (out_f, err_f):
            if f is not subprocess.PIPE:
                f.close()
    cpu = (ru.ru_utime + ru.ru_stime) if ru else 0.0
    rss = ru.ru_maxrss / 1024.0 if ru else 0.0
    return Proc(p.returncode, wall, cpu, rss, out or b"", err or b"")


def must(proc, what):
    if proc.code != 0:
        raise SetupError(f"{what} exited {proc.code}: "
                         f"{proc.err.decode(errors='replace')[-400:]}")
    return proc


class GenTimer:
    """Times the tracer layer (gtracer runs) during set-up."""

    def __init__(self):
        self.seconds = 0.0
        self.records = 0

    def gen(self, args, out):
        p = must(run([tool("gtracer")] + args + ["--out", out]), "gtracer")
        self.seconds += p.wall_s
        self.records += int(p.err.split(b"gtracer: ")[1].split()[0])
        return out

    def figures(self, setups):
        return {"tracer.gen.busy_ms": self.seconds * 1e3 / setups,
                "tracer.gen.mrec_per_s": self.records / self.seconds / 1e6}


def timed_setups(make, n):
    """Runs the set-up n times; returns (median seconds, last result)."""
    times, result = [], None
    for i in range(n):
        if result is not None and hasattr(result, "close"):
            result.close()
        t0 = time.perf_counter()
        result = make(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def crc_file(path):
    crc = 0
    with open(path, "rb") as f:
        while True:
            chunk = f.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


# ------------------------------------------------------------------ sweep

def sweep_points(rng, quick):
    """16 points: an LRU size x ways grid with fixed-set-count families,
    FIFO, random, tagged-prefetch and 64-byte-block points. Point i runs
    on fan-out worker i % 2, so the points come in pairs split across
    the two workers; the seed shuffles the pairs, which changes the spec
    and report order but not either worker's share of the work. --quick
    shrinks the caches with the trace so that every point still evicts."""
    s = 1024 if quick else 8192

    def p(size, assoc, repl="lru", prefetch="none", block=32):
        return dict(size=size, block=block, assoc=assoc, repl=repl,
                    prefetch=prefetch)
    pairs = [(p(s, 1), p(s, 2)), (p(s, 4), p(2 * s, 1)),
             (p(2 * s, 2), p(2 * s, 4)), (p(4 * s, 1), p(4 * s, 2)),
             (p(4 * s, 4), p(4 * s, 8)),
             (p(2 * s, 4, "fifo"), p(4 * s, 2, "fifo")),
             (p(2 * s, 4, "random"), p(2 * s, 4, prefetch="tagged")),
             (p(2 * s, 4, block=64), p(4 * s, 2, block=64))]
    rng.shuffle(pairs)
    return [pt for pair in pairs for pt in pair]


def sweep_spec(points):
    return ";".join("size={size},block={block},assoc={assoc},repl={repl},"
                    "prefetch={prefetch}".format(**p) for p in points)


def workload_sweep(a, work, rng):
    n = 16 if a.quick else 52
    points = sweep_points(rng, a.quick)
    spec = sweep_spec(points)
    gen = GenTimer()
    trace = os.path.join(work, "matmul.tdtb")

    def setup(_):
        gen.gen(["--kernel", "matmul_ijk", "--len", str(n), "--binary",
                 "--compress", "zstd"], trace)
    setups = 1 if a.trace else SETUP_REPEATS
    setup_s, _ = timed_setups(setup, setups)
    argv = [tool("dinerosim"), "--trace", trace, "--sweep", spec,
            "--jobs", str(JOBS)]
    out, err = os.path.join(work, "op.out"), os.path.join(work, "op.err")

    # Reference: the text form of the same kernel through the benchmark's
    # own cache model.
    text = GenTimer().gen(["--kernel", "matmul_ijk", "--len", str(n)],
                          os.path.join(work, "matmul.out"))
    ref_points = [p for p in points
                  if p["repl"] in ("lru", "fifo") and p["prefetch"] == "none"]
    ref = checks.refsim(harness("tdt_refsim"), text, ref_points)
    os.remove(text)
    errors = []

    if a.trace:
        lay = json.loads(must(run([harness("tdt_layers"), "sweep", trace, spec,
                                   str(JOBS), "2"]), "tdt_layers").out)
        mj = os.path.join(work, "metrics.json")
        p = run(argv + ["--metrics-json", mj], out, err)
        report = open(out).read()
        errors += checks.sweep_report(report, points, ref)
        totals = checks.merged_totals(report)
        if totals != (lay["cache.sim.accesses"], lay["cache.sim.misses"]):
            errors.append(f"traced counts {lay['cache.sim.accesses']}/"
                          f"{lay['cache.sim.misses']} != tool {totals}")
        counters = json.load(open(mj))["counters"]
        if counters.get("sim.records_simulated") != lay["records"]:
            errors.append("tool sim.records_simulated != traced records")
        lay.update(gen.figures(setups))
        errors += checks.attribution(lay, TOLERANCE)
        return layer_result(lay, 1, int(p.code != 0), errors)

    # Once per run, outside the timed loop: --jobs 1 is byte-identical.
    one = run(argv[:-1] + ["1"])
    ops = timed_loop(a.seconds, [argv], out, err)
    accesses = 0
    for op in ops:
        if op.code == 0:
            if one.code != 0 or one.out.decode() != op.report:
                errors.append("--jobs 1 report differs from --jobs 2 report")
            errors += checks.sweep_report(op.report, points, ref)
            accesses += checks.merged_totals(op.report)[0]
    return op_result(ops, setup_s, accesses, errors)


def timed_loop(seconds, argvs, out, err):
    """Closed loop of whole rounds (one pass over argvs) for `seconds`."""
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        for argv in argvs:
            p = run(argv, out, err)
            p.report = open(out).read()
            p.stderr_tail = tail(err)
            ops.append(p)
    for op in ops:
        op.loop_s = time.perf_counter() - t0
    return ops


def tail(path, n=4096):
    with open(path, "rb") as f:
        f.seek(0, os.SEEK_END)
        f.seek(max(0, f.tell() - n))
        return f.read().decode(errors="replace")


def op_result(ops, setup_s, accesses, errors, faulty=0):
    """End-to-end metrics over the operations that ran to completion;
    `faulty` more of them are counted as failed for a known fault."""
    ok = [op for op in ops if op.code == 0]
    if not ok:
        errors.append("no operation ran to completion")
        return len(ops), len(ops), dict.fromkeys(END_TO_END, 0.0), errors
    walls = [op.wall_s for op in ok]
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(walls) * 1e3,
        "ops_per_s": len(ok) / ops[-1].loop_s,
        "maccess_per_s": accesses / sum(walls) / 1e6,
        "cpu_ms_per_op": statistics.median(op.cpu_s for op in ok) * 1e3,
        "peak_rss_mb": max(op.rss_mb for op in ok),
    }
    return len(ops), len(ops) - len(ok) + faulty, metrics, errors


def layer_result(lay, attempted, failed, errors):
    metrics = {k: float(lay.get(k, 0.0)) for k in PER_LAYER}
    return attempted, failed, metrics, errors


# -------------------------------------------------------------- transform

def transform_variants(rng, quick):
    """(name, kernel, N, R, rules text). Each rule declares about 7/8 of
    its kernel's extent, so the rest of the matched variable is unfit and
    takes the X001 path. T1 and T2 extents vary with the seed. T3's do
    not: its R is not a multiple of 8, which triggers a transformer fault
    (README, "Known fault") on every T3 operation, so those operations
    are counted as failed in exactly one third of every run."""
    scale = 50 if quick else 1
    out = []
    for name, kernel, base in (("t1", "t1_soa", 200000),
                               ("t2", "t2_inline", 145000)):
        n = base // scale + 8 * rng.randrange(0, 125 // scale + 1)
        r = 7 * n // 8
        out.append((name, kernel, n, r, checks.rules_text(name, r)))
    n = 320000 // scale
    r = 7 * n // 8 + 4
    out.append(("t3", "t3_contiguous", n, r, checks.rules_text("t3", r)))
    return out


# One cache configuration per variant, the same for every seed: the
# simulated share of a transform operation depends on the geometry.
TRANSFORM_CONFIGS = [(32768, 32, 1, "lru"), (16384, 32, 2, "lru"),
                     (32768, 32, 1, "lru")]


def workload_transform(a, work, rng):
    variants = transform_variants(rng, a.quick)
    configs = TRANSFORM_CONFIGS
    gen = GenTimer()
    paths = {}

    def setup(_):
        for name, kernel, n, r, rules in variants:
            trace = gen.gen(["--kernel", kernel, "--len", str(n)],
                            os.path.join(work, f"{name}.out"))
            rules_path = os.path.join(work, f"{name}.rules")
            with open(rules_path, "w") as f:
                f.write(rules)
            paths[name] = (trace, rules_path)
    setups = 1 if a.trace else SETUP_REPEATS
    setup_s, _ = timed_setups(setup, setups)

    argvs = []
    for (name, _, n, r, _), (size, block, assoc, repl) in zip(variants,
                                                              configs):
        trace, rules_path = paths[name]
        argvs.append([tool("dinerosim"), "--trace", trace, "--rules",
                      rules_path, "--xform-out",
                      os.path.join(work, f"{name}.x.out"), "--size", str(size),
                      "--block", str(block), "--assoc", str(assoc),
                      "--repl", repl])
    out, err = os.path.join(work, "op.out"), os.path.join(work, "op.err")
    aos = None
    t1 = variants[0]
    errors = []

    if a.trace:
        lay_all = []
        ops = []
        faulty = 0
        for v, argv, cfg in zip(variants, argvs, configs):
            name = v[0]
            trace, rules_path = paths[name]
            mj = os.path.join(work, "metrics.json")
            p = run(argv + ["--metrics-json", mj], out, err)
            ops.append(p)
            lay = json.loads(must(run(
                [harness("tdt_layers"), "transform", trace, rules_path,
                 os.path.join(work, f"{name}.lay.out")] +
                [str(c) for c in cfg] + ["2"]), "tdt_layers").out)
            counters = json.load(open(mj))["counters"]
            op_errors = checks.transform_summary(name, v[2], v[3], tail(err))
            for k in ("rewritten", "inserted", "skipped"):
                if counters.get(f"transform.{k}") != \
                        lay[f"core.transform.{k}"]:
                    errors.append(f"{name}: transform.{k} of the tool and "
                                  "the traced run differ")
            if op_errors and name == "t3" and checks.t3_known_fault(
                    v[2], v[3], tail(err)):
                faulty += 1
            else:
                errors += op_errors
            rep = checks.parse_levels(open(out).read())
            if not rep or (rep[0]["accesses"], rep[0]["misses"]) != \
                    (lay["cache.sim.accesses"], lay["cache.sim.misses"]):
                errors.append(f"{name}: traced counts differ from the tool")
            if crc_file(argv[6]) != crc_file(
                    os.path.join(work, f"{name}.lay.out")):
                errors.append(f"{name}: traced transformed trace differs")
            errors += checks.attribution(lay, TOLERANCE, name)
            lay_all.append(lay)
        lay = {k: statistics.median(x.get(k, 0.0) for x in lay_all)
               for k in lay_all[0]}
        for k in ("core.transform.rewritten", "core.transform.inserted",
                  "core.transform.skipped", "cache.sim.accesses",
                  "cache.sim.misses", "trace.write.mb", "core.diag.mb"):
            lay[k] = sum(x[k] for x in lay_all)
        lay.update(gen.figures(setups))
        return layer_result(lay, len(ops),
                            sum(op.code != 0 for op in ops) + faulty,
                            errors)

    ops = timed_loop(a.seconds, argvs, out, err)
    # Every operation's transformed trace must equal the first one of its
    # variant, and that one is checked in full against the definitions.
    digests = {}
    accesses = 0
    faulty = 0
    for i, op in enumerate(ops):
        k = i % len(argvs)
        name, _, n, r, _ = variants[k]
        if op.code != 0:
            continue
        op_errors = checks.transform_summary(name, n, r, op.stderr_tail)
        level = checks.parse_levels(op.report)
        accesses += level[0]["accesses"] if level else 0
        if name not in digests:
            xout = argvs[k][6]
            digests[name] = crc_file(xout)
            if name == "t1" and aos is None:
                aos = GenTimer().gen(
                    ["--kernel", "t1_aos", "--len", str(t1[3])],
                    os.path.join(work, "t1_aos.out"))
            size, block, assoc, repl = configs[k]
            res = checks.refsim_xform(
                harness("tdt_refsim"), name, n, r, paths[name][0], xout,
                aos if name == "t1" else None,
                f"{size}:{block}:{assoc}:{repl}")
            op_errors += checks.xform_result(name, n, r, res)
            digests[(name, "ref")] = res["sim"]
            digests[(name, "walk")] = res
        elif crc_file(argvs[k][6]) != digests[name]:
            errors.append(f"{name}: transformed trace of operation {i} "
                          "differs from the first")
        errors += checks.level_vs_ref(name, level, digests[(name, "ref")])
        if op_errors and name == "t3" and checks.t3_known_fault(
                n, r, op.stderr_tail, digests[(name, "walk")]):
            faulty += 1
        else:
            errors += op_errors
    return op_result(ops, setup_s, accesses, errors, faulty)


# ------------------------------------------------------------------ serve

HOT_COLD_C = """\
#define LEN 4096
#define ROUNDS {rounds}
#define COLD {cold}

int main(int aArgc, char **aArgv) {{
  typedef struct {{
    int mFrequentlyUsed;
    struct {{ double mY; int mZ; }} mRarelyUsed;
  }} MyInlineStruct;

  MyInlineStruct lS1[LEN];
  GLEIPNIR_START_INSTRUMENTATION;
  for (int lR = 0; lR < ROUNDS; lR++) {{
    for (int lI = 0; lI < LEN; lI++) {{
      lS1[lI].mFrequentlyUsed = lI;
    }}
    for (int lJ = 0; lJ < COLD; lJ++) {{
      lS1[lJ * {stride}].mRarelyUsed.mY = lJ;
      lS1[lJ * {stride}].mRarelyUsed.mZ = lJ;
    }}
  }}
  GLEIPNIR_STOP_INSTRUMENTATION;
  return (0);
}}
"""


class Conn:
    """One tdt-rpc/1 connection (newline-delimited JSON)."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")
        self.next_id = 1

    def call(self, op, args=()):
        req = {"rpc": "tdt-rpc/1", "id": self.next_id, "op": op,
               "args": list(args)}
        self.next_id += 1
        self.sock.sendall((json.dumps(req) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line.decode("utf-8", "surrogateescape"))

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    def __init__(self, work):
        self.sock = os.path.relpath(os.path.join(work, "tdtd.sock"), ROOT)
        with open(os.path.join(work, "tdtd.err"), "wb") as err:
            self.proc = subprocess.Popen(
                [tool("tdtd"), "--socket", self.sock, "--workers", str(JOBS),
                 "--memo-bytes", "64m"], stdout=subprocess.DEVNULL,
                stderr=err)
        deadline = time.monotonic() + 20
        while True:
            try:
                Conn(self.sock).close()
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    raise SetupError("tdtd did not start")
                time.sleep(0.01)

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self):
        c = Conn(self.sock)
        try:
            return json.loads(c.call("metrics")["stdout"])
        finally:
            c.close()

    def close(self):
        """Asks for shutdown; returns an error string or None."""
        if self.proc.poll() is not None:
            return f"tdtd died early (exit {self.proc.returncode})"
        try:
            c = Conn(self.sock)
            reply = c.call("shutdown")
            c.close()
            code = self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired) as e:
            self.proc.kill()
            self.proc.wait()
            return f"tdtd shutdown failed: {e}"
        if reply.get("status") != "ok" or code != 0:
            return f"tdtd shutdown: status {reply.get('status')} exit {code}"
        if os.path.exists(os.path.join(ROOT, self.sock)):
            return "tdtd left its socket behind"
        return None

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class RequestSource:
    """Distinct autotune requests: every call returns arguments never
    sent before in this run. Cache geometry and policy vary by seed."""

    def __init__(self, rng, traces):
        self.lock = threading.Lock()
        self.traces = traces
        combos = [(size, assoc, block, repl)
                  for size in (8192, 16384, 32768) for assoc in (1, 2, 4)
                  for block in (32, 64) for repl in ("lru", "fifo")]
        self.combos = {}
        self.used = {}
        for k in traces:
            c = combos[:]
            rng.shuffle(c)
            self.combos[k], self.used[k] = c, 0

    def take(self, kernel):
        with self.lock:
            i = self.used[kernel]
            self.used[kernel] += 1
        size, assoc, block, repl = self.combos[kernel][
            i % len(self.combos[kernel])]
        # Past the 36 geometries, --min-accesses (far below every
        # structure's access count) keeps the argument vector new.
        return ["--trace", self.traces[kernel], "--size", str(size),
                "--assoc", str(assoc), "--block", str(block), "--repl", repl,
                "--min-accesses", str(64 + i // len(self.combos[kernel]))]


REPEATS_PER_DISTINCT = 4  # fixed share: 4 of every 5 requests are repeats


def client_loop(conn, source, rng, seconds, t0, log_out):
    """Closed loop of whole rounds; each round sends one distinct request
    per kernel, each followed by REPEATS_PER_DISTINCT repeats of requests
    this connection has already had answered."""
    done = []
    while not log_out or time.perf_counter() - t0 < seconds:
        # Both connections walk the kernels in the same order, so the
        # daemon's peak memory (two requests in flight) is reached the
        # same way in every run.
        for k in source.traces:
            args = source.take(k)
            s = time.perf_counter()
            r = conn.call("autotune", args)
            log_out.append(("miss", k, args, r, time.perf_counter() - s, None))
            done.append(len(log_out) - 1)
            for _ in range(REPEATS_PER_DISTINCT):
                j = rng.choice(done)
                s = time.perf_counter()
                r = conn.call("autotune", log_out[j][2])
                log_out.append(("hit", k, log_out[j][2], r,
                                time.perf_counter() - s, j))
        if seconds <= 0:
            break


def serve_traces(a, work, gen):
    """Three ~0.5M-record traces whose autotune requests each peak near
    the same resident size, so the daemon's peak is two requests in
    flight whichever two overlap: t1_soa (one T1 candidate) and two
    hot/cold kernels (one winning T2 candidate each)."""
    scale = 20 if a.quick else 1
    traces = {"t1_soa": gen.gen(["--kernel", "t1_soa", "--len",
                                 str(90000 // scale)],
                                os.path.join(work, "t1_soa.out"))}
    for stride in (32, 64):
        src = os.path.join(work, f"hot_cold{stride}.c")
        with open(src, "w") as f:
            f.write(HOT_COLD_C.format(rounds=max(1, 23 // scale),
                                      cold=4096 // stride, stride=stride))
        traces[f"hot_cold{stride}"] = gen.gen(
            ["--source", src], os.path.join(work, f"hot_cold{stride}.out"))
    return traces


def workload_serve(a, work, rng):
    gen = GenTimer()
    traces = {}

    def setup(_):
        traces.update(serve_traces(a, work, gen))
        d = Daemon(work)
        c = Conn(d.sock)
        r = c.call("register-trace", [traces[k] for k in sorted(traces)])
        c.close()
        if r.get("status") != "ok":
            d.kill()
            raise SetupError("register-trace failed")
        return d
    setup_s, daemon = timed_setups(setup, 1 if a.trace else SETUP_REPEATS)
    errors = []
    try:
        source = RequestSource(rng, traces)
        if a.trace:
            return serve_traced(work, rng, source, daemon, gen, errors)
        cpu0 = daemon.cpu_s()
        logs = [[] for _ in range(JOBS)]
        conns = [Conn(daemon.sock) for _ in range(JOBS)]
        rngs = [random.Random(rng.random()) for _ in range(JOBS)]
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop,
                                    args=(conns[i], source, rngs[i],
                                          a.seconds, t0, logs[i]))
                   for i in range(JOBS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        loop_s = time.perf_counter() - t0
        cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        for c in conns:
            c.close()
        metrics = daemon.metrics()
        entries = [e for log_ in logs for e in log_]
        failed = sum(1 for e in entries
                     if e[3].get("status") != "ok" or e[3].get("exit") != 0)
        misses = [e for e in entries if e[0] == "miss"]
        hits = [e for e in entries if e[0] == "hit"]
        errors += checks.serve_replies(logs, metrics)
        errors += serve_identity(work, misses)
        errors += serve_emit_best(work, misses)
        accesses = sum(checks.autotune_accesses(e[3].get("stdout", ""))
                       for e in misses)
        miss_walls = [e[4] for e in misses]
        result = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(miss_walls) * 1e3,
            "ops_per_s": len(entries) / loop_s,
            "maccess_per_s": accesses / sum(miss_walls) / 1e6,
            "cpu_ms_per_op": cpu * 1e3 / len(misses),
            "peak_rss_mb": rss,
        }
        log(f"serve: {len(misses)} memo-miss and {len(hits)} memo-hit "
            f"requests, hit p50 "
            f"{statistics.median(e[4] for e in hits) * 1e3:.3f} ms")
        return len(entries), failed, result, errors
    finally:
        err = daemon.close()
        if err:
            errors.append(err)


def serve_identity(work, misses):
    """Each distinct request's reply equals the tdtune tool body run
    in-process (tdt_layers local)."""
    tsv = os.path.join(work, "requests.tsv")
    with open(tsv, "w") as f:
        for e in misses:
            f.write("\t".join(e[2]) + "\n")
    p = must(run([harness("tdt_layers"), "local", tsv, str(JOBS)]),
             "tdt_layers local")
    errors = []
    for line, e in zip(p.out.decode().splitlines(), misses):
        local = json.loads(line)
        r = e[3]
        if r.get("stdout") != local["stdout"] or r.get("exit") != local["exit"]:
            errors.append(f"daemon reply differs from the in-process run "
                          f"for {' '.join(e[2])}")
    return errors[:5]


def serve_emit_best(work, misses):
    """tdtune --emit-best on one request's arguments; the emitted rule
    through dinerosim --rules reproduces the totals tdtune reported."""
    for e in misses:
        if not e[1].startswith("hot_cold") or \
                "best (" not in e[3].get("stdout", ""):
            continue
        args = e[2]
        best = os.path.join(work, "best.rules")
        p = run([tool("tdtune")] + args + ["--emit-best", best])
        want = checks.best_totals(p.out.decode())
        cache = []
        for flag in ("--size", "--assoc", "--block", "--repl"):
            cache += [flag, args[args.index(flag) + 1]]
        d = run([tool("dinerosim"), "--trace", args[1], "--rules", best,
                 "--xform-out", os.path.join(work, "best.x.out")] + cache)
        lv = checks.parse_levels(d.out.decode())
        got = (lv[0]["accesses"], lv[0]["misses"]) if lv else None
        if p.code != 0 or d.code != 0 or want is None or got != want:
            return [f"emit-best loop: tdtune reported {want}, dinerosim "
                    f"--rules gave {got}"]
        return []
    return ["no hot_cold request produced a winning candidate"]


def serve_traced(work, rng, source, daemon, gen, errors):
    # A short concurrent phase, polling the queue depth from a third
    # connection, then the sequential layer attribution.
    depth = [0.0]
    stop = threading.Event()

    def poll():
        c = Conn(daemon.sock)
        while not stop.is_set():
            m = json.loads(c.call("metrics")["stdout"])
            depth[0] = max(depth[0], m["gauges"].get("service.queue_depth", 0))
            time.sleep(0.02)
        c.close()
    poller = threading.Thread(target=poll)
    poller.start()
    logs = [[] for _ in range(JOBS)]
    conns = [Conn(daemon.sock) for _ in range(JOBS)]
    threads = [threading.Thread(target=client_loop,
                                args=(conns[i], source,
                                      random.Random(rng.random()), 0,
                                      time.perf_counter(), logs[i]))
               for i in range(JOBS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    poller.join()
    for c in conns:
        c.close()
    tsv = os.path.join(work, "traced.tsv")
    with open(tsv, "w") as f:
        for k in source.traces:
            f.write("\t".join(source.take(k)) + "\n")
    lay = json.loads(must(run([harness("tdt_layers"), "serve", daemon.sock,
                               tsv, "30"]), "tdt_layers serve").out)
    if lay.pop("mismatches"):
        errors.append("traced serve: daemon replies differ from in-process "
                      "runs or memo replies differ from cold ones")
    m = daemon.metrics()
    counters = m["counters"]
    hits = counters.get("service.memo_hits", 0)
    lay["service.memo.hit_ratio"] = hits / max(
        1, hits + counters.get("service.memo_misses", 0))
    lay["service.busy_rejects"] = counters.get("service.admission_rejections",
                                               0)
    lay["service.queue.max_depth"] = depth[0]
    lay.update(gen.figures(1))
    errors += checks.serve_replies(logs, None)
    errors += checks.attribution(lay, TOLERANCE, "serve")
    entries = [e for log_ in logs for e in log_]
    failed = sum(1 for e in entries
                 if e[3].get("status") != "ok" or e[3].get("exit") != 0)
    return layer_result(lay, len(entries), failed, errors)


# ------------------------------------------------------------------- main

WORKLOADS = {"sweep": workload_sweep, "transform": workload_transform,
             "serve": workload_serve}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs: every check in seconds (self-test)")
    a = ap.parse_args()
    work = os.path.join(ROOT, ".bench_run", f"{a.workload}-{os.getpid()}")
    try:
        build()
        os.makedirs(work, exist_ok=True)
        rng = random.Random(a.seed)
        attempted, failed, metrics, errors = WORKLOADS[a.workload](a, work,
                                                                   rng)
    except SetupError as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        log(f"check failed: {e}")
    units = PER_LAYER if a.trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
