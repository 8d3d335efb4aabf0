"""Output checks of the end-to-end benchmark.

Everything here is computed apart from the program under test: cache
counts come from the benchmark's own reference model (refsim.cpp), and
transform counts and offsets from the kernel and rule definitions. No
check compares against a stored copy of an earlier output.
"""

import json
import re
import subprocess

LEVEL_KEYS = ("read_hits", "read_misses", "write_hits", "write_misses",
              "compulsory", "capacity", "conflict", "evictions", "writebacks")


def parse_levels(text):
    """Cache levels of a dinerosim report, in order of appearance."""
    levels, cur = [], None
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "hits" and parts[1].isdigit():
            cur = {"read_hits": int(parts[1]), "write_hits": int(parts[2]),
                   "hits": int(parts[3])}
            levels.append(cur)
        elif cur is None:
            continue
        elif len(parts) == 4 and parts[0] == "misses":
            cur.update(read_misses=int(parts[1]), write_misses=int(parts[2]),
                       misses=int(parts[3]))
        elif len(parts) == 4 and parts[0] == "accesses":
            cur["accesses"] = int(parts[3])
        elif line.startswith("miss classes:"):
            m = re.match(r"miss classes: compulsory (\d+), capacity (\d+), "
                         r"conflict (\d+)", line)
            cur.update(compulsory=int(m[1]), capacity=int(m[2]),
                       conflict=int(m[3]))
        elif line.startswith("evictions:"):
            m = re.match(r"evictions: (\d+) \(writebacks (\d+)\)", line)
            cur.update(evictions=int(m[1]), writebacks=int(m[2]))
    return levels


def merged_totals(report):
    m = re.search(r"merged L1 totals: (\d+) accesses, (\d+) misses", report)
    return (int(m[1]), int(m[2])) if m else (0, 0)


def config_key(p):
    return f"{p['size']}:{p['block']}:{p['assoc']}:{p['repl']}"


def refsim(binary, trace, points):
    """Reference counts for each LRU/FIFO point, keyed by config_key."""
    keys = sorted({config_key(p) for p in points})
    out = subprocess.run([binary, "sim", trace] + keys, check=True,
                         capture_output=True).stdout.decode()
    return {r["config"]: r for r in map(json.loads, out.splitlines())}


def sweep_report(report, points, ref):
    """Errors in one --sweep report of `points` (in order)."""
    errors = []
    levels = parse_levels(report.split("sweep summary:")[0])
    if len(levels) != len(points):
        return [f"report has {len(levels)} points, expected {len(points)}"]
    accesses_by_block = {}
    for r in ref.values():
        accesses_by_block[int(r["config"].split(":")[1])] = r["accesses"]
    compulsory = {}
    for i, (p, lv) in enumerate(zip(points, levels)):
        if lv["hits"] + lv["misses"] != lv["accesses"]:
            errors.append(f"point {i}: hits + misses != accesses")
        if lv["accesses"] != accesses_by_block.get(p["block"]):
            errors.append(f"point {i}: {lv['accesses']} accesses, reference "
                          f"{accesses_by_block.get(p['block'])}")
        if p["prefetch"] == "none":
            compulsory.setdefault(p["block"], set()).add(lv["compulsory"])
        if p["repl"] in ("lru", "fifo") and p["prefetch"] == "none":
            want = ref[config_key(p)]
            bad = [k for k in LEVEL_KEYS if lv[k] != want[k]]
            if bad:
                errors.append(f"point {i} ({config_key(p)}): {bad} differ "
                              f"from the reference model")
    for block, values in compulsory.items():
        if len(values) != 1:
            errors.append(f"compulsory misses differ across {block}-byte "
                          f"points: {sorted(values)}")
    # LRU inclusion: at a fixed set count, more ways never miss more.
    families = {}
    for p, lv in zip(points, levels):
        if p["repl"] == "lru" and p["prefetch"] == "none":
            sets = p["size"] // (p["block"] * p["assoc"])
            families.setdefault((p["block"], sets), []).append(
                (p["assoc"], lv["misses"]))
    for fam in families.values():
        fam.sort()
        for (w0, m0), (w1, m1) in zip(fam, fam[1:]):
            if m1 > m0:
                errors.append(f"LRU misses rose from {m0} to {m1} going "
                              f"from {w0} to {w1} ways at a fixed set count")
    return errors


def attribution(lay, tolerance, name=""):
    op = lay.get("op_ms", 0)
    un = lay.get("layers.unattributed_ms", 0)
    if op <= 0 or abs(un) > tolerance * op:
        return [f"{name} layer self times miss the operation wall time: "
                f"{un:.1f} ms unattributed of {op:.1f} ms"]
    return []


# -------------------------------------------------------------- transform

def rules_text(variant, r):
    """The rule of each transform variant, declared for R elements."""
    if variant == "t1":
        return (f"in:\nstruct lSoA {{\n  int mX[{r}];\n  double mY[{r}];\n}};\n"
                f"out:\nstruct lAoS {{\n  int mX;\n  double mY;\n}}[{r}];\n")
    if variant == "t2":
        return ("in:\nstruct mRarelyUsed {\n  double mY;\n  int mZ;\n};\n"
                f"struct lS1 {{\n  int mFrequentlyUsed;\n"
                f"  struct mRarelyUsed;\n}}[{r}];\n"
                f"out:\nstruct lStorageForRarelyUsed {{\n  double mY;\n"
                f"  int mZ;\n}}[{r}];\n"
                f"struct lS2 {{\n  int mFrequentlyUsed;\n"
                f"  + mRarelyUsed:lStorageForRarelyUsed;\n}}[{r}];\n")
    # T3: groups of 8 ints land 128 elements (512 bytes) apart.
    return (f"in:\nint lContiguousArray[{r}]:lSetHashingArray;\n"
            f"out:\nint lSetHashingArray[{16 * r}((lI/8)*(16*8)+(lI%8))];\n"
            "inject:\nL lITEMSPERLINE 4;\nL lITEMSPERLINE 4;\n"
            "L lITEMSPERLINE 4;\n")


def transform_counts(variant, n, r):
    """Rewritten/inserted/skipped records implied by kernel and rule."""
    fit, unfit = min(n, r), max(0, n - r)
    if variant == "t1":   # two members per element, no inserts
        return {"rewritten": 2 * fit, "inserted": 0, "skipped": 2 * unfit}
    if variant == "t2":   # three members; one pointer load per cold access
        return {"rewritten": 3 * fit, "inserted": 2 * fit,
                "skipped": 3 * unfit}
    return {"rewritten": fit, "inserted": 3 * fit, "skipped": unfit}


def transform_summary(variant, n, r, stderr_tail):
    m = re.search(r"transformed \d+ records \((\d+) rewritten, (\d+) "
                  r"inserted, \d+ passthrough, (\d+) skipped\)", stderr_tail)
    x = re.search(r"X001 xform-unmatched-var: (\d+)", stderr_tail)
    want = transform_counts(variant, n, r)
    if not m:
        return [f"{variant}: no transform summary on stderr"]
    got = {"rewritten": int(m[1]), "inserted": int(m[2]), "skipped": int(m[3])}
    errors = []
    if got != want:
        errors.append(f"{variant}: tool reports {got}, definitions give {want}")
    if want["skipped"] and (not x or int(x[1]) != want["skipped"]):
        errors.append(f"{variant}: X001 count differs from skipped records")
    return errors


def t3_known_fault(n, r, stderr_tail, xform=None):
    """True when a T3 run shows exactly the stride-rule fault: the indices
    R .. 8*ceil(R/8)-1 lie beyond the declared in-array, yet their remapped
    element still falls inside the out array, so they are rewritten (with
    their three injected loads) instead of skipped. With the reference
    walk of the transformed trace (`xform`), its first error must also be
    the unfit record at index R: every record before it checked clean."""
    if xform is not None and xform["errors"] and (
            xform["first_error_index"] != r or
            "unfit record did not pass through" not in xform["errors"][0]):
        return False
    m = re.search(r"transformed \d+ records \((\d+) rewritten, (\d+) "
                  r"inserted, \d+ passthrough, (\d+) skipped\)", stderr_tail)
    extra = min((8 - r % 8) % 8, max(0, n - r))
    want = transform_counts("t3", n, r)
    return extra > 0 and m is not None and (
        int(m[1]), int(m[2]), int(m[3])) == (
        want["rewritten"] + extra, want["inserted"] + 3 * extra,
        want["skipped"] - extra)


def refsim_xform(binary, variant, n, r, orig, xout, aos, config):
    argv = [binary, "xform", variant, str(n), str(r), orig, xout]
    if aos:
        argv.append(aos)
    res = json.loads(subprocess.run(argv, check=True,
                                    capture_output=True).stdout)
    sim = subprocess.run([binary, "sim", xout, config], check=True,
                         capture_output=True).stdout
    res["sim"] = json.loads(sim)
    return res


def xform_result(variant, n, r, res):
    errors = [f"{variant}: {e}" for e in res["errors"]]
    want = transform_counts(variant, n, r)
    got = {k: res[k] for k in want}
    if got != want:
        errors.append(f"{variant}: transformed trace holds {got}, "
                      f"definitions give {want}")
    return errors


def level_vs_ref(variant, levels, ref):
    if len(levels) != 1:
        return [f"{variant}: report has {len(levels)} cache levels"]
    bad = [k for k in LEVEL_KEYS if levels[0][k] != ref[k]]
    if levels[0]["accesses"] != ref["accesses"]:
        bad.append("accesses")
    return [f"{variant}: {bad} differ from the reference model"] if bad else []


# ------------------------------------------------------------------ serve

def serve_replies(logs, metrics):
    """Reply statuses, memo flags, memo replies equal to their cold
    replies, and (given the daemon's metrics) the memo hit count equal to
    the repeats sent and no busy refusals."""
    errors = []
    repeats = 0
    for log in logs:
        for kind, _, args, reply, _, first in log:
            if reply.get("status") != "ok":
                errors.append(f"request refused: {reply.get('status')} "
                              f"{reply.get('error')}")
                continue
            if kind == "miss" and reply.get("memo"):
                errors.append("a distinct request was answered from the memo")
            if kind == "hit":
                repeats += 1
                if not reply.get("memo"):
                    errors.append("a repeated request missed the memo")
                if reply.get("stdout") != log[first][3].get("stdout") or \
                        reply.get("exit") != log[first][3].get("exit"):
                    errors.append("a memo reply differs from its cold reply")
    if metrics is not None:
        c = metrics["counters"]
        if c.get("service.memo_hits", 0) != repeats:
            errors.append(f"daemon counted {c.get('service.memo_hits', 0)} "
                          f"memo hits, {repeats} repeats were sent")
        if c.get("service.admission_rejections", 0):
            errors.append("daemon refused requests with busy")
    return errors[:10]


def autotune_accesses(stdout):
    """Simulated accesses behind one autotune reply: the accesses column
    of every ranked row (baseline and candidates, one cache point)."""
    total = 0
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 9 and (parts[0] == "-" or parts[0].isdigit()) \
                and parts[3].isdigit():
            total += int(parts[3])
    return total


def best_totals(stdout):
    m = re.search(r"best \([^)]*\): merged L1 totals: (\d+) accesses, "
                  r"(\d+) misses", stdout)
    return (int(m[1]), int(m[2])) if m else None
