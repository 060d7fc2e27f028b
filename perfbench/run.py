#!/usr/bin/env python3
"""Repository benchmark of the TaskPoint simulator.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload detailed-ref --seed 1 \\
        --seconds 15 --trace 0

Workloads: detailed-ref, sampled-sweep, ckpt-campaign (README.md in
this directory says why each exists). --trace 0 measures the
end-to-end metrics; --trace 1 is the separate traced run that reports
the per-layer metrics. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable summary, the host fingerprint and a digest
of every deterministic counter. The exit code is 0 only when every
output check passed.

The first run in a checkout builds the simulator and the in-process
program (perfbench/tpbench.cc) into .bench_build/ with CMake.

Compare two checkouts, or two saved result sets, with compare.py.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("detailed-ref", "sampled-sweep", "ckpt-campaign")
BUILD_DIR = ROOT / ".bench_build"
BUILD_TARGETS = ("tpbench", "replay_plan", "taskpoint_dispatch", "taskpoint_worker")

# Workload sizes. "full" is the scale of the repository's figure drivers
# (bench/bench_common.hh: scale 0.125, instruction scale 1.0); README.md
# records why smaller sizes were rejected. "smoke" is the tiny scale of
# the benchmark's own tests.
SIZES = {
    "full": {
        "dr_scale": 0.125, "dr_instr": 1.0,
        "ss_scale": 0.125, "ss_instr": 1.0, "ss_seeds": 3,
        "ck_scale": 0.125, "inst_budget": 40_000_000,
    },
    "smoke": {
        "dr_scale": 0.002, "dr_instr": 0.05,
        "ss_scale": 0.004, "ss_instr": 0.05, "ss_seeds": 1,
        "ck_scale": 0.005, "inst_budget": 2_000_000,
    },
}

# No child may outlive this many seconds (the whole run has 180).
PROC_TIMEOUT_S = 150

# On detailed-ref the layer replays must account for the engine wall:
# the residual (event loop, scheduler, dependency tracker) may be at
# most this share of it, either sign. Traced runs on a 4-vCPU Xeon
# host measured shares of 0.06 to 0.28; the replays run after the pass,
# so a change of host speed in between moves the share too.
RESIDUAL_MAX_SHARE = 0.5


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_jobs():
    return max(1, len(os.sched_getaffinity(0)))


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


class Proc:
    """A finished child: exit code, output, wall seconds, peak RSS."""

    def __init__(self, rc, out, err, wall, rss_mb):
        self.rc, self.out, self.err = rc, out, err
        self.wall, self.rss_mb = wall, rss_mb


def run_proc(cmd, env):
    """Run cmd in its own session; time it and take its peak RSS (the
    largest of it and its waited-for descendants) from wait4."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.monotonic()
        p = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err,
                             env=env, cwd=ROOT, start_new_session=True)
        timed_out = []

        def kill():
            timed_out.append(True)
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(PROC_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        # Reap anything the child left in its session.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        out.seek(0)
        err.seek(0)
        res = Proc(p.returncode, out.read().decode(errors="replace"),
                   err.read().decode(errors="replace"), wall,
                   ru.ru_maxrss / 1024.0)
    if timed_out:
        raise BenchError("%s timed out after %d s" % (cmd[0], PROC_TIMEOUT_S))
    if res.rc != 0:
        raise BenchError("%s exited with %d:\n%s" % (
            " ".join(str(c) for c in cmd), res.rc, res.err[-2000:]))
    return res


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        raise BenchError("tpbench printed nothing")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Build and host fingerprint
# ----------------------------------------------------------------------


def check_sources():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no simulator sources at %s (CMakeLists.txt and src/ "
                         "must sit next to perfbench/)" % ROOT)


def build():
    """Configure once, then build the benchmark's targets (incremental)."""
    check_sources()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(host_jobs()),
                        "--target", *BUILD_TARGETS],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("cmake build failed")
    sub = BUILD_DIR / "taskpoint"
    return {
        "tpbench": BUILD_DIR / "tpbench",
        "replay_plan": sub / "replay_plan",
        "taskpoint_dispatch": sub / "taskpoint_dispatch",
    }


def source_digest():
    """sha256 over the files the build reads (for checkouts without git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "tools", "examples", "perfbench"):
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": host_jobs(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Ctx:
    """What one invocation runs: workload, seed, budget and where."""

    def __init__(self, args, bins, source_sha256):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.size = SIZES["smoke" if args.smoke else "full"]
        self.bins = bins
        self.work = BUILD_DIR / "work" / args.workload
        # Memoized references are only valid for the sources that
        # computed them.
        self.memo = BUILD_DIR / "memo" / source_sha256[:16]
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.memo.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(self.work / "tmp")
        self.env = dict(os.environ, TMPDIR=str(self.work / "tmp"))
        self.jobs = host_jobs()
        self.executors = max(1, self.jobs - 1)


class Outcome:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failures = []
        self.summary = []
        self.deterministic = None


def memory_metrics(records):
    tot = lambda k: sum(r[k] for r in records)
    rate = lambda m, a: tot(m) / tot(a) if tot(a) else 0.0
    return {
        "memory.accesses": tot("l1_accesses"),
        "memory.l1_miss_rate": rate("l1_misses", "l1_accesses"),
        "memory.l2_miss_rate": rate("l2_misses", "l2_accesses"),
        "memory.l3_miss_rate": rate("l3_misses", "l3_accesses"),
        "memory.coherence_invalidations": tot("coherence_invalidations"),
    }


def sampling_metrics(records):
    detailed = sum(r["detailed_insts"] for r in records)
    total = detailed + sum(r["fast_insts"] for r in records)
    adaptive = [r for r in records if r["adaptive"]]
    return {
        "sampling.detail_fraction": detailed / total if total else 0.0,
        "sampling.budget_stops": sum(1 for r in adaptive if r["budget_stopped"]),
        "sampling.ci_halfwidth_pct": (
            sum(r["half_width"] for r in adaptive) / len(adaptive) * 100.0
            if adaptive else 0.0),
    }


ACCURACY_KEYS = ("error_pct_mean", "error_pct_max", "error_pct_p50",
                 "error_pct_p90", "ci_coverage")


def accuracy_metrics(acc):
    """The sweep's accuracy figures; 0 for a workload that has no
    sampled-vs-reference pairs (acc None)."""
    return {"sampling." + k: acc[k] if acc else 0.0 for k in ACCURACY_KEYS}


def engine_split(layers, records, engine_s):
    """The engine wall split into the layer replays' estimates for the
    detailed instructions simulated, plus the residual."""
    rp = layers["replay"]
    detailed = sum(r["detailed_insts"] for r in records)
    per_inst = lambda t: t / rp["insts"] * detailed
    split = {
        "trace.instr_stream": per_inst(rp["stream_s"]),
        "memory": per_inst(rp["mem_s"]),
        "cpu.rob": per_inst(rp["rob_s"] - rp["stream_s"] - rp["mem_s"]),
    }
    split["sim.residual"] = engine_s - sum(split.values())
    return split


def split_line(workload, split, engine_s):
    return "%s: engine wall %.3f s = %s" % (workload, engine_s, " + ".join(
        "%s %.3f s" % kv for kv in split.items()))


def layer_metrics(layers, records, engine_s):
    """Per-layer metrics that tpbench's --layers probes give every workload."""
    rp = layers["replay"]
    cp = layers["checkpoint"]
    rc = layers["result_cache"]
    insts = rp["insts"]
    b = max(cp["boundaries"], 1)
    m = {
        "trace.gen_s": layers["trace_gen_s"],
        "trace.instr_stream.ns_per_inst": rp["stream_s"] / insts * 1e9,
        "memory.access_ns": rp["mem_s"] / rp["accesses"] * 1e9,
        "cpu.rob.self_ns_per_inst":
            (rp["rob_s"] - rp["stream_s"] - rp["mem_s"]) / insts * 1e9,
        "sim.residual_s": engine_split(layers, records, engine_s)["sim.residual"],
        "sim.checkpoint.bytes_per_boundary": cp["bytes"] / b,
        "sim.checkpoint.serialize_ms":
            (cp["record_s"] - cp["blob_store_s"] - cp["plain_s"]) / b * 1e3,
        "sim.checkpoint.deserialize_ms":
            (cp["slices_s"] + cp["envelope_s"] - cp["plain_s"]) / b * 1e3,
        "harness.result_cache.store_ms": rc["store_s"] / rc["entries"] * 1e3,
        "harness.result_cache.lookup_ms": rc["lookup_s"] / rc["entries"] * 1e3,
        "harness.result_cache.blob_store_ms": cp["blob_store_s"] / b * 1e3,
        "harness.result_cache.blob_load_ms": cp["blob_load_s"] / b * 1e3,
    }
    m.update(memory_metrics(records))
    m.update(sampling_metrics(records))
    return m


def executor_probe(ctx, plan, out):
    """Time one plan at equal parallelism N through the three executors:
    replay_plan --jobs=N, replay_plan --workers=N and taskpoint_dispatch
    --runners=N. Their deterministic CSV columns must agree."""
    n = ctx.executors
    spool = ctx.work / "spool"
    shutil.rmtree(spool, ignore_errors=True)
    csv = {k: ctx.work / ("exec-%s.csv" % k) for k in ("jobs", "workers", "dispatch")}
    rp = ctx.bins["replay_plan"]
    runs = {
        "jobs": [rp, "--plan=%s" % plan, "--jobs=%d" % n, "--cache=off",
                 "--csv=%s" % csv["jobs"]],
        "workers": [rp, "--plan=%s" % plan, "--workers=%d" % n, "--cache=off",
                    "--csv=%s" % csv["workers"]],
        "dispatch": [ctx.bins["taskpoint_dispatch"], "--plan=%s" % plan,
                     "--runners=%d" % n, "--spool=%s" % spool, "--cache=off",
                     "--csv=%s" % csv["dispatch"]],
    }
    wall = {}
    retries = 0
    for k, cmd in runs.items():
        p = run_proc(cmd, ctx.env)
        wall[k] = p.wall
        retries += len(re.findall(r"retrying|stole", p.err))
    shutil.rmtree(spool, ignore_errors=True)
    ref = benchlib.deterministic_csv(csv["jobs"].read_text())
    for k in ("workers", "dispatch"):
        if benchlib.deterministic_csv(csv[k].read_text()) != ref:
            out.failures.append("executor probe: --%s report differs from --jobs=%d"
                                % (k, n))
    return {
        "harness.executor.workers_overhead_s": wall["workers"] - wall["jobs"],
        "harness.executor.dispatch_overhead_s": wall["dispatch"] - wall["jobs"],
    }, retries, sum(wall.values())


def job_percentiles(samples, out, name):
    """Per-job host seconds of the traced pass, with the sample count
    and the highest percentile it supports stated in the summary."""
    n = len(samples)
    supported = benchlib.supported_percentile(n)
    out.summary.append("%s: job_s over %d job samples; highest percentile with "
                       ">= %d samples beyond it: %s" % (
                           name, n, benchlib.MIN_SAMPLES_BEYOND,
                           "p%g" % supported if supported else "none"))
    return {"harness.batch.job_s_p50": benchlib.percentile(samples, 50.0),
            "harness.batch.job_s_p90": benchlib.percentile(samples, 90.0)}


def deterministic_records(records):
    drop = ("host_s", "engine_s")
    return [{k: v for k, v in r.items() if k not in drop} for r in records]


def run_in_process(ctx):
    """detailed-ref and sampled-sweep: timed BatchRunner passes in tpbench."""
    sz = ctx.size
    sweep = ctx.workload == "sampled-sweep"
    jobs = ctx.jobs if sweep else 1
    cmd = [ctx.bins["tpbench"], ctx.workload, "--seed=%d" % ctx.seed,
           "--work=%s" % ctx.work, "--jobs=%d" % jobs,
           "--ckpt-scale=%g" % sz["ck_scale"]]
    references = None
    if sweep:
        size = ["--scale=%g" % sz["ss_scale"], "--instr-scale=%g" % sz["ss_instr"],
                "--seeds=%d" % sz["ss_seeds"]]
        cmd += size
        if ctx.trace:
            # The accuracy figures are per-layer metrics: the traced run
            # computes the references first, in a process of their own
            # (memoized).
            r = run_proc([ctx.bins["tpbench"], "sweep-refs", "--seed=%d" % ctx.seed,
                          "--jobs=%d" % jobs, "--memo=%s" % (ctx.memo / "refs")]
                         + size, ctx.env)
            references = last_json(r.out)
    else:
        cmd += ["--scale=%g" % sz["dr_scale"], "--instr-scale=%g" % sz["dr_instr"]]
    plan = ctx.work / "plan.bin"
    if ctx.trace:
        cmd += ["--seconds=0", "--min-passes=1", "--layers",
                "--inst-budget=%d" % sz["inst_budget"], "--plan-out=%s" % plan]
    else:
        cmd += ["--seconds=%g" % ctx.seconds, "--min-passes=2"]
    proc = run_proc(cmd, ctx.env)
    doc = last_json(proc.out)
    out = Outcome()
    out.failures += doc["failures"]
    if references:
        out.failures += references["failures"]
    passes = doc["passes"]
    records = doc["records"]
    out.attempted = doc["plan_jobs"] * len(passes)
    acc = None
    if sweep:
        for i, p in enumerate(passes):
            if p["cache_stores"] != doc["plan_jobs"] or p["cache_failed_stores"]:
                out.failures.append("pass %d: %d of %d jobs published to the "
                                    "result cache (%d failed stores)" % (
                                        i, p["cache_stores"], doc["plan_jobs"],
                                        p["cache_failed_stores"]))
    if references:
        refs = references["refs"]
        acc = benchlib.accuracy(records, refs)
        worst = max(zip(acc["errors"], (r["label"] for r in records)))
        out.summary.append(
            "%s: references %d (%d from memo, %.1f s, untimed)" % (
                ctx.workload, len(refs), references["from_memo"],
                references["seconds"]))
        out.summary.append(
            "%s: error vs detailed over %d jobs: mean %.2f%%, p50 %.2f%%, "
            "p90 %.2f%%, max %.2f%% (%s); CI coverage %.3f of %d adaptive jobs" % (
                ctx.workload, len(records), acc["error_pct_mean"],
                acc["error_pct_p50"], acc["error_pct_p90"], worst[0], worst[1],
                acc["ci_coverage"], acc["adaptive_jobs"]))
    out.deterministic = {"records": deterministic_records(records),
                         "references": references["refs"] if references else None}

    walls = [p["wall_s"] for p in passes]
    q1, _, q3 = benchlib.quartiles(walls)
    out.summary.append("%s: %d passes of %d jobs at %d host threads; wall median "
                       "%.3f s (q1 %.3f, q3 %.3f)" % (
                           ctx.workload, len(passes), doc["plan_jobs"], jobs,
                           benchlib.median(walls), q1, q3))
    if not ctx.trace:
        out.metrics = {
            "wall_s": benchlib.median(walls),
            "sim_minst_per_s": benchlib.median(
                [p["sim_insts"] / p["wall_s"] / 1e6 for p in passes]),
            "setup_s": benchlib.median(doc["setup_s"]),
            "peak_rss_mb": proc.rss_mb,
        }
        return out

    p0 = passes[0]
    m = layer_metrics(doc["layers"], records, p0["engine_s"])
    split = engine_split(doc["layers"], records, p0["engine_s"])
    out.summary.append(split_line(ctx.workload, split, p0["engine_s"]))
    if not sweep:
        failure = benchlib.residual_failure(split["sim.residual"], p0["engine_s"],
                                            RESIDUAL_MAX_SHARE)
        if failure:
            out.failures.append(failure)
    ex, retries, ex_wall = executor_probe(ctx, plan, out)
    m.update(ex)
    m.update(accuracy_metrics(acc))
    m.update(job_percentiles(p0["job_s"], out, ctx.workload))
    m.update({
        "sim.checkpoint.boundaries": 0,
        "sim.checkpoint.store_mb": 0.0,
        "harness.ckpt.record_s": 0.0,
        "harness.ckpt.replay_s": 0.0,
        "harness.batch.busy_frac": sum(p0["job_s"]) / (p0["wall_s"] * jobs),
        "harness.result_cache.hits": p0["cache_hits"],
        "harness.result_cache.misses": p0["cache_misses"],
        "harness.result_cache.failed_stores": p0["cache_failed_stores"],
        "harness.slices": 0,
        "harness.retries": retries,
        "bench.trace_overhead_s": doc["layers"]["probe_s"] + ex_wall,
    })
    out.metrics = m
    return out


def store_stats(store, plan_jobs):
    # Entries only: the store's index.tsv holds use-order stamps.
    entries = [p for p in store.iterdir() if p.suffix == ".tpres"]
    return {
        "bytes": sum(p.stat().st_size for p in entries),
        # One manifest per job; every other entry is one boundary.
        "boundaries": len(entries) - plan_jobs,
    }


def ckpt_pass(ctx, plan, ref_csv, plan_jobs, out):
    """One campaign pass: record, then replay as checkpoint slices."""
    store = ctx.work / "store"
    shutil.rmtree(store, ignore_errors=True)
    res = {}
    for phase in ("record", "replay"):
        csv = ctx.work / ("%s.csv" % phase)
        p = run_proc([ctx.bins["replay_plan"], "--plan=%s" % plan,
                      "--workers=%d" % ctx.executors,
                      "--checkpoint-dir=%s" % store, "--cache=off",
                      "--csv=%s" % csv], ctx.env)
        text = csv.read_text()
        if benchlib.deterministic_csv(text) != ref_csv:
            out.failures.append("%s pass: report differs from the --jobs=%d "
                                "reference" % (phase, ctx.executors))
        shard_jobs = sum(int(n) for n in re.findall(r"complete \((\d+) jobs\)", p.err))
        res[phase] = {
            "wall_s": p.wall, "rss_mb": p.rss_mb,
            "job_s": benchlib.csv_host_seconds(text),
            "shard_jobs": shard_jobs,
            "retries": len(re.findall(r"retrying", p.err)),
        }
        if phase == "record":
            res["store"] = store_stats(store, plan_jobs)
    if res["replay"]["shard_jobs"] <= plan_jobs:
        out.failures.append("replay pass ran %d jobs for %d plan jobs: no "
                            "checkpoint slices" % (res["replay"]["shard_jobs"],
                                                   plan_jobs))
    if res["store"]["boundaries"] < 1:
        out.failures.append("record pass stored no checkpoint")
    shutil.rmtree(store, ignore_errors=True)
    return res


def run_ckpt_campaign(ctx):
    sz = ctx.size
    out = Outcome()
    plan = ctx.work / "plan.bin"

    def plan_and_time_setup():
        """Write the plan and time its set-up; called before every pass
        so the set-up samples span the run as the passes do."""
        p = run_proc([ctx.bins["tpbench"], "ckpt-plan", "--seed=%d" % ctx.seed,
                      "--work=%s" % ctx.work, "--plan-out=%s" % plan,
                      "--scale=%g" % sz["ck_scale"]], ctx.env)
        return last_json(p.out)

    planned = plan_and_time_setup()
    setups = []
    plan_jobs = planned["plan_jobs"]
    trace_insts = sum(int(x) for x in planned["trace_insts"])

    # The in-process --jobs=N reference report, memoized by plan digest.
    memo_csv = ctx.memo / ("ckpt-%s.csv" % planned["plan_digest"])
    memo_json = memo_csv.with_suffix(".json")
    if ctx.trace or not (memo_csv.is_file() and memo_json.is_file()):
        cmd = [ctx.bins["tpbench"], "ckpt-ref", "--plan=%s" % plan,
               "--csv=%s" % (ctx.work / "ref.csv"), "--jobs=%d" % ctx.executors]
        if ctx.trace:
            cmd += ["--layers", "--work=%s" % ctx.work,
                    "--inst-budget=%d" % sz["inst_budget"]]
        r = run_proc(cmd, ctx.env)
        ref = last_json(r.out)
        out.failures += ref["failures"]
        if not ctx.trace and not ref["failures"]:
            shutil.copyfile(ctx.work / "ref.csv", memo_csv)
            memo_json.write_text(json.dumps(ref))
        ref_csv_text = (ctx.work / "ref.csv").read_text()
    else:
        ref = json.loads(memo_json.read_text())
        ref_csv_text = memo_csv.read_text()
    ref_csv = benchlib.deterministic_csv(ref_csv_text)
    records = ref["records"]
    out.deterministic = {"records": deterministic_records(records),
                         "report": ref_csv}

    passes = []
    deadline = time.monotonic() + (0 if ctx.trace else ctx.seconds)
    while len(passes) < (1 if ctx.trace else 2) or time.monotonic() < deadline:
        setups += plan_and_time_setup()["setup_s"] if passes else planned["setup_s"]
        passes.append(ckpt_pass(ctx, plan, ref_csv, plan_jobs, out))
    out.attempted = 2 * plan_jobs * len(passes)
    stores = {ps["store"]["bytes"] for ps in passes}
    if len(stores) != 1:
        out.failures.append("checkpoint store size differs across passes: %s"
                            % sorted(stores))
    walls = [ps["record"]["wall_s"] + ps["replay"]["wall_s"] for ps in passes]
    q1, _, q3 = benchlib.quartiles(walls)
    st = passes[0]["store"]
    out.summary.append(
        "ckpt-campaign: %d passes of %d jobs on %d worker processes; wall median "
        "%.3f s (q1 %.3f, q3 %.3f); record median %.3f s, replay median %.3f s; "
        "store %.1f MB over %d boundaries" % (
            len(passes), plan_jobs, ctx.executors, benchlib.median(walls), q1, q3,
            benchlib.median([ps["record"]["wall_s"] for ps in passes]),
            benchlib.median([ps["replay"]["wall_s"] for ps in passes]),
            st["bytes"] / 1e6, st["boundaries"]))
    if not ctx.trace:
        out.metrics = {
            "wall_s": benchlib.median(walls),
            "sim_minst_per_s": benchlib.median([2 * trace_insts / w / 1e6
                                                for w in walls]),
            "setup_s": benchlib.median(setups),
            # Which worker holds which slices varies from pass to pass,
            # and with it the largest process; take the pass median.
            "peak_rss_mb": benchlib.median([
                max(ps["record"]["rss_mb"], ps["replay"]["rss_mb"])
                for ps in passes]),
        }
        return out

    ps = passes[0]
    m = layer_metrics(ref["layers"], records, ref["engine_s"])
    out.summary.append(split_line(ctx.workload, engine_split(
        ref["layers"], records, ref["engine_s"]), ref["engine_s"]))
    ex, retries, ex_wall = executor_probe(ctx, plan, out)
    m.update(ex)
    m.update(accuracy_metrics(None))
    rec = ps["record"]
    m.update(job_percentiles(rec["job_s"] + ps["replay"]["job_s"], out,
                             ctx.workload))
    m.update({
        "sim.checkpoint.boundaries": st["boundaries"],
        "sim.checkpoint.store_mb": st["bytes"] / 1e6,
        "harness.ckpt.record_s": rec["wall_s"],
        "harness.ckpt.replay_s": ps["replay"]["wall_s"],
        "harness.batch.busy_frac": sum(rec["job_s"]) / (rec["wall_s"] * ctx.executors),
        "harness.result_cache.hits": 0,
        "harness.result_cache.misses": 0,
        "harness.result_cache.failed_stores": 0,
        "harness.slices": ps["replay"]["shard_jobs"],
        "harness.retries": retries + rec["retries"] + ps["replay"]["retries"],
        "bench.trace_overhead_s": ref["layers"]["probe_s"] + ex_wall,
    })
    out.metrics = m
    return out


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def metric_units(trace):
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(out, trace):
    units = metric_units(trace)
    metrics = dict(out.metrics)
    if trace:
        metrics["harness.failed_frac"] = len(out.failures) / max(out.attempted, 1)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError("metrics not measured: %s" % sorted(missing))
    failed = min(len(out.failures), max(out.attempted, 1))
    return {
        "correct": not out.failures,
        "attempted": max(out.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        bins = build()
        fp = fingerprint()
        ctx = Ctx(args, bins, fp["source_sha256"])
        out = run_in_process(ctx) if args.workload != "ckpt-campaign" \
            else run_ckpt_campaign(ctx)
        line = result_line(out, ctx.trace)
    except BenchError as e:
        log("benchmark failed: %s" % e)
        return 2
    for s in out.summary:
        print(s)
    det = benchlib.digest(out.deterministic)
    print("fingerprint %s" % json.dumps(fp, sort_keys=True))
    print("digest %s seed %d: %s" % (args.workload, args.seed, det))
    for f in out.failures:
        print("CHECK FAILED: %s" % f)
        log("CHECK FAILED: %s" % f)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
