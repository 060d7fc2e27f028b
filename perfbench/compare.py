#!/usr/bin/env python3
"""Compare the benchmark between two builds.

Run paired measurements of two checkouts (base = the parent, head =
the change) and judge every metric:

    python3 perfbench/compare.py run --base DIR --head DIR \\
        --workload sampled-sweep [--trace 0] [--out-dir DIR]

Pair i (of 10) runs both sides on seed 1000 + i for the run_seconds
of the base's BENCHMARK.json; the side that runs first alternates
between pairs. Each side's runs are saved as a result set (JSON), and
the two sets are judged as by `sets`:

    python3 perfbench/compare.py sets BASE.json HEAD.json

The rule is benchlib.compare_metric, with the better direction and
bound of each metric taken from the BENCHMARK.json next to this
directory. A change in any
deterministic metric, or in the digest of deterministic counters for
the same seed, is reported as an error, never as a speed change. The
exit code is 1 when any metric is an error, worse or worse than its
bound, else 0.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

PAIRS = 10
FIRST_SEED = 1000


def metric_specs(spec):
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def run_side(checkout, workload, seed, seconds, trace):
    """One benchmark run in `checkout`; returns (result line, digest)."""
    r = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("run in %s failed (exit %d):\n%s"
                         % (checkout, r.returncode, r.stderr[-2000:]))
    digest = next((l.rsplit(": ", 1)[1] for l in lines
                   if l.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def judge(base_set, head_set, specs):
    """Verdict per metric of two result sets of one workload."""
    b_runs, h_runs = base_set["runs"], head_set["runs"]
    if [r["seed"] for r in b_runs] != [r["seed"] for r in h_runs]:
        raise SystemExit("result sets were not run on the same seeds")
    verdicts = {}
    bad_digests = [r["seed"] for r, h in zip(b_runs, h_runs)
                   if r["digest"] != h["digest"]]
    if bad_digests:
        verdicts["digest"] = {
            "verdict": "error: deterministic counters changed on seeds %s"
                       % bad_digests}
    if not all(r["result"]["correct"] for r in b_runs + h_runs):
        verdicts["correct"] = {"verdict": "error: a run failed its output checks"}
    for name in b_runs[0]["result"]["metrics"]:
        better, bound = specs.get(name, ("lower", None))
        base = [r["result"]["metrics"][name]["value"] for r in b_runs]
        head = [r["result"]["metrics"][name]["value"] for r in h_runs]
        verdicts[name] = benchlib.compare_metric(
            base, head, better, bound,
            deterministic=name in benchlib.DETERMINISTIC_METRICS)
    return verdicts


def report(workload, verdicts):
    failed = False
    print("workload %s" % workload)
    for name, v in verdicts.items():
        verdict = v["verdict"]
        failed |= verdict.startswith("error") or verdict in (
            "head worse", "worse than bound")
        if "base_median" not in v:
            print("  %-40s %s" % (name, verdict))
            continue
        print("  %-40s %-18s base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]%s" % (
            name, verdict, v["base_median"], *v["base_quartiles"],
            v["head_median"], *v["head_quartiles"],
            "  wins head %d / base %d of %d" % (v["head_wins"], v["base_wins"],
                                                v["pairs"])
            if "head_wins" in v else ""))
    return failed


def cmd_run(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dirs = {"base": Path(args.base).resolve(), "head": Path(args.head).resolve()}
    spec = json.loads((dirs["base"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets = {side: {"side": side, "checkout": str(d), "workload": args.workload,
                   "trace": args.trace, "seconds": seconds, "runs": []}
            for side, d in dirs.items()}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        for pos, side in enumerate(benchlib.pair_order(i)):
            line, digest = run_side(dirs[side], args.workload, seed,
                                    seconds, args.trace)
            sets[side]["runs"].append({"pair": i, "seed": seed, "first": pos == 0,
                                       "result": line, "digest": digest})
            print("pair %d seed %d %s done" % (i, seed, side), file=sys.stderr)
    for side, s in sets.items():
        (out_dir / ("%s-%s-trace%d.json" % (side, args.workload, args.trace))
         ).write_text(json.dumps(s, indent=1))
    return 1 if report(args.workload, judge(sets["base"], sets["head"],
                                            metric_specs(spec))) else 0


def cmd_sets(args):
    base = json.loads(Path(args.base_set).read_text())
    head = json.loads(Path(args.head_set).read_text())
    if base["workload"] != head["workload"]:
        raise SystemExit("result sets are of different workloads")
    specs = metric_specs(json.loads((HERE.parent / "BENCHMARK.json").read_text()))
    return 1 if report(base["workload"], judge(base, head, specs)) else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run paired measurements of two checkouts")
    r.add_argument("--base", required=True)
    r.add_argument("--head", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out-dir", default="compare-out")
    s = sub.add_parser("sets", help="judge two saved result sets")
    s.add_argument("base_set")
    s.add_argument("head_set")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_sets(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
