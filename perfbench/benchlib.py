"""Statistics, output checks and the compare rule of the benchmark.

Everything here is a pure function of its arguments, so the unit
tests in test_benchlib.py pin it down on fixed inputs. run.py does the
measuring and calls into this module for every number it reports.
"""

import hashlib
import json
import statistics

# Ladder of percentiles the benchmark may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

# A percentile is supported by n samples only when at least this many
# samples lie beyond it (choosing-metrics rule).
MIN_SAMPLES_BEYOND = 10

# Metrics whose value is a deterministic function of the inputs: any
# change between two builds is a change in simulated results, never a
# speed change.
DETERMINISTIC_METRICS = frozenset(
    {
        "memory.accesses",
        "memory.l1_miss_rate",
        "memory.l2_miss_rate",
        "memory.l3_miss_rate",
        "memory.coherence_invalidations",
        "sampling.detail_fraction",
        "sampling.budget_stops",
        "sampling.ci_halfwidth_pct",
        "sampling.error_pct_mean",
        "sampling.error_pct_max",
        "sampling.error_pct_p50",
        "sampling.error_pct_p90",
        "sampling.ci_coverage",
        "sim.checkpoint.boundaries",
        "sim.checkpoint.bytes_per_boundary",
        "sim.checkpoint.store_mb",
        "harness.slices",
    }
)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile (exclusive method)."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def percentile(values, p):
    """Linear-interpolated percentile p in [0, 100] of `values`."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    rank = p / 100.0 * (len(vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (rank - lo)


def supported_percentile(n):
    """Highest ladder percentile with MIN_SAMPLES_BEYOND samples beyond
    it among n samples, or None when even the median is unsupported."""
    best = None
    for p in PERCENTILE_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def error_pct(sampled_cycles, reference_cycles):
    """|T_sampled - T_ref| / T_ref in percent."""
    if reference_cycles <= 0:
        raise ValueError("reference time must be positive")
    return abs(sampled_cycles - reference_cycles) / reference_cycles * 100.0


def ci_covers(rel_half_width, err_pct):
    """Whether a reported relative CI half-width admits the observed
    error; a half-width of 0 means the CI was never computable."""
    return rel_half_width * 100.0 >= err_pct


def accuracy(records, references):
    """Error and CI-coverage figures of a sampled sweep.

    records: dicts with workload, seed, cycles, adaptive, half_width.
    references: dicts with workload, seed, cycles.
    """
    ref = {(r["workload"], r["seed"]): r["cycles"] for r in references}
    errors = []
    covered = []
    for r in records:
        key = (r["workload"], r["seed"])
        if key not in ref:
            raise KeyError("no reference for %s seed %d" % key)
        e = error_pct(r["cycles"], ref[key])
        errors.append(e)
        if r["adaptive"]:
            covered.append(ci_covers(r["half_width"], e))
    return {
        "errors": errors,
        "error_pct_mean": statistics.fmean(errors),
        "error_pct_max": max(errors),
        "error_pct_p50": percentile(errors, 50.0),
        "error_pct_p90": percentile(errors, 90.0),
        "adaptive_jobs": len(covered),
        "ci_coverage": (sum(covered) / len(covered)) if covered else 0.0,
    }


def residual_failure(residual_s, engine_s, max_share):
    """The failed-check message when the layer replays leave more than
    max_share of the engine wall unaccounted for (either sign), else
    None."""
    share = residual_s / engine_s
    if abs(share) <= max_share:
        return None
    return ("layer replays leave %.1f%% of the engine wall unaccounted for "
            "(limit %.0f%%)" % (share * 100, max_share * 100))


def deterministic_csv(text):
    """A CsvSink report without its host-timing columns (the last two:
    wall_speedup and host_seconds)."""
    out = []
    for line in text.splitlines():
        out.append(",".join(line.split(",")[:-2]))
    return "\n".join(out) + "\n"


def csv_host_seconds(text):
    """host_seconds column of a CsvSink report."""
    lines = text.splitlines()[1:]
    return [float(line.rsplit(",", 1)[1]) for line in lines if line]


def digest(obj):
    """Stable sha256 of a JSON-serializable value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pair_order(i):
    """Which side runs first in pair i: the order alternates."""
    return ("base", "head") if i % 2 == 0 else ("head", "base")


def _better(a, b, better):
    return a < b if better == "lower" else a > b


def compare_metric(base, head, better, bound, deterministic=False):
    """Compare one metric of one workload over paired runs.

    base[i] and head[i] come from pair i (the side that ran first
    alternates between pairs). Rule, per choosing-metrics section 8:
    a side wins only when it wins at least nine tenths of all pairs
    (ties count for neither) and the medians differ by more than the
    base's interquartile distance. Without a winner the metric is
    "unresolved" when the base's relative spread exceeds the bound,
    unless every head run beats every base run; otherwise it is
    "within bound" or "worse than bound" by its median. A metric
    without a bound (bound None, the per-layer ones) then has "no
    winner". A deterministic metric that changes at all is an
    "error".
    """
    if len(base) != len(head) or not base:
        raise ValueError("need the same nonzero number of runs per side")
    n = len(base)
    b_med = median(base)
    h_med = median(head)
    q1, _, q3 = quartiles(base)
    iqr = q3 - q1
    result = {
        "pairs": n,
        "base_median": b_med,
        "head_median": h_med,
        "base_quartiles": [q1, q3],
        "head_quartiles": list(quartiles(head)[::2]),
    }
    if deterministic:
        changed = any(b != h for b, h in zip(base, head))
        result["verdict"] = "error: deterministic value changed" if changed else "identical"
        return result

    head_wins = sum(1 for b, h in zip(base, head) if _better(h, b, better))
    base_wins = sum(1 for b, h in zip(base, head) if _better(b, h, better))
    result["head_wins"] = head_wins
    result["base_wins"] = base_wins
    gap = abs(h_med - b_med)
    if head_wins >= 0.9 * n and gap > iqr:
        result["verdict"] = "head better"
        return result
    if base_wins >= 0.9 * n and gap > iqr:
        result["verdict"] = "head worse"
        return result

    if bound is None:
        result["verdict"] = "no winner"
        return result
    spread = relative_spread(base)
    result["base_spread"] = spread
    if spread > bound:
        all_better = all(_better(h, b, better) for h in head for b in base)
        result["verdict"] = "head better" if all_better else "unresolved"
        return result
    worse_by = (h_med - b_med) / b_med if b_med else 0.0
    if better == "higher":
        worse_by = -worse_by
    result["worse_by"] = worse_by
    result["verdict"] = "worse than bound" if worse_by > bound else "within bound"
    return result
