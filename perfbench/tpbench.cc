/**
 * @file
 * In-process measuring program of the repository benchmark (see README.md in
 * this directory). run.py calls it and turns its raw samples into
 * metrics; it prints exactly one JSON document on stdout.
 *
 *   tpbench detailed-ref  --seed=N --seconds=S --work=DIR --scale=X
 *                         --instr-scale=X --jobs=N --min-passes=N
 *                         [--layers --inst-budget=N --ckpt-scale=X]
 *                         [--plan-out=FILE]
 *   tpbench sampled-sweep (as detailed-ref) --seeds=K
 *   tpbench sweep-refs    --seed=N --memo=DIR --scale=X --instr-scale=X
 *                         --seeds=K --jobs=N
 *   tpbench ckpt-plan     --seed=N --work=DIR --plan-out=FILE --scale=X
 *   tpbench ckpt-ref      --plan=FILE --csv=FILE --jobs=N
 *                         [--layers --work=DIR --inst-budget=N]
 *
 * Every size is an argument: run.py holds the workload sizes.
 *
 * detailed-ref and sampled-sweep run their plan through BatchRunner
 * in passes until `--seconds` have elapsed; every pass builds the
 * plan, re-creates the runner, realizes the traces and opens the
 * result store before its timer starts (that is a set-up sample),
 * then times BatchRunner::run alone. sweep-refs computes the sweep's
 * detailed references (memoized) in a process of its own. ckpt-plan
 * writes the checkpoint campaign's plan for the replay_plan CLI;
 * ckpt-ref runs that plan in process as the byte-identity reference.
 *
 * `--layers` adds the layer replays: instruction generation, the
 * cache hierarchy and the ROB core driven through their public
 * functions on the workload's own task instances, a checkpoint
 * record/restore probe, and result-cache store/lookup timing. Each
 * is timed from outside around the public call.
 *
 * Any failed output check is listed under "failures"; the process
 * still prints its document so run.py can report what went wrong.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "cpu/arch_config.hh"
#include "cpu/rob_core.hh"
#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/job_spec.hh"
#include "harness/result_cache.hh"
#include "harness/result_sink.hh"
#include "memory/hierarchy.hh"
#include "sampling/taskpoint.hh"
#include "sim/checkpoint.hh"
#include "sim/trace_observer.hh"
#include "trace/instr_stream.hh"
#include "workloads/workloads.hh"

using namespace tp;
namespace fs = std::filesystem;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Command line: tp::CliArgs over the arguments after the command.
// ---------------------------------------------------------------------

/** Options of the detailed-ref and sampled-sweep commands. */
const std::vector<CliOption> kPassOptions = {
    {"seed", "base seed of every trace"},
    {"seconds", "measure passes until this many seconds elapsed"},
    {"work", "scratch directory"},
    {"scale", "workload problem scale"},
    {"instr-scale", "workload instruction scale"},
    {"seeds", "trace seeds per workload (sampled-sweep)"},
    {"jobs", "BatchRunner threads"},
    {"min-passes", "passes to run at least"},
    {"layers", "add the layer probes"},
    {"inst-budget", "instructions the layer replay covers at most"},
    {"ckpt-scale", "scale of the checkpoint-probe job"},
    {"plan-out", "write the plan here"},
};

const std::vector<CliOption> kSweepRefsOptions = {
    {"seed", "base seed of every trace"},
    {"memo", "result cache that memoizes the references"},
    {"scale", "workload problem scale"},
    {"instr-scale", "workload instruction scale"},
    {"seeds", "trace seeds per workload"},
    {"jobs", "BatchRunner threads"},
};

const std::vector<CliOption> kCkptPlanOptions = {
    {"seed", "base seed of every trace"},
    {"work", "scratch directory"},
    {"plan-out", "write the plan here"},
    {"scale", "workload problem scale"},
};

const std::vector<CliOption> kCkptRefOptions = {
    {"plan", "serialized plan to run"},
    {"csv", "write the report here"},
    {"jobs", "BatchRunner threads"},
    {"layers", "add the layer probes"},
    {"work", "scratch directory (with --layers)"},
    {"inst-budget", "instructions the layer replay covers at most"},
};

void
require(const CliArgs &args, const std::string &name)
{
    if (!args.has(name))
        fatal("tpbench: --%s is required", name.c_str());
}

std::string
needString(const CliArgs &args, const std::string &name)
{
    require(args, name);
    return args.getString(name, "");
}

double
needDouble(const CliArgs &args, const std::string &name, double lo,
           double hi)
{
    require(args, name);
    return args.getDoubleIn(name, 0.0, lo, hi);
}

std::uint64_t
needUint(const CliArgs &args, const std::string &name, std::uint64_t lo,
         std::uint64_t hi)
{
    require(args, name);
    return args.getUintIn(name, 0, lo, hi);
}

std::uint64_t
seedArg(const CliArgs &args)
{
    return needUint(args, "seed", 0, UINT64_MAX);
}

double
scaleArg(const CliArgs &args, const std::string &name)
{
    return needDouble(args, name, 1e-4, 4.0);
}

std::size_t
jobsArg(const CliArgs &args)
{
    return needUint(args, "jobs", 1, 256);
}

InstCount
budgetArg(const CliArgs &args)
{
    return needUint(args, "inst-budget", 1'000'000, 10'000'000'000ULL);
}

// ---------------------------------------------------------------------
// Minimal JSON writer: values are pre-serialized strings.
// ---------------------------------------------------------------------

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    return b;
}

std::string
jnum(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
jbool(bool b)
{
    return b ? "true" : "false";
}

class JObj
{
  public:
    JObj &
    put(const std::string &k, const std::string &raw)
    {
        body_ += (body_.empty() ? "" : ", ") + sim::jsonQuote(k) + ": " + raw;
        return *this;
    }
    JObj &num(const std::string &k, double v) { return put(k, jnum(v)); }
    JObj &u64(const std::string &k, std::uint64_t v)
    {
        return put(k, jnum(v));
    }
    JObj &str(const std::string &k, const std::string &v)
    {
        return put(k, sim::jsonQuote(v));
    }
    std::string dump() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jarr(const std::vector<std::string> &raws)
{
    std::string o = "[";
    for (std::size_t i = 0; i < raws.size(); ++i)
        o += (i ? ", " : "") + raws[i];
    return o + "]";
}

std::string
jnums(const std::vector<double> &v)
{
    std::vector<std::string> raws;
    raws.reserve(v.size());
    for (const double x : v)
        raws.push_back(jnum(x));
    return jarr(raws);
}

// ---------------------------------------------------------------------
// Plans. Seeds derive from --seed alone; deriveSeeds is off so the
// lazy and adaptive jobs of one trace share it with its reference.
// ---------------------------------------------------------------------

const char *const kDetailedWorkloads[] = {
    "sparse-matrix-vector-multiplication", "histogram", "n-body",
    "canneal"};

const char *const kCkptWorkloads[] = {"checkSparseLU", "cholesky",
                                      "bodytrack", "n-body"};

std::uint64_t
traceSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return harness::BatchRunner::jobSeed(
        harness::BatchRunner::jobSeed(seed, stream), index);
}

harness::JobSpec
makeJob(const std::string &label, const std::string &workload,
        double scale, std::uint64_t seed, harness::BatchMode mode,
        const sampling::SamplingParams &params, double instrScale = 1.0)
{
    harness::JobSpec j;
    j.label = label;
    j.workload = workload;
    j.workloadParams.scale = scale;
    j.workloadParams.instrScale = instrScale;
    j.workloadParams.seed = seed;
    j.spec.arch = cpu::highPerformanceConfig();
    j.spec.threads = 8;
    j.spec.noise.seed = seed;
    j.sampling = params;
    j.mode = mode;
    return j;
}

/** Trace seeds per workload in detailed-ref. */
constexpr std::uint64_t kDetailedSeeds = 1;

harness::ExperimentPlan
detailedRefPlan(std::uint64_t seed, double scale, double instrScale)
{
    harness::ExperimentPlan plan;
    plan.baseSeed = seed;
    plan.deriveSeeds = false;
    for (std::uint64_t k = 0; k < kDetailedSeeds; ++k) {
        std::uint64_t i = 0;
        for (const char *w : kDetailedWorkloads)
            plan.jobs.push_back(makeJob(
                std::string(w) + "/s" + std::to_string(k) + "/ref", w,
                scale, traceSeed(seed, 200 + k, i++),
                harness::BatchMode::Reference,
                sampling::SamplingParams::lazy(), instrScale));
    }
    return plan;
}

constexpr double kAdaptiveTarget = 0.01;

harness::ExperimentPlan
sampledSweepPlan(std::uint64_t seed, double scale, double instrScale,
                 std::uint64_t seeds)
{
    harness::ExperimentPlan plan;
    plan.baseSeed = seed;
    plan.deriveSeeds = false;
    const auto &all = work::allWorkloads();
    for (std::uint64_t k = 0; k < seeds; ++k) {
        for (std::size_t w = 0; w < all.size(); ++w) {
            const std::uint64_t s = traceSeed(seed, 1 + k, w);
            const std::string tag =
                all[w].name + "/s" + std::to_string(k);
            plan.jobs.push_back(
                makeJob(tag + "/lazy", all[w].name, scale, s,
                        harness::BatchMode::Sampled,
                        sampling::SamplingParams::lazy(), instrScale));
            plan.jobs.push_back(makeJob(
                tag + "/adaptive", all[w].name, scale, s,
                harness::BatchMode::Sampled,
                sampling::SamplingParams::adaptive(kAdaptiveTarget),
                instrScale));
        }
    }
    return plan;
}

/** Trace seeds per workload in the checkpoint campaign. */
constexpr std::uint64_t kCkptSeeds = 3;

harness::ExperimentPlan
ckptPlan(std::uint64_t seed, double scale)
{
    harness::ExperimentPlan plan;
    plan.baseSeed = seed;
    plan.deriveSeeds = false;
    for (std::uint64_t k = 0; k < kCkptSeeds; ++k) {
        std::uint64_t i = 0;
        for (const char *w : kCkptWorkloads)
            plan.jobs.push_back(makeJob(
                std::string(w) + "/s" + std::to_string(k) + "/lazy", w,
                scale, traceSeed(seed, 100 + k, i++),
                harness::BatchMode::Sampled,
                sampling::SamplingParams::lazy()));
    }
    return plan;
}

// ---------------------------------------------------------------------
// Per-job records and output checks.
// ---------------------------------------------------------------------

using TracePtr = std::shared_ptr<const trace::TaskTrace>;

/** Everything a report needs from one finished job. */
struct JobRecord
{
    std::string label;
    std::string workload;
    std::uint64_t seed = 0;
    bool adaptive = false;
    InstCount traceInsts = 0;
    InstCount detailedInsts = 0;
    InstCount fastInsts = 0;
    Cycles cycles = 0;
    double halfWidth = 0.0;
    bool budgetStopped = false;
    std::uint64_t sampleTasks = 0;
    std::uint64_t resamples = 0;
    mem::HierarchyStats mem;
    double hostSeconds = 0.0;
    double engineSeconds = 0.0;
};

JobRecord
recordOf(const harness::BatchResult &r, const harness::JobSpec &job,
         const trace::TaskTrace &trace)
{
    JobRecord rec;
    rec.label = job.label;
    rec.workload = job.workload;
    rec.seed = job.workloadParams.seed;
    rec.traceInsts = trace.totalInstructions();
    rec.hostSeconds = r.hostSeconds;
    const sim::SimResult *res = nullptr;
    if (r.sampled) {
        res = &r.sampled->result;
        const sampling::AdaptiveDiagnostics &a = r.sampled->adaptive;
        rec.adaptive = a.enabled;
        rec.halfWidth = a.finalRelHalfWidth;
        rec.budgetStopped = a.budgetStopped;
        rec.sampleTasks = r.sampled->stats.sampleTasks;
        rec.resamples = r.sampled->stats.resamples;
    } else if (r.reference) {
        res = &*r.reference;
    }
    if (res == nullptr)
        fatal("tpbench: job '%s' produced no result",
              job.label.c_str());
    rec.detailedInsts = res->detailedInsts;
    rec.fastInsts = res->fastInsts;
    rec.cycles = res->totalCycles;
    rec.mem = res->memStats;
    rec.engineSeconds = res->wallSeconds;
    return rec;
}

/** Deterministic fields only, in a fixed text form. */
std::string
canonical(const std::vector<JobRecord> &recs)
{
    std::ostringstream o;
    for (const JobRecord &r : recs) {
        char hw[40];
        std::snprintf(hw, sizeof hw, "%.17g", r.halfWidth);
        o << r.label << ' ' << r.traceInsts << ' ' << r.detailedInsts
          << ' ' << r.fastInsts << ' ' << r.cycles << ' ' << hw << ' '
          << r.budgetStopped << ' ' << r.sampleTasks << ' '
          << r.resamples << ' ' << r.mem.l1.accesses << ' '
          << r.mem.l1.misses << ' ' << r.mem.l2.accesses << ' '
          << r.mem.l2.misses << ' ' << r.mem.l3.accesses << ' '
          << r.mem.l3.misses << ' ' << r.mem.dramRequests << ' '
          << r.mem.coherenceInvalidations << '\n';
    }
    return o.str();
}

std::string
recordJson(const JobRecord &r)
{
    return JObj()
        .str("label", r.label)
        .str("workload", r.workload)
        .u64("seed", r.seed)
        .put("adaptive", jbool(r.adaptive))
        .u64("trace_insts", r.traceInsts)
        .u64("detailed_insts", r.detailedInsts)
        .u64("fast_insts", r.fastInsts)
        .u64("cycles", r.cycles)
        .num("half_width", r.halfWidth)
        .put("budget_stopped", jbool(r.budgetStopped))
        .u64("sample_tasks", r.sampleTasks)
        .u64("resamples", r.resamples)
        .u64("l1_accesses", r.mem.l1.accesses)
        .u64("l1_misses", r.mem.l1.misses)
        .u64("l2_accesses", r.mem.l2.accesses)
        .u64("l2_misses", r.mem.l2.misses)
        .u64("l3_accesses", r.mem.l3.accesses)
        .u64("l3_misses", r.mem.l3.misses)
        .u64("dram_requests", r.mem.dramRequests)
        .u64("coherence_invalidations", r.mem.coherenceInvalidations)
        .num("host_s", r.hostSeconds)
        .num("engine_s", r.engineSeconds)
        .dump();
}

/** Collects the failed output checks of one invocation. */
struct Checks
{
    std::vector<std::string> failures;

    void
    instructionsConserved(const JobRecord &r)
    {
        if (r.detailedInsts + r.fastInsts != r.traceInsts)
            failures.push_back(strprintf(
                "%s: detailed %llu + fast %llu != trace %llu insts",
                r.label.c_str(),
                static_cast<unsigned long long>(r.detailedInsts),
                static_cast<unsigned long long>(r.fastInsts),
                static_cast<unsigned long long>(r.traceInsts)));
    }

    std::string
    json() const
    {
        std::vector<std::string> raws;
        for (const std::string &f : failures)
            raws.push_back(sim::jsonQuote(f));
        return jarr(raws);
    }
};

// ---------------------------------------------------------------------
// Timed BatchRunner passes.
// ---------------------------------------------------------------------

struct Pass
{
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    std::vector<double> jobSeconds;
    double engineSeconds = 0.0;
    InstCount simInsts = 0;
    harness::ResultCacheStats cacheStats;
};

struct PassesOutcome
{
    std::vector<Pass> passes;
    /** Plan, records and raw results of the first pass. */
    harness::ExperimentPlan plan;
    std::vector<JobRecord> records;
    std::vector<harness::BatchResult> results;
    std::vector<TracePtr> traces;
};

/** A pass's set-up: plan, result store, runner and realized traces. */
struct PassSetup
{
    harness::ExperimentPlan plan;
    std::unique_ptr<harness::ResultCache> cache;
    std::unique_ptr<harness::BatchRunner> runner;
    std::vector<TracePtr> traces;
};

using PlanFn = std::function<harness::ExperimentPlan()>;

/**
 * Set up one pass: build the plan, open a fresh read-write result
 * store under `storeDir` (with `withCache`), build the BatchRunner and
 * realize every job's trace into the runner's trace memo.
 */
PassSetup
setUpPass(const PlanFn &makePlan, std::size_t jobs, bool withCache,
          const fs::path &storeDir)
{
    PassSetup s;
    s.plan = makePlan();
    if (withCache) {
        harness::ResultCacheOptions o;
        o.dir = storeDir.string();
        o.mode = harness::CacheMode::ReadWrite;
        s.cache = std::make_unique<harness::ResultCache>(o);
    }
    harness::BatchOptions bo;
    bo.jobs = jobs;
    bo.cache = s.cache.get();
    s.runner = std::make_unique<harness::BatchRunner>(bo);
    for (const harness::JobSpec &j : s.plan.jobs)
        s.traces.push_back(s.runner->resolveTrace(j));
    return s;
}

/**
 * Whether to time another of one pass's set-up samples: at least 3,
 * then more until 0.5 s of set-up time or 200 samples. Taking them
 * before every pass spreads the samples over the run as the passes
 * are, so a slow stretch of the host weighs on both alike.
 */
bool
moreSetups(std::size_t n, double spent)
{
    return n < 3 || (n < 200 && spent < 0.5);
}

/**
 * Run the plan in passes until `seconds` elapsed (at least
 * `minPasses`). Before each pass a few set-ups are timed on their own
 * (moreSetups); the pass is then set up afresh (one more sample) and
 * only BatchRunner::run is timed as its wall.
 */
PassesOutcome
runPasses(const PlanFn &makePlan, std::size_t jobs, bool withCache,
          const fs::path &storeDir, double seconds, std::size_t minPasses,
          std::vector<double> &setups, Checks &checks)
{
    PassesOutcome out;
    std::string firstCanon;
    const double deadline = nowSeconds() + seconds;
    for (std::size_t p = 0;
         p < minPasses || nowSeconds() < deadline; ++p) {
        double spent = 0.0;
        for (std::size_t n = 0; moreSetups(n, spent); ++n) {
            fs::remove_all(storeDir);
            const double t0 = nowSeconds();
            const PassSetup s =
                setUpPass(makePlan, jobs, withCache, storeDir);
            setups.push_back(nowSeconds() - t0);
            spent += setups.back();
        }

        Pass pass;
        fs::remove_all(storeDir);
        const double t0 = nowSeconds();
        PassSetup s = setUpPass(makePlan, jobs, withCache, storeDir);
        pass.setupSeconds = nowSeconds() - t0;
        setups.push_back(pass.setupSeconds);

        harness::CollectingSink sink;
        const double t1 = nowSeconds();
        s.runner->run(s.plan, sink);
        pass.wallSeconds = nowSeconds() - t1;
        if (s.cache)
            pass.cacheStats = s.cache->stats();

        std::vector<harness::BatchResult> results = sink.take();
        std::vector<JobRecord> recs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            JobRecord r =
                recordOf(results[i], s.plan.jobs[i], *s.traces[i]);
            pass.jobSeconds.push_back(r.hostSeconds);
            pass.engineSeconds += r.engineSeconds;
            pass.simInsts += r.detailedInsts + r.fastInsts;
            recs.push_back(std::move(r));
        }
        const std::string canon = canonical(recs);
        if (p == 0) {
            for (const JobRecord &r : recs)
                checks.instructionsConserved(r);
            firstCanon = canon;
            out.plan = std::move(s.plan);
            out.records = std::move(recs);
            out.results = std::move(results);
            out.traces = std::move(s.traces);
        } else if (canon != firstCanon) {
            checks.failures.push_back(strprintf(
                "pass %zu: deterministic counters differ from pass 0",
                p));
        }
        out.passes.push_back(std::move(pass));
    }
    fs::remove_all(storeDir);
    return out;
}

std::string
passesJson(const std::vector<Pass> &passes)
{
    std::vector<std::string> raws;
    for (const Pass &p : passes) {
        raws.push_back(JObj()
                           .num("setup_s", p.setupSeconds)
                           .num("wall_s", p.wallSeconds)
                           .num("engine_s", p.engineSeconds)
                           .u64("sim_insts", p.simInsts)
                           .put("job_s", jnums(p.jobSeconds))
                           .u64("cache_hits", p.cacheStats.hits)
                           .u64("cache_misses", p.cacheStats.misses)
                           .u64("cache_stores", p.cacheStats.stores)
                           .u64("cache_failed_stores",
                                p.cacheStats.failedStores)
                           .dump());
    }
    return jarr(raws);
}

std::string
recordsJson(const std::vector<JobRecord> &recs)
{
    std::vector<std::string> raws;
    for (const JobRecord &r : recs)
        raws.push_back(recordJson(r));
    return jarr(raws);
}

// ---------------------------------------------------------------------
// Layer replays (--layers).
// ---------------------------------------------------------------------

/**
 * Host time of instruction generation, the cache hierarchy and the
 * ROB core over the same task instances. Every `stride`-th instance
 * of the traces is replayed (stride 1 unless the instructions exceed
 * `budget`), each on core (task number mod threads):
 *
 *  1. InstrStream::fillBlock fills the task's whole stream (timed:
 *     streamSeconds); its loads and stores are then replayed through
 *     a fresh Hierarchy::access, `now` advancing one cycle per
 *     instruction (timed: memSeconds).
 *  2. A second fresh Hierarchy backs one RobCore per thread; each
 *     task runs beginTask + step to completion (timed: robSeconds,
 *     which contains its own instruction generation and accesses).
 */
struct LayerReplay
{
    std::size_t tasks = 0;
    InstCount insts = 0;
    std::uint64_t accesses = 0;
    double streamSeconds = 0.0;
    double memSeconds = 0.0;
    double robSeconds = 0.0;
};

LayerReplay
replayLayers(const std::vector<TracePtr> &traces,
             const harness::RunSpec &spec, InstCount budget)
{
    struct Access
    {
        Addr addr;
        bool write;
        Cycles now;
    };
    struct Picked
    {
        const trace::TaskType *type;
        const trace::TaskInstance *inst;
    };

    InstCount total = 0;
    for (const TracePtr &t : traces)
        total += t->totalInstructions();
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, (total + budget - 1) / budget);
    std::vector<Picked> picked;
    std::uint64_t idx = 0;
    for (const TracePtr &t : traces)
        for (const trace::TaskInstance &inst : t->instances())
            if (idx++ % stride == 0)
                picked.push_back({&t->type(inst.type), &inst});

    LayerReplay lr;
    lr.tasks = picked.size();
    const std::uint32_t threads = spec.threads;
    Cycles latencySum = 0;

    {
        mem::Hierarchy hier(spec.arch.memory, threads);
        std::vector<trace::Instr> buf;
        std::vector<Access> accs;
        Cycles clock = 0;
        for (std::size_t c = 0; c < picked.size(); ++c) {
            trace::InstrStream s(*picked[c].type, *picked[c].inst);
            buf.resize(s.total());
            const double t0 = nowSeconds();
            InstCount n = 0;
            while (n < buf.size()) {
                const InstCount got = s.fillBlock(
                    buf.data() + n,
                    std::min<InstCount>(256, buf.size() - n));
                if (got == 0)
                    break;
                n += got;
            }
            lr.streamSeconds += nowSeconds() - t0;

            accs.clear();
            for (InstCount i = 0; i < n; ++i) {
                const trace::InstrClass cls = buf[i].cls;
                if (cls == trace::InstrClass::Load ||
                    cls == trace::InstrClass::Store)
                    accs.push_back({buf[i].addr,
                                    cls == trace::InstrClass::Store,
                                    clock + i});
            }
            const ThreadId core = ThreadId(c % threads);
            const double t1 = nowSeconds();
            for (const Access &a : accs)
                latencySum +=
                    hier.access(core, a.addr, a.write, a.now).latency;
            lr.memSeconds += nowSeconds() - t1;
            clock += n;
            lr.insts += n;
            lr.accesses += accs.size();
        }
    }

    {
        mem::Hierarchy hier(spec.arch.memory, threads);
        std::vector<cpu::RobCore> cores;
        cores.reserve(threads);
        for (ThreadId t = 0; t < threads; ++t)
            cores.emplace_back(spec.arch.core, hier, t);
        const double t0 = nowSeconds();
        for (std::size_t c = 0; c < picked.size(); ++c) {
            cpu::RobCore &core = cores[c % threads];
            core.beginTask(*picked[c].type, *picked[c].inst,
                           core.localNow());
            while (!core.step(spec.quantum)) {
            }
        }
        lr.robSeconds = nowSeconds() - t0;
        for (const cpu::RobCore &core : cores)
            latencySum += core.finishTime();
    }
    if (latencySum == 0) // keeps both loops' results observable
        warn("tpbench: layer replay saw no latency");
    return lr;
}

std::string
layerReplayJson(const LayerReplay &lr)
{
    return JObj()
        .u64("tasks", lr.tasks)
        .u64("insts", lr.insts)
        .u64("accesses", lr.accesses)
        .num("stream_s", lr.streamSeconds)
        .num("mem_s", lr.memSeconds)
        .num("rob_s", lr.robSeconds)
        .dump();
}

/**
 * Checkpoint layer of one sampled job, timed from outside:
 *
 *  - plain: runSampled with no hooks (median of three);
 *  - record: runSampled whose record hook wraps each checkpoint with
 *    serializeCheckpoint and publishes it with storeBlob (blob I/O
 *    timed apart) — serialize cost = (record − blob I/O − plain) / B;
 *  - slices: the run again as B + 1 slices, each restoring the
 *    previous boundary's checkpoint (loadBlob and deserializeCheckpoint
 *    timed apart) — restore cost = (Σ slices + envelope − plain) / B.
 */
struct CkptProbe
{
    std::uint64_t boundaries = 0;
    std::uint64_t bytes = 0;
    double plainSeconds = 0.0;
    double recordSeconds = 0.0;
    double slicesSeconds = 0.0;
    double envelopeSeconds = 0.0;
    double blobStoreSeconds = 0.0;
    double blobLoadSeconds = 0.0;
};

CkptProbe
probeCheckpoints(const harness::JobSpec &job, const trace::TaskTrace &trace,
                 const fs::path &dir, Checks &checks)
{
    CkptProbe pr;
    fs::remove_all(dir);
    harness::ResultCacheOptions o;
    o.dir = dir.string();
    o.mode = harness::CacheMode::ReadWrite;
    o.maxBytes = 4ULL << 30;
    harness::ResultCache store(o);
    const std::string memDigest =
        harness::memoryConfigDigest(job.spec.arch.memory);
    const std::string jobDigest = harness::jobSpecDigest(job);
    auto key = [&](std::uint64_t b) {
        return harness::checkpointBlobKey(memDigest, jobDigest, b);
    };

    std::vector<double> plain;
    Cycles plainCycles = 0;
    for (int i = 0; i < 3; ++i) {
        const double t0 = nowSeconds();
        plainCycles =
            harness::runSampled(trace, job.spec, job.sampling)
                .result.totalCycles;
        plain.push_back(nowSeconds() - t0);
    }
    std::sort(plain.begin(), plain.end());
    pr.plainSeconds = plain[1];

    sim::CheckpointHooks rec;
    rec.record = [&](sim::Checkpoint &&cp) {
        const std::string blob = sim::serializeCheckpoint(cp);
        const double t0 = nowSeconds();
        store.storeBlob(key(cp.boundary), blob);
        pr.blobStoreSeconds += nowSeconds() - t0;
        pr.bytes += blob.size();
        ++pr.boundaries;
    };
    double t0 = nowSeconds();
    (void)harness::runSampled(trace, job.spec, job.sampling, &rec);
    pr.recordSeconds = nowSeconds() - t0;
    if (pr.boundaries == 0) {
        checks.failures.push_back(
            job.label + ": checkpoint probe recorded no boundary");
        return pr;
    }

    Cycles lastCycles = 0;
    for (std::uint64_t k = 0; k <= pr.boundaries; ++k) {
        sim::CheckpointHooks hooks;
        sim::Checkpoint cp;
        if (k > 0) {
            t0 = nowSeconds();
            const std::optional<std::string> blob = store.loadBlob(key(k));
            pr.blobLoadSeconds += nowSeconds() - t0;
            if (!blob) {
                checks.failures.push_back(strprintf(
                    "%s: checkpoint %llu missing from the probe store",
                    job.label.c_str(),
                    static_cast<unsigned long long>(k)));
                return pr;
            }
            t0 = nowSeconds();
            cp = sim::deserializeCheckpoint(*blob, "probe");
            pr.envelopeSeconds += nowSeconds() - t0;
            hooks.restore = &cp;
        }
        hooks.stopBoundary = k < pr.boundaries ? k + 1 : 0;
        t0 = nowSeconds();
        lastCycles = harness::runSampled(trace, job.spec, job.sampling,
                                         &hooks)
                         .result.totalCycles;
        pr.slicesSeconds += nowSeconds() - t0;
    }
    if (lastCycles != plainCycles)
        checks.failures.push_back(strprintf(
            "%s: restored final slice ends at cycle %llu, plain run "
            "at %llu",
            job.label.c_str(), static_cast<unsigned long long>(lastCycles),
            static_cast<unsigned long long>(plainCycles)));
    fs::remove_all(dir);
    return pr;
}

std::string
ckptProbeJson(const CkptProbe &p)
{
    return JObj()
        .u64("boundaries", p.boundaries)
        .u64("bytes", p.bytes)
        .num("plain_s", p.plainSeconds)
        .num("record_s", p.recordSeconds)
        .num("slices_s", p.slicesSeconds)
        .num("envelope_s", p.envelopeSeconds)
        .num("blob_store_s", p.blobStoreSeconds)
        .num("blob_load_s", p.blobLoadSeconds)
        .dump();
}

/**
 * Result-cache layer: publish every result of `results` into a fresh
 * store, then look each one up again (both timed per call batch).
 */
std::string
probeResultCache(const harness::ExperimentPlan &plan,
                 const std::vector<harness::BatchResult> &results,
                 const std::vector<TracePtr> &traces,
                 const fs::path &dir, Checks &checks)
{
    fs::remove_all(dir);
    harness::ResultCacheOptions o;
    o.dir = dir.string();
    o.mode = harness::CacheMode::ReadWrite;
    harness::ResultCache cache(o);

    std::map<const trace::TaskTrace *, std::string> digests;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const trace::TaskTrace *t = traces[i].get();
        if (!digests.count(t))
            digests[t] = harness::traceDigest(*t);
        const harness::JobSpec &j = plan.jobs[i];
        keys.push_back(results[i].sampled
                           ? harness::sampledCacheKey(
                                 digests[t], j.spec, j.sampling)
                           : harness::resultCacheKey(digests[t],
                                                     j.spec));
    }

    double t0 = nowSeconds();
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].sampled)
            cache.storeSampled(keys[i], *results[i].sampled);
        else
            cache.store(keys[i], *results[i].reference);
    }
    const double storeSeconds = nowSeconds() - t0;

    std::size_t hits = 0;
    t0 = nowSeconds();
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].sampled)
            hits += cache.lookupSampled(keys[i]).has_value();
        else
            hits += cache.lookup(keys[i]).has_value();
    }
    const double lookupSeconds = nowSeconds() - t0;
    // Jobs sharing a key (none in these plans) would store once.
    if (hits != results.size())
        checks.failures.push_back(strprintf(
            "result-cache probe: %zu of %zu lookups hit", hits,
            results.size()));
    fs::remove_all(dir);
    return JObj()
        .u64("entries", results.size())
        .num("store_s", storeSeconds)
        .num("lookup_s", lookupSeconds)
        .dump();
}

/** The layer probes common to every workload (--layers). */
std::string
layersJson(const harness::ExperimentPlan &plan,
           const std::vector<harness::BatchResult> &results,
           const std::vector<TracePtr> &traces,
           const harness::JobSpec &ckptJob, const fs::path &workDir,
           InstCount budget, Checks &checks)
{
    const double t0 = nowSeconds();
    // Distinct traces only (lazy and adaptive jobs share one); trace
    // generation is timed alone, once per distinct trace.
    std::vector<TracePtr> unique;
    double genSeconds = 0.0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        if (std::find(unique.begin(), unique.end(), traces[i]) !=
            unique.end())
            continue;
        unique.push_back(traces[i]);
        const harness::JobSpec &j = plan.jobs[i];
        const double g0 = nowSeconds();
        (void)work::generateWorkload(j.workload, j.workloadParams);
        genSeconds += nowSeconds() - g0;
    }
    const LayerReplay lr =
        replayLayers(unique, plan.jobs.front().spec, budget);
    const std::string cacheProbe =
        probeResultCache(plan, results, traces, workDir / "cache-probe",
                         checks);
    const trace::TaskTrace ckptTrace =
        work::generateWorkload(ckptJob.workload, ckptJob.workloadParams);
    const CkptProbe cp =
        probeCheckpoints(ckptJob, ckptTrace, workDir / "ckpt-probe",
                         checks);
    return JObj()
        .num("trace_gen_s", genSeconds)
        .put("replay", layerReplayJson(lr))
        .put("result_cache", cacheProbe)
        .str("ckpt_probe_job", ckptJob.label)
        .put("checkpoint", ckptProbeJson(cp))
        .num("probe_s", nowSeconds() - t0)
        .dump();
}

// ---------------------------------------------------------------------
// Commands.
// ---------------------------------------------------------------------

/**
 * sweep-refs: the sweep's references, one Reference-mode run per
 * distinct trace, memoized in a result cache (--memo) that outlives
 * the invocation. A process of its own, so neither the sweep's timed
 * passes nor its peak memory include them.
 */
int
runSweepRefs(const CliArgs &args)
{
    const harness::ExperimentPlan plan = sampledSweepPlan(
        seedArg(args), scaleArg(args, "scale"),
        scaleArg(args, "instr-scale"), needUint(args, "seeds", 1, 100));
    const std::size_t jobs = jobsArg(args);
    Checks checks;

    harness::ExperimentPlan refPlan;
    refPlan.baseSeed = plan.baseSeed;
    refPlan.deriveSeeds = false;
    for (const harness::JobSpec &j : plan.jobs)
        if (!j.sampling.adaptiveEnabled()) {
            harness::JobSpec r = j;
            r.label = j.workload + "#" +
                      std::to_string(j.workloadParams.seed) + "/ref";
            r.mode = harness::BatchMode::Reference;
            r.sampling = sampling::SamplingParams::lazy();
            refPlan.jobs.push_back(std::move(r));
        }
    harness::ResultCacheOptions o;
    o.dir = needString(args, "memo");
    o.mode = harness::CacheMode::ReadWrite;
    o.maxBytes = 4ULL << 30;
    harness::ResultCache memo(o);
    harness::BatchOptions bo;
    bo.jobs = jobs;
    bo.cache = &memo;
    const double t0 = nowSeconds();
    const std::vector<harness::BatchResult> refs =
        harness::BatchRunner(bo).run(refPlan);
    const double refSeconds = nowSeconds() - t0;
    std::vector<std::string> raws;
    std::size_t cached = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const sim::SimResult &r = *refs[i].reference;
        cached += refs[i].referenceFromCache;
        if (r.detailedInsts == 0 || r.fastInsts != 0)
            checks.failures.push_back(refPlan.jobs[i].label +
                                      ": reference is not fully detailed");
        raws.push_back(JObj()
                           .str("workload", refPlan.jobs[i].workload)
                           .u64("seed", refPlan.jobs[i].workloadParams.seed)
                           .u64("cycles", r.totalCycles)
                           .u64("insts", r.detailedInsts)
                           .dump());
    }
    std::printf("%s\n", JObj()
                            .str("command", "sweep-refs")
                            .num("seconds", refSeconds)
                            .u64("from_memo", cached)
                            .put("refs", jarr(raws))
                            .put("failures", checks.json())
                            .dump()
                            .c_str());
    return 0;
}

/** detailed-ref and sampled-sweep: timed in-process passes. */
int
runInProcess(const std::string &cmd, const CliArgs &args)
{
    const std::uint64_t seed = seedArg(args);
    const double seconds = needDouble(args, "seconds", 0.0, 600.0);
    const fs::path workDir = needString(args, "work");
    const bool sweep = cmd == "sampled-sweep";
    const double scale = scaleArg(args, "scale");
    const double instrScale = scaleArg(args, "instr-scale");
    const std::size_t jobs = jobsArg(args);
    fs::create_directories(workDir);
    Checks checks;

    const std::uint64_t seeds =
        sweep ? needUint(args, "seeds", 1, 100) : 0;
    const PlanFn makePlan = [&] {
        return sweep ? sampledSweepPlan(seed, scale, instrScale, seeds)
                     : detailedRefPlan(seed, scale, instrScale);
    };
    std::vector<double> setups;
    const PassesOutcome po =
        runPasses(makePlan, jobs, sweep, workDir / "pass-store", seconds,
                  needUint(args, "min-passes", 1, 1000), setups, checks);
    const harness::ExperimentPlan &plan = po.plan;
    if (args.has("plan-out"))
        harness::serializePlan(plan, args.getString("plan-out", ""));

    JObj doc;
    doc.str("command", cmd)
        .u64("seed", seed)
        .num("scale", scale)
        .u64("jobs", jobs)
        .u64("plan_jobs", plan.jobs.size())
        .put("setup_s", jnums(setups))
        .put("passes", passesJson(po.passes))
        .put("records", recordsJson(po.records));
    if (args.has("layers")) {
        const harness::JobSpec ckptJob =
            ckptPlan(seed, scaleArg(args, "ckpt-scale")).jobs.back();
        doc.put("layers",
                layersJson(plan, po.results, po.traces, ckptJob, workDir,
                           budgetArg(args), checks));
    }
    doc.put("failures", checks.json());
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

/**
 * ckpt-plan: write the checkpoint campaign's plan and time its
 * set-up — plan build and serialization, trace realization, and
 * opening a fresh checkpoint store — as often as moreSetups says.
 * run.py calls it before every campaign pass.
 */
int
runCkptPlan(const CliArgs &args)
{
    const std::uint64_t seed = seedArg(args);
    const double scale = scaleArg(args, "scale");
    const fs::path workDir = needString(args, "work");
    const std::string planPath = needString(args, "plan-out");
    fs::create_directories(workDir);

    std::vector<double> setups;
    harness::ExperimentPlan plan;
    std::vector<std::string> totals;
    double spent = 0.0;
    while (moreSetups(setups.size(), spent)) {
        const fs::path store = workDir / "setup-store";
        fs::remove_all(store);
        const double t0 = nowSeconds();
        plan = ckptPlan(seed, scale);
        harness::serializePlan(plan, planPath);
        totals.clear();
        for (const harness::JobSpec &j : plan.jobs)
            totals.push_back(jnum(
                work::generateWorkload(j.workload, j.workloadParams)
                    .totalInstructions()));
        const std::unique_ptr<harness::ResultCache> cp =
            harness::openCheckpointDir(store.string());
        setups.push_back(nowSeconds() - t0);
        spent += setups.back();
        fs::remove_all(store);
    }
    std::printf("%s\n", JObj()
                            .str("command", "ckpt-plan")
                            .u64("seed", seed)
                            .num("scale", scale)
                            .str("plan_digest", harness::planDigest(plan))
                            .u64("plan_jobs", plan.jobs.size())
                            .put("trace_insts", jarr(totals))
                            .put("setup_s", jnums(setups))
                            .dump()
                            .c_str());
    return 0;
}

/**
 * ckpt-ref: run a saved plan in process (BatchRunner, --jobs) into a
 * CSV report — the byte-identity reference of the campaign — and
 * check instruction conservation per job.
 */
int
runCkptRef(const CliArgs &args)
{
    const harness::ExperimentPlan plan =
        harness::deserializePlan(needString(args, "plan"));
    const std::size_t jobs = jobsArg(args);
    Checks checks;

    harness::BatchOptions bo;
    bo.jobs = jobs;
    harness::BatchRunner runner(bo);
    std::vector<TracePtr> traces;
    for (const harness::JobSpec &j : plan.jobs)
        traces.push_back(runner.resolveTrace(j));
    harness::CollectingSink collect;
    double wall = 0.0;
    {
        harness::CsvSink csv(needString(args, "csv"));
        harness::TeeSink tee({&csv, &collect});
        const double t0 = nowSeconds();
        runner.run(plan, tee);
        wall = nowSeconds() - t0;
    }
    const std::vector<harness::BatchResult> results = collect.take();
    std::vector<JobRecord> recs;
    double engine = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        recs.push_back(recordOf(results[i], plan.jobs[i], *traces[i]));
        checks.instructionsConserved(recs.back());
        engine += recs.back().engineSeconds;
    }

    JObj doc;
    doc.str("command", "ckpt-ref")
        .u64("jobs", jobs)
        .num("wall_s", wall)
        .num("engine_s", engine)
        .put("records", recordsJson(recs));
    if (args.has("layers")) {
        const fs::path workDir = needString(args, "work");
        fs::create_directories(workDir);
        doc.put("layers",
                layersJson(plan, results, traces, plan.jobs.back(), workDir,
                           budgetArg(args), checks));
    }
    doc.put("failures", checks.json());
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: tpbench detailed-ref|sampled-sweep|"
                     "sweep-refs|ckpt-plan|ckpt-ref --key=value...\n");
        return 2;
    }
    // The command is argv[1]; CliArgs parses the options after it.
    const std::string cmd = argv[1];
    auto parse = [&](const std::vector<CliOption> &options) {
        return CliArgs(argc - 1, argv + 1, options);
    };
    try {
        if (cmd == "detailed-ref" || cmd == "sampled-sweep")
            return runInProcess(cmd, parse(kPassOptions));
        if (cmd == "sweep-refs")
            return runSweepRefs(parse(kSweepRefsOptions));
        if (cmd == "ckpt-plan")
            return runCkptPlan(parse(kCkptPlanOptions));
        if (cmd == "ckpt-ref")
            return runCkptRef(parse(kCkptRefOptions));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tpbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "tpbench: unknown command '%s'\n", cmd.c_str());
    return 2;
}
