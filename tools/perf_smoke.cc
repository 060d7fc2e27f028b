/**
 * @file
 * Fixed-scenario performance smoke: the simulator's speed trajectory.
 *
 *   ./perf_smoke [--series=N] [--out=FILE] [--repeat=N] [--scale=S]
 *
 * Times a small fixed suite — three workloads, each in full-detailed,
 * lazy-sampled, checkpoint-recording and adaptive-sampled mode, at
 * fixed scale/seed/threads — and emits a
 * JSON report with host wall seconds and detailed-mode simulation
 * throughput (instructions per second) per scenario, plus suite
 * totals. The simulated metrics (total cycles, instruction counts)
 * are deterministic, so the report doubles as a coarse regression
 * check; the timing fields are what the BENCH_*.json trajectory
 * tracks across PRs. Each scenario runs `--repeat` times (default 3)
 * and reports the fastest run, damping scheduler noise.
 *
 * The report also times one fixed plan executed in-process
 * (BatchRunner) and as a spool-based dispatch campaign with
 * in-process runner threads; the delta is the coordination cost of
 * harness/dispatch (task publishing, claiming, stream tailing and
 * per-runner trace generation) with no fork/exec noise in it. A
 * second probe times one sampled scenario with and without a
 * TimelineRecorder attached, tracking the cost of execution tracing
 * (sim/trace_observer) against its zero-overhead-when-off contract.
 * A third probe holds the fault-injection hooks
 * (common/fault_injection) to theirs: the per-call cost of an
 * inactive FAULT_POINT and the wall-time of one sampled scenario
 * with no plan vs an inert plan installed must both stay at noise
 * level.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/experiment.hh"
#include "sampling/taskpoint.hh"
#include "sim/checkpoint.hh"
#include "sim/trace_observer.hh"
#include "workloads/workloads.hh"

using namespace tp;

namespace {

enum class Mode { Detailed, Sampled, Checkpointed, Adaptive };

struct Scenario
{
    const char *workload;
    Mode mode;
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Detailed:
        return "detailed";
      case Mode::Sampled:
        return "sampled";
      case Mode::Checkpointed:
        return "checkpointed";
      case Mode::Adaptive:
        return "adaptive";
    }
    return "?";
}

/**
 * The fixed suite: a coherence-heavy kernel (histogram), an
 * irregular memory-bound one (spmv) and a pointer-chasing one
 * (n-body) — each detailed, lazy-sampled, checkpoint-recording
 * (lazy-sampled while serializing a warm-state checkpoint at every
 * sample boundary; the column tracks the recording overhead) and
 * adaptive-sampled (1% CI target). Fixed seeds, threads and scale
 * make runs comparable across PRs on one machine.
 */
constexpr Scenario kScenarios[] = {
    {"histogram", Mode::Detailed},
    {"histogram", Mode::Sampled},
    {"histogram", Mode::Checkpointed},
    {"histogram", Mode::Adaptive},
    {"sparse-matrix-vector-multiplication", Mode::Detailed},
    {"sparse-matrix-vector-multiplication", Mode::Sampled},
    {"sparse-matrix-vector-multiplication", Mode::Checkpointed},
    {"sparse-matrix-vector-multiplication", Mode::Adaptive},
    {"n-body", Mode::Detailed},
    {"n-body", Mode::Sampled},
    {"n-body", Mode::Checkpointed},
    {"n-body", Mode::Adaptive},
};

struct Measured
{
    std::string name;
    std::string mode;
    double wallSeconds = 0.0;
    InstCount detailedInsts = 0;
    InstCount fastInsts = 0;
    Cycles totalCycles = 0;
    double detailedInstsPerSec = 0.0;
    /** Serialized checkpoint bytes (checkpointed mode only). */
    std::uint64_t checkpointBytes = 0;
    /** Recorded sample boundaries (checkpointed mode only). */
    std::uint64_t checkpointCount = 0;
};

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Dispatch-vs-in-process timing of one fixed plan. */
struct DispatchOverhead
{
    std::size_t jobs = 0;
    double inprocSeconds = 0.0;
    double dispatchSeconds = 0.0;
};

/**
 * Time a six-job sampled plan once through BatchRunner and once as a
 * dispatch campaign over a temp spool (fastest of `repeat` each),
 * both at the same parallelism: two BatchRunner threads against two
 * runner threads. Everything is in one process, so the delta
 * isolates the spool protocol itself.
 */
DispatchOverhead
measureDispatchOverhead(const work::WorkloadParams &wp,
                        const harness::RunSpec &spec,
                        std::uint64_t repeat)
{
    harness::ExperimentPlan plan;
    plan.baseSeed = 42;
    for (std::size_t i = 0; i < 6; ++i) {
        harness::JobSpec j;
        j.label = "dispatch job " + std::to_string(i);
        j.workload = i % 2 == 0
                         ? "histogram"
                         : "sparse-matrix-vector-multiplication";
        j.workloadParams = wp;
        j.spec = spec;
        j.sampling = sampling::SamplingParams::lazy();
        j.mode = harness::BatchMode::Sampled;
        plan.jobs.push_back(j);
    }

    DispatchOverhead oh;
    oh.jobs = plan.jobs.size();
    const std::size_t lanes = 2;

    oh.inprocSeconds = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        harness::CollectingSink sink;
        harness::BatchOptions bo;
        bo.jobs = lanes;
        const double t0 = nowSeconds();
        harness::BatchRunner(bo).run(plan, sink);
        const double wall = nowSeconds() - t0;
        if (oh.inprocSeconds < 0.0 || wall < oh.inprocSeconds)
            oh.inprocSeconds = wall;
    }

    namespace fs = std::filesystem;
    const fs::path spoolDir =
        fs::temp_directory_path() /
        ("tp_perf_dispatch_" + std::to_string(::getpid()));
    oh.dispatchSeconds = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        fs::remove_all(spoolDir);
        fs::create_directories(spoolDir);
        harness::DispatchOptions dopt;
        dopt.spoolDir = spoolDir.string();
        dopt.shards = 4;
        std::vector<std::thread> runners;
        for (std::size_t i = 0; i < lanes; ++i) {
            harness::DispatchRunnerOptions ro;
            ro.spoolDir = dopt.spoolDir;
            ro.runnerId = "perf-" + std::to_string(i);
            runners.emplace_back([ro] {
                (void)harness::runDispatchRunner(ro);
            });
        }
        harness::CollectingSink sink;
        const double t0 = nowSeconds();
        harness::runDispatchCampaign(plan, dopt, sink);
        const double wall = nowSeconds() - t0;
        for (std::thread &t : runners)
            t.join();
        if (oh.dispatchSeconds < 0.0 || wall < oh.dispatchSeconds)
            oh.dispatchSeconds = wall;
    }
    fs::remove_all(spoolDir);
    return oh;
}

/** Tracing-vs-plain timing of one fixed sampled scenario. */
struct TraceOverhead
{
    double plainSeconds = 0.0;
    double tracedSeconds = 0.0;
    std::uint64_t taskEvents = 0;
    std::uint64_t phaseEvents = 0;
};

/**
 * Time the histogram lazy-sampled scenario once bare and once with a
 * TimelineRecorder observing every task and phase event (fastest of
 * `repeat` each). The delta is the cost of execution tracing; the
 * bare run exercises the null-observer fast path the engine promises
 * is free.
 */
TraceOverhead
measureTraceOverhead(const work::WorkloadParams &wp,
                     const harness::RunSpec &spec,
                     std::uint64_t repeat)
{
    const trace::TaskTrace trace =
        work::generateWorkload("histogram", wp);
    const sampling::SamplingParams params =
        sampling::SamplingParams::lazy();

    TraceOverhead oh;
    oh.plainSeconds = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        const double t0 = nowSeconds();
        (void)harness::runSampled(trace, spec, params);
        const double wall = nowSeconds() - t0;
        if (oh.plainSeconds < 0.0 || wall < oh.plainSeconds)
            oh.plainSeconds = wall;
    }
    oh.tracedSeconds = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        sim::TimelineRecorder recorder;
        const double t0 = nowSeconds();
        (void)harness::runSampled(trace, spec, params, nullptr,
                                  &recorder);
        const double wall = nowSeconds() - t0;
        if (oh.tracedSeconds < 0.0 || wall < oh.tracedSeconds)
            oh.tracedSeconds = wall;
        oh.taskEvents = recorder.timeline().tasks.size();
        oh.phaseEvents = recorder.timeline().phases.size();
    }
    return oh;
}

/** Fault-hook cost of one fixed sampled scenario. */
struct FaultOverhead
{
    /** Per-call cost of an inactive FAULT_POINT, nanoseconds. */
    double pointNs = 0.0;
    double plainSeconds = 0.0;
    double inertPlanSeconds = 0.0;
};

/**
 * Keep the FAULT_POINT loop an out-of-line call per iteration so the
 * probe times the macro as sites actually use it, not a hoisted
 * remnant of it.
 */
#if defined(__GNUC__)
__attribute__((noinline))
#endif
std::uint64_t
faultPointOnce(std::uint64_t i)
{
    FAULT_POINT("perf.fault.probe");
    return i;
}

/**
 * Hold the fault hooks to their zero-overhead-when-off contract:
 * time a tight loop of inactive FAULT_POINTs (per-call ns), then the
 * histogram lazy-sampled scenario with no plan installed vs with an
 * inert plan (one rule on a site that never fires, so every
 * instrumented site takes the slow path into the injector and
 * misses). Both deltas must stay at noise level.
 */
FaultOverhead
measureFaultOverhead(const work::WorkloadParams &wp,
                     const harness::RunSpec &spec,
                     std::uint64_t repeat)
{
    FaultOverhead oh;

    fault::clearFaultPlan();
    constexpr std::uint64_t kCalls = 20'000'000;
    std::uint64_t sink = 0;
    oh.pointNs = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        const double t0 = nowSeconds();
        for (std::uint64_t i = 0; i < kCalls; ++i)
            sink += faultPointOnce(i);
        const double ns = (nowSeconds() - t0) * 1e9 / kCalls;
        if (oh.pointNs < 0.0 || ns < oh.pointNs)
            oh.pointNs = ns;
    }
    if (sink == 0xdead) // keep the accumulator observable
        harness::progress("fault: improbable checksum");

    const trace::TaskTrace trace =
        work::generateWorkload("histogram", wp);
    const sampling::SamplingParams params =
        sampling::SamplingParams::lazy();

    oh.plainSeconds = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        const double t0 = nowSeconds();
        (void)harness::runSampled(trace, spec, params);
        const double wall = nowSeconds() - t0;
        if (oh.plainSeconds < 0.0 || wall < oh.plainSeconds)
            oh.plainSeconds = wall;
    }

    fault::FaultPlan inert;
    inert.seed = 1;
    fault::FaultRule never;
    never.site = "perf.fault.never";
    never.occurrence = 1;
    never.action.kind = fault::FaultKind::Delay;
    inert.rules.push_back(never);
    fault::installFaultPlan(inert);
    oh.inertPlanSeconds = -1.0;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        const double t0 = nowSeconds();
        (void)harness::runSampled(trace, spec, params);
        const double wall = nowSeconds() - t0;
        if (oh.inertPlanSeconds < 0.0 || wall < oh.inertPlanSeconds)
            oh.inertPlanSeconds = wall;
    }
    fault::clearFaultPlan();
    return oh;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        {{"series",
          "BENCH series number: sets the report's \"pr\" field and "
          "the default --out=BENCH_<series>.json (default 10)"},
         {"out",
          "JSON report path (default BENCH_<series>.json)"},
         {"repeat",
          "timed repetitions per scenario, fastest wins (default 3)"},
         {"scale", "workload scale override (default 0.02)"}});
    const std::uint64_t series =
        args.getUintIn("series", 10, 1, 9999);
    const std::string out_path = args.getString(
        "out", strprintf("BENCH_%llu.json",
                         static_cast<unsigned long long>(series)));
    const std::uint64_t repeat = args.getUintIn("repeat", 3, 1, 100);
    const double scale = args.getDoubleIn("scale", 0.02, 1e-4, 10.0);

    work::WorkloadParams wp;
    wp.scale = scale;
    wp.seed = 42;

    harness::RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 8;

    std::vector<Measured> rows;
    for (const Scenario &sc : kScenarios) {
        const trace::TaskTrace trace =
            work::generateWorkload(sc.workload, wp);
        Measured m;
        m.name = sc.workload;
        m.mode = modeName(sc.mode);
        m.wallSeconds = -1.0;
        for (std::uint64_t r = 0; r < repeat; ++r) {
            // Checkpointed mode serializes every boundary's warm
            // state (and drops it): the lazy-vs-checkpointed delta
            // is pure recording overhead.
            std::uint64_t ckptBytes = 0;
            std::uint64_t ckptCount = 0;
            sim::CheckpointHooks hooks;
            hooks.record = [&](sim::Checkpoint &&cp) {
                ckptBytes += sim::serializeCheckpoint(cp).size();
                ++ckptCount;
            };
            const double t0 = nowSeconds();
            sim::SimResult res =
                sc.mode == Mode::Detailed
                    ? harness::runDetailed(trace, spec)
                    : harness::runSampled(
                          trace, spec,
                          sc.mode == Mode::Adaptive
                              ? sampling::SamplingParams::adaptive(
                                    0.01)
                              : sampling::SamplingParams::lazy(),
                          sc.mode == Mode::Checkpointed ? &hooks
                                                        : nullptr)
                          .result;
            const double wall = nowSeconds() - t0;
            if (m.wallSeconds < 0.0 || wall < m.wallSeconds)
                m.wallSeconds = wall;
            // Deterministic across repetitions by construction.
            m.detailedInsts = res.detailedInsts;
            m.fastInsts = res.fastInsts;
            m.totalCycles = res.totalCycles;
            m.checkpointBytes = ckptBytes;
            m.checkpointCount = ckptCount;
        }
        m.detailedInstsPerSec =
            m.wallSeconds > 0.0
                ? double(m.detailedInsts) / m.wallSeconds
                : 0.0;
        rows.push_back(m);
        harness::progress(strprintf(
            "%s/%s: %.3fs, %.2fM detailed insts/s", m.name.c_str(),
            m.mode.c_str(), m.wallSeconds,
            m.detailedInstsPerSec / 1e6));
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write %s", out_path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"perf_smoke\",\n");
    std::fprintf(f, "  \"pr\": %llu,\n",
                 static_cast<unsigned long long>(series));
    std::fprintf(f, "  \"threads\": %u,\n", spec.threads);
    std::fprintf(f, "  \"scale\": %g,\n", scale);
    std::fprintf(f, "  \"repeat\": %llu,\n",
                 static_cast<unsigned long long>(repeat));
    std::fprintf(f, "  \"scenarios\": [\n");
    double total_wall = 0.0;
    double detailed_wall = 0.0;
    InstCount detailed_insts = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measured &m = rows[i];
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"mode\": \"%s\", "
            "\"wall_seconds\": %.6f, \"total_cycles\": %llu, "
            "\"detailed_insts\": %llu, \"fast_insts\": %llu, "
            "\"detailed_insts_per_sec\": %.0f, "
            "\"checkpoints\": %llu, "
            "\"checkpoint_bytes\": %llu}%s\n",
            m.name.c_str(), m.mode.c_str(), m.wallSeconds,
            static_cast<unsigned long long>(m.totalCycles),
            static_cast<unsigned long long>(m.detailedInsts),
            static_cast<unsigned long long>(m.fastInsts),
            m.detailedInstsPerSec,
            static_cast<unsigned long long>(m.checkpointCount),
            static_cast<unsigned long long>(m.checkpointBytes),
            i + 1 < rows.size() ? "," : "");
        total_wall += m.wallSeconds;
        if (m.mode == "detailed") {
            detailed_wall += m.wallSeconds;
            detailed_insts += m.detailedInsts;
        }
    }
    std::fprintf(f, "  ],\n");

    const DispatchOverhead oh =
        measureDispatchOverhead(wp, spec, repeat);
    std::fprintf(f,
                 "  \"dispatch\": {\"jobs\": %zu, "
                 "\"inproc_wall_seconds\": %.6f, "
                 "\"campaign_wall_seconds\": %.6f, "
                 "\"overhead_seconds\": %.6f},\n",
                 oh.jobs, oh.inprocSeconds, oh.dispatchSeconds,
                 oh.dispatchSeconds - oh.inprocSeconds);
    harness::progress(strprintf(
        "dispatch: %zu jobs, %.3fs in-process vs %.3fs campaign "
        "(overhead %.3fs)",
        oh.jobs, oh.inprocSeconds, oh.dispatchSeconds,
        oh.dispatchSeconds - oh.inprocSeconds));

    const TraceOverhead toh =
        measureTraceOverhead(wp, spec, repeat);
    std::fprintf(f,
                 "  \"trace\": {\"plain_wall_seconds\": %.6f, "
                 "\"traced_wall_seconds\": %.6f, "
                 "\"overhead_seconds\": %.6f, "
                 "\"task_events\": %llu, "
                 "\"phase_events\": %llu},\n",
                 toh.plainSeconds, toh.tracedSeconds,
                 toh.tracedSeconds - toh.plainSeconds,
                 static_cast<unsigned long long>(toh.taskEvents),
                 static_cast<unsigned long long>(toh.phaseEvents));
    harness::progress(strprintf(
        "trace: %.3fs plain vs %.3fs recorded (%llu task events, "
        "overhead %.3fs)",
        toh.plainSeconds, toh.tracedSeconds,
        static_cast<unsigned long long>(toh.taskEvents),
        toh.tracedSeconds - toh.plainSeconds));

    const FaultOverhead foh = measureFaultOverhead(wp, spec, repeat);
    std::fprintf(f,
                 "  \"fault\": {\"point_ns_inactive\": %.3f, "
                 "\"plain_wall_seconds\": %.6f, "
                 "\"inert_plan_wall_seconds\": %.6f, "
                 "\"overhead_seconds\": %.6f},\n",
                 foh.pointNs, foh.plainSeconds, foh.inertPlanSeconds,
                 foh.inertPlanSeconds - foh.plainSeconds);
    harness::progress(strprintf(
        "fault: %.2fns per inactive FAULT_POINT, %.3fs plain vs "
        "%.3fs inert plan (overhead %.3fs)",
        foh.pointNs, foh.plainSeconds, foh.inertPlanSeconds,
        foh.inertPlanSeconds - foh.plainSeconds));

    std::fprintf(f, "  \"total_wall_seconds\": %.6f,\n", total_wall);
    std::fprintf(f, "  \"detailed_wall_seconds\": %.6f,\n",
                 detailed_wall);
    std::fprintf(
        f, "  \"detailed_insts_per_sec\": %.0f\n",
        detailed_wall > 0.0 ? double(detailed_insts) / detailed_wall
                            : 0.0);
    std::fprintf(f, "}\n");
    std::fclose(f);
    harness::progress(strprintf(
        "suite: %.3fs total, %.2fM detailed insts/s -> %s",
        total_wall, detailed_wall > 0.0
                        ? double(detailed_insts) / detailed_wall / 1e6
                        : 0.0,
        out_path.c_str()));
    return 0;
}
