/**
 * @file
 * Distributed campaign coordinator (harness/dispatch).
 *
 * Split a serialized ExperimentPlan into cost-ordered shard tasks,
 * publish them into a spool directory, optionally spawn local
 * taskpoint_worker runners, live-tail the result streams and print
 * the standard streaming report — byte-identical (host wall-clock
 * aside) to replaying the plan with --jobs=1.
 *
 *   taskpoint_dispatch --plan=FILE [--spool=DIR] [--runners=N]
 *                      [--shards=N] [--jobs=N] [--max-retries=N]
 *                      [--worker-bin=PATH] [--heartbeat=MS]
 *                      [--dead-after=MS] [--stalled-after=MS]
 *                      [--csv=FILE] [--json=FILE] [--trace-out=FILE]
 *                      [--trace-stats=FILE] [--cache-dir=DIR]
 *                      [--cache=off|ro|rw] [--fault-plan=FILE]
 *                      [--cost-probe] [--keep-spool]
 *
 * Runners on other machines join the same spool with
 * `taskpoint_worker --spool=DIR`. See README "Distributed campaigns"
 * for the spool contract.
 */

#include <cstdio>
#include <exception>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness/dispatch.hh"
#include "harness/job_spec.hh"
#include "harness/result_cache.hh"
#include "harness/result_sink.hh"
#include "harness/trace_report.hh"

using namespace tp;

namespace {

int
coordinatorMain(const CliArgs &args)
{
    const std::string path = args.getString("plan", "");
    if (path.empty())
        fatal("--plan=FILE is required (see --help)");
    const harness::ExperimentPlan plan =
        harness::deserializePlan(path);
    std::printf("plan %s: %zu jobs, digest %s\n", path.c_str(),
                plan.jobs.size(),
                harness::planDigest(plan).c_str());

    harness::DispatchOptions dopt =
        harness::dispatchOptionsFromCli(args);

    std::unique_ptr<harness::ResultCache> probe;
    if (args.has("cost-probe")) {
        if (dopt.cacheDir.empty())
            fatal("--cost-probe needs a result cache "
                  "(--cache-dir) to probe");
        probe = harness::resultCacheFromCli(args);
        dopt.probeCache = probe.get();
    }

    harness::TableSink table("dispatched plan " + path);
    harness::StatsSink stats;
    std::vector<harness::ResultSink *> sinks = {&table, &stats};
    std::unique_ptr<harness::CsvSink> csv;
    if (const std::string f = args.getString("csv", ""); !f.empty())
        sinks.push_back(
            (csv = std::make_unique<harness::CsvSink>(f)).get());
    std::unique_ptr<harness::JsonSink> json;
    if (const std::string f = args.getString("json", ""); !f.empty())
        sinks.push_back(
            (json = std::make_unique<harness::JsonSink>(f)).get());
    const std::string traceOut = args.getString(kTraceOutOption, "");
    const std::string traceStats =
        args.getString(kTraceStatsOption, "");
    std::unique_ptr<harness::ChromeTraceSink> trace;
    if (!traceOut.empty())
        sinks.push_back(
            (trace = std::make_unique<harness::ChromeTraceSink>(
                 traceOut))
                .get());
    std::unique_ptr<harness::TimelineStatsSink> coreStats;
    if (!traceStats.empty())
        sinks.push_back(
            (coreStats =
                 std::make_unique<harness::TimelineStatsSink>(
                     traceStats))
                .get());
    harness::TeeSink tee(std::move(sinks));

    harness::runDispatchCampaign(plan, dopt, tee);

    if (stats.errorStats().count() > 0) {
        const RunningStats &err = stats.errorStats();
        std::printf("error over %zu comparisons: mean %.2f%%, "
                    "max %.2f%%\n",
                    err.count(), err.mean(), err.max());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliArgs args(
            argc, argv,
            {{"plan",
              "serialized experiment plan to dispatch (required)"},
             {"spool",
              "spool directory shared with the runners (default: "
              "coordinator creates a temp spool)"},
             {"runners",
              "local runner processes the coordinator spawns "
              "(default 0: external runners join with "
              "taskpoint_worker --spool=DIR)"},
             {"shards",
              "shard tasks to split the plan into (default "
              "2x runners; one result stream exists per task)"},
             {"heartbeat",
              "runner heartbeat interval in ms (default 200)"},
             {"dead-after",
              "heartbeat-stall span in ms after which a runner is "
              "declared dead and its work stolen (default 2000)"},
             {"stalled-after",
              "span in ms after which a claimed task's silent "
              "result stream is declared stalled and its jobs "
              "stolen (default 0 = max(30*dead-after, 60s))"},
             {"cost-probe",
              "probe --cache-dir per job and schedule fully "
              "cache-hit shards first"},
             {"keep-spool",
              "keep a coordinator-created temp spool for "
              "post-mortems"},
             {"csv", "also stream results to this file as CSV rows"},
             {"json",
              "also stream results to this file as a JSON array"},
             jobsCliOption(), workerBinCliOption(),
             maxRetriesCliOption(),
             cacheDirCliOption(), cacheModeCliOption(),
             traceOutCliOption(), traceStatsCliOption(),
             faultPlanCliOption()});
        return coordinatorMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "taskpoint_dispatch: %s\n", e.what());
        return 1;
    }
}
