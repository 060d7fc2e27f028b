/**
 * @file
 * Campaign runner — the one out-of-process executor binary (see
 * harness/dispatch).
 *
 *   taskpoint_worker --spool=DIR [--runner-id=NAME] [--jobs=N|auto]
 *                    [--heartbeat=MS] [--cache-dir=DIR]
 *                    [--cache=off|ro|rw] [--checkpoint-dir=DIR]
 *                    [--fault-plan=FILE] [--quiet]
 *
 * Joins the campaign spooled at --spool (possibly on another machine
 * via a shared filesystem): heartbeats, claims shard tasks in
 * schedule order, executes each through the ordinary BatchRunner,
 * appends every finished job's result to the task's checksummed
 * envelope stream, and exits when the coordinator publishes the stop
 * file. Drivers spawn this binary themselves for `--workers=N` and
 * `taskpoint_dispatch --runners=N`; external machines start it by
 * hand. A runner that dies is detected by the coordinator, which
 * steals its uncollected work.
 */

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness/dispatch.hh"
#include "harness/result_cache.hh"

using namespace tp;

int
main(int argc, char **argv)
{
    try {
        const CliArgs args(
            argc, argv,
            {{"spool", "spool directory of the campaign (required)"},
             {"runner-id",
              "runner identity in the spool (default host-pid)"},
             {"heartbeat",
              "heartbeat interval in ms (default 200)"},
             {"quiet", "suppress runner progress lines"},
             jobsCliOption(), cacheDirCliOption(),
             cacheModeCliOption(), checkpointDirCliOption(),
             faultPlanCliOption()});
        harness::DispatchRunnerOptions ro;
        ro.spoolDir = args.getString("spool", "");
        if (ro.spoolDir.empty())
            fatal("--spool=DIR is required (see --help)");
        ro.runnerId = args.getString("runner-id", "");
        ro.heartbeatInterval = std::chrono::milliseconds(
            args.getUintIn("heartbeat", 200, 10, 60000));
        ro.progress = !args.has("quiet");

        const std::unique_ptr<harness::ResultCache> cache =
            harness::resultCacheFromCli(args);
        const std::unique_ptr<harness::ResultCache> checkpoints =
            harness::openCheckpointDir(
                args.getString(kCheckpointDirOption, ""));
        ro.batch.jobs = jobsFlag(args, 1);
        ro.batch.progress = false; // per-job lines drown the heartbeat
        ro.batch.cache = cache.get();
        ro.batch.checkpoints = checkpoints.get();

        const std::size_t executed = harness::runDispatchRunner(ro);
        if (ro.progress)
            harness::progress(
                strprintf("runner: executed %zu tasks", executed));
        if (cache && ro.progress)
            harness::progress(cache->statsLine());
        return 0;
    } catch (const std::exception &e) {
        // The coordinator reads exit codes, not exceptions; report
        // and exit nonzero so the runner's claimed work is stolen.
        std::fprintf(stderr, "taskpoint_worker: %s\n", e.what());
        return 1;
    }
}
