/**
 * @file
 * Tests of the multi-process result transport and the local
 * campaigns behind `--workers`: the checksummed result envelope
 * rejects truncated and bit-flipped bytes with recoverable IoError,
 * BatchResults round-trip bit-identically through the wire format,
 * and a dispatch campaign over spawned taskpoint_worker runners
 * delivers the same ordered result stream as in-process execution —
 * including with a runner killed mid-shard and with a runner binary
 * that can never succeed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "corruption_battery.hh"
#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/worker.hh"
#include "sim/result_io.hh"

namespace tp::harness {
namespace {

namespace fs = std::filesystem;

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = 42;
    return p;
}

ExperimentPlan
smallPlan(std::size_t n = 5)
{
    ExperimentPlan plan;
    plan.baseSeed = 11;
    for (std::size_t i = 0; i < n; ++i) {
        JobSpec j;
        j.label = "job " + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams = tinyScale();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::periodic(100);
        j.mode = i % 3 == 0 ? BatchMode::Both : BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

std::string
resultBytes(const BatchResult &r)
{
    std::ostringstream out(std::ios::binary);
    serializeBatchResult(r, out);
    return out.str();
}

TEST(ResultEnvelope, RoundTripsArbitraryPayloads)
{
    for (const std::string &payload :
         {std::string(), std::string("x"),
          std::string(100000, '\xab'),
          std::string("binary\0bytes\xff", 13)}) {
        std::ostringstream out(std::ios::binary);
        sim::writeEnvelope(out, payload);
        std::istringstream in(out.str(), std::ios::binary);
        EXPECT_EQ(sim::readEnvelope(in, "mem"), payload);
    }
}

TEST(ResultEnvelope, TruncationRaisesRecoverableIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "the payload under test");
    test::expectTruncationsThrow<IoError>(
        out.str(), [](const std::string &bad) {
            std::istringstream in(bad, std::ios::binary);
            (void)sim::readEnvelope(in, "trunc");
        });
}

TEST(ResultEnvelope, BitFlipsAnywhereRaiseIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "checksummed payload bytes here");
    test::expectBitFlipsThrow<IoError>(
        out.str(), [](const std::string &bad) {
            std::istringstream in(bad, std::ios::binary);
            (void)sim::readEnvelope(in, "flip");
        });
}

TEST(ResultEnvelope, TrailingBytesRaiseIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "payload");
    std::istringstream in(out.str() + "x", std::ios::binary);
    EXPECT_THROW((void)sim::readEnvelope(in, "trail"), IoError);
}

TEST(WorkerTransport, BatchResultRoundTripsBitIdentically)
{
    // Real results with every optional populated/absent combination.
    ExperimentPlan plan = smallPlan(3);
    plan.jobs[1].mode = BatchMode::Reference;
    const std::vector<BatchResult> results =
        BatchRunner(BatchOptions{}).run(plan);
    for (const BatchResult &r : results) {
        SCOPED_TRACE(r.label);
        const std::string bytes = resultBytes(r);
        std::istringstream in(bytes, std::ios::binary);
        const BatchResult back = deserializeBatchResult(in, "mem");
        EXPECT_EQ(back.index, r.index);
        EXPECT_EQ(back.label, r.label);
        EXPECT_EQ(back.sampled.has_value(), r.sampled.has_value());
        EXPECT_EQ(back.reference.has_value(),
                  r.reference.has_value());
        EXPECT_EQ(back.comparison.has_value(),
                  r.comparison.has_value());
        EXPECT_EQ(resultBytes(back), bytes)
            << "serialize(deserialize(x)) must equal x";
    }

    // Corrupt result payloads are recoverable errors, not crashes.
    const std::string good = resultBytes(results[0]);
    std::istringstream in(good.substr(0, good.size() / 2),
                          std::ios::binary);
    EXPECT_THROW((void)deserializeBatchResult(in, "trunc"),
                 IoError);
}

/**
 * Local campaigns (the `--workers=N` executor) against the real
 * taskpoint_worker binary, resolved next to this test binary; both
 * live in the build directory.
 */
class LocalCampaignE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!fs::exists(defaultWorkerBinary()))
            GTEST_SKIP()
                << "taskpoint_worker not found next to the test "
                   "binary (" << defaultWorkerBinary() << ")";
    }

    /** `--workers=n`: n local runners, one shard each. */
    static DispatchOptions
    workers(std::size_t n)
    {
        DispatchOptions o;
        o.localRunners = n;
        o.shards = static_cast<std::uint32_t>(n);
        return o;
    }
};

TEST_F(LocalCampaignE2E, MatchesInProcessExecutionOrderedAndExact)
{
    const ExperimentPlan plan = smallPlan();
    const std::vector<BatchResult> reference =
        BatchRunner(BatchOptions{}).run(plan);

    CollectingSink sink;
    runDispatchCampaign(plan, workers(3), sink);
    const std::vector<BatchResult> &results = sink.results();

    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(reference[i].label);
        EXPECT_EQ(results[i].index, i)
            << "campaign must deliver in submission order";
        EXPECT_EQ(results[i].label, reference[i].label);
        ASSERT_EQ(results[i].sampled.has_value(),
                  reference[i].sampled.has_value());
        if (results[i].sampled) {
            EXPECT_EQ(results[i].sampled->result.totalCycles,
                      reference[i].sampled->result.totalCycles);
        }
        ASSERT_EQ(results[i].reference.has_value(),
                  reference[i].reference.has_value());
        if (results[i].reference) {
            EXPECT_EQ(results[i].reference->totalCycles,
                      reference[i].reference->totalCycles);
        }
        if (results[i].comparison) {
            EXPECT_EQ(results[i].comparison->errorPct,
                      reference[i].comparison->errorPct);
        }
    }
}

TEST_F(LocalCampaignE2E, EmptyPlanCompletesWithoutRunners)
{
    // Every spawned runner leaves runners/<id>.err behind in a kept
    // spool, so an empty runners/ directory proves nothing spawned.
    const fs::path spool =
        fs::path(testing::TempDir()) / "tp_empty_campaign";
    fs::remove_all(spool);
    DispatchOptions o = workers(4);
    o.spoolDir = spool.string();
    CollectingSink sink;
    runDispatchCampaign(ExperimentPlan{}, o, sink);
    EXPECT_TRUE(sink.results().empty());
    EXPECT_TRUE(fs::is_empty(spool / "runners"))
        << "an empty plan must not spawn a runner";
    fs::remove_all(spool);
}

TEST_F(LocalCampaignE2E, SurvivesRunnerKilledMidShard)
{
    // A fault plan makes exactly one runner abort (SIGKILL) right
    // after its first flushed publish; the spawned runners inherit it
    // through the environment. The coordinator must steal the dead
    // runner's remaining jobs and still deliver the full, identical,
    // ordered result set.
    const fs::path dir = fs::path(testing::TempDir());
    const fs::path marker = dir / "tp_campaign_kill";
    const fs::path fired = marker.string() + ".worker.stream.append.1";
    const fs::path planFile = dir / "tp_campaign_kill.plan";
    fs::remove(fired);
    std::ofstream(planFile) << "taskpoint-fault-plan v1\n"
                            << "once " << marker.string() << "\n"
                            << "on worker.stream.append 1 abort\n";
    ASSERT_EQ(setenv(fault::kFaultPlanEnvVar, planFile.c_str(), 1),
              0);

    const ExperimentPlan plan = smallPlan(6);
    CollectingSink sink;
    // 3 jobs per shard: death after the first leaves work undone.
    runDispatchCampaign(plan, workers(2), sink);

    unsetenv(fault::kFaultPlanEnvVar);
    EXPECT_TRUE(fs::exists(fired))
        << "the abort fault must actually have fired";
    fs::remove(fired);
    fs::remove(planFile);

    const std::vector<BatchResult> reference =
        BatchRunner(BatchOptions{}).run(plan);
    ASSERT_EQ(sink.results().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(sink.results()[i].index, i);
        EXPECT_EQ(sink.results()[i].sampled->result.totalCycles,
                  reference[i].sampled->result.totalCycles);
    }
}

TEST_F(LocalCampaignE2E, HopelessRunnerBinaryFailsOnceSpawnBudgetIsSpent)
{
    DispatchOptions o = workers(1);
    o.maxRetries = 2;
    o.runnerBinary = "/bin/false";
    CollectingSink sink;
    EXPECT_THROW(runDispatchCampaign(smallPlan(2), o, sink), SimError);
}

TEST(DispatchOptionsCli, BuildsOptionsFromFlags)
{
    const std::vector<CliOption> options = {
        workersCliOption(), workerBinCliOption(), jobsCliOption(),
        maxRetriesCliOption(), cacheDirCliOption(),
        cacheModeCliOption(), checkpointDirCliOption()};
    const char *argv[] = {"prog", "--workers=3", "--jobs=2",
                          "--max-retries=5", "--cache-dir=/tmp/c",
                          "--cache=ro", "--checkpoint-dir=/tmp/k",
                          "--worker-bin=/opt/w"};
    const CliArgs args(8, argv, options);
    const DispatchOptions o = dispatchOptionsFromCli(args);
    EXPECT_EQ(o.localRunners, 3u);
    EXPECT_EQ(o.shards, 3u) << "one shard per local runner";
    EXPECT_TRUE(o.spoolDir.empty()) << "a private temp spool";
    EXPECT_EQ(o.jobsPerRunner, 2u);
    EXPECT_EQ(o.maxRetries, 5u);
    EXPECT_EQ(o.cacheDir, "/tmp/c");
    EXPECT_EQ(o.cacheMode, "ro");
    EXPECT_EQ(o.checkpointDir, "/tmp/k");
    EXPECT_EQ(o.runnerBinary, "/opt/w");
    EXPECT_FALSE(o.collectTimelines);

    const char *off[] = {"prog", "--workers=0", "--cache=off",
                         "--cache-dir=/tmp/c"};
    const DispatchOptions offOpts =
        dispatchOptionsFromCli(CliArgs(4, off, options));
    EXPECT_EQ(offOpts.localRunners, 0u)
        << "--workers=0 must mean in-process";
    EXPECT_TRUE(offOpts.cacheDir.empty()) << "--cache=off wins";
}

} // namespace
} // namespace tp::harness
