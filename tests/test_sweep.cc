/**
 * @file
 * Tests for the sweep runner: grid-order result collection, per-point
 * seed derivation, and the headline determinism contract — a sweep
 * run with `--jobs 1` and `--jobs 8` must produce bit-identical
 * RunResults, because seeds derive from (base seed, point index) and
 * never from thread scheduling.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

namespace
{

/** A small but heterogeneous grid: native pairs plus a 2-VM point. */
SweepGrid
smallGrid()
{
    SweepGrid grid;
    for (const char *workload : {"gups", "graph500"}) {
        NativeRunConfig config;
        config.workload = workload;
        config.memBytes = 512 * MiB;
        config.footprintBytes = 32 * MiB;
        config.refs = 4000;
        config.design = TlbDesign::Split;
        auto split = grid.add("native",
                              std::string(workload) + "/split",
                              config);
        config.design = TlbDesign::Mix;
        grid.addPaired(split, "native",
                       std::string(workload) + "/mix", config);
    }
    VirtRunConfig virt_config;
    virt_config.numVms = 2;
    virt_config.hostMemBytes = 512 * MiB;
    virt_config.footprintBytes = 16 * MiB;
    virt_config.refsPerVm = 2000;
    grid.add("virt", "memcached/2vm", virt_config);
    return grid;
}

/** Every key and value of two results, compared as whole records. */
void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &label)
{
    SCOPED_TRACE(label);
    ASSERT_TRUE(a.isObject());
    EXPECT_EQ(a.dump(2), b.dump(2));
}

} // anonymous namespace

TEST(SweepRunner, ResultsLandInGridOrder)
{
    SweepRunner runner(SweepParams{8});
    std::vector<PointStatus> statuses;
    auto results = runner.runChecked<std::size_t>(
        100, [](std::size_t index) { return index * index; },
        [](std::size_t index) { return sweepPointSeed(1, index); },
        statuses);
    ASSERT_EQ(results.size(), 100u);
    for (std::size_t i = 0; i < results.size(); i++) {
        EXPECT_TRUE(statuses[i].ok);
        EXPECT_EQ(results[i], i * i);
    }
}

TEST(SweepRunner, PointSeedsDeterministicAndDecorrelated)
{
    EXPECT_EQ(sweepPointSeed(3, 0), sweepPointSeed(3, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t index = 0; index < 1000; index++)
        seeds.insert(sweepPointSeed(3, index));
    EXPECT_EQ(seeds.size(), 1000u); // no collisions on a real grid
    EXPECT_NE(sweepPointSeed(3, 0), sweepPointSeed(4, 0));
    EXPECT_NE(sweepPointSeed(0, 0), 0u); // never the degenerate seed
}

TEST(SweepRunner, PairedJobsShareSeeds)
{
    auto grid = smallGrid();
    // split/mix of one cell share a point; separate cells do not.
    EXPECT_EQ(effectiveSeed(grid.jobs()[0]),
              effectiveSeed(grid.jobs()[1]));
    EXPECT_NE(effectiveSeed(grid.jobs()[0]),
              effectiveSeed(grid.jobs()[2]));
}

TEST(SweepRunner, ParallelSweepIsBitIdenticalToSerial)
{
    auto grid = smallGrid();
    const auto &jobs = grid.jobs();
    auto run_with = [&jobs](unsigned n) {
        SweepRunner runner(SweepParams{n});
        std::vector<PointStatus> statuses;
        auto results = runner.runChecked<RunResult>(
            jobs.size(),
            [&jobs](std::size_t index) { return runJob(jobs[index]); },
            [&jobs](std::size_t index) {
                return effectiveSeed(jobs[index]);
            },
            statuses);
        for (const auto &status : statuses)
            EXPECT_TRUE(status.ok) << status.errorMessage;
        return results;
    };
    auto serial = run_with(1);
    auto parallel = run_with(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++)
        expectIdentical(serial[i], parallel[i], jobs[i].label);
    // And a second parallel run reproduces the first exactly.
    auto again = run_with(8);
    for (std::size_t i = 0; i < serial.size(); i++)
        expectIdentical(parallel[i], again[i], jobs[i].label);
}

namespace
{

/** Build CliArgs from a flag list (argv[0] is prepended). */
CliArgs
makeSweepArgs(std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "test");
    std::vector<char *> argv;
    argv.reserve(flags.size());
    for (auto &flag : flags)
        argv.push_back(flag.data());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/** The full report produced by one BenchSweep over smallGrid(). */
json::Value
goldenSweepDoc(const char *jobs)
{
    auto args = makeSweepArgs({"--jobs", jobs, "--no-timing"});
    BenchSweep sweep(args, "golden");
    sweep.run(smallGrid());
    EXPECT_EQ(sweep.finish(), 0);
    return sweep.doc();
}

} // anonymous namespace

TEST(SweepRunner, GoldenReportBytesIdenticalAcrossJobCounts)
{
    // The headline determinism contract at the JSON layer: the full
    // per-point records a --jobs 1 and a --jobs 8 sweep emit (with
    // wall-clock timing suppressed) must serialize to the same bytes.
    auto serial = goldenSweepDoc("1");
    auto parallel = goldenSweepDoc("8");
    const json::Value *serial_results = serial.find("results");
    const json::Value *parallel_results = parallel.find("results");
    ASSERT_NE(serial_results, nullptr);
    ASSERT_NE(parallel_results, nullptr);
    EXPECT_EQ(serial_results->dump(2), parallel_results->dump(2));
    EXPECT_EQ(serial.find("failures")->dump(2),
              parallel.find("failures")->dump(2));
    EXPECT_EQ(serial_results->size(), smallGrid().size());
}

TEST(SweepRunner, TimingBlockPresentByDefaultAndSuppressible)
{
    SweepGrid grid;
    NativeRunConfig config;
    config.workload = "gups";
    config.memBytes = 256 * MiB;
    config.footprintBytes = 16 * MiB;
    config.refs = 2000;
    grid.add("native", "gups/split", config);

    {
        auto args = makeSweepArgs({"--jobs", "1"});
        BenchSweep sweep(args, "timing");
        sweep.run(grid);
        EXPECT_EQ(sweep.finish(), 0);
        const json::Value &record =
            sweep.doc().find("results")->members().at(0).second;
        const json::Value *timing = record.find("timing");
        ASSERT_NE(timing, nullptr);
        const json::Value *wall = timing->find("wall_seconds");
        const json::Value *rate = timing->find("refs_per_sec");
        ASSERT_NE(wall, nullptr);
        ASSERT_NE(rate, nullptr);
        EXPECT_GT(wall->number(), 0.0);
        EXPECT_GT(rate->number(), 0.0);
    }
    {
        auto args = makeSweepArgs({"--jobs", "1", "--no-timing"});
        BenchSweep sweep(args, "timing");
        sweep.run(grid);
        EXPECT_EQ(sweep.finish(), 0);
        const json::Value &record =
            sweep.doc().find("results")->members().at(0).second;
        EXPECT_EQ(record.find("timing"), nullptr);
    }
}

TEST(RunResultDeathTest, ValueAtReadsKeysAndPanicsOnAMissingOne)
{
    auto result = json::Value::object();
    result["metrics"]["l1_miss_rate"] = 0.25;
    EXPECT_EQ(valueAt(result, "metrics.l1_miss_rate"), 0.25);
    EXPECT_DEATH(valueAt(result, "metrics.l1_miss"), "no number at");
    EXPECT_DEATH(valueAt(result, "energy.l1_miss_rate"), "no number at");
    EXPECT_DEATH(valueAt(result, "metrics"), "no number at");

    // A quarantined point has no value blocks and reads 0.
    auto failed = json::Value::object();
    failed["status"] = "failed";
    EXPECT_EQ(valueAt(failed, "metrics.total_cycles"), 0.0);
}
