/**
 * @file
 * Every machine kind behind the one batch driver behaves the same way
 * under failure and injection: a per-point deadline or an OOM ends as
 * a quarantined SimError (never a process exit), and the lifecycle
 * fault sites (pressure bursts, demote storms) fire in native,
 * virtualized, multiprogrammed and GPU runs alike.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bench_common.hh"
#include "common/contracts.hh"
#include "common/fault.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

namespace
{

enum class Kind
{
    Native,
    Virt,
    Multi,
    Gpu,
};

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Native: return "native";
      case Kind::Virt: return "virt";
      case Kind::Multi: return "multi";
      case Kind::Gpu: return "gpu";
    }
    return "unknown";
}

/**
 * A small point of @p kind over a @p footprint arena (per process or
 * VM) in @p mem bytes of memory, running about 8 Ki references.
 */
BenchConfig
smallConfig(Kind kind, std::uint64_t mem, std::uint64_t footprint)
{
    switch (kind) {
      case Kind::Native: {
        NativeRunConfig config;
        config.workload = "gups";
        config.memBytes = mem;
        config.footprintBytes = footprint;
        config.refs = 8192;
        return config;
      }
      case Kind::Virt: {
        VirtRunConfig config;
        config.workload = "gups";
        config.hostMemBytes = mem;
        config.footprintBytes = footprint;
        config.refsPerVm = 8192;
        return config;
      }
      case Kind::Multi: {
        MultiRunConfig config;
        config.memBytes = mem;
        config.footprintPerProc = footprint;
        config.refsPerProc = 4096;
        return config;
      }
      case Kind::Gpu: {
        GpuRunConfig config;
        config.kernel = "bfs";
        config.cores = 4;
        config.memBytes = mem;
        config.footprintBytes = footprint;
        config.refs = 8192;
        return config;
      }
    }
    return NativeRunConfig{};
}

/** Run @p config as one sweep point under @p params. */
std::pair<RunResult, PointStatus>
runPoint(const BenchConfig &config, SweepParams params)
{
    params.jobs = 1;
    params.retries = 0;
    SweepRunner runner(params);
    SweepGrid grid;
    grid.add("kinds", "point", config);
    std::vector<PointStatus> statuses;
    auto results = runner.runChecked<RunResult>(
        1, [&grid](std::size_t i) { return runJob(grid.jobs()[i]); },
        [&grid](std::size_t i) { return effectiveSeed(grid.jobs()[i]); },
        statuses);
    return {results[0], statuses[0]};
}

class MachineKinds : public ::testing::TestWithParam<Kind>
{};

TEST_P(MachineKinds, DeadlineInTheRunLoopIsQuarantined)
{
    // A 2 MB arena warms up in 512 steps, under the 1024-step poll
    // cadence, so the expired deadline is caught by the run loop.
    SweepParams params;
    params.deadlineSeconds = 1e-9;
    auto [result, status] =
        runPoint(smallConfig(GetParam(), 512 * MiB, 2 * MiB), params);
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(status.errorKind, "deadline");
    EXPECT_NE(status.errorMessage.find("deadline after"),
              std::string::npos)
        << status.errorMessage;
}

TEST_P(MachineKinds, OutOfMemoryIsQuarantined)
{
    // Every frame allocation fails, so the first touch finds memory
    // exhausted (reclaim cannot help: nothing is mapped yet).
    SweepParams params;
    params.faults.sites[static_cast<std::size_t>(
        fault::Site::BuddyAlloc)].rate = 1.0;
    auto [result, status] =
        runPoint(smallConfig(GetParam(), 512 * MiB, 32 * MiB), params);
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(status.errorKind, "oom") << status.errorMessage;
}

class MachineKindInjection
    : public ::testing::TestWithParam<std::tuple<Kind, fault::Site>>
{};

TEST_P(MachineKindInjection, LifecycleSitesFireUnderTheOracle)
{
    const auto [kind, site] = GetParam();
    contracts::setParanoia(2);
    SweepParams params;
    params.faults.sites[static_cast<std::size_t>(site)].rate = 1.0;
    auto [result, status] =
        runPoint(smallConfig(kind, 512 * MiB, 32 * MiB), params);
    contracts::setParanoia(0);

    ASSERT_TRUE(status.ok) << status.errorKind << ": "
                           << status.errorMessage;
    EXPECT_GT(status.faults[static_cast<std::size_t>(site)], 0u);
    if (site == fault::Site::DemoteStorm) {
        EXPECT_GT(valueAt(result, "metrics.demotions"), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MachineKinds,
    ::testing::Values(Kind::Native, Kind::Virt, Kind::Multi, Kind::Gpu),
    [](const auto &info) { return std::string(kindName(info.param)); });

INSTANTIATE_TEST_SUITE_P(
    Kinds, MachineKindInjection,
    ::testing::Combine(::testing::Values(Kind::Native, Kind::Virt,
                                         Kind::Multi, Kind::Gpu),
                       ::testing::Values(fault::Site::PressureBurst,
                                         fault::Site::DemoteStorm)),
    [](const auto &info) {
        std::string name = kindName(std::get<0>(info.param));
        name += '_';
        for (const char *c = fault::siteName(std::get<1>(info.param));
             *c; ++c)
            name += *c == '-' ? '_' : *c;
        return name;
    });

} // anonymous namespace
