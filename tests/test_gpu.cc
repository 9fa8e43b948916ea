/**
 * @file
 * Tests for the GPU machine: per-core L1 TLBs over a shared L2 and a
 * shared walker, warp-interleaved execution, GPU-wide shootdowns, and
 * energy inputs counted over distinct TLB levels.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"

using namespace mixtlb;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

struct GpuFixture : ::testing::Test
{
    static std::unique_ptr<sim::GpuMachine>
    makeGpu(sim::TlbDesign design, unsigned cores = 4)
    {
        sim::GpuMachineParams params;
        params.memBytes = 4 * GiB;
        params.numCores = cores;
        params.design = design;
        return std::make_unique<sim::GpuMachine>(params);
    }

    static void
    attachGenerators(sim::GpuMachine &gpu, const std::string &name,
                     VAddr base, std::uint64_t bytes)
    {
        for (unsigned core = 0; core < gpu.numCores(); core++) {
            gpu.attachWorkload(core, workload::makeGenerator(
                                         name, base, bytes, 1000 + core));
        }
    }
};

} // anonymous namespace

TEST_F(GpuFixture, RunsWarpInterleavedAcrossCores)
{
    auto gpu = makeGpu(sim::TlbDesign::Mix);
    VAddr base = gpu->mapArena(128 * MiB);
    attachGenerators(*gpu, "bfs", base, 64 * MiB);
    EXPECT_EQ(gpu->run(40000), 40000u);
    EXPECT_GT(gpu->metrics().translationCycles, 0.0);
    // Every core saw roughly total/4 references.
    for (unsigned core = 0; core < 4; core++) {
        EXPECT_NEAR(gpu->core(core).accessCount(), 10000.0, 64.0)
            << core;
    }
}

TEST_F(GpuFixture, SharedL2ServesAllCores)
{
    auto gpu = makeGpu(sim::TlbDesign::Mix);
    VAddr base = gpu->mapArena(128 * MiB);
    // Core 0 warms the shared L2; later cores reuse its fills.
    attachGenerators(*gpu, "pathfinder", base, 8 * MiB);
    gpu->run(80000);
    double l2_hits = 0;
    for (unsigned core = 1; core < 4; core++)
        l2_hits += gpu->core(core).l2HitCount();
    EXPECT_GT(l2_hits, 0.0);
}

TEST_F(GpuFixture, ShootdownHitsEveryCore)
{
    auto gpu = makeGpu(sim::TlbDesign::Mix);
    VAddr base = gpu->mapArena(128 * MiB);
    attachGenerators(*gpu, "pathfinder", base, 8 * MiB);
    gpu->run(20000);
    auto leaf = gpu->process().pageTable().translate(base);
    ASSERT_TRUE(leaf.has_value());
    gpu->invalidatePage(leaf->vbase, leaf->size);
    for (unsigned core = 0; core < 4; core++) {
        auto result = gpu->core(core).l1().lookup(base, false);
        EXPECT_FALSE(result.hit) << core;
    }
}

TEST_F(GpuFixture, SharedL2InvalidationsCountOnceInEnergy)
{
    // A GPU-wide shootdown reaches the shared L2 through every core's
    // hierarchy; the energy inputs must still count that one L2 once,
    // next to each core's private L1.
    auto gpu = makeGpu(sim::TlbDesign::Split);
    VAddr base = gpu->mapArena(64 * MiB);
    gpu->warmup(base, 8 * MiB);
    gpu->startMeasurement();
    auto leaf = gpu->process().pageTable().translate(base);
    ASSERT_TRUE(leaf.has_value());
    ASSERT_TRUE(gpu->core(0).l2().lookup(base, false).hit);
    gpu->invalidatePage(leaf->vbase, leaf->size);
    EXPECT_FALSE(gpu->core(0).l2().lookup(base, false).hit);

    double l1_invalidations = 0;
    for (unsigned core = 0; core < 4; core++)
        l1_invalidations += gpu->core(core).l1().invalidationCount();
    const double l2_invalidations = gpu->core(0).l2().invalidationCount();
    EXPECT_GT(l2_invalidations, 0.0);
    EXPECT_EQ(gpu->energyInputs().invalidations,
              l1_invalidations + l2_invalidations);
}

TEST_F(GpuFixture, MixBeatsSplitOnGpuWorkloads)
{
    // The headline GPU claim, in miniature: identical footprints and
    // reference streams, THS paging; MIX should miss less than split.
    auto run = [](sim::TlbDesign design) {
        auto gpu = makeGpu(design);
        VAddr base = gpu->mapArena(512 * MiB);
        // Initialization sweep (the kernel's input upload): ascending
        // first-touch hands contiguous frames and warms the TLB state.
        gpu->warmup(base, 256 * MiB);
        gpu->startMeasurement();
        attachGenerators(*gpu, "bfs", base, 256 * MiB);
        gpu->run(100000);
        return gpu->metrics().translationCycles;
    };
    EXPECT_LT(run(sim::TlbDesign::Mix), run(sim::TlbDesign::Split));
}
