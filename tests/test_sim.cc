/**
 * @file
 * Tests for the sim layer: every TLB design builds at area-equivalent
 * geometry, machines run end-to-end, and the headline behavioural
 * claims hold in miniature (MIX >= split under every page policy).
 */

#include <gtest/gtest.h>

#include "sim/configs.hh"
#include "sim/machine.hh"

using namespace mixtlb;
using namespace mixtlb::sim;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

const TlbDesign AllDesigns[] = {
    TlbDesign::Split,       TlbDesign::Mix,
    TlbDesign::MixColt,     TlbDesign::MixSuperIndex,
    TlbDesign::HashRehash,  TlbDesign::HashRehashPred,
    TlbDesign::Skew,        TlbDesign::SkewPred,
    TlbDesign::Colt,        TlbDesign::ColtPlusPlus,
    TlbDesign::Ideal,
};

MachineParams
smallMachine(TlbDesign design, os::PagePolicy policy,
             double memhog = 0.0)
{
    MachineParams params;
    params.name = std::string("m_") + designName(design);
    params.memBytes = 2 * GiB;
    params.design = design;
    params.proc.policy = policy;
    params.memhogFraction = memhog;
    params.seed = 11;
    return params;
}

/** Run a named workload and return total-cycle metrics. */
perf::RunMetrics
runOne(TlbDesign design, os::PagePolicy policy, const std::string &name,
       std::uint64_t footprint, std::uint64_t refs, double memhog = 0.0)
{
    Machine machine(smallMachine(design, policy, memhog));
    VAddr base = machine.mapArena(footprint);
    // Initialization phase: real programs fault their arena in roughly
    // ascending order (allocate + memset), which is what hands adjacent
    // virtual pages adjacent physical frames (Sec. 7.1) and lets
    // coalescing TLBs assemble their bundles.
    machine.warmup(base, footprint);
    machine.startMeasurement();
    auto gen = workload::makeGenerator(name, base, footprint, 3);
    EXPECT_EQ(machine.run(*gen, refs), refs);
    return machine.metrics();
}

} // anonymous namespace

TEST(Configs, EveryDesignBuildsBothLevels)
{
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    for (TlbDesign design : AllDesigns) {
        stats::StatGroup root(designName(design));
        auto l1 = makeCpuL1(design, &root, &table);
        auto l2 = makeCpuL2(design, &root, &table);
        ASSERT_NE(l1, nullptr) << designName(design);
        ASSERT_NE(l2, nullptr) << designName(design);
        // Every design must accept all page sizes somewhere.
        for (auto size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
            EXPECT_TRUE(l1->supports(size))
                << designName(design) << " L1 " << pageSizeName(size);
            EXPECT_TRUE(l2->supports(size))
                << designName(design) << " L2 " << pageSizeName(size);
        }
    }
}

TEST(Configs, AreaEquivalence)
{
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    stats::StatGroup root("cfg");
    auto split_l1 = makeCpuL1(TlbDesign::Split, &root, &table);
    auto mix_l1 = makeCpuL1(TlbDesign::Mix, &root, &table);
    auto skew_l1 = makeCpuL1(TlbDesign::Skew, &root, &table);
    // MIX fits within the split budget; skew is docked for timestamps.
    EXPECT_LE(mix_l1->numEntries(), split_l1->numEntries());
    EXPECT_GE(mix_l1->numEntries(), split_l1->numEntries() * 9 / 10);
    EXPECT_LT(skew_l1->numEntries(), mix_l1->numEntries());
}

TEST(Configs, GpuVariantsBuild)
{
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    for (TlbDesign design : AllDesigns) {
        stats::StatGroup root(designName(design));
        auto l1 = makeGpuCoreL1(design, 0, &root, &table);
        auto l2 = makeGpuL2(design, &root, &table);
        ASSERT_NE(l1, nullptr) << designName(design);
        ASSERT_NE(l2, nullptr) << designName(design);
    }
}

TEST(Machine, EveryDesignRunsEndToEnd)
{
    for (TlbDesign design : AllDesigns) {
        auto metrics = runOne(design, os::PagePolicy::Thp, "gups",
                              64 * MiB, 20000);
        EXPECT_EQ(metrics.refs, 20000u) << designName(design);
        EXPECT_GT(metrics.totalCycles, 0.0) << designName(design);
    }
}

TEST(Machine, IdealLowerBoundsEveryone)
{
    auto ideal = runOne(TlbDesign::Ideal, os::PagePolicy::Thp, "gups",
                        128 * MiB, 50000);
    for (TlbDesign design :
         {TlbDesign::Split, TlbDesign::Mix, TlbDesign::HashRehash}) {
        auto metrics = runOne(design, os::PagePolicy::Thp, "gups",
                              128 * MiB, 50000);
        EXPECT_GE(metrics.totalCycles, ideal.totalCycles)
            << designName(design);
    }
}

TEST(Machine, IdealStoreToCleanPagePaysDirtyMicroOp)
{
    // An ideal hit carries the PTE's own dirty bit: a store to a page
    // so far only loaded issues the micro-op that sets D, and the
    // oracle sees no dirty entry over a clean PTE.
    Machine machine(
        smallMachine(TlbDesign::Ideal, os::PagePolicy::SmallOnly));
    const VAddr base = machine.mapArena(16 * MiB);
    const pt::PageTable &table = machine.process().pageTable();
    contracts::setParanoia(2);
    EXPECT_TRUE(machine.tlbs().access(base, false).ok);
    EXPECT_FALSE(table.translate(base)->dirty);
    EXPECT_TRUE(machine.tlbs().access(base + 8, true).ok);
    contracts::setParanoia(0);
    EXPECT_TRUE(table.translate(base)->dirty);
    EXPECT_EQ(machine.root().value("tlb.dirty_micro_ops"), 1.0);
}

TEST(Machine, MixAtLeastMatchesSplitAcrossPolicies)
{
    // The paper's core claim (Figure 14): under 4KB-only, 2MB pool,
    // 1GB pool, and THS policies alike, MIX never loses to split.
    for (auto policy :
         {os::PagePolicy::SmallOnly, os::PagePolicy::Thp}) {
        auto split = runOne(TlbDesign::Split, policy, "graph500",
                            256 * MiB, 100000);
        auto mix = runOne(TlbDesign::Mix, policy, "graph500",
                          256 * MiB, 100000);
        EXPECT_LE(mix.totalCycles, split.totalCycles * 1.01)
            << pagePolicyName(policy);
    }
}

TEST(Machine, MixBeatsSplitClearlyOnSuperpageHeavyGups)
{
    // gups over THS superpages: split thrashes its 32-entry 2MB TLB;
    // MIX uses the whole array. Translation time (total runtime is
    // dominated by the workload's own DRAM traffic) must drop sharply.
    auto split = runOne(TlbDesign::Split, os::PagePolicy::Thp, "gups",
                        512 * MiB, 100000);
    auto mix = runOne(TlbDesign::Mix, os::PagePolicy::Thp, "gups",
                      512 * MiB, 100000);
    EXPECT_LT(mix.translationCycles, 0.85 * split.translationCycles);
    EXPECT_LE(mix.totalCycles, split.totalCycles);
}

TEST(Machine, SuperpageIndexAblationLosesBadly)
{
    // Sec. 3: superpage index bits raise misses ~4-8x on 4KB-heavy
    // runs; just assert it clearly loses to normal MIX.
    auto normal = runOne(TlbDesign::Mix, os::PagePolicy::SmallOnly,
                         "graph500", 128 * MiB, 100000);
    auto ablated = runOne(TlbDesign::MixSuperIndex,
                          os::PagePolicy::SmallOnly, "graph500",
                          128 * MiB, 100000);
    EXPECT_GT(ablated.totalCycles, normal.totalCycles);
}

TEST(Machine, MemhogReducesSuperpageFraction)
{
    Machine clean(smallMachine(TlbDesign::Split, os::PagePolicy::Thp));
    Machine fragged(
        smallMachine(TlbDesign::Split, os::PagePolicy::Thp, 0.85));
    for (Machine *machine : {&clean, &fragged}) {
        VAddr base = machine->mapArena(128 * MiB);
        machine->touchSequential(base, 128 * MiB);
    }
    EXPECT_GT(clean.distribution().superpageFraction(), 0.9);
    EXPECT_LT(fragged.distribution().superpageFraction(),
              clean.distribution().superpageFraction());
}

TEST(Machine, ContiguityScannerSeesThsRuns)
{
    Machine machine(smallMachine(TlbDesign::Split, os::PagePolicy::Thp));
    VAddr base = machine.mapArena(256 * MiB);
    machine.touchSequential(base, 256 * MiB);
    auto runs = machine.contiguityRuns(PageSize::Size2M);
    ASSERT_FALSE(runs.empty());
    EXPECT_GE(os::averageContiguity(runs), 16.0);
}

TEST(Machine, EnergyInputsHarvestCorrectly)
{
    Machine machine(smallMachine(TlbDesign::Mix, os::PagePolicy::Thp));
    VAddr base = machine.mapArena(64 * MiB);
    auto gen = workload::makeGenerator("gups", base, 64 * MiB, 3);
    machine.run(*gen, 20000);
    auto inputs = machine.energyInputs();
    EXPECT_GT(inputs.l1WaysRead, 0.0);
    EXPECT_GT(inputs.walkAccesses, 0.0);
    EXPECT_EQ(inputs.l1Entries, 96u);
    EXPECT_EQ(inputs.l2Entries, 544u);
    EXPECT_EQ(inputs.predictorLookups, 0.0);
    auto pred = smallMachine(TlbDesign::HashRehashPred,
                             os::PagePolicy::Thp);
    Machine pred_machine(pred);
    VAddr base2 = pred_machine.mapArena(64 * MiB);
    auto gen2 = workload::makeGenerator("gups", base2, 64 * MiB, 3);
    pred_machine.run(*gen2, 1000);
    EXPECT_GT(pred_machine.energyInputs().predictorLookups, 0.0);
}

TEST(VirtMachine, MixFillBurstDiscountSurvivesAggregation)
{
    // Regression: VirtMachine::energyInputs() used to drop
    // fillBurstFactor when summing per-vCPU inputs, charging
    // virtualized MIX runs full fill-burst energy (1.0 instead of
    // 0.25) — exactly the consolidation configurations the paper's
    // dynamic-energy argument rests on.
    auto virtInputs = [](TlbDesign design) {
        VirtMachineParams params;
        params.name = std::string("v_") + designName(design);
        params.hostMemBytes = 1 * GiB;
        params.numVms = 2;
        params.design = design;
        params.seed = 11;
        VirtMachine machine(params);
        for (unsigned vm = 0; vm < machine.numVms(); vm++) {
            VAddr base = machine.mapArena(vm, 32 * MiB);
            machine.warmup(vm, base, 32 * MiB);
            auto gen = workload::makeGenerator("gups", base, 32 * MiB,
                                               3 + vm);
            EXPECT_EQ(machine.run(vm, *gen, 5000), 5000u);
        }
        return machine.energyInputs();
    };

    Machine native(smallMachine(TlbDesign::Mix, os::PagePolicy::Thp));
    VAddr base = native.mapArena(32 * MiB);
    native.warmup(base, 32 * MiB);
    auto gen = workload::makeGenerator("gups", base, 32 * MiB, 3);
    EXPECT_EQ(native.run(*gen, 5000), 5000u);
    auto native_inputs = native.energyInputs();

    auto mix_inputs = virtInputs(TlbDesign::Mix);
    EXPECT_DOUBLE_EQ(native_inputs.fillBurstFactor, 0.25);
    EXPECT_DOUBLE_EQ(mix_inputs.fillBurstFactor,
                     native_inputs.fillBurstFactor);
    EXPECT_GT(mix_inputs.l1Fills, 0.0);

    // Non-mirroring designs keep the conventional full-cost fills.
    EXPECT_DOUBLE_EQ(virtInputs(TlbDesign::Split).fillBurstFactor,
                     1.0);
}

TEST(VirtMachineDeathTest, IdealDesignIsRejected)
{
    // IdealTlb would translate from the guest page table and hand out
    // guest-physical addresses.
    VirtMachineParams params;
    params.hostMemBytes = 1 * GiB;
    params.design = TlbDesign::Ideal;
    EXPECT_EXIT(VirtMachine machine(params), ::testing::ExitedWithCode(1),
                "ideal TLB cannot run in a virtual machine");
}
