/**
 * @file
 * Tests for the multiprogrammed machine: ASID-tagged vs full-flush
 * context switching over one shared TLB hierarchy, per-process stat
 * attribution, scheduler accounting, the differential oracle under
 * deliberately overlapping virtual address spaces, and the sweep
 * determinism contract (`--jobs 1` == `--jobs 8`, byte-identical).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/contracts.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

namespace
{

constexpr TlbDesign Headline[] = {
    TlbDesign::Split,      TlbDesign::Mix,  TlbDesign::MixColt,
    TlbDesign::HashRehash, TlbDesign::Skew,
};

MultiRunConfig
smallMultiConfig(TlbDesign design, SwitchPolicy policy)
{
    MultiRunConfig config;
    config.design = design;
    config.policy = policy;
    config.numProcs = 2;
    config.quantum = 512;
    config.mix = "gups,streamcluster";
    config.memBytes = 512 * MiB;
    config.footprintPerProc = 16 * MiB;
    config.refsPerProc = 6000;
    config.seed = 11;
    return config;
}

MultiMachineParams
smallMachineParams(SwitchPolicy policy)
{
    MultiMachineParams params;
    params.name = "multi_test";
    params.memBytes = 512 * MiB;
    params.quantum = 256;
    params.policy = policy;
    params.design = TlbDesign::Split;
    params.procs.resize(2);
    return params;
}

/** Map, warm, and attach a gups stream for every process. */
void
wireWorkloads(MultiMachine &machine, std::uint64_t footprint,
              std::uint64_t seed)
{
    std::vector<VAddr> bases;
    for (unsigned i = 0; i < machine.numProcs(); i++) {
        bases.push_back(machine.mapArena(i, footprint));
        machine.warmup(i, bases[i], footprint);
    }
    machine.startMeasurement();
    for (unsigned i = 0; i < machine.numProcs(); i++) {
        machine.attachWorkload(
            i, workload::makeGenerator("gups", bases[i], footprint,
                                       sweepPointSeed(seed, i)));
    }
}

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

/** A small multiprog grid: two designs, both policies paired. */
SweepGrid
multiGrid()
{
    SweepGrid grid;
    for (TlbDesign design : {TlbDesign::Split, TlbDesign::Skew}) {
        MultiRunConfig config =
            smallMultiConfig(design, SwitchPolicy::FullFlush);
        config.refsPerProc = 3000;
        auto flush =
            grid.add("multiprog",
                     std::string(designName(design)) + "/flush",
                     config);
        config.policy = SwitchPolicy::AsidTagged;
        grid.addPaired(flush, "multiprog",
                       std::string(designName(design)) + "/asid",
                       config);
    }
    return grid;
}

json::Value
goldenMultiDoc(const char *jobs)
{
    auto args = makeSweepArgs({"--jobs", jobs, "--no-timing"});
    BenchSweep sweep(args, "multiprog");
    sweep.run(multiGrid());
    EXPECT_EQ(sweep.finish(), 0);
    return sweep.doc();
}

} // anonymous namespace

TEST(MultiMachine, SwitchAccountingUnderFullFlush)
{
    MultiMachine machine(smallMachineParams(SwitchPolicy::FullFlush));
    wireWorkloads(machine, 8 * MiB, 3);
    machine.run(4000);

    // 2 procs x ceil(4000/256) slices round-robin: switches happen.
    EXPECT_GT(machine.contextSwitches(), 0.0);
    // Every real switch under the untagged policy flushes.
    EXPECT_EQ(machine.fullFlushes(), machine.contextSwitches());
}

TEST(MultiMachine, AsidTaggedNeverFlushes)
{
    MultiMachine machine(smallMachineParams(SwitchPolicy::AsidTagged));
    wireWorkloads(machine, 8 * MiB, 3);
    machine.run(4000);

    EXPECT_GT(machine.contextSwitches(), 0.0);
    EXPECT_EQ(machine.fullFlushes(), 0.0);
}

TEST(MultiMachine, PerProcessStatsSumToHierarchyTotals)
{
    for (unsigned d = 0; d <= static_cast<unsigned>(TlbDesign::Ideal);
         d++) {
        const auto design = static_cast<TlbDesign>(d);
        SCOPED_TRACE(designName(design));
        MultiMachineParams params =
            smallMachineParams(SwitchPolicy::AsidTagged);
        params.design = design;
        MultiMachine machine(params);
        wireWorkloads(machine, 8 * MiB, 3);
        const std::uint64_t done = machine.run(4000);
        EXPECT_EQ(done, 2u * 4000u);

        const tlb::TlbHierarchy &tlbs = machine.tlbs();
        const std::pair<const char *, double> totals[] = {
            {"accesses", tlbs.accessCount()},
            {"l1_hits", tlbs.l1HitCount()},
            {"l2_hits", tlbs.l2HitCount()},
            {"walks", tlbs.walkCount()},
            {"walk_cycles", tlbs.walkCycleCount()},
            {"translation_cycles", tlbs.translationCycleCount()},
            {"walk_accesses", tlbs.walkAccessCount()},
            {"walk_dram_accesses", tlbs.walkDramAccessCount()},
            {"dirty_ops", tlbs.dirtyMicroOpCount()},
            {"l1_ways_read", tlbs.l1().waysReadCount()},
            {"l2_ways_read", tlbs.l2().waysReadCount()},
            {"l1_fills", tlbs.l1().fillCount()},
            {"l2_fills", tlbs.l2().fillCount()},
        };
        for (const auto &[name, total] : totals) {
            SCOPED_TRACE(name);
            double sum = 0;
            for (unsigned i = 0; i < machine.numProcs(); i++)
                sum += machine.procStat(i, name);
            EXPECT_DOUBLE_EQ(sum, total);
        }
        for (unsigned i = 0; i < machine.numProcs(); i++)
            EXPECT_GT(machine.procStat(i, "accesses"), 0.0);
    }
}

TEST(MultiMachine, OracleCleanWithOverlappingAddressSpaces)
{
    // Every process mmaps at the same default base, so all address
    // spaces overlap — the strongest ASID-correctness stress. At
    // paranoia 2 each translation is cross-checked against the
    // current process's page table; a cross-ASID hit would be caught.
    contracts::setParanoia(2);
    for (SwitchPolicy policy :
         {SwitchPolicy::FullFlush, SwitchPolicy::AsidTagged}) {
        MultiMachine machine(smallMachineParams(policy));
        ASSERT_EQ(machine.process(0).pageTable().translate(0).has_value(),
                  machine.process(1).pageTable().translate(0).has_value());
        wireWorkloads(machine, 8 * MiB, 5);
        machine.run(3000);
        EXPECT_GT(machine.tlbs().oracleCheckCount(), 0.0);
    }
    contracts::setParanoia(0);
}

TEST(MultiProg, AsidTaggingBeatsFullFlushAcrossHeadlineDesigns)
{
    for (TlbDesign design : Headline) {
        SCOPED_TRACE(designName(design));
        RunResult flush = runMulti(
            smallMultiConfig(design, SwitchPolicy::FullFlush));
        RunResult asid = runMulti(
            smallMultiConfig(design, SwitchPolicy::AsidTagged));
        // Same seed, same streams: the only difference is the flush.
        EXPECT_LE(valueAt(asid, "metrics.l1_miss_rate"),
                  valueAt(flush, "metrics.l1_miss_rate"));
        EXPECT_EQ(asid.find("multi")->find("proc_l1_miss_rates")->size(),
                  2u);
        EXPECT_GT(valueAt(flush, "multi.full_flushes"), 0.0);
        EXPECT_EQ(valueAt(asid, "multi.full_flushes"), 0.0);
    }
    // At least the split baseline must show a strict win.
    RunResult flush = runMulti(
        smallMultiConfig(TlbDesign::Split, SwitchPolicy::FullFlush));
    RunResult asid = runMulti(
        smallMultiConfig(TlbDesign::Split, SwitchPolicy::AsidTagged));
    EXPECT_LT(valueAt(asid, "metrics.l1_miss_rate"),
              valueAt(flush, "metrics.l1_miss_rate"));
}

TEST(MultiProg, GoldenReportBytesIdenticalAcrossJobCounts)
{
    auto serial = goldenMultiDoc("1");
    auto parallel = goldenMultiDoc("8");
    const json::Value *serial_results = serial.find("results");
    const json::Value *parallel_results = parallel.find("results");
    ASSERT_NE(serial_results, nullptr);
    ASSERT_NE(parallel_results, nullptr);
    EXPECT_EQ(serial_results->dump(2), parallel_results->dump(2));
    EXPECT_EQ(serial.find("failures")->dump(2),
              parallel.find("failures")->dump(2));
    EXPECT_EQ(serial_results->size(), multiGrid().size());

    // Every record carries the multi block.
    const json::Value &record =
        serial_results->members().at(0).second;
    const json::Value *multi = record.find("multi");
    ASSERT_NE(multi, nullptr);
    EXPECT_EQ(multi->find("proc_l1_miss_rates")->size(), 2u);
    EXPECT_GT(valueAt(record, "multi.context_switches"), 0.0);
}
