/**
 * @file
 * Figure 16: performance-energy scatter of multi-indexing TLBs
 * (skew-associative + prediction, hash-rehash + prediction) and MIX
 * TLBs, both axes relative to the split baseline. Desirable points sit
 * top-right (faster AND more energy-frugal).
 *
 * Shapes to reproduce: MIX dominates; skew pays parallel-probe energy
 * and timestamp area; hash-rehash sits between; multi-indexing points
 * can fall below zero on either axis.
 */

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::uint64_t refs = args.getU64("refs", 100000);

    std::printf("=== Figure 16: performance vs energy, relative to "
                "split TLBs ===\n\n");

    const std::vector<std::string> workloads = {"btree", "graph500",
                                                "memcached", "mcf"};

    Table table({"workload", "design", "perf improvement%",
                 "energy saved%"});
    for (const auto &workload : workloads) {
        NativeRunConfig config;
        config.workload = workload;
        config.policy = os::PagePolicy::Thp;
        config.refs = refs;

        config.design = TlbDesign::Split;
        auto split = runNative(config);
        double split_energy = valueAt(split, "energy.total_pj");

        for (TlbDesign design :
             {TlbDesign::SkewPred, TlbDesign::HashRehashPred,
              TlbDesign::Mix}) {
            config.design = design;
            auto run = runNative(config);
            double energy = valueAt(run, "energy.total_pj");
            table.addRow({workload, designName(design),
                          Table::fmt(improvement(split, run)),
                          Table::fmt(100 * (1 - energy / split_energy))});
        }
    }
    table.print();
    std::printf("\nPaper shape: MIX points sit top-right; "
                "skew-associative points pay lookup\nenergy (negative "
                "y); hash-rehash is energy-closer but probe-latency "
                "bound.\n");
    return 0;
}
