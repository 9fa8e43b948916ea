/**
 * @file
 * Sec. 7.2 "Scaling TLBs": how MIX TLB performance scales with set
 * count. The paper reports that even hypothetical 512-set MIX TLBs —
 * which need more contiguity than workloads always have to fully
 * offset mirrors — stay within 13% of the never-miss ideal TLB.
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

    std::printf("=== Ablation: MIX TLB set-count scaling (vs ideal) "
                "===\n\n");

    Table table({"workload", "L1 sets", "L2 sets", "overhead%",
                 "gap to ideal%"});
    for (const auto &workload :
         std::vector<std::string>{"graph500", "gups"}) {
        NativeRunConfig config;
        config.workload = workload;
        config.policy = os::PagePolicy::Thp;
        config.refs = refs;

        config.design = TlbDesign::Ideal;
        auto ideal = runNative(config);

        for (unsigned scale : {1u, 2u, 8u}) {
            config.design = TlbDesign::Mix;
            config.scale = ConfigScale{scale};
            auto mix = runNative(config);
            double gap = 100.0
                         * (valueAt(mix, "metrics.total_cycles")
                                / valueAt(ideal, "metrics.total_cycles")
                            - 1.0);
            double overhead = valueAt(mix, "metrics.overhead_fraction");
            table.addRow({workload, std::to_string(16 * scale),
                          std::to_string(68 * scale),
                          Table::fmt(100 * overhead), Table::fmt(gap)});
        }
        config.scale = ConfigScale{1};
    }
    table.print();
    std::printf("\nPaper claim: even 512-set MIX TLBs stay within 13%% "
                "of the ideal TLB; the\ngap should stay bounded as "
                "sets grow (more sets need more contiguity to\noffset "
                "their mirrors, but capacity grows too).\n");
    return 0;
}
