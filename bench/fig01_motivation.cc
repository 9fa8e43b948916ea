/**
 * @file
 * Figure 1: percentage of runtime devoted to address translation for
 * mcf, graph500, and memcached when the OS allocates only 4KB, only
 * 2MB, only 1GB, or mixed (THS) pages — on the commercial split-TLB
 * configuration (green bars) versus the hypothetical ideal
 * set-associative TLB that supports all page sizes (blue bars).
 *
 * The paper's headline observations to reproduce:
 *  - 4KB-only translation overhead is large (tens of percent);
 *  - superpages help but overhead remains visible on split TLBs;
 *  - the gap to the ideal TLB is the opportunity MIX TLBs target.
 */

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::uint64_t refs = args.getU64("refs", 120000);
    const std::uint64_t fp4k = args.getU64("footprint-4k-mb", 2048)
                               << 20;
    const std::uint64_t fp = args.getU64("footprint-mb", 4096) << 20;

    std::printf("=== Figure 1: %% runtime in address translation, "
                "split TLB (vs ideal) ===\n\n");

    Table table({"workload", "policy", "split overhead%",
                 "ideal overhead%", "gap (potential)%"});

    for (const char *workload : {"mcf", "graph500", "memcached"}) {
        struct PolicyCase
        {
            const char *name;
            os::PagePolicy policy;
            std::uint64_t footprint;
        };
        const PolicyCase cases[] = {
            {"4KB", os::PagePolicy::SmallOnly, fp4k},
            {"2MB", os::PagePolicy::Huge2M, fp},
            // Paper-scale 1GB run: more 1GB pages than split's 4+32
            // dedicated entries.
            {"1GB", os::PagePolicy::Huge1G, 48ULL << 30},
            {"mixed (THS)", os::PagePolicy::Thp, fp},
        };
        for (const auto &policy_case : cases) {
            NativeRunConfig config;
            config.workload = workload;
            config.policy = policy_case.policy;
            config.footprintBytes = policy_case.footprint;
            config.refs = refs;
            config.pool2m = policy_case.policy == os::PagePolicy::Huge2M
                                ? policy_case.footprint / PageBytes2M
                                : 0;
            if (policy_case.policy == os::PagePolicy::Huge1G) {
                config.pool1g = policy_case.footprint / PageBytes1G;
                config.memBytes = 64ULL << 30;
                config.warmStep = PageBytes2M;
            }

            config.design = TlbDesign::Split;
            auto split = runNative(config);
            config.design = TlbDesign::Ideal;
            auto ideal = runNative(config);

            double split_pct =
                100 * valueAt(split, "metrics.overhead_fraction");
            double ideal_pct =
                100 * valueAt(ideal, "metrics.overhead_fraction");
            table.addRow({workload, policy_case.name,
                          Table::fmt(split_pct), Table::fmt(ideal_pct),
                          Table::fmt(split_pct - ideal_pct)});
        }
    }
    table.print();
    std::printf("\nPaper shape: tall green (split) bars even with "
                "superpages; blue (ideal) near\nzero — the gap is the "
                "utilization loss of split TLBs.\n");
    return 0;
}
