/**
 * @file
 * Figure 17: breakdown of address-translation dynamic energy into
 * lookup, page-walk, fill, and other (invalidations, dirty micro-ops,
 * predictor) components, for GPU workloads, normalised to the total
 * energy of the Haswell-style split TLBs.
 *
 * Shapes to reproduce: lookups and walks dominate; fill energy — the
 * component mirroring inflates — stays a small slice, which is why
 * MIX's mirror writes do not hurt overall energy.
 */

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::uint64_t refs = args.getU64("refs", 150000);

    std::printf("=== Figure 17: dynamic translation energy breakdown "
                "(GPU), normalised to split total ===\n\n");

    Table table({"kernel", "design", "lookup", "walk", "fill", "other",
                 "total"});
    for (const auto &kernel :
         std::vector<std::string>{"bfs", "backprop", "kmeans"}) {
        GpuRunConfig config;
        config.kernel = kernel;
        config.refs = refs;

        config.design = TlbDesign::Split;
        auto split = runGpu(config);
        double norm = valueAt(split, "energy.total_pj")
                      - valueAt(split, "energy.leakage_pj");

        for (TlbDesign design : {TlbDesign::Split, TlbDesign::Mix}) {
            config.design = design;
            auto run = design == TlbDesign::Split ? split
                                                  : runGpu(config);
            auto share = [&run, norm](const char *path) {
                return Table::fmt(valueAt(run, path) / norm);
            };
            table.addRow(
                {kernel, designName(design), share("energy.lookup_pj"),
                 share("energy.walk_pj"), share("energy.fill_pj"),
                 share("energy.other_pj"),
                 Table::fmt((valueAt(run, "energy.total_pj")
                             - valueAt(run, "energy.leakage_pj"))
                            / norm)});
        }
    }
    table.print();
    std::printf("\nPaper shape: lookup + walk dominate; the fill "
                "column (where mirroring lives)\nis small for both "
                "designs, so MIX's extra fills barely move the "
                "total.\n");
    return 0;
}
