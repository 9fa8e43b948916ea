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
 *
 * Runs as one sweep grid: `--jobs N` parallelises, `--json <path>`
 * dumps per-configuration metrics + energy.
 */

#include <array>

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

namespace
{

/**
 * Base seed of the figure's one configuration point:
 * sweepPointSeed(FigureSeedBase, 0) == 3, so every run — split and
 * contenders, all workloads — sees the seed-3 streams this figure has
 * always reported.
 */
constexpr std::uint64_t FigureSeedBase = 0x8692f6950ca2a279ULL;

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::uint64_t refs = args.getU64("refs", 100000);

    const std::vector<std::string> workloads = {"btree", "graph500",
                                                "memcached", "mcf"};
    const TlbDesign designs[3] = {TlbDesign::SkewPred,
                                  TlbDesign::HashRehashPred,
                                  TlbDesign::Mix};

    SweepGrid grid;
    auto add = [&grid](const std::string &label,
                       const NativeRunConfig &config) {
        return grid.size() == 0
                   ? grid.add("fig16", label, config)
                   : grid.addPaired(0, "fig16", label, config);
    };
    struct Cell
    {
        std::size_t split = 0;
        std::array<std::size_t, 3> designs{};
    };
    std::vector<Cell> cells; // [workload]
    for (const auto &workload : workloads) {
        NativeRunConfig config;
        config.workload = workload;
        config.policy = os::PagePolicy::Thp;
        config.refs = refs;
        config.seed = FigureSeedBase;

        Cell cell;
        config.design = TlbDesign::Split;
        cell.split = add(workload + "/split", config);
        for (unsigned d = 0; d < 3; d++) {
            config.design = designs[d];
            cell.designs[d] =
                add(workload + "/" + designName(designs[d]), config);
        }
        cells.push_back(cell);
    }

    BenchSweep sweep(args, "fig16_multi_indexing");
    auto results = sweep.run(grid);

    std::printf("=== Figure 16: performance vs energy, relative to "
                "split TLBs ===\n\n");
    Table table({"workload", "design", "perf improvement%",
                 "energy saved%"});
    for (std::size_t w = 0; w < workloads.size(); w++) {
        const RunResult &split = results[cells[w].split];
        const double split_energy = valueAt(split, "energy.total_pj");
        for (unsigned d = 0; d < 3; d++) {
            const RunResult &run = results[cells[w].designs[d]];
            const double energy = valueAt(run, "energy.total_pj");
            table.addRow({workloads[w], designName(designs[d]),
                          Table::fmt(improvement(split, run)),
                          Table::fmt(100 * (1 - energy / split_energy))});
        }
    }
    table.print();
    std::printf("\nPaper shape: MIX points sit top-right; "
                "skew-associative points pay lookup\nenergy (negative "
                "y); hash-rehash is energy-closer but probe-latency "
                "bound.\n");
    return sweep.finish();
}
