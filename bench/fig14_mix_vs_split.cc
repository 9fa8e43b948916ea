/**
 * @file
 * Figure 14: percent performance improvement of area-equivalent MIX
 * TLBs over Haswell-style split TLBs, across:
 *  - native CPU with 4KB-only, 2MB (libhugetlbfs), 1GB (libhugetlbfs),
 *    and THS page-size policies;
 *  - virtualized CPU with 1 VM and with 4 consolidated VMs;
 *  - GPU workloads.
 *
 * Shape to reproduce: MIX never loses; gains grow when superpages are
 * prevalent, and are largest where misses are most expensive
 * (virtualized 2-D walks, GPU miss storms).
 *
 * The whole figure is one declarative grid executed by the sweep
 * runner: pass `--jobs N` to run configurations concurrently (the
 * table is identical for every N) and `--json <path>` to dump
 * per-configuration metrics + energy for the perf trajectory.
 */

#include <array>

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::uint64_t refs = args.getU64("refs", 100000);
    const std::uint64_t fp = args.getU64("footprint-mb", 4096) << 20;
    const std::uint64_t fp4k = args.getU64("footprint-4k-mb", 2048)
                               << 20;

    struct Pair
    {
        std::size_t split = 0;
        std::size_t mix = 0;
    };

    SweepGrid grid;
    auto add_pair = [&grid](const std::string &section,
                            const std::string &label,
                            BenchConfig config) {
        Pair pair;
        std::visit([](auto &c) { c.design = TlbDesign::Split; },
                   config);
        pair.split = grid.add(section, label + "/split", config);
        std::visit([](auto &c) { c.design = TlbDesign::Mix; }, config);
        pair.mix = grid.addPaired(pair.split, section, label + "/mix",
                                  config);
        return pair;
    };

    // --- native CPU: workloads x page-size policies ---
    const std::vector<std::string> workloads = {"mcf", "graph500",
                                                "memcached", "gups"};
    struct PolicyCase
    {
        const char *name;
        os::PagePolicy policy;
        std::uint64_t footprint;
    };
    // The 1GB policy needs a paper-scale footprint: more 1GB
    // pages (48) than the split design's 4+32 dedicated entries.
    const std::uint64_t fp1g = 48 * GiB;
    const PolicyCase cases[] = {
        {"4KB", os::PagePolicy::SmallOnly, fp4k},
        {"2MB", os::PagePolicy::Huge2M, fp},
        {"1GB", os::PagePolicy::Huge1G, fp1g},
        {"THS", os::PagePolicy::Thp, fp},
    };
    std::vector<std::array<Pair, 4>> native_cells;
    for (const auto &workload : workloads) {
        std::array<Pair, 4> row;
        for (unsigned c = 0; c < 4; c++) {
            NativeRunConfig config;
            config.workload = workload;
            config.policy = cases[c].policy;
            config.footprintBytes = cases[c].footprint;
            config.refs = refs;
            config.pool2m = cases[c].policy == os::PagePolicy::Huge2M
                                ? cases[c].footprint / PageBytes2M
                                : 0;
            if (cases[c].policy == os::PagePolicy::Huge1G) {
                config.pool1g = cases[c].footprint / PageBytes1G;
                config.memBytes = 64 * GiB;
                config.warmStep = PageBytes2M;
            }
            row[c] = add_pair("native",
                              workload + "/" + cases[c].name, config);
        }
        native_cells.push_back(row);
    }

    // --- virtualized CPU: workloads x consolidation levels ---
    const std::vector<std::string> virt_workloads = {"memcached",
                                                     "graph500"};
    std::vector<std::array<Pair, 2>> virt_cells;
    for (const auto &workload : virt_workloads) {
        std::array<Pair, 2> row;
        unsigned c = 0;
        for (unsigned vms : {1u, 4u}) {
            VirtRunConfig config;
            config.workload = workload;
            config.numVms = vms;
            config.refsPerVm = refs / vms;
            row[c++] = add_pair("virt",
                                workload + "/" + std::to_string(vms)
                                    + "vm",
                                config);
        }
        virt_cells.push_back(row);
    }

    // --- GPU kernels ---
    const std::vector<std::string> kernels = {"bfs", "backprop",
                                              "kmeans"};
    std::vector<Pair> gpu_cells;
    for (const auto &kernel : kernels) {
        GpuRunConfig config;
        config.kernel = kernel;
        config.refs = refs;
        gpu_cells.push_back(add_pair("gpu", kernel, config));
    }

    BenchSweep sweep(args, "fig14_mix_vs_split");
    auto results = sweep.run(grid);

    std::printf("=== Figure 14: %% performance improvement, MIX vs "
                "split ===\n\n--- native CPU ---\n");
    Table native({"workload", "4KB", "2MB", "1GB", "THS"});
    std::vector<double> avgs(4, 0.0);
    for (std::size_t w = 0; w < workloads.size(); w++) {
        std::vector<std::string> row{workloads[w]};
        for (unsigned c = 0; c < 4; c++) {
            const Pair &pair = native_cells[w][c];
            double imp = improvement(results[pair.split],
                                     results[pair.mix]);
            avgs[c] += imp / static_cast<double>(workloads.size());
            row.push_back(Table::fmt(imp));
        }
        native.addRow(row);
    }
    native.addRow({"average", Table::fmt(avgs[0]), Table::fmt(avgs[1]),
                   Table::fmt(avgs[2]), Table::fmt(avgs[3])});
    native.print();

    std::printf("\n--- virtualized CPU (gVA->sPA via 2-D walks) "
                "---\n");
    Table virt({"workload", "1 VM", "4 VMs"});
    for (std::size_t w = 0; w < virt_workloads.size(); w++) {
        std::vector<std::string> row{virt_workloads[w]};
        for (unsigned c = 0; c < 2; c++) {
            const Pair &pair = virt_cells[w][c];
            row.push_back(Table::fmt(improvement(results[pair.split],
                                                 results[pair.mix])));
        }
        virt.addRow(row);
    }
    virt.print();

    std::printf("\n--- GPU (16 shader cores, shared L2 TLB) ---\n");
    Table gpu({"kernel", "improvement%", "split L1 miss%",
               "mix L1 miss%"});
    for (std::size_t k = 0; k < kernels.size(); k++) {
        const Pair &pair = gpu_cells[k];
        gpu.addRow({kernels[k],
                    Table::fmt(improvement(results[pair.split],
                                           results[pair.mix])),
                    Table::fmt(100 * valueAt(results[pair.split],
                                             "metrics.l1_miss_rate")),
                    Table::fmt(100 * valueAt(results[pair.mix],
                                             "metrics.l1_miss_rate"))});
    }
    gpu.print();

    std::printf("\nPaper shape: MIX wins everywhere; virtualized and "
                "GPU columns show the\nlargest factors because each "
                "avoided miss saves the most cycles there.\n");
    return sweep.finish();
}
