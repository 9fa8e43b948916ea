/**
 * @file
 * CPU-GPU shared virtual memory scenario (Sec. 2 and 6.3): a GPU with
 * per-shader-core L1 TLBs and a shared L2 runs Rodinia-style kernels
 * over a THS-paged address space, comparing split and MIX TLB designs
 * under varying memory fragmentation.
 *
 * Run: ./gpu_svm [--cores 16] [--refs 200000] [--memhog 0.2]
 *                [--kernel bfs]
 */

#include <cstdio>

#include "sim/cli.hh"
#include "sim/machine.hh"

using namespace mixtlb;
using namespace mixtlb::sim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const unsigned cores = static_cast<unsigned>(args.getU64("cores", 16));
    const std::uint64_t refs = args.getU64("refs", 200000);
    const double memhog_frac = args.getDouble("memhog", 0.2);
    const std::string kernel = args.getString("kernel", "bfs");
    const std::uint64_t footprint = args.getU64("footprint-mb", 256)
                                    << 20;

    std::printf("GPU: %u shader cores, kernel=%s, footprint=%lluMB, "
                "memhog=%.0f%%\n\n",
                cores, kernel.c_str(),
                (unsigned long long)(footprint >> 20),
                memhog_frac * 100);

    Table table({"design", "L1 miss%", "L2 miss%", "cycles/ref",
                 "improvement vs split%"});
    double split_cycles = 0;

    for (TlbDesign design : {TlbDesign::Split, TlbDesign::Mix}) {
        GpuMachineParams params;
        params.name = designName(design);
        params.memBytes = 2ULL << 30;
        params.numCores = cores;
        params.design = design;
        params.memhogFraction = memhog_frac;
        params.seed = 5;
        GpuMachine gpu(params);

        // Input upload: ascending first-touch through rotating cores.
        VAddr base = gpu.mapArena(footprint);
        gpu.warmup(base, footprint);
        gpu.startMeasurement();

        for (unsigned core = 0; core < cores; core++) {
            gpu.attachWorkload(core, workload::makeGenerator(
                                         kernel, base, footprint,
                                         500 + core));
        }
        gpu.run(refs);
        const double cycles = gpu.metrics().translationCycles;

        double l1_hits = 0, l2_hits = 0, accesses = 0;
        for (unsigned core = 0; core < cores; core++) {
            l1_hits += gpu.core(core).l1HitCount();
            l2_hits += gpu.core(core).l2HitCount();
            accesses += gpu.core(core).accessCount();
        }
        double l1_miss = 100.0 * (1.0 - l1_hits / accesses);
        double l2_miss_pct =
            100.0 * (1.0 - (l1_hits + l2_hits) / accesses);

        double improvement = 0;
        if (design == TlbDesign::Split)
            split_cycles = cycles;
        else
            improvement = 100.0 * (split_cycles / cycles - 1.0);
        table.addRow({designName(design), Table::fmt(l1_miss),
                      Table::fmt(l2_miss_pct),
                      Table::fmt(cycles / static_cast<double>(refs)),
                      Table::fmt(improvement)});
    }
    table.print();

    std::printf("\nGPU TLBs service hundreds of concurrent warps; the "
                "shared-L2 reach MIX\nrecovers is what drives the "
                "paper's large GPU gains (Figure 14).\n");
    return 0;
}
