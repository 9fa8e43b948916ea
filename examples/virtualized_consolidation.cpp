/**
 * @file
 * Virtualized-consolidation scenario (Sec. 6.1's KVM setup): several
 * VMs share one host, each running memhog inside plus a big-memory
 * workload; translations are gVA -> sPA through 2-D nested walks.
 * Compares split and MIX TLBs and reports end-to-end superpage
 * contiguity, the quantity virtualized MIX coalescing depends on.
 *
 * Run: ./virtualized_consolidation [--vms 4] [--guest-memhog 0.4]
 *                                  [--refs 100000]
 */

#include <cstdio>

#include "os/scan.hh"
#include "sim/cli.hh"
#include "sim/machine.hh"

using namespace mixtlb;
using namespace mixtlb::sim;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const unsigned vms = static_cast<unsigned>(args.getU64("vms", 4));
    const double guest_memhog = args.getDouble("guest-memhog", 0.4);
    const std::uint64_t refs = args.getU64("refs", 100000);
    const std::uint64_t footprint = args.getU64("footprint-mb", 768)
                                    << 20;

    std::printf("%u VMs, memhog %.0f%% inside each, %s workload\n\n",
                vms, guest_memhog * 100, "memcached");

    Table table({"design", "walks/kref", "accesses/walk",
                 "xlat overhead%", "improvement vs split%"});
    double split_cycles = 0;

    for (TlbDesign design : {TlbDesign::Split, TlbDesign::Mix}) {
        VirtMachineParams params;
        params.name = designName(design);
        params.hostMemBytes = 4ULL << 30;
        params.numVms = vms;
        params.design = design;
        params.guestProc.policy = os::PagePolicy::Thp;
        params.guestMemhogFraction = guest_memhog;
        VirtMachine machine(params);

        double walks = 0, walk_accesses = 0, accesses = 0;
        for (unsigned vm = 0; vm < vms; vm++) {
            VAddr base = machine.mapArena(vm, footprint);
            machine.warmup(vm, base, footprint);
        }
        machine.startMeasurement();
        for (unsigned vm = 0; vm < vms; vm++) {
            VAddr base = 1ULL << 32; // first arena in each guest
            auto gen = workload::makeGenerator("memcached", base,
                                               footprint, 11 + vm);
            machine.run(vm, *gen, refs);
        }

        auto metrics = machine.metrics();
        for (unsigned vm = 0; vm < vms; vm++) { // one hierarchy per vCPU
            walks += machine.hierarchy(vm).walkCount();
            walk_accesses += machine.hierarchy(vm).walkAccessCount();
            accesses += machine.hierarchy(vm).accessCount();
        }

        double improvement = 0;
        if (design == TlbDesign::Split)
            split_cycles = metrics.totalCycles;
        else
            improvement = 100.0 * (split_cycles / metrics.totalCycles
                                   - 1.0);
        table.addRow({designName(design),
                      Table::fmt(1000.0 * walks / accesses),
                      Table::fmt(walks ? walk_accesses / walks : 0.0),
                      Table::fmt(100 * metrics.overheadFraction()),
                      Table::fmt(improvement)});
    }
    table.print();

    // End-to-end contiguity, the enabler for virtualized coalescing.
    VirtMachineParams scan_params;
    scan_params.hostMemBytes = 4ULL << 30;
    scan_params.numVms = vms;
    scan_params.guestProc.policy = os::PagePolicy::Thp;
    scan_params.guestMemhogFraction = guest_memhog;
    VirtMachine scan_machine(scan_params);
    VAddr base = scan_machine.mapArena(0, footprint);
    scan_machine.warmup(0, base, footprint);
    auto runs = scan_machine.nestedContiguityRuns(0, PageSize::Size2M);
    std::printf("\nVM0 end-to-end (gVA+sPA) 2MB contiguity: avg %.1f "
                "superpages over %zu runs\n",
                os::averageContiguity(runs), runs.size());
    std::printf("nested walks need ~24 accesses at 4KB/4KB; superpages "
                "shorten them —\nthe 'accesses/walk' column shows the "
                "achieved depth.\n");
    return 0;
}
