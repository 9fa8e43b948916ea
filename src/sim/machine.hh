/**
 * @file
 * Fully wired simulated machines: physical memory, OS, page tables,
 * caches, walker, and TLB hierarchies of a chosen design: the paper's
 * three systems. `Machine` is the native CPU of Sec. 6.2;
 * `VirtMachine` hosts consolidated VMs with nested translation (Sec.
 * 6.1's KVM setup); `GpuMachine` is the CPU-GPU shared-virtual-memory
 * system of Sec. 6.3, N shader cores with private L1 TLBs over a
 * shared L2 TLB and walker, whose interleaved warps produce the
 * bursty, high-MLP TLB traffic that makes GPU TLBs
 * performance-critical (Sec. 2). All are configurations of the shared
 * MachineCore; the examples and benches drive them.
 */

#ifndef MIXTLB_SIM_MACHINE_HH
#define MIXTLB_SIM_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/machine_core.hh"
#include "virt/vm.hh"

namespace mixtlb::sim
{

struct MachineParams
{
    std::string name = "machine";
    std::uint64_t memBytes = 8ULL << 30;
    os::ProcessParams proc{};
    TlbDesign design = TlbDesign::Split;
    ConfigScale scale{};
    /** Fraction of memory memhog pins before the workload starts. */
    double memhogFraction = 0.0;
    std::uint64_t seed = 1;
    /** Paging-structure (MMU) cache entries; 0 = disabled (paper). */
    unsigned pwcEntries = 0;
    cache::HierarchyParams caches{};
};

/** A native (non-virtualized) CPU system: one process, one hierarchy. */
class Machine : public MachineCore
{
  public:
    explicit Machine(const MachineParams &params);

    /**
     * Replay @p refs references from @p gen through the MMU.
     * @return references completed (short only on OOM).
     */
    std::uint64_t
    run(workload::TraceGenerator &gen, std::uint64_t refs)
    {
        OneStream stream(0, gen, refs);
        return drive(stream);
    }

    /** Demand-fault [base, base+bytes) in ascending order. */
    void touchSequential(VAddr base, std::uint64_t bytes,
                         std::uint64_t step = PageBytes4K);

    /**
     * First-touch sweep through the MMU (see warmupLanes): hands
     * adjacent virtual pages adjacent physical frames (Sec. 7.1) and
     * lets coalescing TLBs accumulate their bundles.
     */
    void
    warmup(VAddr base, std::uint64_t bytes, std::uint64_t step = PageBytes4K)
    {
        warmupLanes(0, 1, base, bytes, step);
    }

    std::vector<std::uint64_t>
    contiguityRuns(PageSize size) const
    {
        return os::contiguityRuns(process().pageTable(), size);
    }

    tlb::TlbHierarchy &tlbs() { return hierarchy(0); }
};

struct VirtMachineParams
{
    std::string name = "virt";
    std::uint64_t hostMemBytes = 8ULL << 30;
    unsigned numVms = 1;
    std::uint64_t vmMemBytes = 0; ///< 0 = split host memory evenly
    os::ProcessParams guestProc{};
    os::PagePolicy hostPolicy = os::PagePolicy::Thp;
    TlbDesign design = TlbDesign::Split;
    ConfigScale scale{};
    /** memhog running inside each VM (the paper's "N VM : M mh"). */
    double guestMemhogFraction = 0.0;
    std::uint64_t seed = 1;
    cache::HierarchyParams caches{};
};

/** A host running consolidated VMs, one vCPU (TLB hierarchy) each. */
class VirtMachine : public MachineCore
{
  public:
    explicit VirtMachine(const VirtMachineParams &params);
    ~VirtMachine();

    unsigned numVms() const { return static_cast<unsigned>(vms_.size()); }

    std::uint64_t
    run(unsigned vm, workload::TraceGenerator &gen, std::uint64_t refs)
    {
        OneStream stream(vm, gen, refs);
        return drive(stream);
    }

    /** Ascending first-touch sweep through VM @p vm's MMU. */
    void
    warmup(unsigned vm, VAddr base, std::uint64_t bytes)
    {
        warmupLanes(vm, 1, base, bytes, PageBytes4K);
    }

    /** Guest-visible page-size distribution of one VM's process. */
    os::PageSizeDistribution
    guestDistribution(unsigned vm) const
    {
        return distribution(vm);
    }

    /**
     * End-to-end (gVA and sPA both contiguous) superpage runs — what
     * virtualized MIX TLBs can actually coalesce (Figures 11, 13).
     */
    std::vector<std::uint64_t> nestedContiguityRuns(unsigned vm,
                                                    PageSize size) const;

    os::Process &guestProcess(unsigned vm) { return process(vm); }

  protected:
    /** Host memory is the core's; each VM audits guest memory + EPT. */
    void auditOs(contracts::AuditReport &report) const override;

  private:
    std::vector<std::unique_ptr<virt::Vm>> vms_;
};

/** References each shader core issues per scheduling turn (a warp). */
constexpr std::uint64_t WarpRefs = 32;

/** A GPU over one THP process; TLB sizes are Sec. 6.3's, no PWC. */
struct GpuMachineParams
{
    std::string name = "gpu";
    std::uint64_t memBytes = 8ULL << 30;
    TlbDesign design = TlbDesign::Split;
    /** Fraction of memory memhog pins before the workload starts. */
    double memhogFraction = 0.0;
    std::uint64_t seed = 1;
    cache::HierarchyParams caches{};
    unsigned numCores = 16;
};

/**
 * One lane per shader core: the core's hierarchy (private L1, shared
 * L2) over the one process. Data references are not charged to the
 * caches; the GPU model covers translation only.
 */
class GpuMachine : public MachineCore
{
  public:
    explicit GpuMachine(const GpuMachineParams &params);

    unsigned numCores() const { return numHierarchies(); }
    tlb::TlbHierarchy &core(unsigned idx) { return hierarchy(idx); }

    /**
     * Input upload: ascending first-touch of [base, base+bytes), the
     * page at va going through core (va / 4KB) % numCores().
     */
    void
    warmup(VAddr base, std::uint64_t bytes)
    {
        warmupLanes(0, numCores(), base, bytes, PageBytes4K);
    }

    /**
     * Run the attached per-core streams round robin, one warp per core
     * per turn, for @p total_refs references overall.
     * @return references completed (short only on OOM).
     */
    std::uint64_t run(std::uint64_t total_refs);

    /** GPU-wide shootdown: invalidate a page in every core. */
    void invalidatePage(VAddr vbase, PageSize size);

  private:
    class WarpInterleave;
};

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_MACHINE_HH
