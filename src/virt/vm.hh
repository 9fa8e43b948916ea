/**
 * @file
 * Virtualization substrate (Sec. 2 and the virtualized experiments of
 * Sec. 7): a VM owns a guest-physical address space managed by its own
 * guest OS, while the hypervisor lazily backs guest-physical pages
 * with system-physical frames through an EPT-style nested page table.
 *
 * The hypervisor's gPA->sPA mapping is literally an os::Process over
 * the host memory manager: it reuses the THS machinery, so EPT
 * superpages (and their contiguity) emerge from the same mechanism the
 * guest's do — which is what the paper's virtualized contiguity
 * measurements (Figure 10, 13) rely on.
 */

#ifndef MIXTLB_VIRT_VM_HH
#define MIXTLB_VIRT_VM_HH

#include <memory>
#include <optional>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/phys_mem.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"

namespace mixtlb::virt
{

struct VmParams
{
    std::string name = "vm";
    std::uint64_t guestMemBytes = 1ULL << 30;
    /** Hypervisor backing policy for guest-physical memory. */
    os::PagePolicy hostPolicy = os::PagePolicy::Thp;
    bool hostDefrag = true;
};

class Vm
{
  public:
    Vm(os::MemoryManager &host_mm, const VmParams &params,
       stats::StatGroup *parent);

    /** Guest-physical memory: the guest OS allocates from this. */
    mem::PhysMem &guestPhys() { return *guestPhys_; }

    /** Guest OS memory manager (compaction inside the VM). */
    os::MemoryManager &guestMm() { return *guestMm_; }

    /**
     * System-physical address backing @p gpa, faulting host memory in
     * on demand (EPT violation handling).
     * @return nullopt if the host is out of memory.
     */
    std::optional<PAddr> hostPhys(PAddr gpa, bool is_write);

    /** Functional gPA->sPA probe; never faults anything in. */
    std::optional<PAddr> hostPhysIfMapped(PAddr gpa) const;

    /**
     * The host translation covering @p gpa (page size included), for
     * computing effective nested page sizes. Faults the page in.
     */
    std::optional<pt::Translation> hostLeaf(PAddr gpa, bool is_write);

    /** The EPT, walkable like any page table. */
    pt::PageTable &ept() { return eptProc_->pageTable(); }
    const pt::PageTable &ept() const { return eptProc_->pageTable(); }

    /** The host virtual address the EPT uses for @p gpa. */
    VAddr eptHva(PAddr gpa) const { return eptBase_ + gpa; }

    /** The hypervisor-side process (EPT owner). */
    os::Process &eptProcess() { return *eptProc_; }

    std::uint64_t guestMemBytes() const { return params_.guestMemBytes; }

    /**
     * Audit guest-physical memory, the guest memory manager's movable
     * registry and the hypervisor's EPT process.
     */
    void audit(contracts::AuditReport &report) const;

    stats::StatGroup &statGroup() { return stats_; }

  private:
    VmParams params_;
    stats::StatGroup stats_;
    std::unique_ptr<mem::PhysMem> guestPhys_;
    std::unique_ptr<os::MemoryManager> guestMm_;
    std::unique_ptr<os::Process> eptProc_;
    VAddr eptBase_;

    stats::Scalar &eptFaults_;
};

} // namespace mixtlb::virt

#endif // MIXTLB_VIRT_VM_HH
