/**
 * @file
 * The two-dimensional (nested) page-table walker for virtualized
 * systems (Sec. 2): guest virtual -> guest physical through the guest
 * page table, with every guest-physical reference translated to system
 * physical through the EPT. A 4KB/4KB nested walk issues the familiar
 * 24 memory accesses (4 guest PTE reads, each preceded by a 4-access
 * host walk, plus a final host walk for the data address); superpages
 * at either level shorten it.
 *
 * TLBs in front of this walker cache end-to-end gVA->sPA translations
 * whose *effective* page size is the smaller of the guest and host
 * page sizes (hypervisor splintering reduces it, exactly the effect
 * the paper's virtualized results discuss).
 */

#ifndef MIXTLB_VIRT_NESTED_WALK_HH
#define MIXTLB_VIRT_NESTED_WALK_HH

#include "os/process.hh"
#include "pt/walker.hh"
#include "tlb/hierarchy.hh"
#include "virt/vm.hh"

namespace mixtlb::virt
{

class NestedWalkSource : public tlb::WalkSource
{
  public:
    /**
     * @param scan_lines guest PTE cache lines decoded per superpage
     *        leaf (wide MIX L2 scans); stays within one guest PT page.
     */
    NestedWalkSource(Vm &vm, os::Process &guest_proc,
                     stats::StatGroup *parent, unsigned scan_lines = 1);

    pt::WalkResult walk(VAddr gva, bool is_store) override;
    bool fault(VAddr gva, bool is_store) override;
    std::optional<PAddr> leafPteAddr(VAddr gva) override;
    void setDirty(VAddr gva) override;

    bool hasRefTranslate() const override { return true; }

    /**
     * Two-dimensional reference leaf: the guest page table maps gVA ->
     * gPA functionally, then the EPT maps gPA -> sPA — no TLBs, no
     * walker caches, nothing faulted in. The leaf is the effective one
     * a walk builds: guest and EPT permissions intersected, and the
     * guest PTE's dirty bit (the bit setDirty() sets).
     */
    std::optional<pt::Translation> refLeaf(VAddr gva) override;

  private:
    Vm &vm_;
    os::Process &guestProc_;
    unsigned scanLines_;

    stats::StatGroup stats_;
    /** Host walker over the EPT (charged per guest-level reference). */
    pt::Walker eptWalker_;
    stats::Counter &nestedWalks_;
    stats::Counter &guestFaultsSeen_;

    /**
     * Translate a guest-physical address through the EPT, appending the
     * host walk's accesses to @p accesses; faults host memory in on
     * EPT violations.
     */
    std::optional<pt::Translation>
    hostWalk(PAddr gpa, bool is_write,
             InlineVec<PAddr, pt::MaxWalkAccesses> &accesses);

    /** Effective (gva, spa, size) leaf from guest + host leaves. */
    static pt::Translation effectiveLeaf(VAddr gva,
                                         const pt::Translation &guest,
                                         const pt::Translation &host,
                                         VAddr ept_base);
};

} // namespace mixtlb::virt

#endif // MIXTLB_VIRT_NESTED_WALK_HH
