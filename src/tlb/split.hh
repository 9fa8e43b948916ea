/**
 * @file
 * A split (partitioned) TLB: one component structure per page size (or
 * group of page sizes), all probed in parallel — the organisation used
 * by essentially all commercial processors and the paper's baseline.
 */

#ifndef MIXTLB_TLB_SPLIT_HH
#define MIXTLB_TLB_SPLIT_HH

#include <memory>
#include <vector>

#include "tlb/base.hh"

namespace mixtlb::tlb
{

class SplitTlb : public BaseTlb
{
  public:
    SplitTlb(const std::string &name, stats::StatGroup *parent);

    /** Add a component; fills route to the first that supports a size. */
    BaseTlb &addComponent(std::unique_ptr<BaseTlb> component);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void setAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool supports(PageSize size) const override;
    std::uint64_t numEntries() const override;
    unsigned numWays() const override;

    /**
     * Replayable iff every component's most recent sub-lookup is: a
     * split lookup probes all components, so a replay must replay each
     * of them. Valid only immediately after lookup() (lastSub_ holds
     * that lookup's per-component results).
     */
    bool replayable(const TlbLookup &result, VAddr vaddr) const override;

    /** Replays the last lookup into every component, then self. */
    void replayLookup(const TlbLookup &result, std::uint64_t n = 1) override;

    /** Audits every component (COLT components check their sets). */
    void audit(contracts::AuditReport &report) const override;

  private:
    std::vector<std::unique_ptr<BaseTlb>> components_;
    /** Per-component results of the most recent lookup(). */
    std::vector<TlbLookup> lastSub_;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_SPLIT_HH
