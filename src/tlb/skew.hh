/**
 * @file
 * A skew-associative TLB supporting multiple page sizes concurrently
 * (Seznec, IEEE ToC 2004; discussed in Sec. 5.1 of the paper).
 *
 * Each way is dedicated to one page size and indexed by its own
 * skewing hash. All ways are probed in parallel, which is what makes
 * lookups energy-hungry (energy ~ sum of per-size associativities).
 * Replacement needs timestamps because skewing breaks set identity —
 * the area those timestamps cost is charged by the energy model when
 * building "area-equivalent" configurations (Figure 16).
 */

#ifndef MIXTLB_TLB_SKEW_HH
#define MIXTLB_TLB_SKEW_HH

#include <vector>

#include "tlb/base.hh"
#include "tlb/predictor.hh"

namespace mixtlb::tlb
{

struct SkewTlbParams
{
    /** Entries per way (number of rows). */
    std::uint64_t setsPerWay = 16;
    /** Ways dedicated to each page size, in PageSize order. */
    unsigned waysPerSize[NumPageSizes] = {2, 2, 2};
    /** Probe only the predicted size's ways first. */
    bool usePredictor = false;
    unsigned predictorEntries = 512;
};

class SkewTlb final : public BaseTlb
{
  public:
    SkewTlb(const std::string &name, stats::StatGroup *parent,
            const SkewTlbParams &params);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool supports(PageSize size) const override;
    std::uint64_t numEntries() const override;
    unsigned numWays() const override { return totalWays_; }

    const SizePredictor *predictor() const { return predictor_.get(); }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t vpn = 0;
        Asid asid = 0;
        pt::Translation xlate{};
        bool dirty = false;
        std::uint64_t timestamp = 0;
    };

    SkewTlbParams params_;
    unsigned totalWays_;
    /** way -> page size handled by that way. */
    std::vector<PageSize> waySize_;
    /** [way][row] storage. */
    std::vector<std::vector<Entry>> ways_;
    std::uint64_t clock_ = 0;
    std::unique_ptr<SizePredictor> predictor_;

    /** The skewing hash of way @p way for @p vpn. */
    std::uint64_t rowOf(unsigned way, std::uint64_t vpn) const;

    /**
     * Probe the ways of one size; returns hit way or -1. Forced inline
     * into lookup(), whose ways-read count then stays in a register.
     */
    [[gnu::always_inline]] inline int
    probeSize(VAddr vaddr, PageSize size, unsigned *ways_read);
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_SKEW_HH
