/**
 * @file
 * The set-associative TLB array: the split TLB's per-size components,
 * the fully-associative 1GB L1 of Haswell-class parts, and the
 * hash-rehash TLB of Sec. 5.1 are all this one structure.
 */

#ifndef MIXTLB_TLB_SET_ASSOC_HH
#define MIXTLB_TLB_SET_ASSOC_HH

#include <array>
#include <memory>
#include <vector>

#include "tlb/base.hh"
#include "tlb/predictor.hh"
#include "tlb/tag_lane.hh"

namespace mixtlb::tlb
{

struct SetAssocParams
{
    /** Total entries; must divide evenly by assoc. The set count need
     *  not be a power of two (it then indexes modulo the set count). */
    std::uint64_t entries = 512;
    unsigned assoc = 8;
    /** Page sizes this structure caches, in default probe order. */
    std::vector<PageSize> sizes{PageSize::Size4K, PageSize::Size2M,
                                PageSize::Size1G};
    /** Probe first with a size predictor instead of fixed order. */
    bool usePredictor = false;
    unsigned predictorEntries = 512;
};

/**
 * One set-associative array of @p entries entries, @p assoc ways per
 * set, LRU within a set. A lookup probes the array once per cached
 * page size, indexing with that size's VPN, until one hits; each probe
 * reads @p assoc ways.
 *
 *  - One size: a split TLB component (lookups for other sizes belong
 *    in a different component and always miss).
 *  - `assoc == entries`: fully associative — one set, so indexing
 *    never conflicts (the Haswell 1GB L1).
 *  - Several sizes: the hash-rehash TLB (Sec. 5.1), the organisation
 *    of Intel's unified 4KB+2MB L2 TLBs. Sizes are probed in the
 *    listed order, or predicted size first with `usePredictor` (the
 *    "prediction-based enhancement" of [10]); its cost is variable
 *    hit latency and extra probe energy, which Figure 16 quantifies.
 */
class SetAssocTlb final : public BaseTlb
{
  public:
    SetAssocTlb(const std::string &name, stats::StatGroup *parent,
                const SetAssocParams &params);

    using BaseTlb::invalidate;

    TlbLookup lookup(VAddr vaddr, bool is_store) override;
    void fill(const FillInfo &fill) override;
    void invalidate(VAddr vbase, PageSize size, Asid asid) override;
    void invalidateAll() override;
    void invalidateAsid(Asid asid) override;
    void markDirty(VAddr vaddr) override;

    bool
    supports(PageSize size) const override
    {
        return cached_[static_cast<unsigned>(size)];
    }
    std::uint64_t numEntries() const override { return entries_; }
    unsigned numWays() const override { return assoc_; }

    /**
     * Without a predictor the probe order is fixed and every probed
     * VPN is constant across a 4KB page, so the probe sequence, the
     * outcome, and the (no-op) MRU rotate all repeat. Predictor
     * lookups train on every hit — never replayable.
     */
    bool
    replayable(const TlbLookup &result, VAddr vaddr) const override
    {
        (void)result;
        (void)vaddr;
        return !predictor_;
    }

    const SizePredictor *predictor() const { return predictor_.get(); }

  private:
    struct Entry
    {
        std::uint64_t vpn; ///< in the entry's own page-size units
        Asid asid;
        pt::Translation xlate;
        bool dirty;
    };

    std::uint64_t entries_;
    unsigned assoc_;
    /** The cached sizes in probe order; the first numSizes_ are set. */
    std::array<PageSize, NumPageSizes> sizes_{};
    unsigned numSizes_ = 0;
    std::uint64_t numSets_;
    /** Index with `vpn & setMask_` (power-of-two set counts) or
     *  `vpn % numSets_`. */
    bool maskSets_;
    std::uint64_t setMask_;
    bool cached_[NumPageSizes] = {};
    /** Ctor-latched referenceScanEnabled(): full-predicate scans. */
    bool referenceScan_;
    /** Every set's tags in MRU order and its payloads in place, in
     *  flat arrays sized at construction (tlb/tag_lane.hh). */
    TagLaneStore<Entry> sets_;
    std::unique_ptr<SizePredictor> predictor_;
    /** Probe-order scratch of predictor lookups. */
    std::array<PageSize, NumPageSizes> probeOrder_{};

    TagLaneSet<Entry>
    setOf(std::uint64_t vpn)
    {
        return sets_[maskSets_ ? vpn & setMask_ : vpn % numSets_];
    }

    /**
     * Tag lane packing: size and ASID fill the low 20 bits exactly, so
     * equal tags differ at most in VPN bits shifted out at the top,
     * which find() confirms against the payload.
     */
    static std::uint64_t
    tagOf(std::uint64_t vpn, PageSize size, Asid asid)
    {
        return (vpn << 20) |
               (std::uint64_t(static_cast<unsigned>(size)) << 16) |
               asid;
    }

    /**
     * First way matching (vpn, size, active ASID), or npos. Forced
     * inline into lookup() and fill(), so the set view stays in
     * registers instead of passing through the stack.
     */
    [[gnu::always_inline]] inline std::size_t
    find(TagLaneSet<Entry> set, std::uint64_t vpn, PageSize size) const;

    /** The predicted size first, then the rest in order (in probeOrder_). */
    const PageSize *predictedOrder(VAddr vaddr);
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_SET_ASSOC_HH
