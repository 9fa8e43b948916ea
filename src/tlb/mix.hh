/**
 * @file
 * The MIX TLB (Sections 3-4 of the paper): a single set-associative
 * structure that concurrently caches every page size.
 *
 * Design recap:
 *  - All lookups use the *small-page* index bits, so superpages do not
 *    map to a unique set; fills place a **mirror** copy in every set.
 *  - Fills scan the leaf PTE's cache line and **coalesce** runs of
 *    contiguous (VA and PA), same-permission, accessed superpages into
 *    one entry, counteracting the capacity the mirrors cost.
 *  - L1 entries track coalesced superpages with a **bitmap** (holes
 *    allowed, per-superpage invalidation); L2 entries use a **length**
 *    field (longer runs, whole-bundle invalidation) — Sec. 4.1.
 *  - Only runs within an aligned window of maxCoalesce superpages may
 *    coalesce (the paper's alignment restriction).
 *  - Later misses to superpages adjacent to an existing bundle (in
 *    other page-table cache lines) merge into it (Sec. 4.2).
 *  - Mirrors evolve independently under per-set LRU; duplicate copies
 *    that arise are detected and collapsed on probe (Sec. 4.3).
 *  - Bundle permission/dirty protocol follows Sec. 4.4: equal
 *    permissions required; bundle dirty bit = AND of members. Dirty
 *    micro-ops update singleton superpage entries in *every* set (the
 *    update rides the fill path's burst write), so stale mirrors do
 *    not trigger repeat micro-ops when probed through another set.
 *
 * The index drops the page-offset bits of the smallest held size plus
 * log2 of its window, so a window of that size maps to one set; a fill
 * mirrors into every set only when its page is larger than that index
 * granule.
 *
 * The same class is every coalescing design of the evaluation:
 *  - colt4k > 1 adds COLT-style coalescing of contiguous small pages
 *    (the "MIX + COLT" design of Figure 18).
 *  - Holding one page size makes it a COLT component (Pham et al.,
 *    MICRO 2012; Sec. 5.2): a split TLB coalescing within that size
 *    alone, its window colt4k (4KB) or maxCoalesce (superpages) pages.
 *    A lone size never mirrors, so its fills always merge and the
 *    Sec. 4.3 collapse never fires. COLT puts one in the 4KB slot of
 *    a split TLB; COLT++ puts one in every slot (Figure 18).
 *  - superpageIndexBits = true switches the index to the 2MB page's
 *    bits (the rejected design discussed in Sec. 3).
 */

#ifndef MIXTLB_TLB_MIX_HH
#define MIXTLB_TLB_MIX_HH

#include <vector>

#include "tlb/base.hh"
#include "tlb/tag_lane.hh"

namespace mixtlb::tlb
{

/** How a MIX entry records its coalesced superpages (Sec. 4.1). */
enum class CoalesceMode : std::uint8_t
{
    Bitmap, ///< L1 style: one valid bit per window slot
    Length, ///< L2 style: contiguous run [runStart, runStart+length)
};

struct MixTlbParams
{
    std::uint64_t entries = 96;
    unsigned assoc = 6;
    CoalesceMode mode = CoalesceMode::Bitmap;
    /**
     * Superpages coalescible per entry; 0 means "one per set", the
     * natural choice since that offsets mirroring exactly. Bitmap mode
     * caps at 64 (a 64-bit map repurposed from spare tag bits).
     */
    unsigned maxCoalesce = 0;
    /**
     * Contiguous small pages coalescible per entry (1 = off,
     * 4 = COLT). Capped at 64: membership lives in the 64-bit bitmap.
     */
    unsigned colt4k = 1;
    /** Page sizes this array caches; one size is a COLT component. */
    std::vector<PageSize> sizes{std::begin(AllPageSizes),
                                std::end(AllPageSizes)};
    /** Ablation: index with 2MB-page bits instead of 4KB bits (Sec. 3). */
    bool superpageIndexBits = false;
    /** Ablation: drop the alignment restriction of Sec. 4.1. */
    bool alignmentRestricted = true;
};

/**
 * A COLT component (Sec. 5.2): @p entries entries in @p assoc ways
 * caching @p size alone, coalescing windows of @p window pages.
 */
MixTlbParams coltParams(std::uint64_t entries, unsigned assoc,
                        PageSize size, unsigned window = 4);

class MixTlb : public BaseTlb
{
  public:
    MixTlb(const std::string &name, stats::StatGroup *parent,
           const MixTlbParams &params);

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
        return held_[static_cast<unsigned>(size)];
    }
    std::uint64_t numEntries() const override { return params_.entries; }
    unsigned numWays() const override { return params_.assoc; }

    /**
     * A hit replays only when its duplicate-collapse pass merged
     * nothing: with the set unchanged, a repeat probe within the same
     * 4KB page (same index, same covering front entry, same bundle)
     * again merges nothing. A hit that did collapse mirrors mutated
     * the set; in Length mode the merge can even extend the run and
     * enable further merges, so it must not be short-circuited.
     * Misses scan without mutating and always replay.
     */
    bool
    replayable(const TlbLookup &result, VAddr vaddr) const override
    {
        (void)vaddr;
        return !(result.hit && lastLookupMerged_);
    }

    unsigned numSets() const { return numSets_; }
    unsigned maxCoalesce() const { return maxCoalesce_; }

    /** Mirror copies written per superpage fill (for energy studies). */
    double mirrorWrites() const { return double(mirrorWrites_.value()); }

    /**
     * Structural audit of every set (Sec. 4.1/4.3/4.4 invariants):
     * mirror copies of one superpage window must agree on physical
     * anchor and permissions across sets, singleton mirrors must agree
     * on the dirty bit, membership must stay inside the aligned
     * maxCoalesce (or colt4k) window, and entries of sizes that do not
     * mirror must live in a set one of their pages indexes.
     */
    void auditSets(contracts::AuditReport &report) const;

    void
    audit(contracts::AuditReport &report) const override
    {
        auditSets(report);
    }

  private:
    /**
     * One MIX TLB entry. The entry covers an aligned *window* of
     * `groupSlots(size)` pages of its size, anchored at wbase; slot i
     * is present iff the membership test passes AND that page's
     * physical address equals wpbase + i * pageBytes(size) (coalescing
     * requires both VA and PA contiguity).
     */
    struct Entry
    {
        PageSize size;
        Asid asid;
        VAddr wbase;          ///< window base virtual address
        PAddr wpbase;         ///< physical address window anchor
        std::uint64_t bitmap; ///< Bitmap mode (and all 4K entries)
        std::uint32_t runStart; ///< Length mode: first present slot
        std::uint32_t length;   ///< Length mode: present slot count
        pt::Perms perms;
        bool dirty;

        bool slotPresent(unsigned slot, CoalesceMode mode) const;
    };

    MixTlbParams params_;
    unsigned numSets_;
    unsigned maxCoalesce_;
    /** Mask for power-of-two set counts; 0 selects the modulo path. */
    std::uint64_t setMask_;
    /** The set index is `vaddr >> indexShift_` (then mask or modulo). */
    unsigned indexShift_;
    /**
     * The held sizes, smallest first; unused slots repeat the largest,
     * so every probe forms NumPageSizes candidate tags (a fixed count
     * the lane scan unrolls).
     */
    PageSize sizes_[NumPageSizes] = {};
    /** Per size: held, and fills mirrored into every set. */
    bool held_[NumPageSizes] = {};
    bool mirrored_[NumPageSizes] = {};
    /** Per size: pages per coalescing window, its span in bytes, and
     *  ~(span - 1) when the span is a power of two (else 0). */
    unsigned group_[NumPageSizes] = {};
    std::uint64_t span_[NumPageSizes] = {};
    std::uint64_t spanMask_[NumPageSizes] = {};

    /**
     * Ctor-latched referenceScanEnabled(), forced on when the
     * alignment-restriction ablation is active: a floating window
     * anchor makes candidate window bases uncomputable at probe time,
     * so that configuration always scans with the full predicate.
     */
    bool referenceScan_;
    /** Every set's tags in MRU order and its payloads in place, in
     *  flat arrays sized at construction (tlb/tag_lane.hh). A mirror
     *  fill writes one payload per set and shifts only tags. */
    TagLaneStore<Entry> sets_;

    /** Did the most recent lookup() collapse any duplicate mirrors? */
    bool lastLookupMerged_ = false;

    stats::Counter &mirrorWrites_;
    stats::Counter &duplicatesRemoved_;
    stats::Counter &extensions_;

    /**
     * Tag lane packing: the window base is at least 4KB aligned (even
     * the floating-anchor ablation anchors on a page base), leaving
     * the low bits free for the size index and ASID. A covering entry
     * of size s must have wbase == windowBase(vaddr, s) when windows
     * are aligned, so a probe needs one candidate tag per page size.
     * Entries sharing (wbase, size, asid) but differing in anchor,
     * perms, or membership share a tag; confirm predicates
     * (entryCovers / compatible) disambiguate.
     */
    static std::uint64_t
    tagOf(VAddr wbase, PageSize size, Asid asid)
    {
        return ((wbase >> PageShift4K) << 18) |
               (std::uint64_t(static_cast<unsigned>(size)) << 16) |
               asid;
    }

    /** The set probed for @p vaddr. */
    unsigned indexOf(VAddr vaddr) const;

    /** Pages per coalescing window for a given page size. */
    unsigned
    groupSlots(PageSize size) const
    {
        return group_[static_cast<unsigned>(size)];
    }

    /** Are fills of @p size mirrored into every set? */
    bool
    mirrored(PageSize size) const
    {
        return mirrored_[static_cast<unsigned>(size)];
    }

    /** Window base covering @p vbase for a page of @p size. */
    VAddr windowBase(VAddr vbase, PageSize size) const;

    /** Does @p entry cover @p vaddr (present slot)? */
    [[gnu::always_inline]] inline bool entryCovers(const Entry &entry,
                                                   VAddr vaddr) const;

    /**
     * Build the entry for a fill: the window around @p leaf populated
     * with every compatible coalescing candidate from the walk line or
     * an upper-level bundle.
     */
    Entry buildEntry(const FillInfo &fill) const;

    /** Merge @p incoming into @p existing (requires compatible()). */
    void merge(Entry &existing, const Entry &incoming);

    /** Same window/anchor/perms and (length mode) unionable runs. */
    bool compatible(const Entry &a, const Entry &b) const;

    /** Insert @p entry into set @p set, merging or evicting LRU. */
    void insertIntoSet(unsigned set, const Entry &entry);

    /** Insert without a merge check (non-probed mirror sets). */
    void blindInsert(unsigned set, const Entry &entry);

    /**
     * Write into @p bundle the run around the slot covering @p vaddr.
     * Inlined into lookup(), which passes its result's bundle, so the
     * run is built in place rather than returned through the stack.
     */
    [[gnu::always_inline]] inline void
    bundleAround(const Entry &entry, VAddr vaddr, BundleInfo &bundle) const;

    /** Number of present pages in @p entry. */
    unsigned population(const Entry &entry) const;

    /** Test-only backdoor for the corruption-injection audit tests. */
    friend struct MixTlbTestAccess;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_MIX_HH
