/**
 * @file
 * Hardware page-table walker model.
 *
 * A walk returns (a) the leaf translation, (b) the physical addresses
 * touched at each radix level — which the MMU pushes through the cache
 * hierarchy to cost the walk — and (c) the decoded contents of the leaf
 * PTE's whole cache line (8 entries), which is exactly what the MIX TLB
 * coalescing logic scans for contiguous superpages on a fill (Sec. 3).
 *
 * The walker implements the x86 A/D-bit protocol: it sets the Accessed
 * bit of the leaf on every successful walk and sets the Dirty bit when
 * the walk was triggered by a store (Sec. 4.4).
 */

#ifndef MIXTLB_PT_WALKER_HH
#define MIXTLB_PT_WALKER_HH

#include <array>
#include <cstdint>
#include <optional>

#include "common/inline_vec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "pt/page_table.hh"
#include "pt/pte.hh"
#include "pt/pwc.hh"

namespace mixtlb::pt
{

/** One decoded slot of the leaf PTE's cache line. */
struct LinePte
{
    bool present = false;
    Translation xlate{};
};

/**
 * Architectural bounds on WalkResult's lists, so walks never heap
 * allocate. A native walk touches <= 4 levels plus up to scanLines-1
 * extra leaf lines; the 2-D nested walk composes a <= 4-access host
 * walk per guest level (appended twice when the first attempt EPT
 * faults), one guest PTE line per level, and a final host walk for the
 * data GPA: 4 * (2 * 4 + 1) + 8 = 44 accesses worst case.
 */
constexpr std::size_t MaxWalkAccesses = 48;
/** fillAccesses holds at most scanLines - 1 <= 7 extra lines. */
constexpr std::size_t MaxFillAccesses = 8;
/** The decoded leaf group: at most 8 lines x 8 PTEs per line. */
constexpr std::size_t MaxLineSlots = 64;

/** Everything a TLB fill needs to know about one walk. */
struct WalkResult
{
    /** The leaf translation; empty on a page fault. */
    std::optional<Translation> leaf;

    /** Cacheline-aligned physical addresses touched, root first. */
    InlineVec<PAddr, MaxWalkAccesses> accesses;

    /**
     * Additional accesses issued by the fill/coalescing logic off the
     * walk's critical path (wide PTE scans). They consume bandwidth
     * and energy and perturb the caches, but add no translation
     * latency (Sec. 4.5).
     */
    InlineVec<PAddr, MaxFillAccesses> fillAccesses;

    /**
     * The PTE slots around the leaf, in ascending virtual-address
     * order, and the slot index of the requested leaf. A plain walker
     * scans the leaf's own cache line (8 slots); a wide-scanning
     * walker (used in front of L2 MIX TLBs, Sec. 4.2's "scan
     * additional cache lines" option) returns an aligned group of
     * several lines, each extra line charged as a memory access.
     * Only populated on a successful walk.
     */
    InlineVec<LinePte, MaxLineSlots> line;
    unsigned leafSlot = 0;

    /** Page size of each slot's granularity (all slots share a level). */
    PageSize lineGranularity = PageSize::Size4K;

    bool pageFault() const { return !leaf.has_value(); }
};

class Walker
{
  public:
    /**
     * @param table the page table to walk
     * @param parent stat group to hang walker statistics off
     * @param scan_lines PTE cache lines decoded per leaf (power of
     *        two): 1 models the paper's base design; 8 models the
     *        wide-scanning fill used in front of L2 MIX TLBs. Lines
     *        beyond the first are charged as memory accesses but only
     *        for superpage leaves (small-page fills never benefit).
     */
    Walker(const PageTable &table, stats::StatGroup *parent,
           unsigned scan_lines = 1, PwcParams pwc = {});

    /**
     * Perform a full walk for @p vaddr.
     * @param is_store sets the dirty bit on the leaf (x86 micro-op).
     */
    WalkResult walk(VAddr vaddr, bool is_store);

    /**
     * The same walk as walk() — the same PWC probes and inserts, PTE
     * reads, A/D writes and counter updates, the wide-scan lines of a
     * superpage leaf included — for a caller that needs only the leaf:
     * it appends the walk's accesses to @p accesses and decodes no PTE
     * line. The nested walker's host (EPT) side uses it.
     * @return the leaf translation; nullopt on a page fault.
     */
    std::optional<Translation>
    walkLeaf(VAddr vaddr, bool is_store,
             InlineVec<PAddr, MaxWalkAccesses> &accesses);

    stats::StatGroup &statGroup() { return stats_; }

    /** The MMU's paging-structure cache (may be disabled). */
    PagingStructureCache &pwc() { return pwc_; }

    /**
     * Point subsequent walks at a different page table — the CR3 write
     * of a context switch. The PWC is deliberately left alone: its
     * entries are ASID-tagged, so the caller pairs this with
     * pwc().setAsid() (tagged switch) or pwc().invalidateAll() (flush).
     */
    void retarget(const PageTable &table) { table_ = &table; }

  private:
    const PageTable *table_;
    unsigned scanLines_;

    stats::StatGroup stats_;
    PagingStructureCache pwc_;
    stats::Counter &walks_;
    stats::Counter &pageFaults_;
    stats::Counter &memAccesses_;
    stats::Counter &dirtyUpdates_;

    /** Where a walk found its leaf, and the entry after the A/D update. */
    struct LeafPte
    {
        PAddr addr;
        unsigned level;
        std::uint64_t raw;
    };

    /**
     * The walk loop walk() and walkLeaf() share: append each PTE line
     * read to @p accesses and apply the A/D protocol to the leaf.
     * @return the leaf; nullopt on a page fault.
     */
    std::optional<LeafPte>
    walkPtes(VAddr vaddr, bool is_store,
             InlineVec<PAddr, MaxWalkAccesses> &accesses);

    /** PTE cache lines decoded for a leaf at @p level. */
    unsigned
    scanLines(unsigned level) const
    {
        // Superpage leaves may use the wide scan; 4KB fills never do
        // (the TLB windows for small pages are at most a few entries).
        return level > 0 ? scanLines_ : 1;
    }

    /** Decode the leaf line(s) around @p pte_addr into @p result. */
    void fillLine(VAddr vaddr, PAddr pte_addr, unsigned level,
                  WalkResult &result);
};

} // namespace mixtlb::pt

#endif // MIXTLB_PT_WALKER_HH
