/**
 * @file
 * A real 4-level x86-64 radix page table whose entries live in simulated
 * physical frames.
 *
 * Because PTEs occupy genuine (simulated) physical addresses, a walk
 * produces the exact cacheline addresses a hardware walker would touch —
 * including the cache line of 8 leaf PTEs that MIX TLB coalescing logic
 * scans on a miss (Sec. 3, step 2 of the paper).
 */

#ifndef MIXTLB_PT_PAGE_TABLE_HH
#define MIXTLB_PT_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/contracts.hh"
#include "common/types.hh"
#include "mem/phys_mem.hh"
#include "pt/pte.hh"

namespace mixtlb::pt
{

/** Radix levels, leaf-to-root. Level 0 = PT, 1 = PD, 2 = PDPT, 3 = PML4. */
constexpr unsigned NumLevels = 4;

/** Virtual-address shift of the index for each level. */
constexpr unsigned
levelShift(unsigned level)
{
    return PageShift4K + 9 * level;
}

/** 9-bit table index of @p vaddr at @p level. */
constexpr unsigned
levelIndex(VAddr vaddr, unsigned level)
{
    return (vaddr >> levelShift(level)) & 0x1ff;
}

/** The radix level at which a page of @p size has its leaf PTE. */
constexpr unsigned
leafLevel(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return 0;
      case PageSize::Size2M: return 1;
      case PageSize::Size1G: return 2;
    }
    return 0;
}

/** The page size a leaf PTE at radix @p level maps (leafLevel's inverse). */
constexpr PageSize
levelPageSize(unsigned level)
{
    return level == 2   ? PageSize::Size1G
           : level == 1 ? PageSize::Size2M
                        : PageSize::Size4K;
}

class PageTable
{
  public:
    /** Build an empty table; the root frame comes from @p mem. */
    explicit PageTable(mem::PhysMem &mem);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Physical address of the root (PML4) table. */
    PAddr root() const { return root_; }

    /** The physical memory the table entries live in. */
    mem::PhysMem &mem() const { return mem_; }

    /**
     * Install a leaf mapping. @p vaddr and @p paddr must be aligned to
     * @p size. Intermediate tables are created on demand. A and D start
     * clear, as after a fresh OS mapping.
     */
    void map(VAddr vaddr, PAddr paddr, PageSize size, Perms perms = {});

    /**
     * Remove the leaf mapping covering @p vaddr.
     * @retval true a mapping was present and removed.
     */
    bool unmap(VAddr vaddr);

    /**
     * Point the existing leaf covering @p vaddr at @p new_paddr,
     * preserving permissions and A/D bits (page migration).
     */
    void remap(VAddr vaddr, PAddr new_paddr);

    /**
     * Zero the intermediate entry at @p level covering @p vaddr —
     * used when promoting a fully populated PT into a superpage leaf
     * (the orphaned table's frame is reclaimed at destruction).
     */
    void clearLevelEntry(VAddr vaddr, unsigned level);

    /**
     * Splinter the superpage leaf covering @p vaddr into 512 next-
     * smaller leaves by rebuilding the lower radix level (a 2M leaf
     * becomes a PT of 4K leaves; a 1G leaf a PD of 2M leaves),
     * preserving permissions and A/D bits. Runs under memory pressure,
     * so the one child table frame is allocated non-fatally.
     * @retval false no superpage leaf covers @p vaddr, or no frame was
     *         available for the child table (nothing is modified).
     */
    bool splitLeaf(VAddr vaddr);

    /**
     * Free the frames of tables orphaned by clearLevelEntry back to
     * physical memory (they are otherwise held until destruction).
     * After this, any stale cached paging-structure entry (PWC) into
     * one of these tables points at a freed — possibly reused — frame,
     * so callers must flush translation caches first.
     * @return number of frames released.
     */
    std::size_t reclaimRetiredFrames();

    /** Frames currently parked on the retired list. */
    std::size_t retiredFrameCount() const { return retiredFrames_.size(); }

    /** Functional lookup with no side effects (testing/validation). */
    std::optional<Translation> translate(VAddr vaddr) const;

    /** Physical address of the leaf PTE covering @p vaddr, if mapped. */
    std::optional<PAddr> leafPteAddr(VAddr vaddr) const;

    /**
     * Physical base of the 4KB leaf table (PT) under the 2MB region
     * containing @p vaddr: one walk, after which the region's 512 PTEs
     * sit at consecutive 8-byte slots. nullopt when no PT hangs there
     * (a missing upper level, or a superpage leaf covering the region).
     */
    std::optional<PAddr> leafTable(VAddr vaddr) const;

    /** Set the Accessed bit of the leaf PTE covering @p vaddr. */
    void setAccessed(VAddr vaddr);

    /** Set the Dirty bit of the leaf PTE covering @p vaddr. */
    void setDirty(VAddr vaddr);

    /** Number of leaf mappings currently installed. */
    std::uint64_t numMappings() const { return numMappings_; }

    /**
     * Visit every leaf translation in ascending virtual-address order.
     * Used by the page-size-distribution and contiguity scanners
     * (Sec. 7.1 methodology).
     */
    void forEachLeaf(const std::function<void(const Translation &)> &fn)
        const;

    /**
     * Structural audit of the radix tree: every table frame reachable
     * from the root was allocated by this table and is tagged
     * FrameUse::PageTable, no frame appears twice (no aliased
     * subtrees), every allocated frame is either reachable or was
     * legally retired by clearLevelEntry, leaf PTEs are aligned to
     * their page size, and the leaf count matches numMappings().
     */
    void audit(contracts::AuditReport &report) const;

  private:
    mem::PhysMem &mem_;
    PAddr root_;
    std::vector<Pfn> tableFrames_; ///< every frame we allocated
    /** Frames orphaned by clearLevelEntry (superpage promotion). */
    std::unordered_set<Pfn> retiredFrames_;
    std::uint64_t numMappings_ = 0;

    /** Allocate one zeroed page-table frame. */
    PAddr allocTable();

    /**
     * Walk from the root toward @p target_level, optionally creating
     * missing intermediate tables.
     * @return physical address of the entry at @p target_level, or
     *         nullopt if a level is missing (and @p create is false) or
     *         a superpage leaf is found above the target (returned via
     *         @p leaf_level_out).
     */
    std::optional<PAddr> walkToLevel(VAddr vaddr, unsigned target_level,
                                     bool create,
                                     unsigned *leaf_level_out = nullptr)
        const;

    void forEachLeafRec(PAddr table, unsigned level, VAddr vbase,
                        const std::function<void(const Translation &)> &fn)
        const;

    /** Record every table frame under @p table as legally orphaned. */
    void retireSubtree(PAddr table, unsigned level);

    void auditTable(PAddr table, unsigned level,
                    std::unordered_set<Pfn> &reachable,
                    std::uint64_t &leaves,
                    contracts::AuditReport &report) const;
};

} // namespace mixtlb::pt

#endif // MIXTLB_PT_PAGE_TABLE_HH
