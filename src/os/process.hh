/**
 * @file
 * A simulated process: virtual memory areas, lazy page-fault-driven
 * physical allocation, and the page-size policies the paper evaluates
 * (Sec. 7.1) — fixed 4KB, libhugetlbfs 2MB/1GB pools, and transparent
 * hugepage support (THS).
 */

#ifndef MIXTLB_OS_PROCESS_HH
#define MIXTLB_OS_PROCESS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/contracts.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "os/memory_manager.hh"
#include "pt/page_table.hh"

namespace mixtlb::os
{

/** The page-size policies of Sec. 7.1 (plus FreeBSD's reservations). */
enum class PagePolicy : std::uint8_t
{
    SmallOnly,   ///< force 4KB pages everywhere
    Huge2M,      ///< libhugetlbfs with a 2MB page pool
    Huge1G,      ///< libhugetlbfs with a 1GB page pool
    Thp,         ///< transparent hugepage support: 2MB when possible
    Reservation, ///< FreeBSD-style: reserve a 2MB frame on first touch,
                 ///< back 4KB pages from it, promote when fully built
};

const char *pagePolicyName(PagePolicy policy);

struct ProcessParams
{
    std::string name = "proc";
    PagePolicy policy = PagePolicy::Thp;
    /** THS: permit compaction when direct allocation fails. */
    bool thpDefrag = true;
    /** libhugetlbfs pool sizes, in superpages, reserved at "link time". */
    std::uint64_t pool2mPages = 0;
    std::uint64_t pool1gPages = 0;
    /** Bottom of the mmap region. */
    VAddr mmapBase = 1ULL << 32;
};

/** Outcome of touching a virtual address. */
enum class TouchResult : std::uint8_t
{
    Mapped,      ///< already backed; nothing happened
    Faulted,     ///< page fault serviced, now backed
    OutOfMemory, ///< no physical memory left to back the page
};

class Process : public MovableOwner
{
  public:
    Process(MemoryManager &mm, const ProcessParams &params,
            stats::StatGroup *parent);
    ~Process() override;

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /**
     * Reserve @p bytes of virtual address space (rounded up to 1GB
     * alignment so any page size can back it).
     */
    VAddr mmap(std::uint64_t bytes);

    /** Demand-fault @p vaddr if it is not yet backed. */
    TouchResult touch(VAddr vaddr, bool is_store = false);

    /** True if @p vaddr lies in a reserved VMA. */
    bool inVma(VAddr vaddr) const;

    pt::PageTable &pageTable() { return pageTable_; }
    const pt::PageTable &pageTable() const { return pageTable_; }

    MemoryManager &memoryManager() { return mm_; }

    /**
     * Register a TLB-shootdown callback, fired whenever an existing
     * translation changes or a leaf table is retired: compaction
     * migration, demotion, promotion and re-promotion, reclaim, and
     * the release of a drained region.
     */
    void addInvalidateListener(
        std::function<void(VAddr, PageSize)> listener);

    /** Bytes currently backed by each page size. */
    std::uint64_t residentBytes(PageSize size) const;

    // MovableOwner: compaction moved one of our small pages.
    void relocate(std::uint64_t tag, Pfn from, Pfn to) override;

    /**
     * Free up to @p want frames under memory pressure: abandon unused
     * reservation slots, drop cold 4KB pages from demoted regions,
     * demote resident superpages to unlock more, and release retired
     * page-table frames. Registered with the MemoryManager as this
     * process's reclaimer. Every translation change fires a precise,
     * page-sized shootdown.
     *
     * @return frames actually freed.
     */
    std::uint64_t reclaimMemory(std::uint64_t want);

    /**
     * Demote up to @p max resident superpages back to the next smaller
     * page size (2MB -> 512 x 4KB, 1GB -> 512 x 2MB), lowest virtual
     * address first. The physical frames do not move; each demotion
     * fires one superpage-sized shootdown. Used by the demote-storm
     * fault-injection site to exercise the hard invalidation cases.
     *
     * @return superpages actually demoted.
     */
    std::uint64_t demoteStorm(std::uint64_t max);

    /**
     * Periodic maintenance: when memory pressure has faded, re-promote
     * demoted 2MB regions that are still mostly mapped — in place if
     * all 512 frames are contiguous, else by khugepaged-style collapse
     * into a fresh block (holes allowed, like max_ptes_none). Failed
     * rounds back off exponentially, mirroring deferred compaction.
     */
    void maintain();

    /** 2MB regions currently demoted to 4KB pages. */
    std::uint64_t demotedRegions() const { return demoted_.count; }

    stats::StatGroup &statGroup() { return stats_; }

    /**
     * Structural audit of the VM state: the page table's own radix
     * invariants, every leaf inside a VMA and backed by frames this
     * process owns, the per-size resident bytes matching a fresh leaf
     * walk, and the region records agreeing with the tree both ways
     * (every 4KB leaf has a fallback entry or a reservation).
     */
    void audit(contracts::AuditReport &report) const;

  private:
    struct Vma
    {
        VAddr base;
        std::uint64_t bytes;
    };

    MemoryManager &mm_;
    ProcessParams params_;
    pt::PageTable pageTable_;

    std::vector<Vma> vmas_;
    VAddr nextMmap_;

    /** hugetlbfs pools reserved at construction. */
    std::deque<Pfn> pool2m_;
    std::deque<Pfn> pool1g_;

    /** Frames we own, so teardown can free them: pfn -> order. */
    std::unordered_map<Pfn, unsigned> ownedFrames_;

    /** Region indices, visited in ascending address order. */
    struct RegionBits
    {
        static constexpr std::size_t None = ~std::size_t{0};
        std::vector<std::uint64_t> words;
        std::size_t count = 0;

        bool has(std::size_t i) const { return words[i / 64] >> (i & 63) & 1; }
        void set(std::size_t i, bool member = true)
        {
            const std::uint64_t bit = 1ULL << (i & 63);
            count = count + member - ((words[i / 64] & bit) != 0);
            words[i / 64] = (words[i / 64] & ~bit) | (member ? bit : 0);
        }
        /** The lowest member at or above @p from, or None. */
        std::size_t next(std::size_t from) const;
    };

    /**
     * One 2MB region of the mmap space, at index (vaddr - regionBase_)
     * >> 21. Its flags (reserved, resident 2MB leaf, demoted) live in
     * RegionBits so that victim searches are word scans.
     */
    struct Region2m
    {
        Pfn block = 0;             ///< the reservation's 2MB frame block
        std::uint32_t touched = 0; ///< reservation slots mapped
        std::uint32_t small = 0;   ///< fallback 4KB pages mapped
        /** Blocks superpage faults and reservations over the region's
         *  leaf table, even at a count of zero. */
        bool hasSmall = false;
    };
    /** One 1GB region of the mmap space, at index offset >> 30. */
    struct Region1g
    {
        std::uint32_t sub = 0; ///< sub-1GB leaves mapped
        bool hasSub = false;   ///< blocks a 1GB fault, even at zero
    };

    /** The first mmap base: index 0 of the records, grown by mmap(). */
    VAddr regionBase_;
    std::vector<Region2m> regions_;
    std::vector<Region1g> regions1g_;
    RegionBits reserved_; ///< active reservations
    RegionBits super2m_;  ///< resident 2MB leaves
    RegionBits super1g_;  ///< resident 1GB leaves, by 1GB region
    RegionBits demoted_;  ///< demoted to 4KB, awaiting re-promotion

    std::vector<std::function<void(VAddr, PageSize)>> invalidateListeners_;

    /** Exponential re-promotion backoff (mirrors deferred compaction). */
    unsigned repromoteDeferShift_ = 0;
    std::uint64_t repromoteDefer_ = 0;

    stats::StatGroup stats_;
    stats::Scalar &faults4k_;
    stats::Scalar &faults2m_;
    stats::Scalar &faults1g_;
    stats::Scalar &thpFallbacks_;
    stats::Scalar &migrations_;
    stats::Counter &demotions_;
    stats::Counter &reclaims_;
    stats::Counter &repromotions_;
    stats::Counter &oomRetries_;
    stats::Counter &demoteRescues_;
    stats::Counter &compactionRescues_;

    TouchResult faultSmall(VAddr vaddr);
    TouchResult faultThp(VAddr vaddr);
    TouchResult faultPool2m(VAddr vaddr);
    TouchResult faultPool1g(VAddr vaddr);
    TouchResult faultReservation(VAddr vaddr);

    std::size_t regionIndex(VAddr vaddr) const
    {
        return (vaddr - regionBase_) >> PageShift2M;
    }
    VAddr regionAddr(std::size_t index) const
    {
        return regionBase_ + (static_cast<VAddr>(index) << PageShift2M);
    }
    Region2m &region2m(VAddr vaddr) { return regions_[regionIndex(vaddr)]; }
    Region1g &region1g(VAddr vaddr)
    {
        return regions1g_[regionIndex(vaddr) / Frames2M];
    }

    /** Replace a fully built reservation's 4KB PTEs with one 2MB PTE. */
    void promoteReservation(VAddr region, Pfn block);

    /** Demote the lowest-addressed resident superpage (2MB first). */
    bool demoteOne();
    /** Split the 2MB leaf at @p region into 512 4KB leaves. */
    bool demote2m(VAddr region);
    /** Split the 1GB leaf at @p region into 512 2MB leaves. */
    bool demote1g(VAddr region);
    /** Unmap one 4KB page and free its frame (with shootdown). */
    void dropSmallPage(VAddr vbase, Pfn pfn);
    /** Drop pages from demoted regions: cold, then clean, then any. */
    std::uint64_t reclaimColdPages(std::uint64_t want);
    /**
     * A demoted region whose last 4KB page was reclaimed: retire its
     * (now empty) leaf table and forget it, so the region can fault a
     * fresh superpage later and reclaim stops rescanning it.
     */
    void releaseEmptyRegion(VAddr region);
    /** Free a reservation's untouched slots; keep the mapped ones. */
    std::uint64_t abandonReservation(VAddr region);
    /** Rebuild the 2MB leaf at @p region if enough slots are mapped. */
    bool tryRepromote2m(VAddr region);

    void fireInvalidate(VAddr vbase, PageSize size);
    void reservePools();
};

} // namespace mixtlb::os

#endif // MIXTLB_OS_PROCESS_HH
