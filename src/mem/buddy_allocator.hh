/**
 * @file
 * A binary buddy allocator over 4KB physical frames.
 *
 * This is the substrate from which the OS model's page-size distribution
 * emerges: 2MB superpages are order-9 blocks and 1GB superpages are
 * order-18 blocks. Allocation is lowest-address-first, which (like
 * Linux's free-list ordering plus ascending fault order) is the mechanism
 * that makes consecutively allocated superpages physically contiguous —
 * the property MIX TLB coalescing relies on (Sec. 7.1 of the paper).
 *
 * The free lists are flat, pfn-indexed bitmaps, one per order (DESIGN.md
 * §14): bit i of order o set means the block of 2^o frames at pfn
 * i * 2^o is free. A per-order count and lowest-nonzero-word cursor make
 * the lowest free block of an order an O(1) lookup, and a per-order
 * summary bitmap (one bit per nonzero word) moves the cursor past runs
 * of empty words without scanning them.
 */

#ifndef MIXTLB_MEM_BUDDY_ALLOCATOR_HH
#define MIXTLB_MEM_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/contracts.hh"
#include "common/types.hh"

namespace mixtlb::mem
{

/** Buddy order of a 2MB block (512 frames). */
constexpr unsigned Order2M = PageShift2M - PageShift4K;
/** Buddy order of a 1GB block (262144 frames). */
constexpr unsigned Order1G = PageShift1G - PageShift4K;

class BuddyAllocator
{
  public:
    /** Highest block order we track (1GB blocks). */
    static constexpr unsigned MaxOrder = Order1G;

    /**
     * Manage @p total_frames 4KB frames, all initially free.
     * The frame count need not be a power of two.
     */
    explicit BuddyAllocator(std::uint64_t total_frames);

    /**
     * Allocate a naturally aligned block of 2^order frames at the lowest
     * available address.
     *
     * @return the first frame number, or nullopt if no block exists.
     */
    std::optional<Pfn> alloc(unsigned order);

    /**
     * Claim the specific (naturally aligned) block starting at @p pfn if
     * every frame in it is currently free.
     *
     * @retval true the block was free and is now allocated.
     */
    bool allocRegion(Pfn pfn, unsigned order);

    /** Return a previously allocated block. */
    void free(Pfn pfn, unsigned order);

    /** True if the aligned block at @p pfn is entirely free. */
    bool isRegionFree(Pfn pfn, unsigned order) const;

    /** Total frames currently free. */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** Total frames managed. */
    std::uint64_t totalFrames() const { return totalFrames_; }

    /** Largest order with at least one free block, or nullopt if full. */
    std::optional<unsigned> largestFreeOrder() const;

    /** Number of free blocks at exactly @p order. */
    std::uint64_t freeBlocksAt(unsigned order) const;

    /** Visit every free block as (base pfn, order). */
    void forEachFreeBlock(
        const std::function<void(Pfn, unsigned)> &fn) const;

    /**
     * Fraction of free memory unusable for blocks of @p order, i.e. the
     * standard external-fragmentation index for that order.
     */
    double fragmentationIndex(unsigned order) const;

    /**
     * Structural audit: every free block inside the managed range, free
     * blocks pairwise disjoint, no two buddies left unmerged at the same
     * order, each order's count, summary and cursor matching its bitmap,
     * and the free lists conserving freeFrames() exactly (split/merge
     * must neither leak nor mint frames). Natural alignment holds by
     * construction: a bit can only name an aligned block.
     */
    void audit(contracts::AuditReport &report) const;

  private:
    /** Test-only backdoor for the corruption-injection audit tests. */
    friend struct BuddyTestAccess;

    /** The free blocks of one order. */
    struct FreeMap
    {
        /** Bit i: the block at pfn i * 2^order is free. */
        std::vector<std::uint64_t> words;
        /** Blocks of this order inside the managed range. */
        std::uint64_t blocks = 0;
        /** Set bits (free blocks of this order). */
        std::uint64_t count = 0;
        /** Bit w: words[w] is nonzero. */
        std::vector<std::uint64_t> summary;
        /**
         * Index of the lowest nonzero word, or words.size() when the
         * order has no free block. Every word below it is zero.
         */
        std::uint64_t cursor = 0;
    };

    std::uint64_t totalFrames_;
    std::uint64_t freeFrames_;
    std::vector<FreeMap> free_;

    /** Is the block at @p pfn (aligned to @p order) on its free list? */
    bool isFree(Pfn pfn, unsigned order) const;

    /** Put / take the aligned block at @p pfn on / off its free list. */
    void markFree(Pfn pfn, unsigned order);
    void markUsed(Pfn pfn, unsigned order);

    /** Lowest free block of @p order; the order must have one. */
    Pfn lowestFree(unsigned order) const;

    /**
     * Order of the free block that contains the aligned region of
     * 2^order frames at @p pfn, or nullopt if the region is not free.
     */
    std::optional<unsigned> coveringOrder(Pfn pfn, unsigned order) const;

    /** Insert a free block, merging with its buddy where possible. */
    void insertAndMerge(Pfn pfn, unsigned order);
};

} // namespace mixtlb::mem

#endif // MIXTLB_MEM_BUDDY_ALLOCATOR_HH
