/**
 * @file
 * Simulated physical memory: buddy allocation, per-frame metadata, and
 * word-granularity backing store for page-table frames.
 *
 * Only frames that are actually written (page-table frames) allocate
 * host storage, so multi-GB simulated memories stay cheap to model. A
 * flat per-frame slot table indexes those buffers (DESIGN.md §14).
 */

#ifndef MIXTLB_MEM_PHYS_MEM_HH
#define MIXTLB_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/buddy_allocator.hh"

namespace mixtlb::mem
{

/** What a physical frame is being used for. */
enum class FrameUse : std::uint8_t
{
    Free = 0,      ///< not allocated
    PageTable,     ///< holds page-table entries (not movable)
    Pinned,        ///< pinned by memhog or the hypervisor (not movable)
    AppSmall,      ///< backs an application 4KB page (movable)
    AppHuge,       ///< part of an application superpage (not split)
};

/**
 * Simulated physical memory for one machine (or one nesting level of a
 * virtualized machine).
 */
class PhysMem
{
  public:
    explicit PhysMem(std::uint64_t bytes);

    BuddyAllocator &buddy() { return buddy_; }
    const BuddyAllocator &buddy() const { return buddy_; }

    std::uint64_t sizeBytes() const { return bytes_; }
    std::uint64_t totalFrames() const { return buddy_.totalFrames(); }

    /**
     * Allocate 2^order frames and tag them with @p use.
     * @return base frame, or nullopt when memory is exhausted.
     */
    std::optional<Pfn> allocFrames(unsigned order, FrameUse use);

    /** Claim a specific free region (used by compaction). */
    bool allocFramesAt(Pfn pfn, unsigned order, FrameUse use);

    /** Free 2^order frames starting at @p pfn. */
    void freeFrames(Pfn pfn, unsigned order);

    /**
     * Change the usage tag of 2^order already-allocated frames. Used by
     * compaction when ownership of frames transfers without a buddy
     * free/alloc round trip.
     */
    void retagFrames(Pfn pfn, unsigned order, FrameUse use);

    /** Per-frame usage tag. */
    FrameUse frameUse(Pfn pfn) const;

    /**
     * Read a 64-bit word at physical address @p paddr (8-aligned); a
     * frame never written since its allocation reads as zeros. Inline:
     * every page-walk step reads a PTE through here.
     */
    std::uint64_t
    read64(PAddr paddr) const
    {
        panic_if(paddr & 7, "unaligned read64");
        const Pfn pfn = paddr >> PageShift4K;
        if (pfn >= slot_.size() || slot_[pfn] == 0)
            return 0;
        return (*buffers_[slot_[pfn] - 1])[wordIndex(paddr)];
    }

    /** Write a 64-bit word at physical address @p paddr (8-aligned). */
    void
    write64(PAddr paddr, std::uint64_t value)
    {
        panic_if(paddr & 7, "unaligned write64");
        const Pfn pfn = paddr >> PageShift4K;
        panic_if(pfn >= slot_.size(), "write64 past end of memory");
        if (slot_[pfn] == 0)
            slot_[pfn] = takeSlot();
        (*buffers_[slot_[pfn] - 1])[wordIndex(paddr)] = value;
    }

    /**
     * Structural audit: the buddy allocator's own invariants, plus the
     * cross-check that frame-usage tags and the free lists agree (a
     * frame on a free list must be tagged Free, and the Free tag count
     * must equal freeFrames()), and that no free frame keeps a buffer.
     */
    void audit(contracts::AuditReport &report) const;

  private:
    static constexpr unsigned WordsPerFrame = PageBytes4K / 8;
    using FrameData = std::array<std::uint64_t, WordsPerFrame>;

    /** Index of the word at @p paddr within its frame. */
    static constexpr std::uint64_t
    wordIndex(PAddr paddr)
    {
        return (paddr & (PageBytes4K - 1)) >> 3;
    }

    std::uint64_t bytes_;
    BuddyAllocator buddy_;
    std::vector<FrameUse> frameUse_;
    /**
     * Per-frame backing-store slot: 0 for a frame never written since
     * it was last allocated, else 1 + its index into buffers_.
     */
    std::vector<std::uint32_t> slot_;
    /** Word buffers of the written frames, reused through spare_. */
    std::vector<std::unique_ptr<FrameData>> buffers_;
    /** Slots released by freeFrames, ready for the next written frame. */
    std::vector<std::uint32_t> spare_;

    void tagFrames(Pfn pfn, unsigned order, FrameUse use);

    /** A zeroed buffer slot for a frame's first write. */
    std::uint32_t takeSlot();
};

} // namespace mixtlb::mem

#endif // MIXTLB_MEM_PHYS_MEM_HH
