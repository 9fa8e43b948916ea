/**
 * @file
 * The memhog fragmentation driver used throughout Sec. 7 of the paper,
 * at the OS level.
 *
 * Two kinds of pressure are modelled, mirroring a loaded Linux system:
 *
 *  - The bulk of memhog's memory is ordinary *movable* anonymous
 *    memory, scattered as single 4KB frames. It destroys free-list
 *    contiguity but compaction can migrate it.
 *  - A configurable slice is *unmovable* (standing in for kernel slab
 *    and page-table growth under load). Linux's anti-fragmentation
 *    groups unmovable allocations into whole 2MB pageblocks, so the
 *    slice claims whole blocks; those regions can never host a
 *    superpage again.
 *
 * The movable frames are held as a pfn bitmap (DESIGN.md §14): compaction
 * flips two bits per migrated frame, and release() frees in pfn order.
 */

#ifndef MIXTLB_OS_MEMHOG_HH
#define MIXTLB_OS_MEMHOG_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "os/memory_manager.hh"

namespace mixtlb::os
{

class Memhog : public MovableOwner
{
  public:
    /**
     * @param unmovable_share fraction of the hogged memory claimed as
     *        unmovable whole pageblocks.
     */
    Memhog(MemoryManager &mm, double unmovable_share = 0.2)
        : mm_(mm), unmovableShare_(unmovable_share)
    {}

    ~Memhog() override { release(); }

    Memhog(const Memhog &) = delete;
    Memhog &operator=(const Memhog &) = delete;

    /** Hog @p fraction of total memory; see the file comment. */
    void fragment(double fraction, std::uint64_t seed = 1);

    /** Release everything (including any outstanding burst). */
    void release();

    /**
     * Transiently pin up to @p frames additional single frames (a
     * pressure burst: memhog's working set spiking). Stacks on top of
     * the steady-state fragment() set; undone by burstRelease().
     * @return frames actually claimed (free memory may run short).
     */
    std::uint64_t burstAcquire(std::uint64_t frames);

    /** Release the frames claimed by burstAcquire(). */
    void burstRelease();

    std::uint64_t movableFrames() const { return movableCount_; }
    std::uint64_t unmovableBlocks() const { return unmovable_.size(); }
    std::uint64_t burstFrames() const { return burst_.size(); }

    // MovableOwner: compaction moved one of our frames. Memhog
    // registers every frame with tag 0 and tracks frames by pfn.
    void relocate(std::uint64_t tag, Pfn from, Pfn to) override;

  private:
    MemoryManager &mm_;
    double unmovableShare_;

    /** Movable hogged frames: bit p set when we hold frame p. */
    std::vector<std::uint64_t> movable_;
    /** Set bits in movable_. */
    std::uint64_t movableCount_ = 0;
    /** Unmovable 2MB pageblocks. */
    std::vector<Pfn> unmovable_;
    /** Transient pressure-burst frames (order 0, pinned). */
    std::vector<Pfn> burst_;

    /** Is @p pfn one of our movable frames? */
    bool holds(Pfn pfn) const;

    /** Free the claimed frames [lo, hi) as maximal aligned blocks. */
    void freeRun(Pfn lo, Pfn hi);
};

} // namespace mixtlb::os

#endif // MIXTLB_OS_MEMHOG_HH
