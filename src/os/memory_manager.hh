/**
 * @file
 * OS physical-memory management: movable-page tracking and
 * khugepaged-style compaction.
 *
 * Superpage allocation in the paper's experiments (Sec. 7.1) depends on
 * the OS's ability to defragment physical memory. We model the Linux
 * mechanism: movable pages can be migrated to carve out free 2MB/1GB
 * regions, compaction effort is bounded, and repeated failures defer
 * future attempts exponentially (Linux's deferred compaction).
 */

#ifndef MIXTLB_OS_MEMORY_MANAGER_HH
#define MIXTLB_OS_MEMORY_MANAGER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/phys_mem.hh"

namespace mixtlb::os
{

/**
 * Receives relocation callbacks when compaction migrates a movable
 * frame. Implemented by Process (remaps the page, fires TLB shootdown)
 * and Memhog (updates its pin list).
 */
class MovableOwner
{
  public:
    virtual ~MovableOwner() = default;

    /**
     * The frame backing @p tag moved from @p from to @p to. The owner
     * must update its mapping; the physical copy is implicit.
     */
    virtual void relocate(std::uint64_t tag, Pfn from, Pfn to) = 0;
};

struct CompactionParams
{
    /** Candidate regions examined per compaction attempt. */
    unsigned maxCandidates = 64;
    /** Exponential backoff after failed attempts (deferred compaction). */
    bool deferOnFailure = true;
    /** Never compact when free memory falls below this fraction. */
    double minFreeFraction = 0.10;
    /**
     * Free-memory fraction above which compaction is always attempted.
     * Between minFreeFraction and this knee the willingness to do the
     * (expensive) compaction work scales linearly — the analogue of
     * Linux skipping direct compaction for THP allocations as the
     * watermarks come under pressure. This produces the three page-
     * size-distribution regimes of Figure 9.
     */
    double fullEffortFreeFraction = 0.35;
    /** Seed for the (deterministic) willingness draw. */
    std::uint64_t seed = 12345;
};

class MemoryManager
{
  public:
    MemoryManager(mem::PhysMem &mem, stats::StatGroup *parent,
                  CompactionParams params = {});

    mem::PhysMem &phys() { return mem_; }

    /** Register an allocated frame as movable. */
    void registerMovable(Pfn pfn, MovableOwner *owner, std::uint64_t tag);

    /** Remove a frame from the movable registry (before freeing it). */
    void unregisterMovable(Pfn pfn);

    /** Is @p pfn registered as movable? */
    bool isMovable(Pfn pfn) const { return findMovable(pfn) != nullptr; }

    /**
     * Structural audit: the movable registry and the frame tags agree.
     * Every registered frame is tagged AppSmall and every AppSmall
     * frame is registered, which is what lets compaction migrate any
     * 4KB application page.
     */
    void audit(contracts::AuditReport &report) const;

    /**
     * A reclaimer frees up to the requested number of frames (by
     * demoting superpages, dropping cold pages, abandoning reservation
     * slack) and returns how many it actually freed. Processes register
     * one at construction so that any allocator's memory pressure can
     * shrink any process's footprint.
     */
    using Reclaimer = std::function<std::uint64_t(std::uint64_t)>;

    /** Register a reclaimer under @p key (used to remove it again). */
    void addReclaimer(const void *key, Reclaimer fn);

    /** Remove the reclaimer registered under @p key, if any. */
    void removeReclaimer(const void *key);

    /**
     * Ask the registered reclaimers (in registration order, so runs are
     * deterministic) to free @p want frames. Re-entrant calls are
     * no-ops: a reclaimer's own allocations never recurse into reclaim.
     *
     * @return frames actually freed.
     */
    std::uint64_t reclaim(std::uint64_t want);

    /**
     * Allocate a naturally aligned block of 2^order frames, migrating
     * movable pages if the buddy allocator cannot satisfy the request
     * directly.
     *
     * @param use tag applied to the frames on success
     * @param allow_compaction permit migration (THS "defrag" setting)
     * @param allow_reclaim on failure, let registered reclaimers free
     *        memory and retry once (off for allocations made *by* the
     *        lifecycle machinery, e.g. re-promotion, so rebuilding one
     *        superpage can never demote another)
     * @return the first frame, or nullopt.
     */
    std::optional<Pfn> allocContiguous(unsigned order, mem::FrameUse use,
                                       bool allow_compaction,
                                       bool allow_reclaim = true);

    /** Free memory as a fraction of total memory. */
    double freeFraction() const;

    /** Running count of successful compaction scans (for rescue stats). */
    std::uint64_t compactionSuccessCount() const
    {
        return static_cast<std::uint64_t>(compactionSuccesses_.value());
    }

    stats::StatGroup &statGroup() { return stats_; }

  private:
    /** A registry entry; a null owner marks an unregistered frame. */
    struct Movable
    {
        MovableOwner *owner = nullptr;
        std::uint64_t tag = 0;
    };
    /** The entries of one 2MB pageblock. */
    using MovableBlock = std::array<Movable, pow2(mem::Order2M)>;

    mem::PhysMem &mem_;
    CompactionParams params_;
    /**
     * The movable registry, indexed by pfn: one block per 2MB
     * pageblock, allocated on its first registration (DESIGN.md §14).
     */
    std::vector<std::unique_ptr<MovableBlock>> movable_;

    /** The registry entry of @p pfn, or nullptr if not registered. */
    const Movable *findMovable(Pfn pfn) const;

    /** Reclaimers in registration order (determinism). */
    std::vector<std::pair<const void *, Reclaimer>> reclaimers_;
    /** Guards against reclaim recursing into itself. */
    bool inReclaim_ = false;

    /** Rotating scan cursor so successive compactions sweep memory. */
    Pfn scanCursor_ = 0;
    /** Deterministic willingness draws for pressure-gated compaction. */
    Rng rng_;
    /** Streaky willingness state (bursty deferred compaction). */
    unsigned gateStreak_ = 0;
    bool gateWilling_ = true;
    /** Deferred-compaction state (mirrors Linux's defer counters). */
    unsigned deferShift_ = 0;
    unsigned deferCount_ = 0;

    stats::StatGroup stats_;
    stats::Scalar &directAllocs_;
    stats::Scalar &compactionAttempts_;
    stats::Scalar &compactionSuccesses_;
    stats::Scalar &compactionDeferred_;
    stats::Scalar &pagesMigrated_;
    stats::Scalar &reclaimRequests_;
    stats::Scalar &framesReclaimed_;

    /**
     * Let the reclaimers free pow2(order) frames, then retry the
     * direct allocation once. The last resort of allocContiguous.
     */
    std::optional<Pfn> reclaimAndRetry(unsigned order, mem::FrameUse use,
                                       bool allow_reclaim);

    /**
     * Try to empty one aligned region of 2^order frames by migrating
     * its movable pages, then claim it.
     */
    std::optional<Pfn> compact(unsigned order, mem::FrameUse use);

    /** Can every allocated frame in the region be migrated away? */
    bool regionMigratable(Pfn base, unsigned order,
                          std::uint64_t *allocated_out) const;
};

} // namespace mixtlb::os

#endif // MIXTLB_OS_MEMORY_MANAGER_HH
