#include "memory_manager.hh"

#include "common/fault.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::os
{

namespace
{

/** Frames per movable-registry block (one 2MB pageblock). */
constexpr std::uint64_t BlockFrames = pow2(mem::Order2M);

} // namespace

MemoryManager::MemoryManager(mem::PhysMem &mem, stats::StatGroup *parent,
                             CompactionParams params)
    : mem_(mem), params_(params),
      movable_(divCeil(mem.totalFrames(), BlockFrames)), rng_(params.seed),
      stats_("mm", parent),
      directAllocs_(stats_.addScalar("direct_allocs",
          "contiguous allocations satisfied without compaction")),
      compactionAttempts_(stats_.addScalar("compaction_attempts",
          "compaction scans started")),
      compactionSuccesses_(stats_.addScalar("compaction_successes",
          "compaction scans that produced a free region")),
      compactionDeferred_(stats_.addScalar("compaction_deferred",
          "allocations that skipped compaction due to backoff")),
      pagesMigrated_(stats_.addScalar("pages_migrated",
          "movable pages migrated by compaction")),
      reclaimRequests_(stats_.addScalar("reclaim_requests",
          "failed allocations that invoked the reclaimers")),
      framesReclaimed_(stats_.addScalar("frames_reclaimed",
          "frames freed by the registered reclaimers"))
{
}

void
MemoryManager::addReclaimer(const void *key, Reclaimer fn)
{
    for (const auto &entry : reclaimers_) {
        panic_if(entry.first == key,
                 "reclaimer key registered twice");
    }
    reclaimers_.emplace_back(key, std::move(fn));
}

void
MemoryManager::removeReclaimer(const void *key)
{
    std::erase_if(reclaimers_,
                  [key](const auto &entry) { return entry.first == key; });
}

std::uint64_t
MemoryManager::reclaim(std::uint64_t want)
{
    if (want == 0 || inReclaim_ || reclaimers_.empty())
        return 0;
    inReclaim_ = true;
    ++reclaimRequests_;
    std::uint64_t freed = 0;
    for (auto &[key, fn] : reclaimers_) {
        (void)key;
        if (freed >= want)
            break;
        freed += fn(want - freed);
    }
    framesReclaimed_ += static_cast<double>(freed);
    inReclaim_ = false;
    return freed;
}

const MemoryManager::Movable *
MemoryManager::findMovable(Pfn pfn) const
{
    const std::uint64_t block = pfn / BlockFrames;
    if (block >= movable_.size() || !movable_[block])
        return nullptr;
    const Movable &entry = (*movable_[block])[pfn % BlockFrames];
    return entry.owner ? &entry : nullptr;
}

void
MemoryManager::registerMovable(Pfn pfn, MovableOwner *owner,
                               std::uint64_t tag)
{
    panic_if(owner == nullptr, "movable frame 0x%llx without an owner",
             (unsigned long long)pfn);
    const std::uint64_t block = pfn / BlockFrames;
    panic_if(block >= movable_.size(),
             "movable frame 0x%llx past the end of memory",
             (unsigned long long)pfn);
    if (!movable_[block])
        movable_[block] = std::make_unique<MovableBlock>();
    Movable &entry = (*movable_[block])[pfn % BlockFrames];
    panic_if(entry.owner != nullptr,
             "frame 0x%llx already registered movable",
             (unsigned long long)pfn);
    entry = Movable{owner, tag};
}

void
MemoryManager::unregisterMovable(Pfn pfn)
{
    panic_if(!isMovable(pfn), "frame 0x%llx was not movable",
             (unsigned long long)pfn);
    (*movable_[pfn / BlockFrames])[pfn % BlockFrames] = Movable{};
}

void
MemoryManager::audit(contracts::AuditReport &report) const
{
    std::uint64_t mismatches = 0;
    for (Pfn pfn = 0; pfn < mem_.totalFrames(); pfn++) {
        const bool small = mem_.frameUse(pfn) == mem::FrameUse::AppSmall;
        const bool registered = isMovable(pfn);
        if (small == registered)
            continue;
        if (mismatches++ < 8) { // a systematic drift floods the report
            MIX_AUDIT_CHECK(report, false,
                            "frame 0x%llx is %s movable but %s AppSmall",
                            (unsigned long long)pfn,
                            registered ? "registered" : "not registered",
                            small ? "tagged" : "not tagged");
        }
    }
    MIX_AUDIT_CHECK(report, mismatches <= 8,
                    "%llu further movable registry / frame tag "
                    "mismatches",
                    (unsigned long long)(mismatches - 8));
}

double
MemoryManager::freeFraction() const
{
    return static_cast<double>(mem_.buddy().freeFrames())
           / static_cast<double>(mem_.totalFrames());
}

std::optional<Pfn>
MemoryManager::reclaimAndRetry(unsigned order, mem::FrameUse use,
                               bool allow_reclaim)
{
    if (!allow_reclaim || inReclaim_ || reclaimers_.empty())
        return std::nullopt;
    if (reclaim(pow2(order)) == 0)
        return std::nullopt;
    return mem_.allocFrames(order, use);
}

std::optional<Pfn>
MemoryManager::allocContiguous(unsigned order, mem::FrameUse use,
                               bool allow_compaction, bool allow_reclaim)
{
    // Injected buddy failure for superpage requests: the caller's
    // graceful-degradation path (THS falls back to 4KB and records it)
    // is exactly what the fault soak exercises. Order-0 requests are
    // not failed here — their retry/OOM handling lives at the
    // page-fault layer.
    if (order > 0 && fault::fire(fault::Site::BuddyAlloc))
        return std::nullopt;

    if (order == 0 || mem_.buddy().freeBlocksAt(order) > 0 ||
        (mem_.buddy().largestFreeOrder().value_or(0) >= order)) {
        auto pfn = mem_.allocFrames(order, use);
        if (pfn) {
            ++directAllocs_;
            return pfn;
        }
    }
    if (order == 0 || !allow_compaction)
        return reclaimAndRetry(order, use, allow_reclaim);

    // Watermark check: compaction needs migration destinations, and a
    // nearly full machine should fall back to small pages quickly.
    std::uint64_t region = pow2(order);
    double free_frac = freeFraction();
    if (mem_.buddy().freeFrames() < region ||
        free_frac < params_.minFreeFraction) {
        return reclaimAndRetry(order, use, allow_reclaim);
    }

    // Pressure-gated willingness (Linux skips direct compaction for
    // THP allocations as the watermarks tighten): always compact with
    // plentiful free memory, increasingly fall back to small pages as
    // it shrinks toward the minimum. The gate is *streaky*, like the
    // real deferred-compaction machinery: once compaction is working
    // it keeps working for a stretch, and once deferred it stays
    // deferred for a stretch. Streaks are what keep the superpages
    // that do form contiguous (Sec. 7.1) instead of interleaving 4KB
    // fallbacks through them.
    if (free_frac < params_.fullEffortFreeFraction) {
        double p = (free_frac - params_.minFreeFraction)
                   / (params_.fullEffortFreeFraction
                      - params_.minFreeFraction);
        if (gateStreak_ == 0) {
            gateWilling_ = rng_.chance(p);
            gateStreak_ = 32 + rng_.nextBounded(96);
        }
        gateStreak_--;
        if (!gateWilling_) {
            ++compactionDeferred_;
            return std::nullopt;
        }
    } else {
        gateStreak_ = 0;
    }

    // Deferred compaction: after repeated failures, skip 2^deferShift
    // attempts before trying again (Linux compaction_deferred()).
    if (params_.deferOnFailure && deferCount_ > 0) {
        deferCount_--;
        ++compactionDeferred_;
        return std::nullopt;
    }

    auto pfn = compact(order, use);
    if (pfn) {
        deferShift_ = 0;
        deferCount_ = 0;
        return pfn;
    }
    if (params_.deferOnFailure) {
        if (deferShift_ < 6)
            deferShift_++;
        deferCount_ = 1u << (deferShift_ & 31);
    }
    // Failed even after compaction: demote/reclaim memory from the
    // registered processes and retry once.
    return reclaimAndRetry(order, use, allow_reclaim);
}

bool
MemoryManager::regionMigratable(Pfn base, unsigned order,
                                std::uint64_t *allocated_out) const
{
    std::uint64_t allocated = 0;
    for (std::uint64_t i = 0; i < pow2(order); i++) {
        switch (mem_.frameUse(base + i)) {
          case mem::FrameUse::Free:
            break;
          case mem::FrameUse::AppSmall:
            // Movable iff registered (audit() checks it always is).
            if (!isMovable(base + i))
                return false;
            allocated++;
            break;
          default:
            return false; // page tables, pinned, superpage frames
        }
    }
    *allocated_out = allocated;
    return true;
}

std::optional<Pfn>
MemoryManager::compact(unsigned order, mem::FrameUse use)
{
    ++compactionAttempts_;
    const std::uint64_t region = pow2(order);
    const std::uint64_t num_regions = shiftRight(mem_.totalFrames(), order);
    if (num_regions == 0)
        return std::nullopt;

    std::uint64_t start = shiftRight(scanCursor_, order);
    for (unsigned cand = 0; cand < params_.maxCandidates &&
                            cand < num_regions; cand++) {
        std::uint64_t region_idx = (start + cand) % num_regions;
        Pfn base = shiftLeft(region_idx, order);
        scanCursor_ = shiftLeft((region_idx + 1) % num_regions, order);

        std::uint64_t allocated = 0;
        if (!regionMigratable(base, order, &allocated))
            continue;
        // Migration destinations must exist outside this region. Free
        // frames inside it don't help, so be conservative.
        if (mem_.buddy().freeFrames() < region)
            continue;

        // 1. Claim the free holes so migration destinations can't land
        //    inside the region we're trying to empty.
        for (std::uint64_t i = 0; i < region; i++) {
            if (mem_.frameUse(base + i) == mem::FrameUse::Free) {
                bool ok = mem_.allocFramesAt(base + i, 0,
                                             mem::FrameUse::Pinned);
                panic_if(!ok, "free frame could not be claimed");
            }
        }

        // 2. Migrate each movable frame out; ownership of the old frame
        //    transfers to us without a buddy round-trip. The watermark
        //    check above guarantees destinations exist, but handle
        //    failure defensively anyway.
        bool failed = false;
        for (std::uint64_t i = 0; i < region && !failed; i++) {
            Pfn old_pfn = base + i;
            const Movable *found = findMovable(old_pfn);
            if (!found)
                continue; // was free, already claimed
            auto dest = mem_.allocFrames(0, mem::FrameUse::AppSmall);
            if (!dest) {
                failed = true;
                break;
            }
            panic_if(*dest >= base && *dest < base + region,
                     "migration destination inside the region");
            const Movable entry = *found;
            unregisterMovable(old_pfn);
            registerMovable(*dest, entry.owner, entry.tag);
            entry.owner->relocate(entry.tag, old_pfn, *dest);
            // The vacated frame is now ours; mark it like the holes.
            mem_.retagFrames(old_pfn, 0, mem::FrameUse::Pinned);
            ++pagesMigrated_;
        }

        if (failed) {
            // Roll back everything we claimed (holes and vacated
            // frames); already-migrated pages stay where they moved.
            for (std::uint64_t i = 0; i < region; i++) {
                if (mem_.frameUse(base + i) == mem::FrameUse::Pinned)
                    mem_.freeFrames(base + i, 0);
            }
            return std::nullopt;
        }

        // 3. The whole region is now ours (claimed holes plus vacated
        //    frames). Retag it as one block and hand it out; the buddy
        //    allocator needs no fixup because every frame is allocated
        //    from its perspective.
        mem_.retagFrames(base, order, use);
        ++compactionSuccesses_;
        return base;
    }
    return std::nullopt;
}

} // namespace mixtlb::os
