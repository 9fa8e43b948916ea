/**
 * @file
 * Reference model of mem::BuddyAllocator for differential tests: the
 * original ordered-set implementation, one std::set of free block
 * bases per order. It is slow but obviously right, and every answer
 * the flat bitmap allocator gives must match it.
 */

#ifndef MIXTLB_TESTS_REFERENCE_BUDDY_HH
#define MIXTLB_TESTS_REFERENCE_BUDDY_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/types.hh"
#include "mem/buddy_allocator.hh"

namespace mixtlb::reference
{

class ReferenceBuddy
{
  public:
    static constexpr unsigned MaxOrder = mem::BuddyAllocator::MaxOrder;

    explicit ReferenceBuddy(std::uint64_t total_frames)
        : freeFrames_(total_frames), freeLists_(MaxOrder + 1)
    {
        Pfn pfn = 0;
        std::uint64_t remaining = total_frames;
        while (remaining > 0) {
            unsigned order = MaxOrder;
            while (order > 0 && ((pfn & (pow2(order) - 1)) != 0 ||
                                 pow2(order) > remaining)) {
                order--;
            }
            freeLists_[order].insert(pfn);
            pfn += pow2(order);
            remaining -= pow2(order);
        }
    }

    /** Lowest-address block across orders >= @p order, ties to smaller. */
    std::optional<Pfn>
    alloc(unsigned order)
    {
        unsigned best_order = 0;
        Pfn best_pfn = 0;
        bool found = false;
        for (unsigned o = order; o <= MaxOrder; o++) {
            if (freeLists_[o].empty())
                continue;
            Pfn candidate = *freeLists_[o].begin();
            if (!found || candidate < best_pfn) {
                found = true;
                best_pfn = candidate;
                best_order = o;
            }
        }
        if (!found)
            return std::nullopt;
        freeLists_[best_order].erase(best_pfn);
        for (unsigned o = best_order; o > order; o--)
            freeLists_[o - 1].insert(best_pfn + pow2(o - 1));
        freeFrames_ -= pow2(order);
        return best_pfn;
    }

    /** Carve the aligned region out of whichever blocks cover it. */
    bool
    allocRegion(Pfn pfn, unsigned order)
    {
        if (!isRegionFree(pfn, order))
            return false;
        const std::uint64_t want_lo = pfn;
        const std::uint64_t want_hi = pfn + pow2(order);
        for (unsigned o = 0; o <= MaxOrder; o++) {
            auto &list = freeLists_[o];
            auto it = list.lower_bound(
                want_lo >= pow2(o) ? want_lo - pow2(o) + 1 : 0);
            while (it != list.end() && *it < want_hi) {
                const Pfn blk = *it;
                const std::uint64_t blk_hi = blk + pow2(o);
                if (blk_hi <= want_lo) {
                    ++it;
                    continue;
                }
                it = list.erase(it);
                if (blk >= want_lo && blk_hi <= want_hi)
                    continue; // fully consumed
                unsigned co = o;
                Pfn cur = blk;
                while (co > order) {
                    co--;
                    const Pfn high = cur + pow2(co);
                    if (want_lo >= high) {
                        freeLists_[co].insert(cur);
                        cur = high;
                    } else {
                        freeLists_[co].insert(high);
                    }
                }
                break;
            }
        }
        freeFrames_ -= pow2(order);
        return true;
    }

    void
    free(Pfn pfn, unsigned order)
    {
        freeFrames_ += pow2(order);
        while (order < MaxOrder) {
            const Pfn buddy = pfn ^ pow2(order);
            auto it = freeLists_[order].find(buddy);
            if (it == freeLists_[order].end())
                break;
            freeLists_[order].erase(it);
            pfn &= buddy;
            order++;
        }
        freeLists_[order].insert(pfn);
    }

    /** Frames covered by free blocks intersecting the region. */
    bool
    isRegionFree(Pfn pfn, unsigned order) const
    {
        const std::uint64_t want_lo = pfn;
        const std::uint64_t want_hi = pfn + pow2(order);
        std::uint64_t covered = 0;
        for (unsigned o = 0; o <= MaxOrder; o++) {
            const auto &list = freeLists_[o];
            auto it = list.lower_bound(
                want_lo >= pow2(o) ? want_lo - pow2(o) + 1 : 0);
            for (; it != list.end() && *it < want_hi; ++it) {
                const std::uint64_t blk_lo = *it;
                const std::uint64_t blk_hi = blk_lo + pow2(o);
                if (blk_hi <= want_lo)
                    continue;
                covered += std::min(blk_hi, want_hi)
                           - std::max(blk_lo, want_lo);
            }
        }
        return covered == want_hi - want_lo;
    }

    std::optional<unsigned>
    largestFreeOrder() const
    {
        for (unsigned o = MaxOrder + 1; o-- > 0;) {
            if (!freeLists_[o].empty())
                return o;
        }
        return std::nullopt;
    }

    std::uint64_t
    freeBlocksAt(unsigned order) const
    {
        return freeLists_[order].size();
    }

    double
    fragmentationIndex(unsigned order) const
    {
        if (freeFrames_ == 0)
            return 0.0;
        std::uint64_t usable = 0;
        for (unsigned o = order; o <= MaxOrder; o++)
            usable += shiftLeft(freeLists_[o].size(), o);
        return 1.0 - static_cast<double>(usable)
                     / static_cast<double>(freeFrames_);
    }

    std::uint64_t freeFrames() const { return freeFrames_; }

    /** Every free block as (base, order), by order then address. */
    std::vector<std::pair<Pfn, unsigned>>
    freeBlocks() const
    {
        std::vector<std::pair<Pfn, unsigned>> out;
        for (unsigned o = 0; o <= MaxOrder; o++) {
            for (Pfn pfn : freeLists_[o])
                out.emplace_back(pfn, o);
        }
        return out;
    }

  private:
    std::uint64_t freeFrames_;
    std::vector<std::set<Pfn>> freeLists_;
};

} // namespace mixtlb::reference

#endif // MIXTLB_TESTS_REFERENCE_BUDDY_HH
