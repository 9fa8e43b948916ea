#include "buddy_allocator.hh"

#include <bit>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::mem
{

namespace
{

/** Bit of block @p idx within its bitmap word. */
constexpr std::uint64_t
bitOf(std::uint64_t idx)
{
    return 1ULL << (idx & 63);
}

/** Even-position bits: the low half of every buddy pair in a word. */
constexpr std::uint64_t LowHalves = 0x5555555555555555ULL;

} // namespace

BuddyAllocator::BuddyAllocator(std::uint64_t total_frames)
    : totalFrames_(total_frames), freeFrames_(total_frames),
      free_(MaxOrder + 1)
{
    panic_if(total_frames == 0, "empty physical memory");
    for (unsigned o = 0; o <= MaxOrder; o++) {
        FreeMap &map = free_[o];
        map.blocks = shiftRight(total_frames, o);
        map.words.assign(divCeil(map.blocks, 64), 0);
        map.summary.assign(divCeil(map.words.size(), 64), 0);
        map.cursor = map.words.size();
    }
    // Seed the free lists with maximal naturally aligned blocks, as a
    // real buddy system would after boot.
    Pfn pfn = 0;
    std::uint64_t remaining = total_frames;
    while (remaining > 0) {
        unsigned order = MaxOrder;
        while (order > 0 &&
               ((pfn & (pow2(order) - 1)) != 0 ||
                pow2(order) > remaining)) {
            order--;
        }
        markFree(pfn, order);
        pfn += pow2(order);
        remaining -= pow2(order);
    }
}

bool
BuddyAllocator::isFree(Pfn pfn, unsigned order) const
{
    const FreeMap &map = free_[order];
    const std::uint64_t idx = shiftRight(pfn, order);
    return idx < map.blocks && (map.words[idx >> 6] & bitOf(idx)) != 0;
}

void
BuddyAllocator::markFree(Pfn pfn, unsigned order)
{
    FreeMap &map = free_[order];
    const std::uint64_t idx = shiftRight(pfn, order);
    const std::uint64_t word = idx >> 6;
    map.words[word] |= bitOf(idx);
    map.summary[word >> 6] |= bitOf(word);
    map.count++;
    if (word < map.cursor)
        map.cursor = word;
}

void
BuddyAllocator::markUsed(Pfn pfn, unsigned order)
{
    FreeMap &map = free_[order];
    const std::uint64_t idx = shiftRight(pfn, order);
    const std::uint64_t word = idx >> 6;
    map.words[word] &= ~bitOf(idx);
    map.count--;
    if (map.words[word] != 0)
        return;
    map.summary[word >> 6] &= ~bitOf(word);
    if (map.count == 0) {
        map.cursor = map.words.size();
        return;
    }
    // Keep the cursor on the lowest nonzero word: only emptying that
    // word moves it, and then to the next live word, which the summary
    // names; one exists because the count is nonzero.
    if (word == map.cursor) {
        const std::uint64_t next = word + 1;
        std::uint64_t s = next >> 6;
        std::uint64_t live = map.summary[s] & (~0ULL << (next & 63));
        while (live == 0)
            live = map.summary[++s];
        map.cursor = s * 64 + static_cast<unsigned>(std::countr_zero(live));
    }
}

Pfn
BuddyAllocator::lowestFree(unsigned order) const
{
    const FreeMap &map = free_[order];
    const auto bit = static_cast<unsigned>(
        std::countr_zero(map.words[map.cursor]));
    return shiftLeft(map.cursor * 64 + bit, order);
}

std::optional<Pfn>
BuddyAllocator::alloc(unsigned order)
{
    panic_if(order > MaxOrder, "alloc order %u too large", order);

    // Find the lowest-address block among all orders >= requested that
    // could satisfy this request; preferring the lowest *address* (not
    // the smallest sufficient order) is what generates physically
    // contiguous consecutive allocations. Ties go to the smaller order.
    unsigned best_order = 0;
    Pfn best_pfn = 0;
    bool found = false;
    for (unsigned o = order; o <= MaxOrder; o++) {
        if (free_[o].count == 0)
            continue;
        Pfn candidate = lowestFree(o);
        if (!found || candidate < best_pfn) {
            found = true;
            best_pfn = candidate;
            best_order = o;
        }
    }
    if (!found)
        return std::nullopt;

    markUsed(best_pfn, best_order);
    // Split down, keeping the low half each time and freeing the high
    // half, so the returned block sits at the lowest address.
    for (unsigned o = best_order; o > order; o--)
        markFree(best_pfn + pow2(o - 1), o - 1);
    freeFrames_ -= pow2(order);
    return best_pfn;
}

bool
BuddyAllocator::allocRegion(Pfn pfn, unsigned order)
{
    panic_if(order > MaxOrder, "allocRegion order %u too large", order);
    panic_if((pfn & (pow2(order) - 1)) != 0,
             "allocRegion misaligned pfn");

    const auto covering = coveringOrder(pfn, order);
    if (!covering)
        return false;

    // Split the covering block down to the region, re-freeing the half
    // that does not contain it at each step.
    unsigned o = *covering;
    Pfn cur = alignDown(pfn, pow2(o));
    markUsed(cur, o);
    while (o > order) {
        o--;
        const Pfn high = cur + pow2(o);
        if (pfn >= high) {
            markFree(cur, o);
            cur = high;
        } else {
            markFree(high, o);
        }
    }
    freeFrames_ -= pow2(order);
    return true;
}

void
BuddyAllocator::free(Pfn pfn, unsigned order)
{
    panic_if(order > MaxOrder, "free order %u too large", order);
    panic_if((pfn & (pow2(order) - 1)) != 0, "free misaligned pfn");
    panic_if(pfn + pow2(order) > totalFrames_,
             "free of pfn 0x%llx past the managed frames",
             (unsigned long long)pfn);
    insertAndMerge(pfn, order);
    freeFrames_ += pow2(order);
}

void
BuddyAllocator::insertAndMerge(Pfn pfn, unsigned order)
{
    while (order < MaxOrder) {
        Pfn buddy = pfn ^ pow2(order);
        if (!isFree(buddy, order))
            break;
        markUsed(buddy, order);
        pfn = pfn & buddy; // the lower of the two
        order++;
    }
    panic_if(isFree(pfn, order), "double free of pfn 0x%llx",
             (unsigned long long)pfn);
    markFree(pfn, order);
}

bool
BuddyAllocator::isRegionFree(Pfn pfn, unsigned order) const
{
    panic_if(order > MaxOrder, "isRegionFree order %u too large", order);
    panic_if((pfn & (pow2(order) - 1)) != 0,
             "isRegionFree misaligned pfn");
    return coveringOrder(pfn, order).has_value();
}

std::optional<unsigned>
BuddyAllocator::coveringOrder(Pfn pfn, unsigned order) const
{
    // Buddies merge eagerly, so a wholly free aligned region always
    // lies inside one free block of its own or a larger order: the one
    // aligned block per order that contains it.
    for (unsigned o = order; o <= MaxOrder; o++) {
        if (isFree(alignDown(pfn, pow2(o)), o))
            return o;
    }
    return std::nullopt;
}

std::optional<unsigned>
BuddyAllocator::largestFreeOrder() const
{
    for (unsigned o = MaxOrder + 1; o-- > 0;) {
        if (free_[o].count > 0)
            return o;
    }
    return std::nullopt;
}

std::uint64_t
BuddyAllocator::freeBlocksAt(unsigned order) const
{
    panic_if(order > MaxOrder, "order %u too large", order);
    return free_[order].count;
}

void
BuddyAllocator::forEachFreeBlock(
    const std::function<void(Pfn, unsigned)> &fn) const
{
    for (unsigned o = 0; o <= MaxOrder; o++) {
        const auto &words = free_[o].words;
        for (std::uint64_t w = 0; w < words.size(); w++) {
            for (std::uint64_t bits = words[w]; bits != 0;
                 bits &= bits - 1) {
                const auto bit =
                    static_cast<unsigned>(std::countr_zero(bits));
                fn(shiftLeft(w * 64 + bit, o), o);
            }
        }
    }
}

void
BuddyAllocator::audit(contracts::AuditReport &report) const
{
    std::uint64_t free_sum = 0;
    for (unsigned o = 0; o <= MaxOrder; o++) {
        const FreeMap &map = free_[o];
        std::uint64_t count = 0;
        std::uint64_t lowest = map.words.size();
        for (std::uint64_t w = 0; w < map.words.size(); w++) {
            const std::uint64_t word = map.words[w];
            if (word == 0)
                continue;
            if (lowest == map.words.size())
                lowest = w;
            count += static_cast<std::uint64_t>(std::popcount(word));
            // A set pair (2i, 2i+1) is two free buddies left unmerged;
            // report it once, from its low half.
            const std::uint64_t pairs =
                o < MaxOrder ? word & (word >> 1) & LowHalves : 0;
            if (pairs != 0) {
                const std::uint64_t idx =
                    w * 64 + static_cast<unsigned>(std::countr_zero(pairs));
                MIX_AUDIT_CHECK(report, false,
                                "order-%u buddies 0x%llx/0x%llx both "
                                "free but unmerged",
                                o, (unsigned long long)shiftLeft(idx, o),
                                (unsigned long long)shiftLeft(idx + 1, o));
            }
        }
        MIX_AUDIT_CHECK(report, count == map.count,
                        "order-%u free lists hold %llu blocks but the "
                        "count says %llu",
                        o, (unsigned long long)count,
                        (unsigned long long)map.count);
        // The summary holds one bit per word, nonzero words exactly.
        std::uint64_t summary_drift = 0;
        for (std::uint64_t w = 0; w < map.summary.size() * 64; w++) {
            const bool live = w < map.words.size() && map.words[w] != 0;
            if (live != ((map.summary[w >> 6] & bitOf(w)) != 0))
                summary_drift++;
        }
        MIX_AUDIT_CHECK(report, summary_drift == 0,
                        "order-%u summary disagrees with %llu bitmap "
                        "words",
                        o, (unsigned long long)summary_drift);
        MIX_AUDIT_CHECK(report, lowest == map.cursor,
                        "order-%u cursor at word %llu but the lowest "
                        "free block is in word %llu",
                        o, (unsigned long long)map.cursor,
                        (unsigned long long)lowest);
        free_sum += shiftLeft(count, o);
    }

    // Per-block checks: inside the managed range, and not nested in a
    // free block of a higher order (the only way two aligned blocks can
    // overlap).
    forEachFreeBlock([&](Pfn pfn, unsigned o) {
        MIX_AUDIT_CHECK(report, pfn + pow2(o) <= totalFrames_,
                        "order-%u free block at pfn 0x%llx runs "
                        "past the %llu managed frames",
                        o, (unsigned long long)pfn,
                        (unsigned long long)totalFrames_);
        for (unsigned up = o + 1; up <= MaxOrder; up++) {
            const Pfn outer = alignDown(pfn, pow2(up));
            MIX_AUDIT_CHECK(report, !isFree(outer, up),
                            "free blocks overlap: order-%u 0x%llx "
                            "inside order-%u 0x%llx",
                            o, (unsigned long long)pfn, up,
                            (unsigned long long)outer);
        }
    });

    MIX_AUDIT_CHECK(report, free_sum == freeFrames_,
                    "free lists hold %llu frames but freeFrames() "
                    "says %llu (split/merge leaked or minted frames)",
                    (unsigned long long)free_sum,
                    (unsigned long long)freeFrames_);
    MIX_AUDIT_CHECK(report, freeFrames_ <= totalFrames_,
                    "freeFrames %llu exceeds totalFrames %llu",
                    (unsigned long long)freeFrames_,
                    (unsigned long long)totalFrames_);
}

double
BuddyAllocator::fragmentationIndex(unsigned order) const
{
    if (freeFrames_ == 0)
        return 0.0;
    std::uint64_t usable = 0;
    for (unsigned o = order; o <= MaxOrder; o++)
        usable += shiftLeft(free_[o].count, o);
    return 1.0 - static_cast<double>(usable)
                 / static_cast<double>(freeFrames_);
}

} // namespace mixtlb::mem
