#include "memhog.hh"

#include <algorithm>
#include <bit>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "mem/buddy_allocator.hh"

namespace mixtlb::os
{

namespace
{

/** Bit of frame @p pfn within its word of the movable bitmap. */
constexpr std::uint64_t
bitOf(Pfn pfn)
{
    return 1ULL << (pfn & 63);
}

} // namespace

void
Memhog::fragment(double fraction, std::uint64_t seed)
{
    fatal_if(fraction < 0.0 || fraction > 1.0,
             "memhog fraction must be in [0,1]");
    release();
    if (fraction == 0.0)
        return;

    auto &mem = mm_.phys();
    Rng rng(seed);

    const auto want_total = static_cast<std::uint64_t>(
        fraction * static_cast<double>(mem.totalFrames()));

    // Unmovable slice first: whole 2MB pageblocks in *clusters* — the
    // anti-fragmentation subsystem groups unmovable allocations into
    // runs of pageblocks rather than sprinkling them, which is what
    // leaves the long movable stretches whose contiguity Sec. 7.1
    // measures.
    const auto want_unmovable = static_cast<std::uint64_t>(
        unmovableShare_ * static_cast<double>(want_total));
    const std::uint64_t num_blocks = mem.totalFrames() >> mem::Order2M;
    constexpr unsigned ClusterBlocks = 16;
    std::uint64_t unmovable_frames = 0;
    unsigned attempts = 0;
    while (unmovable_frames + (1ULL << mem::Order2M) <= want_unmovable &&
           attempts < 4 * num_blocks) {
        attempts++;
        Pfn start = rng.nextBounded(num_blocks) << mem::Order2M;
        for (unsigned i = 0;
             i < ClusterBlocks &&
             unmovable_frames + (1ULL << mem::Order2M) <= want_unmovable;
             i++) {
            Pfn block = start + (static_cast<Pfn>(i) << mem::Order2M);
            if (block + (1ULL << mem::Order2M) > mem.totalFrames())
                break;
            if (mem.allocFramesAt(block, mem::Order2M,
                                  mem::FrameUse::Pinned)) {
                unmovable_.push_back(block);
                unmovable_frames += 1ULL << mem::Order2M;
            }
        }
    }

    // Movable bulk: claim all free memory, then keep a random subset of
    // single frames pinned, freeing the rest. The survivors are
    // uniformly scattered, which is exactly the free-list shape a
    // random long-running allocation mix produces.
    std::vector<std::pair<Pfn, unsigned>> claimed;
    for (unsigned order = mem::BuddyAllocator::MaxOrder + 1; order-- > 0;) {
        while (auto pfn = mem.allocFrames(order, mem::FrameUse::AppSmall))
            claimed.emplace_back(*pfn, order);
    }
    std::vector<Pfn> frames;
    for (auto [base, order] : claimed) {
        for (std::uint64_t i = 0; i < pow2(order); i++)
            frames.push_back(base + i);
    }

    std::uint64_t want_movable =
        want_total > unmovable_frames ? want_total - unmovable_frames : 0;
    if (want_movable > frames.size())
        want_movable = frames.size();

    // We keep frames[0, want_movable) of a Fisher-Yates shuffle from the
    // back. Step i fixes position i-1, so once i reaches want_movable
    // the kept set is final and later steps would only reorder it.
    for (std::uint64_t i = frames.size(); i > want_movable && i > 1; i--)
        std::swap(frames[i - 1], frames[rng.nextBounded(i)]);
    movable_.assign(divCeil(mem.totalFrames(), 64), 0);
    for (std::uint64_t i = 0; i < want_movable; i++)
        movable_[frames[i] >> 6] |= bitOf(frames[i]);
    movableCount_ = want_movable;

    // One pfn-order sweep registers the kept frames and frees each run
    // between them as maximal aligned blocks. Buddies merge eagerly, so
    // the free lists end exactly as single-frame frees in any order
    // leave them; memhog frames hold no word buffers to recycle.
    std::sort(claimed.begin(), claimed.end());
    for (auto [base, order] : claimed) {
        const Pfn end = base + pow2(order);
        Pfn run = base;
        for (Pfn pfn = base; pfn < end; pfn++) {
            if (!holds(pfn))
                continue;
            freeRun(run, pfn);
            mm_.registerMovable(pfn, this, 0);
            run = pfn + 1;
        }
        freeRun(run, end);
    }
}

void
Memhog::freeRun(Pfn lo, Pfn hi)
{
    while (lo < hi) {
        const unsigned order =
            std::min({static_cast<unsigned>(std::countr_zero(lo)),
                      static_cast<unsigned>(std::bit_width(hi - lo)) - 1,
                      mem::BuddyAllocator::MaxOrder});
        mm_.phys().freeFrames(lo, order);
        lo += pow2(order);
    }
}

std::uint64_t
Memhog::burstAcquire(std::uint64_t frames)
{
    auto &mem = mm_.phys();
    std::uint64_t got = 0;
    for (; got < frames; got++) {
        auto pfn = mem.allocFrames(0, mem::FrameUse::Pinned);
        if (!pfn)
            break;
        burst_.push_back(*pfn);
    }
    return got;
}

void
Memhog::burstRelease()
{
    auto &mem = mm_.phys();
    for (Pfn pfn : burst_)
        mem.freeFrames(pfn, 0);
    burst_.clear();
}

void
Memhog::release()
{
    burstRelease();
    auto &mem = mm_.phys();
    for (std::uint64_t w = 0; w < movable_.size(); w++) {
        for (std::uint64_t bits = movable_[w]; bits != 0; bits &= bits - 1) {
            const Pfn pfn = w * 64 + static_cast<unsigned>(
                                         std::countr_zero(bits));
            mm_.unregisterMovable(pfn);
            mem.freeFrames(pfn, 0);
        }
    }
    movable_.clear();
    movableCount_ = 0;
    for (Pfn block : unmovable_)
        mem.freeFrames(block, mem::Order2M);
    unmovable_.clear();
}

bool
Memhog::holds(Pfn pfn) const
{
    return (pfn >> 6) < movable_.size() &&
           (movable_[pfn >> 6] & bitOf(pfn)) != 0;
}

void
Memhog::relocate(std::uint64_t, Pfn from, Pfn to)
{
    panic_if(!holds(from), "memhog relocate of frame 0x%llx we do not hold",
             (unsigned long long)from);
    movable_[from >> 6] &= ~bitOf(from);
    movable_[to >> 6] |= bitOf(to);
}

} // namespace mixtlb::os
