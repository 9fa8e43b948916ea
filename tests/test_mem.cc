/**
 * @file
 * Unit and property tests for src/mem: the buddy allocator (including a
 * differential test against the ordered-set reference model) and
 * physical memory with its per-frame word buffers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/contracts.hh"
#include "common/intmath.hh"
#include "common/random.hh"
#include "mem/buddy_allocator.hh"
#include "mem/phys_mem.hh"
#include "reference_buddy.hh"

using namespace mixtlb;
using namespace mixtlb::mem;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

/** A random order: mostly small, sometimes superpage-sized, up to 1GB. */
unsigned
randomOrder(Rng &rng)
{
    switch (rng.nextBounded(8)) {
      case 0: case 1: case 2: case 3:
        return 0;
      case 4: case 5:
        return static_cast<unsigned>(rng.nextBounded(4));
      case 6:
        return static_cast<unsigned>(rng.nextBounded(Order2M + 2));
      default:
        return static_cast<unsigned>(
            rng.nextBounded(BuddyAllocator::MaxOrder + 1));
    }
}

/**
 * Drive the bitmap allocator and the ordered-set reference model with
 * one seeded operation sequence; every answer must match and the
 * allocator must audit clean after every step. Phases alternate
 * between filling and draining so runs reach both exhaustion and
 * full re-merging.
 */
void
runBuddyDifferential(std::uint64_t frames, std::uint64_t seed,
                     unsigned steps)
{
    BuddyAllocator buddy(frames);
    reference::ReferenceBuddy model(frames);
    Rng rng(seed);
    std::vector<std::pair<Pfn, unsigned>> held;
    for (unsigned step = 0; step < steps; step++) {
        SCOPED_TRACE("step " + std::to_string(step));
        const bool filling = (step / 256) % 2 == 0;
        const std::uint64_t alloc_cut = filling ? 10 : 3;
        const std::uint64_t region_cut = alloc_cut + (filling ? 4 : 3);
        const std::uint64_t roll = rng.nextBounded(20);
        if (roll < alloc_cut) {
            const unsigned order = randomOrder(rng);
            auto got = buddy.alloc(order);
            auto want = model.alloc(order);
            ASSERT_EQ(got, want) << "alloc order " << order;
            if (got)
                held.emplace_back(*got, order);
        } else if (roll < region_cut) {
            const unsigned order = randomOrder(rng);
            // Aligned bases up to one block past the end of memory.
            const Pfn pfn =
                rng.nextBounded(divCeil(frames, pow2(order)) + 1)
                << order;
            ASSERT_EQ(buddy.isRegionFree(pfn, order),
                      model.isRegionFree(pfn, order))
                << "isRegionFree " << pfn << " order " << order;
            const bool got = buddy.allocRegion(pfn, order);
            ASSERT_EQ(got, model.allocRegion(pfn, order))
                << "allocRegion " << pfn << " order " << order;
            if (got)
                held.emplace_back(pfn, order);
        } else if (!held.empty()) {
            const auto idx = rng.nextBounded(held.size());
            const auto [pfn, order] = held[idx];
            held[idx] = held.back();
            held.pop_back();
            buddy.free(pfn, order);
            model.free(pfn, order);
        }

        ASSERT_EQ(buddy.freeFrames(), model.freeFrames());
        ASSERT_EQ(buddy.largestFreeOrder(), model.largestFreeOrder());
        for (unsigned o = 0; o <= BuddyAllocator::MaxOrder; o++)
            ASSERT_EQ(buddy.freeBlocksAt(o), model.freeBlocksAt(o)) << o;
        const unsigned frag_order = randomOrder(rng);
        ASSERT_EQ(buddy.fragmentationIndex(frag_order),
                  model.fragmentationIndex(frag_order));
        contracts::AuditReport report;
        buddy.audit(report);
        ASSERT_TRUE(report.ok()) << report.summary();
        if (step % 64 == 63 || step + 1 == steps) {
            std::vector<std::pair<Pfn, unsigned>> blocks;
            buddy.forEachFreeBlock([&blocks](Pfn pfn, unsigned order) {
                blocks.emplace_back(pfn, order);
            });
            ASSERT_EQ(blocks, model.freeBlocks());
        }
    }
    // Drain: everything merges back to the boot-time block layout.
    for (auto [pfn, order] : held) {
        buddy.free(pfn, order);
        model.free(pfn, order);
    }
    EXPECT_EQ(buddy.freeFrames(), frames);
    std::vector<std::pair<Pfn, unsigned>> blocks;
    buddy.forEachFreeBlock([&blocks](Pfn pfn, unsigned order) {
        blocks.emplace_back(pfn, order);
    });
    EXPECT_EQ(blocks, reference::ReferenceBuddy(frames).freeBlocks());
}

} // anonymous namespace

TEST(Buddy, FreshAllocatorIsFullyFree)
{
    BuddyAllocator buddy(1 << 20);
    EXPECT_EQ(buddy.freeFrames(), 1u << 20);
    EXPECT_EQ(buddy.totalFrames(), 1u << 20);
    ASSERT_TRUE(buddy.largestFreeOrder().has_value());
    EXPECT_EQ(*buddy.largestFreeOrder(), BuddyAllocator::MaxOrder);
}

TEST(Buddy, LowestAddressFirst)
{
    BuddyAllocator buddy(1 << 20);
    auto a = buddy.alloc(0);
    auto b = buddy.alloc(0);
    auto c = buddy.alloc(Order2M);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(*a, 0u);
    EXPECT_EQ(*b, 1u);
    // The order-9 block skips to the next aligned free region.
    EXPECT_EQ(*c % (1u << Order2M), 0u);
    EXPECT_GT(*c, *b);
}

TEST(Buddy, ConsecutiveSuperpageAllocationsAreContiguous)
{
    // This is the allocator property the whole paper leans on.
    BuddyAllocator buddy(4 * GiB >> PageShift4K);
    std::optional<Pfn> prev;
    for (int i = 0; i < 64; i++) {
        auto pfn = buddy.alloc(Order2M);
        ASSERT_TRUE(pfn.has_value());
        if (prev) {
            EXPECT_EQ(*pfn, *prev + (1u << Order2M));
        }
        prev = pfn;
    }
}

TEST(Buddy, AlignmentInvariant)
{
    BuddyAllocator buddy(1 << 20);
    buddy.alloc(0); // misalign the low region
    for (unsigned order : {3u, 9u, 12u}) {
        auto pfn = buddy.alloc(order);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(*pfn & ((1ULL << order) - 1), 0u) << "order " << order;
    }
}

TEST(Buddy, FreeAndMergeRestoresLargestOrder)
{
    BuddyAllocator buddy(1 << 18); // exactly one 1GB block
    std::vector<Pfn> frames;
    for (int i = 0; i < 1024; i++) {
        auto pfn = buddy.alloc(0);
        ASSERT_TRUE(pfn.has_value());
        frames.push_back(*pfn);
    }
    EXPECT_LT(*buddy.largestFreeOrder(), BuddyAllocator::MaxOrder);
    for (Pfn pfn : frames)
        buddy.free(pfn, 0);
    EXPECT_EQ(buddy.freeFrames(), 1u << 18);
    EXPECT_EQ(*buddy.largestFreeOrder(), BuddyAllocator::MaxOrder);
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator buddy(16);
    for (int i = 0; i < 16; i++)
        ASSERT_TRUE(buddy.alloc(0).has_value());
    EXPECT_FALSE(buddy.alloc(0).has_value());
    EXPECT_EQ(buddy.freeFrames(), 0u);
    EXPECT_FALSE(buddy.largestFreeOrder().has_value());
}

TEST(Buddy, NoOverlappingAllocations)
{
    BuddyAllocator buddy(1 << 16);
    Rng rng(99);
    std::set<Pfn> owned;
    std::vector<std::pair<Pfn, unsigned>> blocks;
    for (int iter = 0; iter < 2000; iter++) {
        if (blocks.empty() || rng.chance(0.6)) {
            unsigned order = rng.nextBounded(6);
            auto pfn = buddy.alloc(order);
            if (!pfn)
                continue;
            for (std::uint64_t i = 0; i < (1ULL << order); i++) {
                auto [it, ins] = owned.insert(*pfn + i);
                ASSERT_TRUE(ins) << "frame allocated twice";
            }
            blocks.emplace_back(*pfn, order);
        } else {
            auto idx = rng.nextBounded(blocks.size());
            auto [pfn, order] = blocks[idx];
            blocks.erase(blocks.begin() + idx);
            for (std::uint64_t i = 0; i < (1ULL << order); i++)
                owned.erase(pfn + i);
            buddy.free(pfn, order);
        }
        ASSERT_EQ(buddy.freeFrames(), (1u << 16) - owned.size());
    }
}

TEST(Buddy, AllocRegionClaimsExactBlock)
{
    BuddyAllocator buddy(1 << 12);
    EXPECT_TRUE(buddy.isRegionFree(512, Order2M));
    EXPECT_TRUE(buddy.allocRegion(512, Order2M));
    EXPECT_FALSE(buddy.isRegionFree(512, Order2M));
    EXPECT_FALSE(buddy.allocRegion(512, Order2M));
    // Frames outside the claimed block still allocatable.
    auto pfn = buddy.alloc(0);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 0u);
    buddy.free(512, Order2M);
    EXPECT_TRUE(buddy.isRegionFree(512, Order2M));
}

TEST(Buddy, AllocRegionFailsWhenPartiallyUsed)
{
    BuddyAllocator buddy(1 << 12);
    auto pfn = buddy.alloc(0); // frame 0
    ASSERT_TRUE(pfn.has_value());
    EXPECT_FALSE(buddy.allocRegion(0, Order2M));
    EXPECT_TRUE(buddy.allocRegion(512, Order2M));
}

TEST(Buddy, AllocRegionMidSplitPreservesAccounting)
{
    BuddyAllocator buddy(1 << 14);
    std::uint64_t before = buddy.freeFrames();
    ASSERT_TRUE(buddy.allocRegion(1024, Order2M));
    EXPECT_EQ(buddy.freeFrames(), before - 512);
    // Everything around the claimed block is still allocatable frame by
    // frame.
    for (int i = 0; i < 1024; i++) {
        auto pfn = buddy.alloc(0);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_LT(*pfn, 1024u);
    }
    auto next = buddy.alloc(0);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, 1536u);
}

TEST(Buddy, FragmentationIndex)
{
    BuddyAllocator buddy(1 << 12);
    EXPECT_DOUBLE_EQ(buddy.fragmentationIndex(Order2M), 0.0);
    // Pin every even 4KB frame of the first 2MB: free memory in that
    // region is unusable for 2MB blocks.
    for (int i = 0; i < 1024; i += 2)
        ASSERT_TRUE(buddy.allocRegion(i, 0));
    double frag = buddy.fragmentationIndex(Order2M);
    EXPECT_GT(frag, 0.0);
    EXPECT_LE(frag, 1.0);
}

TEST(BuddyProperty, MatchesReferenceModelSmallOddSize)
{
    // 1000 frames: no order has a power-of-two block count.
    for (std::uint64_t seed : {1, 2, 3})
        runBuddyDifferential(1000, seed, 3000);
}

TEST(BuddyProperty, MatchesReferenceModelMidSize)
{
    // 2MB blocks with an odd tail below them.
    runBuddyDifferential(16 * 512 + 77, 11, 3000);
}

TEST(BuddyProperty, MatchesReferenceModelWithGigabyteRegions)
{
    // Three order-18 blocks plus an odd tail, so 1GB allocs and
    // allocRegion calls succeed, fail and split.
    runBuddyDifferential(3 * pow2(Order1G) + 777, 21, 1500);
}

namespace
{

/** How runOrderedFrees returns the frames it claimed. */
enum class FreeOrder
{
    Ascending,
    Descending,
    Interleaved, ///< ascending, with random allocations in between
};

/**
 * Claim every frame singly, then free them in pfn order: each free of
 * an ascending sweep merges and empties the cursor word, the pattern a
 * pfn-order memhog sweep makes. The allocator must match the reference
 * model and audit clean (summary bits included) along the way.
 */
void
runOrderedFrees(std::uint64_t frames, FreeOrder order, unsigned audit_every)
{
    BuddyAllocator buddy(frames);
    reference::ReferenceBuddy model(frames);
    std::vector<Pfn> claimed;
    while (auto pfn = buddy.alloc(0)) {
        ASSERT_EQ(pfn, model.alloc(0));
        claimed.push_back(*pfn);
    }
    ASSERT_EQ(claimed.size(), frames);
    if (order == FreeOrder::Descending)
        std::reverse(claimed.begin(), claimed.end());

    Rng rng(frames);
    std::vector<std::pair<Pfn, unsigned>> held;
    auto check = [&](std::size_t step) {
        SCOPED_TRACE("step " + std::to_string(step));
        ASSERT_EQ(buddy.freeFrames(), model.freeFrames());
        for (unsigned o = 0; o <= BuddyAllocator::MaxOrder; o++)
            ASSERT_EQ(buddy.freeBlocksAt(o), model.freeBlocksAt(o)) << o;
        if (step % audit_every != 0)
            return;
        contracts::AuditReport report;
        buddy.audit(report);
        ASSERT_TRUE(report.ok()) << report.summary();
        std::vector<std::pair<Pfn, unsigned>> blocks;
        buddy.forEachFreeBlock([&blocks](Pfn pfn, unsigned o) {
            blocks.emplace_back(pfn, o);
        });
        ASSERT_EQ(blocks, model.freeBlocks());
    };
    for (std::size_t i = 0; i < claimed.size(); i++) {
        buddy.free(claimed[i], 0);
        model.free(claimed[i], 0);
        if (order == FreeOrder::Interleaved && rng.nextBounded(4) == 0) {
            const unsigned o = randomOrder(rng);
            auto got = buddy.alloc(o);
            ASSERT_EQ(got, model.alloc(o)) << "alloc order " << o;
            if (got)
                held.emplace_back(*got, o);
        }
        ASSERT_NO_FATAL_FAILURE(check(i));
    }
    for (auto [pfn, o] : held) {
        buddy.free(pfn, o);
        model.free(pfn, o);
    }
    ASSERT_NO_FATAL_FAILURE(check(0));
    EXPECT_EQ(buddy.freeFrames(), frames);
}

} // anonymous namespace

TEST(BuddyProperty, PfnOrderFreesMatchReferenceModel)
{
    // Sizes whose order-0 summary spans one word, several words, and
    // several words with a ragged tail.
    for (FreeOrder order : {FreeOrder::Ascending, FreeOrder::Descending,
                            FreeOrder::Interleaved}) {
        SCOPED_TRACE(static_cast<int>(order));
        runOrderedFrees(1000, order, 1);
        runOrderedFrees(16 * 512 + 77, order, 7);
        runOrderedFrees(40 * 512 + 333, order, 97);
    }
}

TEST(BuddyDeathTest, MisalignedFreePanics)
{
    BuddyAllocator buddy(1 << 12);
    EXPECT_DEATH(buddy.free(1, Order2M), "misaligned");
}

TEST(PhysMem, AllocTagAndFree)
{
    PhysMem mem(64 * MiB);
    auto pfn = mem.allocFrames(Order2M, FrameUse::AppHuge);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(mem.frameUse(*pfn), FrameUse::AppHuge);
    EXPECT_EQ(mem.frameUse(*pfn + 511), FrameUse::AppHuge);
    mem.freeFrames(*pfn, Order2M);
    EXPECT_EQ(mem.frameUse(*pfn), FrameUse::Free);
}

TEST(PhysMem, ReadWriteWords)
{
    PhysMem mem(16 * MiB);
    auto pfn = mem.allocFrames(0, FrameUse::PageTable);
    ASSERT_TRUE(pfn.has_value());
    PAddr base = *pfn << PageShift4K;
    EXPECT_EQ(mem.read64(base), 0u);
    mem.write64(base + 8, 0xdeadbeefcafeULL);
    EXPECT_EQ(mem.read64(base + 8), 0xdeadbeefcafeULL);
    EXPECT_EQ(mem.read64(base), 0u);
    // Freeing wipes backing data.
    mem.freeFrames(*pfn, 0);
    EXPECT_EQ(mem.read64(base + 8), 0u);
}

TEST(PhysMem, ReallocatedFrameReadsZero)
{
    PhysMem mem(16 * MiB);
    auto kept = mem.allocFrames(0, FrameUse::PageTable);
    auto pfn = mem.allocFrames(0, FrameUse::PageTable);
    ASSERT_TRUE(kept && pfn);
    const PAddr kept_base = *kept << PageShift4K;
    const PAddr base = *pfn << PageShift4K;
    mem.write64(kept_base + 16, 0x1111);
    for (PAddr off = 0; off < PageBytes4K; off += 8)
        mem.write64(base + off, 0xabcd0000 + off);
    mem.freeFrames(*pfn, 0);
    // Lowest-address-first hands the same frame straight back; neither
    // a read nor a first write may see its old words.
    auto again = mem.allocFrames(0, FrameUse::PageTable);
    ASSERT_EQ(again, pfn);
    EXPECT_EQ(mem.read64(base + 8), 0u);
    mem.write64(base, 7);
    EXPECT_EQ(mem.read64(base), 7u);
    for (PAddr off = 8; off < PageBytes4K; off += 8)
        ASSERT_EQ(mem.read64(base + off), 0u) << off;
    EXPECT_EQ(mem.read64(kept_base + 16), 0x1111u);
    contracts::AuditReport report;
    mem.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PhysMem, FreeingABlockReleasesEveryWrittenFrame)
{
    PhysMem mem(16 * MiB);
    auto block = mem.allocFrames(3, FrameUse::PageTable);
    ASSERT_TRUE(block);
    for (std::uint64_t i = 0; i < 8; i += 2)
        mem.write64((*block + i) << PageShift4K, i + 1);
    mem.freeFrames(*block, 3);
    contracts::AuditReport report;
    mem.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    // The released buffers come back zeroed, to any frame.
    auto other = mem.allocFrames(0, FrameUse::PageTable);
    ASSERT_TRUE(other);
    for (std::uint64_t i = 0; i < 8; i++)
        EXPECT_EQ(mem.read64((*block + i) << PageShift4K), 0u) << i;
    mem.write64(*other << PageShift4K, 5);
    EXPECT_EQ(mem.read64((*other << PageShift4K) + 8), 0u);
}

TEST(PhysMemDeathTest, UnalignedAccessPanics)
{
    PhysMem mem(16 * MiB);
    EXPECT_DEATH(mem.read64(3), "unaligned");
}
