/**
 * @file
 * Unit and behavioural tests for src/os: the memory manager with
 * compaction, memhog, process page-size policies, and the Sec. 7.1
 * scanners. These tests pin down the *emergent* properties the paper
 * depends on: superpage formation under fragmentation, and virtual+
 * physical superpage contiguity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "os/memhog.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "os/scan.hh"

using namespace mixtlb;
using namespace mixtlb::os;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

struct OsFixture : ::testing::Test
{
    mem::PhysMem mem{1 * GiB};
    stats::StatGroup root{"test"};
    MemoryManager mm{mem, &root};
};

/** A movable owner that records the relocations it is told about. */
struct RecordingOwner : MovableOwner
{
    std::vector<std::pair<Pfn, Pfn>> moves;

    void
    relocate(std::uint64_t, Pfn from, Pfn to) override
    {
        moves.emplace_back(from, to);
    }
};

ProcessParams
thpParams()
{
    ProcessParams params;
    params.policy = PagePolicy::Thp;
    return params;
}

} // anonymous namespace

TEST_F(OsFixture, DirectContiguousAllocation)
{
    auto pfn = mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge,
                                  false);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn % 512, 0u);
    EXPECT_EQ(root.scalar("mm.direct_allocs").value(), 1.0);
}

TEST_F(OsFixture, CompactionRescuesFragmentedMemory)
{
    // Scatter movable single-frame allocations over the whole memory so
    // no free 2MB block survives, then ask for a 2MB block.
    Memhog hog(mm, 0.0);
    hog.fragment(0.5, 7);
    ASSERT_EQ(mem.buddy().freeBlocksAt(mem::Order2M), 0u);
    std::uint64_t big_free = 0;
    for (unsigned o = mem::Order2M; o <= mem::BuddyAllocator::MaxOrder; o++)
        big_free += mem.buddy().freeBlocksAt(o);
    ASSERT_EQ(big_free, 0u);

    auto without = mm.allocContiguous(mem::Order2M,
                                      mem::FrameUse::AppHuge, false);
    EXPECT_FALSE(without.has_value());

    auto with = mm.allocContiguous(mem::Order2M,
                                   mem::FrameUse::AppHuge, true);
    ASSERT_TRUE(with.has_value());
    EXPECT_GT(root.scalar("mm.pages_migrated").value(), 0.0);
    for (int i = 0; i < 512; i++)
        EXPECT_EQ(mem.frameUse(*with + i), mem::FrameUse::AppHuge);
}

TEST_F(OsFixture, CompactionRespectsUnmovableFrames)
{
    // Pin one unmovable frame in every 2MB region: compaction must fail.
    std::uint64_t regions = mem.totalFrames() >> mem::Order2M;
    for (std::uint64_t r = 0; r < regions; r++) {
        ASSERT_TRUE(mem.allocFramesAt((r << mem::Order2M) + 7, 0,
                                      mem::FrameUse::Pinned));
    }
    auto pfn = mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge,
                                  true);
    EXPECT_FALSE(pfn.has_value());
    EXPECT_EQ(root.scalar("mm.compaction_successes").value(), 0.0);
}

TEST_F(OsFixture, DeferredCompactionBacksOff)
{
    std::uint64_t regions = mem.totalFrames() >> mem::Order2M;
    for (std::uint64_t r = 0; r < regions; r++) {
        ASSERT_TRUE(mem.allocFramesAt((r << mem::Order2M) + 7, 0,
                                      mem::FrameUse::Pinned));
    }
    for (int i = 0; i < 10; i++)
        mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge, true);
    // Backoff means far fewer scans than requests.
    EXPECT_LT(root.scalar("mm.compaction_attempts").value(), 6.0);
    EXPECT_GT(root.scalar("mm.compaction_deferred").value(), 4.0);
}

TEST_F(OsFixture, SuccessiveCompactionsYieldAdjacentRegions)
{
    // The compaction cursor makes consecutive successes adjacent — the
    // physical-contiguity mechanism behind Figure 11.
    Memhog hog(mm, 0.0);
    hog.fragment(0.3, 11);
    std::optional<Pfn> prev;
    int adjacent = 0, total = 0;
    for (int i = 0; i < 16; i++) {
        auto pfn = mm.allocContiguous(mem::Order2M,
                                      mem::FrameUse::AppHuge, true);
        ASSERT_TRUE(pfn.has_value());
        if (prev) {
            total++;
            if (*pfn == *prev + 512)
                adjacent++;
        }
        prev = pfn;
    }
    EXPECT_GT(adjacent, total / 2);
}

TEST_F(OsFixture, MemhogRelocateKeepsRegistryConsistent)
{
    Memhog hog(mm, 0.0);
    hog.fragment(0.5, 3);
    auto moved_before = root.scalar("mm.pages_migrated").value();
    auto pfn = mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge,
                                  true);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_GT(root.scalar("mm.pages_migrated").value(), moved_before);
    // Releasing after migration must not panic or double free.
    hog.release();
    mem.freeFrames(*pfn, mem::Order2M);
    EXPECT_EQ(mem.buddy().freeFrames(), mem.totalFrames());
}

TEST_F(OsFixture, MovableRegistryReregistersAndAuditsClean)
{
    RecordingOwner first, second;
    auto pfn = mem.allocFrames(0, mem::FrameUse::AppSmall);
    ASSERT_TRUE(pfn);
    EXPECT_FALSE(mm.isMovable(*pfn));
    mm.registerMovable(*pfn, &first, 1);
    EXPECT_TRUE(mm.isMovable(*pfn));
    mm.unregisterMovable(*pfn);
    EXPECT_FALSE(mm.isMovable(*pfn));
    // A frame can be registered again, under another owner.
    mm.registerMovable(*pfn, &second, 2);
    EXPECT_TRUE(mm.isMovable(*pfn));
    // Frames in the same and in other pageblocks stay unregistered.
    EXPECT_FALSE(mm.isMovable(*pfn + 1));
    EXPECT_FALSE(mm.isMovable(mem.totalFrames() - 1));
    contracts::AuditReport report;
    mm.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(OsFixture, MovableRegistryFollowsCompactionToTheNewOwnerEntry)
{
    // Fill the first 2MB pageblock with registered movable frames of a
    // re-registered owner; compaction must migrate them through it.
    RecordingOwner stale, owner;
    std::vector<Pfn> frames;
    for (unsigned i = 0; i < 512; i++) {
        auto pfn = mem.allocFrames(0, mem::FrameUse::AppSmall);
        ASSERT_TRUE(pfn);
        mm.registerMovable(*pfn, &stale, i);
        mm.unregisterMovable(*pfn);
        mm.registerMovable(*pfn, &owner, i);
        frames.push_back(*pfn);
    }
    // Leave no free 2MB block, so the request must compact: hold every
    // other block and pin one frame in each of the rest.
    std::vector<Pfn> blockers;
    while (auto blk = mem.allocFrames(mem::Order2M, mem::FrameUse::Pinned))
        blockers.push_back(*blk);
    for (std::size_t i = 0; i < blockers.size(); i += 2) {
        mem.freeFrames(blockers[i], mem::Order2M);
        ASSERT_TRUE(mem.allocFramesAt(blockers[i] + 7, 0,
                                      mem::FrameUse::Pinned));
    }
    auto got = mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge,
                                  true, false);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, frames.front());
    EXPECT_EQ(owner.moves.size(), 512u);
    EXPECT_TRUE(stale.moves.empty());
    for (auto [from, to] : owner.moves) {
        EXPECT_FALSE(mm.isMovable(from));
        EXPECT_TRUE(mm.isMovable(to));
    }
    contracts::AuditReport report;
    mm.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(OsFixture, MemoryManagerAuditReportsUnregisteredSmallFrame)
{
    auto pfn = mem.allocFrames(0, mem::FrameUse::AppSmall);
    ASSERT_TRUE(pfn);
    contracts::AuditReport report;
    mm.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("not registered movable but tagged "
                                "AppSmall"))
        << report.summary();
}

TEST_F(OsFixture, MemoryManagerAuditReportsRegisteredFrameRetagged)
{
    RecordingOwner owner;
    auto pfn = mem.allocFrames(0, mem::FrameUse::AppSmall);
    ASSERT_TRUE(pfn);
    mm.registerMovable(*pfn, &owner, 0);
    mem.retagFrames(*pfn, 0, mem::FrameUse::Pinned);
    contracts::AuditReport report;
    mm.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.mentions("registered movable but not tagged "
                                "AppSmall"))
        << report.summary();
}

TEST_F(OsFixture, MemhogAndProcessesKeepTheRegistryAudited)
{
    Memhog hog(mm, 0.3);
    hog.fragment(0.5, 5);
    Process proc(mm, thpParams(), &root);
    VAddr base = proc.mmap(128 * MiB);
    for (VAddr va = base; va < base + 128 * MiB; va += PageBytes4K)
        proc.touch(va);
    proc.demoteStorm(4);
    mm.reclaim(256);
    proc.maintain();
    contracts::AuditReport report;
    mm.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(MovableRegistryDeathTest, DoubleRegisterPanics)
{
    mem::PhysMem mem(16 * MiB);
    stats::StatGroup root("test");
    MemoryManager mm(mem, &root);
    RecordingOwner owner;
    mm.registerMovable(5, &owner, 0);
    EXPECT_DEATH(mm.registerMovable(5, &owner, 1),
                 "already registered movable");
}

TEST(MovableRegistryDeathTest, UnregisterUnknownFramePanics)
{
    mem::PhysMem mem(16 * MiB);
    stats::StatGroup root("test");
    MemoryManager mm(mem, &root);
    RecordingOwner owner;
    // Neither a frame in an untouched pageblock nor an unregistered
    // neighbour in a touched one.
    EXPECT_DEATH(mm.unregisterMovable(5), "was not movable");
    mm.registerMovable(5, &owner, 0);
    EXPECT_DEATH(mm.unregisterMovable(6), "was not movable");
    mm.unregisterMovable(5);
    EXPECT_DEATH(mm.unregisterMovable(5), "was not movable");
}

TEST(MemhogDeathTest, RelocateOfAFrameItDoesNotHoldPanics)
{
    mem::PhysMem mem(16 * MiB);
    stats::StatGroup root("test");
    MemoryManager mm(mem, &root);
    Memhog hog(mm, 0.0);
    hog.fragment(0.5, 1);
    Pfn free_pfn = 0;
    while (mem.frameUse(free_pfn) != mem::FrameUse::Free)
        free_pfn++;
    EXPECT_DEATH(hog.relocate(0, free_pfn, free_pfn), "we do not hold");
}

TEST_F(OsFixture, MemhogUnmovableShareClaimsPageblocks)
{
    Memhog hog(mm, 0.5);
    hog.fragment(0.4, 9);
    EXPECT_GT(hog.unmovableBlocks(), 0u);
    EXPECT_GT(hog.movableFrames(), 0u);
    // Unmovable blocks are whole 2MB regions.
    std::uint64_t unmovable_frames = hog.unmovableBlocks() * 512;
    double share = static_cast<double>(unmovable_frames)
                   / (unmovable_frames + hog.movableFrames());
    EXPECT_NEAR(share, 0.5, 0.1);
}

namespace
{

/**
 * Memhog as it was before the pfn bitmap, kept as the reference for
 * MemhogProperty: a tag -> pfn vector, the full Fisher-Yates shuffle,
 * and single-frame frees in shuffle order.
 */
class ReferenceMemhog : public MovableOwner
{
  public:
    ReferenceMemhog(MemoryManager &mm, double unmovable_share)
        : mm_(mm), unmovableShare_(unmovable_share)
    {}

    void
    fragment(double fraction, std::uint64_t seed)
    {
        release();
        if (fraction == 0.0)
            return;
        auto &mem = mm_.phys();
        Rng rng(seed);
        const auto want_total = static_cast<std::uint64_t>(
            fraction * static_cast<double>(mem.totalFrames()));
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
        std::vector<std::pair<Pfn, unsigned>> claimed;
        for (unsigned order = mem::BuddyAllocator::MaxOrder + 1;
             order-- > 0;) {
            while (auto pfn = mem.allocFrames(order, mem::FrameUse::AppSmall))
                claimed.emplace_back(*pfn, order);
        }
        std::vector<Pfn> frames;
        for (auto [base, order] : claimed) {
            for (std::uint64_t i = 0; i < pow2(order); i++)
                frames.push_back(base + i);
        }
        for (std::uint64_t i = frames.size(); i > 1; i--)
            std::swap(frames[i - 1], frames[rng.nextBounded(i)]);
        std::uint64_t want_movable =
            want_total > unmovable_frames ? want_total - unmovable_frames : 0;
        if (want_movable > frames.size())
            want_movable = frames.size();
        movable_.assign(frames.begin(), frames.begin() + want_movable);
        for (std::uint64_t i = want_movable; i < frames.size(); i++)
            mem.freeFrames(frames[i], 0);
        for (std::uint64_t tag = 0; tag < movable_.size(); tag++)
            mm_.registerMovable(movable_[tag], this, tag);
    }

    void
    release()
    {
        auto &mem = mm_.phys();
        for (std::uint64_t tag = 0; tag < movable_.size(); tag++) {
            mm_.unregisterMovable(movable_[tag]);
            mem.freeFrames(movable_[tag], 0);
        }
        movable_.clear();
        for (Pfn block : unmovable_)
            mem.freeFrames(block, mem::Order2M);
        unmovable_.clear();
    }

    void
    relocate(std::uint64_t tag, Pfn from, Pfn to) override
    {
        ASSERT_LT(tag, movable_.size());
        ASSERT_EQ(movable_[tag], from);
        movable_[tag] = to;
    }

    std::uint64_t movableFrames() const { return movable_.size(); }

  private:
    MemoryManager &mm_;
    double unmovableShare_;
    std::vector<Pfn> movable_;
    std::vector<Pfn> unmovable_;
};

/** One memory with its manager, as a machine builds them. */
struct MemhogWorld
{
    explicit MemhogWorld(std::uint64_t bytes) : mem(bytes) {}

    mem::PhysMem mem;
    stats::StatGroup root{"test"};
    MemoryManager mm{mem, &root};
};

/**
 * Where the two worlds first differ in the state the model reads:
 * the free lists, every frame's use, and registry membership. Empty
 * when they agree.
 */
std::string
firstDifference(const MemhogWorld &a, const MemhogWorld &b)
{
    std::vector<std::pair<Pfn, unsigned>> blocks_a, blocks_b;
    a.mem.buddy().forEachFreeBlock(
        [&](Pfn pfn, unsigned o) { blocks_a.emplace_back(pfn, o); });
    b.mem.buddy().forEachFreeBlock(
        [&](Pfn pfn, unsigned o) { blocks_b.emplace_back(pfn, o); });
    if (blocks_a != blocks_b)
        return "free blocks differ";
    for (Pfn pfn = 0; pfn < a.mem.totalFrames(); pfn++) {
        if (a.mem.frameUse(pfn) != b.mem.frameUse(pfn))
            return "frame use differs at pfn " + std::to_string(pfn);
        if (a.mm.isMovable(pfn) != b.mm.isMovable(pfn))
            return "registry differs at pfn " + std::to_string(pfn);
    }
    return "";
}

} // anonymous namespace

TEST(MemhogProperty, FragmentMatchesFullShuffleReference)
{
    // Ragged and power-of-two memories; fractions from none to all of
    // memory; with and without unmovable pageblocks.
    for (std::uint64_t bytes : {16 * MiB + 20 * 1024, 96 * MiB, 512 * MiB}) {
        for (double fraction : {0.0, 0.3, 0.6, 1.0}) {
            for (double unmovable : {0.0, 0.2, 0.5}) {
                for (std::uint64_t seed : {1, 42}) {
                    SCOPED_TRACE(std::to_string(bytes) + " B, fraction " +
                                 std::to_string(fraction) + ", unmovable " +
                                 std::to_string(unmovable) + ", seed " +
                                 std::to_string(seed));
                    MemhogWorld fast(bytes), slow(bytes);
                    Memhog hog(fast.mm, unmovable);
                    ReferenceMemhog reference(slow.mm, unmovable);
                    hog.fragment(fraction, seed);
                    reference.fragment(fraction, seed);
                    ASSERT_EQ(hog.movableFrames(), reference.movableFrames());
                    ASSERT_EQ(firstDifference(fast, slow), "");

                    // Compaction migrates memhog frames through relocate.
                    for (int i = 0; i < 8; i++) {
                        ASSERT_EQ(fast.mm.allocContiguous(
                                      mem::Order2M, mem::FrameUse::AppHuge,
                                      true),
                                  slow.mm.allocContiguous(
                                      mem::Order2M, mem::FrameUse::AppHuge,
                                      true))
                            << "compaction " << i;
                    }
                    ASSERT_EQ(fast.root.scalar("mm.pages_migrated").value(),
                              slow.root.scalar("mm.pages_migrated").value());
                    ASSERT_EQ(firstDifference(fast, slow), "");

                    hog.release();
                    reference.release();
                    EXPECT_EQ(hog.movableFrames(), 0u);
                    ASSERT_EQ(firstDifference(fast, slow), "");
                    contracts::AuditReport report;
                    fast.mem.audit(report);
                    fast.mm.audit(report);
                    EXPECT_TRUE(report.ok()) << report.summary();
                }
            }
        }
    }
}

TEST_F(OsFixture, ProcessSmallOnlyPolicy)
{
    ProcessParams params;
    params.policy = PagePolicy::SmallOnly;
    Process proc(mm, params, &root);
    VAddr base = proc.mmap(16 * MiB);

    EXPECT_EQ(proc.touch(base), TouchResult::Faulted);
    EXPECT_EQ(proc.touch(base), TouchResult::Mapped);
    EXPECT_EQ(proc.touch(base + 5), TouchResult::Mapped);
    EXPECT_EQ(proc.touch(base + PageBytes4K), TouchResult::Faulted);

    auto dist = scanDistribution(proc.pageTable());
    EXPECT_EQ(dist.bytes4k, 2 * PageBytes4K);
    EXPECT_EQ(dist.bytes2m, 0u);
}

TEST_F(OsFixture, ProcessThpMapsWholeRegions)
{
    Process proc(mm, thpParams(), &root);
    VAddr base = proc.mmap(16 * MiB);
    EXPECT_EQ(proc.touch(base + 12345), TouchResult::Faulted);
    // The whole 2MB region is now backed.
    EXPECT_EQ(proc.touch(base + PageBytes2M - 1), TouchResult::Mapped);
    auto dist = scanDistribution(proc.pageTable());
    EXPECT_EQ(dist.bytes2m, PageBytes2M);
    EXPECT_EQ(dist.bytes4k, 0u);
}

TEST_F(OsFixture, ProcessThpFallsBackWhenMemoryFragmented)
{
    // Scattered movable pins leave no free 2MB block; with defrag
    // disabled (a real THS configuration) every fault takes 4KB pages.
    Memhog hog(mm, 0.0);
    hog.fragment(0.5, 5);
    ProcessParams params = thpParams();
    params.thpDefrag = false;
    Process proc(mm, params, &root);
    VAddr base = proc.mmap(8 * MiB);
    for (VAddr va = base; va < base + 4 * MiB; va += PageBytes4K) {
        auto result = proc.touch(va);
        ASSERT_NE(result, TouchResult::OutOfMemory);
    }
    auto dist = scanDistribution(proc.pageTable());
    EXPECT_EQ(dist.bytes2m, 0u);
    EXPECT_EQ(dist.bytes4k, 4 * MiB);
    EXPECT_GT(root.scalar("proc.thp_fallbacks").value(), 0.0);
}

TEST_F(OsFixture, ProcessHuge2MPoolPolicy)
{
    ProcessParams params;
    params.policy = PagePolicy::Huge2M;
    params.pool2mPages = 4;
    Process proc(mm, params, &root);
    VAddr base = proc.mmap(16 * MiB);
    // First 4 regions come from the pool; the rest fall back to 4KB.
    for (VAddr va = base; va < base + 16 * MiB; va += PageBytes2M)
        proc.touch(va);
    auto dist = scanDistribution(proc.pageTable());
    EXPECT_EQ(dist.bytes2m, 4 * PageBytes2M);
    EXPECT_EQ(dist.bytes4k, 4 * PageBytes4K);
}

TEST_F(OsFixture, ProcessHuge1GPoolPolicy)
{
    // 1GB of memory can't fit a 1GB page plus page tables; use a
    // bigger machine for this test.
    mem::PhysMem big_mem{4 * GiB};
    MemoryManager big_mm{big_mem, &root};
    ProcessParams params;
    params.policy = PagePolicy::Huge1G;
    params.pool1gPages = 2;
    Process proc(big_mm, params, &root);
    VAddr base = proc.mmap(2 * GiB);
    proc.touch(base);
    proc.touch(base + 1 * GiB);
    auto dist = scanDistribution(proc.pageTable());
    EXPECT_EQ(dist.bytes1g, 2 * GiB);
}

TEST_F(OsFixture, ThpSuperpagesAreContiguous)
{
    // Ascending faults + lowest-address-first buddy = long runs of
    // virtually and physically contiguous superpages (Figure 11).
    Process proc(mm, thpParams(), &root);
    VAddr base = proc.mmap(256 * MiB);
    for (VAddr va = base; va < base + 128 * MiB; va += PageBytes2M)
        proc.touch(va);
    auto runs = contiguityRuns(proc.pageTable(), PageSize::Size2M);
    ASSERT_FALSE(runs.empty());
    EXPECT_GE(averageContiguity(runs), 32.0);
}

TEST_F(OsFixture, MigrationInvalidatesAndRemaps)
{
    // memhog scatters movable pins everywhere, so the process's pages
    // land interleaved with them and no free 2MB block survives.
    Memhog hog(mm, 0.0);
    hog.fragment(0.5, 21);
    ProcessParams params;
    params.policy = PagePolicy::SmallOnly;
    Process proc(mm, params, &root);
    VAddr base = proc.mmap(64 * MiB);
    for (VAddr va = base; va < base + 32 * MiB; va += PageBytes4K)
        proc.touch(va);

    unsigned invalidations = 0;
    proc.addInvalidateListener([&](VAddr, PageSize) { invalidations++; });

    auto before = scanDistribution(proc.pageTable());
    auto pfn = mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge,
                                  true);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_GT(invalidations, 0u);
    // Translation count unchanged; every page still translates.
    auto after = scanDistribution(proc.pageTable());
    EXPECT_EQ(before.bytes4k, after.bytes4k);
    for (VAddr va = base; va < base + 32 * MiB; va += PageBytes4K)
        EXPECT_EQ(proc.touch(va), TouchResult::Mapped);
}

TEST_F(OsFixture, OutOfMemoryIsReported)
{
    ProcessParams params;
    params.policy = PagePolicy::SmallOnly;
    Process proc(mm, params, &root);
    // 1GB machine: touching >1GB of pages must eventually OOM.
    VAddr base = proc.mmap(2 * GiB);
    TouchResult last = TouchResult::Faulted;
    for (VAddr va = base; va < base + 2 * GiB; va += PageBytes4K) {
        last = proc.touch(va);
        if (last == TouchResult::OutOfMemory)
            break;
    }
    EXPECT_EQ(last, TouchResult::OutOfMemory);
}

TEST_F(OsFixture, ProcessTeardownFreesEverything)
{
    auto free_before = mem.buddy().freeFrames();
    {
        Process proc(mm, thpParams(), &root);
        VAddr base = proc.mmap(64 * MiB);
        for (VAddr va = base; va < base + 32 * MiB; va += PageBytes4K)
            proc.touch(va);
        EXPECT_LT(mem.buddy().freeFrames(), free_before);
    }
    EXPECT_EQ(mem.buddy().freeFrames(), free_before);
}

TEST(Scan, AverageContiguityPaperExample)
{
    // Sec. 7.1: runs {1, 1, 2} over 4 translations -> 1.5.
    EXPECT_DOUBLE_EQ(averageContiguity({1, 1, 2}), 1.5);
    EXPECT_DOUBLE_EQ(averageContiguity({}), 0.0);
    EXPECT_DOUBLE_EQ(averageContiguity({5}), 5.0);
}

TEST(Scan, ContiguityCdf)
{
    auto cdf = contiguityCdf({1, 1, 2});
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_EQ(cdf[0].first, 1u);
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.5);
    EXPECT_EQ(cdf[1].first, 2u);
    EXPECT_DOUBLE_EQ(cdf[1].second, 1.0);
}

TEST(Scan, ContiguityRunsSplitOnPhysicalGaps)
{
    mem::PhysMem mem{1 * GiB};
    pt::PageTable table{mem};
    // VA-contiguous but PA-gap between the 2nd and 3rd superpage.
    table.map(0x40000000, 0x00000000, PageSize::Size2M);
    table.map(0x40200000, 0x00200000, PageSize::Size2M);
    table.map(0x40400000, 0x00800000, PageSize::Size2M); // PA jump
    table.map(0x40600000, 0x00a00000, PageSize::Size2M);
    auto runs = contiguityRuns(table, PageSize::Size2M);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], 2u);
    EXPECT_EQ(runs[1], 2u);
}

TEST(Scan, ContiguityRunsIgnoreOtherSizes)
{
    mem::PhysMem mem{1 * GiB};
    pt::PageTable table{mem};
    table.map(0x40000000, 0x00000000, PageSize::Size2M);
    table.map(0x40200000 + 0x1000, 0, PageSize::Size4K); // unrelated
    auto runs2m = contiguityRuns(table, PageSize::Size2M);
    ASSERT_EQ(runs2m.size(), 1u);
    EXPECT_EQ(runs2m[0], 1u);
}

// --- Memory-pressure lifecycle: demotion, reclaim, re-promotion -----

TEST_F(OsFixture, DemoteStormSplitsInPlaceWithOneShootdown)
{
    Process proc(mm, thpParams(), &root);
    VAddr base = proc.mmap(16 * MiB);
    for (VAddr va = base; va < base + 8 * MiB; va += PageBytes2M)
        proc.touch(va);
    auto before = scanDistribution(proc.pageTable());
    ASSERT_EQ(before.bytes2m, 8 * MiB);
    auto x0 = proc.pageTable().translate(base + 0x3456);
    ASSERT_TRUE(x0.has_value());
    const PAddr pa0 = x0->translate(base + 0x3456);

    std::vector<std::pair<VAddr, PageSize>> shots;
    proc.addInvalidateListener([&](VAddr va, PageSize s) {
        shots.emplace_back(va, s);
    });

    EXPECT_EQ(proc.demoteStorm(1), 1u);

    // One precise superpage-sized shootdown, lowest region first.
    ASSERT_EQ(shots.size(), 1u);
    EXPECT_EQ(shots[0].first, base);
    EXPECT_EQ(shots[0].second, PageSize::Size2M);
    EXPECT_EQ(proc.demotedRegions(), 1u);
    EXPECT_EQ(root.value("proc.demotions"), 1.0);

    // In-place split: same bytes resident, same physical frames.
    auto after = scanDistribution(proc.pageTable());
    EXPECT_EQ(after.bytes2m, 6 * MiB);
    EXPECT_EQ(after.bytes4k, 2 * MiB);
    auto x1 = proc.pageTable().translate(base + 0x3456);
    ASSERT_TRUE(x1.has_value());
    EXPECT_EQ(x1->size, PageSize::Size4K);
    EXPECT_EQ(x1->translate(base + 0x3456), pa0);

    contracts::AuditReport report;
    proc.audit(report);
    EXPECT_TRUE(report.violations().empty());
}

TEST_F(OsFixture, DemoteStorm1gSplitsInto2mChildren)
{
    mem::PhysMem big_mem{4 * GiB};
    MemoryManager big_mm{big_mem, &root};
    ProcessParams params;
    params.policy = PagePolicy::Huge1G;
    params.pool1gPages = 1;
    Process proc(big_mm, params, &root);
    VAddr base = proc.mmap(1 * GiB);
    ASSERT_EQ(proc.touch(base), TouchResult::Faulted);
    auto x0 = proc.pageTable().translate(base + 123 * MiB);
    ASSERT_TRUE(x0.has_value());
    const PAddr pa0 = x0->translate(base + 123 * MiB);

    std::vector<std::pair<VAddr, PageSize>> shots;
    proc.addInvalidateListener([&](VAddr va, PageSize s) {
        shots.emplace_back(va, s);
    });

    // 1GB -> 512 x 2MB, one 1GB-sized shootdown.
    EXPECT_EQ(proc.demoteStorm(1), 1u);
    ASSERT_EQ(shots.size(), 1u);
    EXPECT_EQ(shots[0], (std::pair<VAddr, PageSize>{
                            base, PageSize::Size1G}));
    auto dist = scanDistribution(proc.pageTable());
    EXPECT_EQ(dist.bytes1g, 0u);
    EXPECT_EQ(dist.bytes2m, 1 * GiB);
    auto x1 = proc.pageTable().translate(base + 123 * MiB);
    ASSERT_TRUE(x1.has_value());
    EXPECT_EQ(x1->translate(base + 123 * MiB), pa0);

    // A second storm picks the lowest 2MB child next.
    EXPECT_EQ(proc.demoteStorm(1), 1u);
    ASSERT_EQ(shots.size(), 2u);
    EXPECT_EQ(shots[1], (std::pair<VAddr, PageSize>{
                            base, PageSize::Size2M}));
    EXPECT_EQ(proc.demotedRegions(), 1u);

    contracts::AuditReport report;
    proc.audit(report);
    EXPECT_TRUE(report.violations().empty());
}

TEST_F(OsFixture, MaintainRepromotesInPlaceWhenPressureFades)
{
    Process proc(mm, thpParams(), &root);
    VAddr base = proc.mmap(16 * MiB);
    proc.touch(base);
    auto x0 = proc.pageTable().translate(base + 0x1000);
    ASSERT_TRUE(x0.has_value());
    const PAddr pa0 = x0->translate(base + 0x1000);

    ASSERT_EQ(proc.demoteStorm(1), 1u);
    ASSERT_EQ(proc.demotedRegions(), 1u);

    // Memory is nearly all free, so the pressure gate passes; the
    // storm armed an exponential deferral, so a few idle maintenance
    // ticks pass first.
    for (int i = 0; i < 20 && proc.demotedRegions() > 0; i++)
        proc.maintain();

    EXPECT_EQ(proc.demotedRegions(), 0u);
    EXPECT_EQ(root.value("proc.repromotions"), 1.0);
    // The frames never moved, so the rebuilt 2MB leaf translates
    // bit-identically.
    auto x1 = proc.pageTable().translate(base + 0x1000);
    ASSERT_TRUE(x1.has_value());
    EXPECT_EQ(x1->size, PageSize::Size2M);
    EXPECT_EQ(x1->translate(base + 0x1000), pa0);

    contracts::AuditReport report;
    proc.audit(report);
    EXPECT_TRUE(report.violations().empty());
}

TEST_F(OsFixture, ReclaimAbandonsReservationSlackWithoutShootdowns)
{
    ProcessParams params;
    params.policy = PagePolicy::Reservation;
    Process proc(mm, params, &root);
    VAddr base = proc.mmap(16 * MiB);
    // Two partially built reservations, each pinning a full 2MB block:
    // one page in the first region, three in the second.
    proc.touch(base);
    for (int i = 0; i < 3; i++)
        proc.touch(base + PageBytes2M + i * PageBytes4K);
    auto x0 = proc.pageTable().translate(base);
    ASSERT_TRUE(x0.has_value());
    const PAddr pa0 = x0->translate(base);

    unsigned shots = 0;
    proc.addInvalidateListener([&](VAddr, PageSize) { shots++; });
    const auto free_before = mem.buddy().freeFrames();

    // Asking for less than one reservation's slack abandons exactly
    // the most-untouched one (511 free slots beat 509).
    const std::uint64_t freed = proc.reclaimMemory(100);
    EXPECT_EQ(freed, 511u);
    EXPECT_EQ(mem.buddy().freeFrames(), free_before + 511);
    // Touched slots keep their exact translation: no shootdown fires.
    EXPECT_EQ(shots, 0u);
    auto x1 = proc.pageTable().translate(base);
    ASSERT_TRUE(x1.has_value());
    EXPECT_EQ(x1->translate(base), pa0);
    EXPECT_EQ(proc.touch(base), TouchResult::Mapped);
    EXPECT_EQ(root.value("proc.reclaims"), 511.0);

    contracts::AuditReport report;
    proc.audit(report);
    EXPECT_TRUE(report.violations().empty());
}

TEST_F(OsFixture, AuditReportsFourKLeavesNoRecordAccountsFor)
{
    Process proc(mm, thpParams(), &root);
    VAddr base = proc.mmap(16 * MiB);
    ASSERT_EQ(proc.touch(base), TouchResult::Faulted);
    contracts::AuditReport clean;
    proc.audit(clean);
    ASSERT_TRUE(clean.violations().empty()) << clean.summary();

    // A 4KB leaf mapped behind the OS's back in a fresh region of the
    // VMA: no fallback entry and no reservation account for it.
    const VAddr stray = base + 3 * PageBytes2M + 5 * PageBytes4K;
    proc.pageTable().map(stray, 0, PageSize::Size4K);
    contracts::AuditReport report;
    proc.audit(report);
    EXPECT_TRUE(report.mentions("neither a fallback entry nor a "
                                "reservation"))
        << report.summary();
}

TEST(OsLifecycle, TouchNeverOomsWhileSuperpagesAreDemotable)
{
    // The tentpole property: on a 256MB machine, sequentially touching
    // far more VA than physical memory must degrade (demote, reclaim
    // cold pages, refault) but never report OutOfMemory — demotable
    // superpages and cold demoted pages are always reclaimable slack.
    mem::PhysMem mem{256 * MiB};
    stats::StatGroup root{"test"};
    MemoryManager mm{mem, &root};
    ProcessParams params;
    params.policy = PagePolicy::Thp;
    Process proc(mm, params, &root);
    VAddr base = proc.mmap(1 * GiB);
    for (VAddr va = base; va < base + 384 * MiB; va += PageBytes4K) {
        ASSERT_NE(proc.touch(va), TouchResult::OutOfMemory)
            << "OOM at offset " << (va - base);
    }
    // The run overcommitted memory 1.5x, so the lifecycle must have
    // both demoted superpages and reclaimed cold pages.
    EXPECT_GT(root.value("proc.demotions"), 0.0);
    EXPECT_GT(root.value("proc.reclaims"), 0.0);

    contracts::AuditReport report;
    proc.audit(report);
    EXPECT_TRUE(report.violations().empty());
}

namespace
{

/** FNV-1a over little-endian 64-bit words: the lifecycle trace digest. */
struct TraceHash
{
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; i++) {
            value ^= (word >> (8 * i)) & 0xff;
            value *= 0x100000001b3ULL;
        }
    }
};

/**
 * Drive one process through a seeded sequence of lifecycle operations
 * and digest everything the lifecycle decides: every shootdown
 * (vbase, size) in firing order, every reclaim's return, and after
 * each operation every leaf (vbase, pbase, size), the resident bytes
 * per size, the demoted-region count and the lifecycle counters. The
 * process is audited after every operation.
 */
std::uint64_t
lifecycleTraceHash(PagePolicy policy, std::uint64_t mem_bytes,
                   std::uint64_t vma_bytes, double hog_fraction,
                   std::uint64_t seed)
{
    mem::PhysMem mem{mem_bytes};
    stats::StatGroup root{"test"};
    MemoryManager mm{mem, &root};
    Memhog hog(mm, 0.0);
    hog.fragment(hog_fraction, seed);
    ProcessParams params;
    params.policy = policy;
    params.pool1gPages = policy == PagePolicy::Huge1G ? 1 : 0;
    Process proc(mm, params, &root);

    TraceHash trace;
    proc.addInvalidateListener([&](VAddr va, PageSize size) {
        trace.add(va);
        trace.add(static_cast<std::uint64_t>(size));
    });
    const VAddr base = proc.mmap(vma_bytes);
    const std::uint64_t pages = vma_bytes / PageBytes4K;
    std::vector<VAddr> touched;
    Rng rng(seed);

    static const std::uint64_t wants[] = {1, 64, 400, 1000, 3000};
    for (int op = 0; op < 160; op++) {
        const std::uint64_t kind = rng.nextBounded(8);
        trace.add(kind);
        switch (kind) {
          case 0: {
            // Touch single pages in scattered regions: reservations
            // with equal touched counts, so reclaim must break ties.
            for (int i = 0; i < 8; i++) {
                const VAddr va = base + rng.nextBounded(pages) * PageBytes4K;
                touched.push_back(va);
                trace.add(static_cast<std::uint64_t>(proc.touch(va)));
            }
            break;
          }
          case 1: {
            // Touch a run of pages.
            const std::uint64_t first = rng.nextBounded(pages);
            const std::uint64_t count = rng.nextRange(1, 1024);
            const VAddr start = base + first * PageBytes4K;
            touched.push_back(start);
            for (std::uint64_t i = 0; i < count && first + i < pages;
                 i++) {
                trace.add(static_cast<std::uint64_t>(
                    proc.touch(start + i * PageBytes4K)));
            }
            break;
          }
          case 2:
          case 3: {
            // Age a few touched regions: some pages referenced, some
            // written, the rest left cold, so every reclaim pass finds
            // victims.
            if (touched.empty())
                break;
            const VAddr start =
                touched[rng.nextBounded(touched.size())];
            const VAddr region = pageBase(start, PageSize::Size2M);
            const VAddr end = std::min(region + 8 * PageBytes2M,
                                       base + vma_bytes);
            for (VAddr va = region; va < end; va += PageBytes4K) {
                const std::uint64_t draw = rng.nextBounded(8);
                if (draw == 0 || !proc.pageTable().translate(va))
                    continue;
                if (draw >= 6)
                    proc.pageTable().setDirty(va);
                else
                    proc.pageTable().setAccessed(va);
            }
            break;
          }
          case 4:
            trace.add(proc.demoteStorm(rng.nextRange(1, 4)));
            break;
          case 5:
            trace.add(proc.reclaimMemory(wants[rng.nextBounded(5)]));
            break;
          case 6:
          case 7: {
            // Maintenance ticks, under pressure (pinned ballast below
            // the re-promotion threshold) or with pressure faded.
            std::vector<std::pair<Pfn, unsigned>> ballast;
            if (kind == 7) {
                while (mm.freeFraction() >= 0.07) {
                    unsigned order = mem::Order2M;
                    auto pfn = mem.allocFrames(order,
                                               mem::FrameUse::Pinned);
                    if (!pfn) {
                        order = 0;
                        pfn = mem.allocFrames(order,
                                              mem::FrameUse::Pinned);
                    }
                    if (!pfn)
                        break;
                    ballast.emplace_back(*pfn, order);
                }
            }
            const std::uint64_t ticks = rng.nextRange(1, 80);
            for (std::uint64_t i = 0; i < ticks; i++)
                proc.maintain();
            for (auto [pfn, order] : ballast)
                mem.freeFrames(pfn, order);
            break;
          }
        }

        proc.pageTable().forEachLeaf([&](const pt::Translation &leaf) {
            trace.add(leaf.vbase);
            trace.add(leaf.pbase);
            trace.add(static_cast<std::uint64_t>(leaf.size));
        });
        trace.add(proc.residentBytes(PageSize::Size4K));
        trace.add(proc.residentBytes(PageSize::Size2M));
        trace.add(proc.residentBytes(PageSize::Size1G));
        trace.add(proc.demotedRegions());
        for (const char *stat :
             {"proc.demotions", "proc.reclaims", "proc.repromotions",
              "proc.faults_4k", "proc.faults_2m", "proc.faults_1g",
              "proc.migrations", "proc.demote_rescues"}) {
            trace.add(static_cast<std::uint64_t>(root.value(stat)));
        }

        contracts::AuditReport report;
        proc.audit(report);
        EXPECT_TRUE(report.violations().empty())
            << "op " << op << ": " << report.summary();
        if (!report.violations().empty())
            break;
    }
    return trace.value;
}

} // anonymous namespace

TEST(OsLifecycle, SeededTraceMatchesParent)
{
    // Recorded from the per-slot-walk implementation with its
    // map/set-keyed side tables: the victim orders, shootdowns and
    // counters of the lifecycle must not depend on how the OS finds
    // its candidates.
    EXPECT_EQ(lifecycleTraceHash(PagePolicy::Thp, 256 * MiB, 96 * MiB, 0.5,
                                 1),
              0x7078d3f7f8cde941ULL);
    EXPECT_EQ(lifecycleTraceHash(PagePolicy::Reservation, 256 * MiB,
                                 96 * MiB, 0.1, 34),
              0x022fce71dc8a11f9ULL);
    EXPECT_EQ(lifecycleTraceHash(PagePolicy::Huge1G, 2 * GiB, 2 * GiB, 0.1,
                                 10),
              0xd80aa66ae8b06cd0ULL);
}
