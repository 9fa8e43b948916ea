/**
 * @file
 * Tests for the non-MIX TLB designs (the set-associative array as a
 * split component, fully associative and hash-rehash with prediction;
 * skew-associative, COLT components of the MIX array, ideal) and the
 * two-level TLB hierarchy.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/contracts.hh"
#include "common/random.hh"
#include "mem/phys_mem.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "tlb/hierarchy.hh"
#include "tlb/ideal.hh"
#include "tlb/mix.hh"
#include "tlb/set_assoc.hh"
#include "tlb/skew.hh"
#include "tlb/split.hh"
#include "tlb/walk_source.hh"

using namespace mixtlb;
using namespace mixtlb::tlb;

/**
 * Counting global allocator: every heap allocation in this binary
 * bumps the counter, letting tests assert that the TLB lookup hot
 * paths are allocation-free (the PR 4 contract).
 */
static std::atomic<std::uint64_t> g_heapAllocs{0};

static void *
countedAlloc(std::size_t size)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

pt::Translation
xlate4k(VAddr vbase, PAddr pbase)
{
    pt::Translation t;
    t.vbase = vbase;
    t.pbase = pbase;
    t.size = PageSize::Size4K;
    t.accessed = true;
    return t;
}

pt::Translation
xlate2m(VAddr vbase, PAddr pbase)
{
    pt::Translation t;
    t.vbase = vbase;
    t.pbase = pbase;
    t.size = PageSize::Size2M;
    t.accessed = true;
    return t;
}

FillInfo
simpleFill(const pt::Translation &leaf)
{
    FillInfo fill;
    fill.leaf = leaf;
    fill.vaddr = leaf.vbase;
    return fill;
}

} // anonymous namespace

TEST(SetAssoc, HitMissAndLru)
{
    stats::StatGroup root("test");
    SetAssocTlb tlb("t", &root, {8, 2, {PageSize::Size4K}}); // 4 sets
    tlb.fill(simpleFill(xlate4k(0x0000, 0x10000)));
    EXPECT_TRUE(tlb.lookup(0x0123, false).hit);
    EXPECT_FALSE(tlb.lookup(0x1000, false).hit);

    // Three pages mapping to set 0 (vpn 0, 4, 8): LRU evicts vpn 0.
    tlb.fill(simpleFill(xlate4k(0x4000, 0x20000)));
    tlb.fill(simpleFill(xlate4k(0x8000, 0x30000)));
    EXPECT_FALSE(tlb.lookup(0x0000, false).hit);
    EXPECT_TRUE(tlb.lookup(0x4000, false).hit);
    EXPECT_TRUE(tlb.lookup(0x8000, false).hit);
}

TEST(SetAssoc, RejectsOtherPageSizes)
{
    stats::StatGroup root("test");
    SetAssocTlb tlb("t", &root, {8, 2, {PageSize::Size2M}});
    EXPECT_TRUE(tlb.supports(PageSize::Size2M));
    EXPECT_FALSE(tlb.supports(PageSize::Size4K));
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    // Lookup treats the address by its own page size.
    EXPECT_TRUE(tlb.lookup(0x005fffff, false).hit);
}

TEST(SetAssoc, InvalidateAndDirty)
{
    stats::StatGroup root("test");
    SetAssocTlb tlb("t", &root, {8, 2, {PageSize::Size4K}});
    tlb.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    EXPECT_FALSE(tlb.lookup(0x1000, false).entryDirty);
    tlb.markDirty(0x1000);
    EXPECT_TRUE(tlb.lookup(0x1000, false).entryDirty);
    tlb.invalidate(0x1000, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(0x1000, false).hit);
}

TEST(FullyAssoc, MultiSizeAndLru)
{
    // One set (assoc == entries) shared by two page sizes.
    stats::StatGroup root("test");
    SetAssocTlb tlb("t", &root,
                    {2, 2, {PageSize::Size2M, PageSize::Size1G}});
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    pt::Translation big;
    big.vbase = 4 * GiB;
    big.pbase = 1 * GiB;
    big.size = PageSize::Size1G;
    tlb.fill(simpleFill(big));
    EXPECT_TRUE(tlb.lookup(0x00400000, false).hit);
    EXPECT_TRUE(tlb.lookup(4 * GiB + 123, false).hit);
    // Third fill evicts the LRU (the 2MB entry was just touched, so
    // the 1GB entry goes).
    tlb.lookup(0x00400000, false);
    tlb.fill(simpleFill(xlate2m(0x00800000, 0x200000)));
    EXPECT_TRUE(tlb.lookup(0x00400000, false).hit);
    EXPECT_FALSE(tlb.lookup(4 * GiB + 123, false).hit);
}

TEST(Split, RoutesBySizeAndProbesAll)
{
    stats::StatGroup root("test");
    SplitTlb split("split", &root);
    split.addComponent(std::make_unique<SetAssocTlb>(
        "t4k", &root, SetAssocParams{16, 4, {PageSize::Size4K}}));
    split.addComponent(std::make_unique<SetAssocTlb>(
        "t2m", &root, SetAssocParams{8, 4, {PageSize::Size2M}}));
    split.addComponent(std::make_unique<SetAssocTlb>(
        "t1g", &root, SetAssocParams{4, 4, {PageSize::Size1G}}));

    split.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    split.fill(simpleFill(xlate2m(0x00400000, 0x0)));

    auto small = split.lookup(0x1000, false);
    EXPECT_TRUE(small.hit);
    EXPECT_EQ(small.xlate.size, PageSize::Size4K);
    auto big = split.lookup(0x00412345, false);
    EXPECT_TRUE(big.hit);
    EXPECT_EQ(big.xlate.size, PageSize::Size2M);
    // Parallel probe reads all components' ways: 4 + 4 + 4.
    EXPECT_EQ(big.waysRead, 12u);
    EXPECT_TRUE(split.supports(PageSize::Size1G));
}

TEST(Split, SuperpageThrashingDespiteFreeSmallEntries)
{
    // The paper's Figure 3 problem: superpages thrash their tiny TLB
    // while the 4KB TLB sits idle.
    stats::StatGroup root("test");
    SplitTlb split("split", &root);
    split.addComponent(std::make_unique<SetAssocTlb>(
        "t4k", &root, SetAssocParams{64, 4, {PageSize::Size4K}}));
    split.addComponent(std::make_unique<SetAssocTlb>( // 1 set, 4 ways
        "t2m", &root, SetAssocParams{4, 4, {PageSize::Size2M}}));

    for (int i = 0; i < 8; i++)
        split.fill(simpleFill(xlate2m(i * PageBytes2M, i * PageBytes2M)));
    // Only the last 4 superpages survive; the 4KB TLB is empty but
    // cannot help.
    unsigned resident = 0;
    for (int i = 0; i < 8; i++)
        resident += split.lookup(i * PageBytes2M, false).hit ? 1 : 0;
    EXPECT_EQ(resident, 4u);
}

namespace
{

/**
 * A split TLB with 4KB, 2MB and 1GB components holding one page each;
 * the 4KB component is COLT (a one-size MixTlb) when @p colt.
 */
struct ReplaySplit
{
    stats::StatGroup root{"test"};
    SplitTlb split{"split", &root};
    /** The split, then its components. */
    std::vector<const BaseTlb *> tlbs{&split};

    explicit ReplaySplit(bool colt)
    {
        if (colt) {
            add(std::make_unique<MixTlb>(
                "t4k", &root, coltParams(16, 4, PageSize::Size4K)));
        } else {
            add(std::make_unique<SetAssocTlb>(
                "t4k", &root, SetAssocParams{16, 4, {PageSize::Size4K}}));
        }
        add(std::make_unique<SetAssocTlb>(
            "t2m", &root, SetAssocParams{8, 4, {PageSize::Size2M}}));
        add(std::make_unique<SetAssocTlb>(
            "t1g", &root, SetAssocParams{4, 4, {PageSize::Size1G}}));
        split.fill(simpleFill(xlate4k(0x1000, 0x10000)));
        split.fill(simpleFill(xlate2m(0x00400000, 0x0)));
        pt::Translation giga;
        giga.vbase = GiB;
        giga.pbase = 2 * GiB;
        giga.size = PageSize::Size1G;
        giga.accessed = true;
        split.fill(simpleFill(giga));
    }

    void add(std::unique_ptr<BaseTlb> component)
    {
        tlbs.push_back(&split.addComponent(std::move(component)));
    }

    /** Hits, misses, probes and ways read of every TLB in tlbs. */
    std::vector<double>
    counters() const
    {
        std::vector<double> out;
        for (const BaseTlb *tlb : tlbs) {
            out.insert(out.end(), {tlb->hits(), tlb->misses(),
                                   tlb->probeCount(),
                                   tlb->waysReadCount()});
        }
        return out;
    }
};

} // anonymous namespace

TEST(Split, ReplayLookupMatchesRepeatedLookups)
{
    // The L0 filter replays a split lookup from the per-component
    // outcomes the lookup kept; n replays must count exactly what n
    // real lookups count, in the split and in every component.
    constexpr std::uint64_t N = 5;
    const struct
    {
        const char *what;
        VAddr vaddr;
        bool hit;
    } cases[] = {
        {"4KB hit", 0x1008, true},
        {"2MB hit", 0x00412345, true},
        {"1GB hit", GiB + 0x12345678, true},
        {"miss", 8 * GiB + 0x5000, false},
    };
    for (bool colt : {false, true}) {
        for (const auto &c : cases) {
            SCOPED_TRACE(std::string(c.what) + (colt ? " (COLT)" : ""));
            ReplaySplit replayed(colt);
            ReplaySplit real(colt);
            const TlbLookup result = replayed.split.lookup(c.vaddr, false);
            ASSERT_EQ(result.hit, c.hit);
            ASSERT_TRUE(replayed.split.replayable(result, c.vaddr));
            replayed.split.replayLookup(result, N);
            for (std::uint64_t i = 0; i <= N; i++)
                ASSERT_EQ(real.split.lookup(c.vaddr, false).hit, c.hit);
            EXPECT_EQ(replayed.counters(), real.counters());
        }
    }
}

TEST(HashRehash, ProbeCountsAndHits)
{
    stats::StatGroup root("test");
    SetAssocParams params;
    params.entries = 64;
    params.assoc = 4;
    SetAssocTlb tlb("hr", &root, params);

    tlb.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));

    // 4KB page: first probe (4KB first in default order).
    auto small = tlb.lookup(0x1000, false);
    EXPECT_TRUE(small.hit);
    EXPECT_EQ(small.probes, 1u);
    // 2MB page: second probe.
    auto big = tlb.lookup(0x00400000, false);
    EXPECT_TRUE(big.hit);
    EXPECT_EQ(big.probes, 2u);
    // Miss: exhausts all three sizes.
    auto miss = tlb.lookup(0x7000000, false);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.probes, 3u);
}

TEST(HashRehash, PredictorCutsProbes)
{
    stats::StatGroup root("test");
    SetAssocParams params;
    params.entries = 64;
    params.assoc = 4;
    params.usePredictor = true;
    SetAssocTlb tlb("hr", &root, params);

    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    // The fill trained the predictor, so the first probe goes straight
    // to the 2MB index — one probe instead of the fixed-order two.
    auto first = tlb.lookup(0x00400000, false);
    EXPECT_TRUE(first.hit);
    EXPECT_EQ(first.probes, 1u);

    // Re-train the region to 4KB; the next 2MB lookup mispredicts and
    // needs a second probe (the latency-variability problem of
    // Sec. 5.1).
    tlb.fill(simpleFill(xlate4k(0x00410000, 0x20000)));
    auto mispredicted = tlb.lookup(0x00400000, false);
    EXPECT_TRUE(mispredicted.hit);
    EXPECT_EQ(mispredicted.probes, 2u);
    ASSERT_NE(tlb.predictor(), nullptr);
    EXPECT_GT(tlb.predictor()->accuracy(), 0.0);
}

TEST(HashRehash, SizesShareCapacity)
{
    // Unlike split TLBs, one size can use the whole structure.
    stats::StatGroup root("test");
    SetAssocParams params;
    params.entries = 64;
    params.assoc = 4;
    SetAssocTlb tlb("hr", &root, params);
    for (int i = 0; i < 32; i++)
        tlb.fill(simpleFill(xlate2m(i * PageBytes2M, i * PageBytes2M)));
    unsigned resident = 0;
    for (int i = 0; i < 32; i++)
        resident += tlb.lookup(i * PageBytes2M, false).hit ? 1 : 0;
    EXPECT_EQ(resident, 32u);
}

TEST(Skew, AllSizesConcurrently)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    params.setsPerWay = 8;
    SkewTlb tlb("skew", &root, params);

    tlb.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    pt::Translation big;
    big.vbase = 4 * GiB;
    big.pbase = 1 * GiB;
    big.size = PageSize::Size1G;
    tlb.fill(simpleFill(big));

    EXPECT_TRUE(tlb.lookup(0x1000, false).hit);
    EXPECT_TRUE(tlb.lookup(0x00400000, false).hit);
    EXPECT_TRUE(tlb.lookup(4 * GiB + 5, false).hit);
    // Parallel probe reads the sum of all ways (6): the energy problem.
    EXPECT_EQ(tlb.lookup(0x1000, false).waysRead, 6u);
}

TEST(Skew, TimestampReplacementEvictsOldest)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    params.setsPerWay = 4;
    SkewTlb tlb("skew", &root, params);
    // Fill many 4KB pages; with 2 ways x 4 rows = 8 slots, 16 pages
    // must evict; recently used ones survive.
    for (int i = 0; i < 16; i++)
        tlb.fill(simpleFill(xlate4k(i * PageBytes4K, i * PageBytes4K)));
    unsigned survivors = 0;
    for (int i = 0; i < 16; i++)
        survivors += tlb.lookup(i * PageBytes4K, false).hit ? 1 : 0;
    EXPECT_GT(survivors, 0u);
    EXPECT_LE(survivors, 8u);
}

TEST(Skew, PredictorReducesWaysRead)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    params.setsPerWay = 8;
    params.usePredictor = true;
    SkewTlb tlb("skew", &root, params);
    tlb.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    // Predictor defaults to 4KB: first-round probe reads only 2 ways.
    auto result = tlb.lookup(0x1000, false);
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.waysRead, 2u);
    EXPECT_EQ(result.probes, 1u);
}

TEST(Skew, InvalidateWorks)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    SkewTlb tlb("skew", &root, params);
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    tlb.invalidate(0x00400000, PageSize::Size2M);
    EXPECT_FALSE(tlb.lookup(0x00400000, false).hit);
}

TEST(Colt, CoalescesContiguousSmallPages)
{
    // Feed a real walker line with 4 contiguous small pages.
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    stats::StatGroup root("test");
    pt::Walker walker{table, &root};
    for (int i = 0; i < 4; i++) {
        table.map(0x10000 + i * PageBytes4K, 0x800000 + i * PageBytes4K,
                  PageSize::Size4K);
        walker.walk(0x10000 + i * PageBytes4K, false); // set A bits
    }
    MixTlb tlb("colt", &root, coltParams(32, 4, PageSize::Size4K, 4));
    auto walk = walker.walk(0x10000, false);
    FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.vaddr = 0x10000;
    fill.walk = &walk;
    tlb.fill(fill);

    for (int i = 0; i < 4; i++) {
        auto result = tlb.lookup(0x10000 + i * PageBytes4K, false);
        ASSERT_TRUE(result.hit) << i;
        EXPECT_EQ(result.xlate.translate(0x10000 + i * PageBytes4K),
                  0x800000u + i * PageBytes4K);
    }
    EXPECT_EQ(root.value("colt.fills"), 1.0);
    ASSERT_TRUE(tlb.lookup(0x10000, false).bundle.has_value());
    EXPECT_EQ(tlb.lookup(0x10000, false).bundle->count, 4u);
}

TEST(Colt, NonContiguousPagesDoNotCoalesce)
{
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    stats::StatGroup root("test");
    pt::Walker walker{table, &root};
    table.map(0x10000, 0x800000, PageSize::Size4K);
    table.map(0x11000, 0x900000, PageSize::Size4K); // PA gap
    walker.walk(0x11000, false);
    MixTlb tlb("colt", &root, coltParams(32, 4, PageSize::Size4K, 4));
    auto walk = walker.walk(0x10000, false);
    FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.walk = &walk;
    tlb.fill(fill);
    EXPECT_TRUE(tlb.lookup(0x10000, false).hit);
    EXPECT_FALSE(tlb.lookup(0x11000, false).hit);
}

TEST(Colt, SuperpageVariantForColtPlusPlus)
{
    mem::PhysMem mem{1 * GiB};
    pt::PageTable table{mem};
    stats::StatGroup root("test");
    pt::Walker walker{table, &root};
    for (int i = 0; i < 2; i++) {
        table.map(0x00400000 + i * PageBytes2M, i * PageBytes2M,
                  PageSize::Size2M);
        walker.walk(0x00400000 + i * PageBytes2M, false);
    }
    MixTlb tlb("colt2m", &root, coltParams(8, 4, PageSize::Size2M, 2));
    auto walk = walker.walk(0x00400000, false);
    FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.walk = &walk;
    tlb.fill(fill);
    EXPECT_TRUE(tlb.lookup(0x00400000, false).hit);
    EXPECT_TRUE(tlb.lookup(0x00600000, false).hit);
}

TEST(Ideal, HitsEveryMappedPage)
{
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    stats::StatGroup root("test");
    table.map(0x1000, 0x800000, PageSize::Size4K);
    IdealTlb tlb("ideal", &root, table);
    auto result = tlb.lookup(0x1234, false);
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.xlate.translate(0x1234), 0x800234u);
    EXPECT_FALSE(tlb.lookup(0x2000, false).hit);
}

namespace
{

/** An end-to-end hierarchy over a THS process. */
struct HierarchyFixture : ::testing::Test
{
    mem::PhysMem mem{2 * GiB};
    stats::StatGroup root{"test"};
    os::MemoryManager mm{mem, &root};
    os::Process proc;
    cache::CacheHierarchy caches{cache::HierarchyParams{}, &root};
    NativeWalkSource source;

    HierarchyFixture()
        : proc(mm, []{
              os::ProcessParams params;
              params.policy = os::PagePolicy::Thp;
              return params;
          }(), &root),
          source(proc.pageTable(), &root,
                 [this](VAddr va, bool st) {
                     return proc.touch(va, st)
                            != os::TouchResult::OutOfMemory;
                 })
    {}

    std::unique_ptr<TlbHierarchy>
    makeMixHierarchy()
    {
        MixTlbParams l1p;
        l1p.entries = 96;
        l1p.assoc = 6;
        MixTlbParams l2p;
        l2p.entries = 544;
        l2p.assoc = 8;
        l2p.mode = CoalesceMode::Length;
        auto hier = std::make_unique<TlbHierarchy>(
            "mixh", &root,
            std::make_unique<MixTlb>("l1", &root, l1p),
            std::make_shared<MixTlb>("l2", &root, l2p),
            source, caches);
        proc.addInvalidateListener([h = hier.get()](VAddr va, PageSize s) {
            h->invalidatePage(va, s);
        });
        return hier;
    }
};

} // anonymous namespace

TEST_F(HierarchyFixture, FaultThenHitFlow)
{
    auto hier = makeMixHierarchy();
    VAddr base = proc.mmap(64 * MiB);

    auto first = hier->access(base, false);
    EXPECT_TRUE(first.ok);
    EXPECT_TRUE(first.walked);
    EXPECT_TRUE(first.faulted);
    EXPECT_GT(first.cycles, 8u);

    auto second = hier->access(base + 64, false);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(second.cycles, 1u);
    EXPECT_EQ(second.paddr, first.paddr + 64);
}

TEST_F(HierarchyFixture, TranslationsMatchPageTable)
{
    auto hier = makeMixHierarchy();
    VAddr base = proc.mmap(64 * MiB);
    Rng rng(5);
    for (int i = 0; i < 20000; i++) {
        VAddr va = base + rng.nextBounded(32 * MiB);
        auto result = hier->access(va, rng.chance(0.3));
        ASSERT_TRUE(result.ok);
        auto truth = proc.pageTable().translate(va);
        ASSERT_TRUE(truth.has_value());
        ASSERT_EQ(result.paddr, truth->translate(va));
    }
}

TEST_F(HierarchyFixture, L2HitRefillsL1WithBundle)
{
    auto hier = makeMixHierarchy();
    VAddr base = proc.mmap(64 * MiB);
    // Touch a superpage so both levels hold it, then flush L1 only by
    // invalidating... instead: flood L1 with 4KB-conflicting addresses
    // is complex; use invalidateAll on L1 via a fresh access pattern.
    hier->access(base, false);
    hier->l1().invalidateAll();
    auto result = hier->access(base + 8, false);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_FALSE(result.walked);
    // And the L1 got refilled.
    auto again = hier->access(base + 16, false);
    EXPECT_TRUE(again.l1Hit);
}

using HierarchyDeathTest = HierarchyFixture;

// A dirty entry over a clean PTE would skip a store's dirty micro-op:
// the paranoia-2 oracle flags the first hit on it.
TEST_F(HierarchyDeathTest, OracleFlagsDirtyEntryOverCleanPte)
{
    auto hier = makeMixHierarchy();
    const VAddr base = proc.mmap(64 * MiB);
    hier->access(base, false); // a load leaves the PTE clean
    FillInfo lie;
    lie.leaf = *proc.pageTable().translate(base);
    ASSERT_FALSE(lie.leaf.dirty);
    lie.leaf.dirty = true;
    hier->l1().invalidateAll();
    hier->l1().fill(lie);
    EXPECT_EXIT(
        {
            contracts::setParanoia(2);
            hier->access(base + 64, false);
        },
        ::testing::ExitedWithCode(1),
        "dirty but the reference PTE is clean");
}

TEST_F(HierarchyFixture, StoreToCleanEntryIssuesDirtyMicroOp)
{
    auto hier = makeMixHierarchy();
    VAddr base = proc.mmap(64 * MiB);
    hier->access(base, false); // read: walker leaves D clear
    EXPECT_EQ(root.value("mixh.dirty_micro_ops"), 0.0);
    hier->access(base + 4, true); // store to clean entry
    EXPECT_GT(root.value("mixh.dirty_micro_ops"), 0.0);
    EXPECT_TRUE(proc.pageTable().translate(base)->dirty);
}

TEST_F(HierarchyFixture, MigrationShootdownInvalidatesTlbs)
{
    auto hier = makeMixHierarchy();
    // Force 4KB pages so compaction has something to migrate.
    os::ProcessParams params;
    params.policy = os::PagePolicy::SmallOnly;
    params.name = "proc4k";
    os::Process proc4k(mm, params, &root);
    // (The fixture's hierarchy walks the THS process's table; this test
    // exercises listener wiring on the fixture process instead.)
    VAddr base = proc.mmap(64 * MiB);
    hier->access(base, false);
    EXPECT_TRUE(hier->access(base + 4, false).l1Hit);
    // Simulate a shootdown of the superpage backing base.
    auto leaf = proc.pageTable().translate(base);
    hier->invalidatePage(leaf->vbase, leaf->size);
    auto after = hier->access(base + 8, false);
    EXPECT_FALSE(after.l1Hit);
}

TEST_F(HierarchyFixture, WalkCostReflectsCacheHits)
{
    auto hier = makeMixHierarchy();
    VAddr base = proc.mmap(64 * MiB);
    auto first = hier->access(base, false);
    // Cold walk touches memory at least once.
    EXPECT_GT(first.cycles, 100u);
    hier->invalidateAll();
    // Warm walk: PTE lines now cached, much cheaper.
    auto warm = hier->access(base + 32, false);
    EXPECT_TRUE(warm.walked);
    EXPECT_LT(warm.cycles, first.cycles);
}

TEST(Skew, ManyWayConfigsHaveNoShiftOverflow)
{
    // Way indices >= 20 used to shift a 64-bit value by 4 + 3*way
    // >= 64 in the skewing hash — undefined behavior that UBSan traps.
    // Both shapes below reach way 20+; lookups and fills must work.
    const std::array<std::array<unsigned, NumPageSizes>, 2> shapes = {
        {{7, 7, 7}, {21, 1, 1}}};
    for (const auto &shape : shapes) {
        stats::StatGroup root("test");
        SkewTlbParams params;
        params.setsPerWay = 4;
        for (std::size_t s = 0; s < NumPageSizes; s++)
            params.waysPerSize[s] = shape[s];
        SkewTlb tlb("skew", &root, params);
        ASSERT_GE(tlb.numWays(), 21u);

        for (int i = 0; i < 64; i++) {
            tlb.fill(simpleFill(
                xlate4k(i * PageBytes4K, i * PageBytes4K)));
        }
        tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
        unsigned survivors = 0;
        for (int i = 0; i < 64; i++)
            survivors += tlb.lookup(i * PageBytes4K, false).hit;
        // More than one way's worth of pages is resident (the exact
        // count depends on hash conflicts), and the most recent fill
        // never got evicted.
        EXPECT_GT(survivors, 4u);
        EXPECT_LE(survivors, 64u);
        EXPECT_TRUE(tlb.lookup(63 * PageBytes4K, false).hit);
        EXPECT_TRUE(tlb.lookup(0x00400000, false).hit);
        tlb.invalidateAll();
        EXPECT_FALSE(tlb.lookup(0, false).hit);
    }
}

TEST(Skew, TwentyFourPlusWaysSurviveFullExercise)
{
    // The per-way skewing hash derives shift amounts from the way
    // index; at 24+ ways the raw amounts pass 64 and only the
    // masked/guarded forms are defined. Running this under the CI
    // UBSan job is the regression gate for the shift-width fixes.
    const std::array<std::array<unsigned, NumPageSizes>, 2> shapes = {
        {{8, 8, 8}, {25, 2, 2}}};
    for (const auto &shape : shapes) {
        stats::StatGroup root("test");
        SkewTlbParams params;
        params.setsPerWay = 8;
        for (std::size_t s = 0; s < NumPageSizes; s++)
            params.waysPerSize[s] = shape[s];
        SkewTlb tlb("skew", &root, params);
        ASSERT_GE(tlb.numWays(), 24u);

        for (int i = 0; i < 256; i++) {
            tlb.fill(simpleFill(
                xlate4k(i * PageBytes4K, i * PageBytes4K)));
        }
        tlb.fill(simpleFill(xlate2m(0x40000000, 0x200000)));
        unsigned survivors = 0;
        for (int i = 0; i < 256; i++)
            survivors += tlb.lookup(i * PageBytes4K, false).hit;
        EXPECT_GT(survivors, 8u);
        EXPECT_TRUE(tlb.lookup(0x40000000, false).hit);
        tlb.markDirty(255 * PageBytes4K);
        tlb.invalidate(255 * PageBytes4K, PageSize::Size4K, Asid{0});
        EXPECT_FALSE(tlb.lookup(255 * PageBytes4K, false).hit);
        tlb.invalidateAll();
        EXPECT_FALSE(tlb.lookup(0, false).hit);
    }
}

TEST(Colt, FullWidthGroupCoalescesAcrossBitmapBoundary)
{
    // group == 32 puts the last slot at bit 31, the edge of the
    // coalescing bitmap; the bundling scans probe slots lo-1 and hi+1,
    // which touch bits 31 and 32 ("& 31"-masked). A fully contiguous
    // 32-page run must coalesce into one entry and every page must
    // hit — under UBSan this pins the bitmap shifts to defined forms.
    stats::StatGroup root("test");
    MixTlb tlb("colt32", &root, coltParams(32, 4, PageSize::Size4K, 32));

    // One 32-page VA/PA-contiguous window, filled in reverse so the
    // bundling scan crosses the slot-31 boundary in both directions.
    for (int i = 31; i >= 0; i--) {
        tlb.fill(simpleFill(
            xlate4k(i * PageBytes4K, 0x100000 + i * PageBytes4K)));
    }
    for (int i = 0; i < 32; i++) {
        auto result = tlb.lookup(i * PageBytes4K, false);
        ASSERT_TRUE(result.hit) << "page " << i;
        EXPECT_EQ(result.xlate.pbase,
                  PAddr{0x100000} + i * PageBytes4K);
    }
    // Dirty/invalidate at both edges of the window exercise the
    // slot-0 and slot-31 mask paths. markDirty refuses to dirty a
    // coalesced entry (its single bit would over-claim 32 pages).
    tlb.markDirty(31 * PageBytes4K);
    EXPECT_FALSE(tlb.lookup(31 * PageBytes4K, false).entryDirty);
    tlb.invalidate(31 * PageBytes4K, PageSize::Size4K, Asid{0});
    EXPECT_FALSE(tlb.lookup(31 * PageBytes4K, false).hit);
    EXPECT_TRUE(tlb.lookup(0, false).hit);
    tlb.invalidate(0, PageSize::Size4K, Asid{0});
    EXPECT_FALSE(tlb.lookup(0, false).hit);
    EXPECT_TRUE(tlb.lookup(16 * PageBytes4K, false).hit);
}

TEST(SkewDeathTest, ZeroWaysDies)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    params.waysPerSize[0] = 0;
    params.waysPerSize[1] = 0;
    params.waysPerSize[2] = 0;
    EXPECT_EXIT(SkewTlb("skew", &root, params),
                ::testing::ExitedWithCode(1), "zero ways");
}

TEST(SetAssocDeathTest, MoreThan255WaysDies)
{
    // Payload slot indices and per-set live counts are bytes.
    stats::StatGroup root("test");
    EXPECT_EXIT(SetAssocTlb("fa", &root,
                            SetAssocParams{256, 256, {PageSize::Size4K}}),
                ::testing::ExitedWithCode(1), "1 to 255 ways");
}

TEST(Skew, LookupHotPathIsAllocationFree)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    params.setsPerWay = 8;
    params.usePredictor = true;
    SkewTlb tlb("skew", &root, params);
    tlb.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    tlb.lookup(0x1000, false); // warm any lazy state

    const std::uint64_t before = g_heapAllocs.load();
    for (int i = 0; i < 256; i++) {
        tlb.lookup(0x1000, false);             // predicted hit
        tlb.lookup(0x00400000 + 64, false);    // mispredicted hit
        tlb.lookup(0x7f000000, false);         // full-probe miss
    }
    EXPECT_EQ(g_heapAllocs.load(), before)
        << "SkewTlb::lookup allocated on the hot path";
}

TEST(HashRehash, LookupHotPathIsAllocationFree)
{
    stats::StatGroup root("test");
    SetAssocParams params;
    params.usePredictor = true;
    SetAssocTlb tlb("hr", &root, params);
    tlb.fill(simpleFill(xlate4k(0x1000, 0x10000)));
    tlb.fill(simpleFill(xlate2m(0x00400000, 0x0)));
    tlb.lookup(0x1000, false);

    const std::uint64_t before = g_heapAllocs.load();
    for (int i = 0; i < 256; i++) {
        tlb.lookup(0x1000, false);
        tlb.lookup(0x00400000 + 64, false);
        tlb.lookup(0x7f000000, false);
    }
    EXPECT_EQ(g_heapAllocs.load(), before)
        << "SetAssocTlb::lookup allocated on the hot path";
}

TEST(Skew, PredictorTrainsWithDemandedAddressOnFill)
{
    stats::StatGroup root("test");
    SkewTlbParams params;
    params.setsPerWay = 8;
    params.usePredictor = true;
    SkewTlb tlb("skew", &root, params);

    // A miss deep inside a 1GB page refills the TLB. The predictor
    // must be trained with the *demanded* address, not the superpage
    // base: they hash to different 2MB-region predictor slots, and
    // the next access repeats the demanded address, not the base.
    pt::Translation big;
    big.vbase = 4 * GiB;
    big.pbase = 1 * GiB;
    big.size = PageSize::Size1G;
    big.accessed = true;
    FillInfo fill;
    fill.leaf = big;
    fill.vaddr = 4 * GiB + 768 * MiB + 0x3000;
    tlb.fill(fill);

    auto result = tlb.lookup(fill.vaddr, false);
    EXPECT_TRUE(result.hit);
    // Correct training: the 1GB prediction wins on the first probe.
    EXPECT_EQ(result.probes, 1u);
}

namespace
{

/** Every ASID-taggable design, freshly constructed. */
std::vector<std::pair<std::string, std::unique_ptr<BaseTlb>>>
makeAsidTlbs(stats::StatGroup &root)
{
    std::vector<std::pair<std::string, std::unique_ptr<BaseTlb>>> out;
    out.emplace_back("set_assoc",
                     std::make_unique<SetAssocTlb>(
                         "sa", &root,
                         SetAssocParams{64, 4, {PageSize::Size4K}}));
    out.emplace_back(
        "fully_assoc",
        std::make_unique<SetAssocTlb>(
            "fa", &root,
            SetAssocParams{32, 32,
                           {PageSize::Size4K, PageSize::Size2M}}));
    out.emplace_back("hash_rehash",
                     std::make_unique<SetAssocTlb>(
                         "hr", &root, SetAssocParams{}));
    out.emplace_back("skew", std::make_unique<SkewTlb>(
                                 "skew", &root, SkewTlbParams{}));
    out.emplace_back("colt",
                     std::make_unique<MixTlb>(
                         "colt", &root, coltParams(64, 4, PageSize::Size4K)));
    out.emplace_back("mix", std::make_unique<MixTlb>("mix", &root,
                                                     MixTlbParams{}));
    auto split = std::make_unique<SplitTlb>("split", &root);
    split->addComponent(std::make_unique<SetAssocTlb>(
        "split_4k", &root, SetAssocParams{64, 4, {PageSize::Size4K}}));
    split->addComponent(std::make_unique<SetAssocTlb>(
        "split_2m", &root, SetAssocParams{32, 4, {PageSize::Size2M}}));
    out.emplace_back("split", std::move(split));
    return out;
}

} // anonymous namespace

TEST(Asid, EntriesAreAsidPrivate)
{
    stats::StatGroup root("test");
    for (auto &[name, tlb] : makeAsidTlbs(root)) {
        SCOPED_TRACE(name);

        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate4k(0x5000, 0xA000)));
        EXPECT_TRUE(tlb->lookup(0x5000, false).hit);

        // The same VA under another ASID misses, then fills its own
        // entry with a different translation.
        tlb->setAsid(2);
        EXPECT_FALSE(tlb->lookup(0x5000, false).hit);
        tlb->fill(simpleFill(xlate4k(0x5000, 0xB000)));
        auto hit = tlb->lookup(0x5000, false);
        ASSERT_TRUE(hit.hit);
        EXPECT_EQ(hit.xlate.translate(0x5000), 0xB000u);

        // Both address spaces stay resident simultaneously.
        tlb->setAsid(1);
        auto original = tlb->lookup(0x5000, false);
        ASSERT_TRUE(original.hit);
        EXPECT_EQ(original.xlate.translate(0x5000), 0xA000u);
    }
}

TEST(Asid, InvalidateAsidLeavesOthersResident)
{
    stats::StatGroup root("test");
    for (auto &[name, tlb] : makeAsidTlbs(root)) {
        SCOPED_TRACE(name);
        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate4k(0x5000, 0xA000)));
        tlb->setAsid(2);
        tlb->fill(simpleFill(xlate4k(0x5000, 0xB000)));

        tlb->invalidateAsid(1);
        EXPECT_TRUE(tlb->lookup(0x5000, false).hit); // asid 2 survives
        tlb->setAsid(1);
        EXPECT_FALSE(tlb->lookup(0x5000, false).hit); // asid 1 gone
    }
}

TEST(Asid, TargetedInvalidateMatchesAsid)
{
    stats::StatGroup root("test");
    for (auto &[name, tlb] : makeAsidTlbs(root)) {
        SCOPED_TRACE(name);
        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate4k(0x5000, 0xA000)));
        tlb->setAsid(2);
        tlb->fill(simpleFill(xlate4k(0x5000, 0xB000)));

        // A shootdown tagged with ASID 1 must not touch ASID 2.
        tlb->invalidate(0x5000, PageSize::Size4K, Asid{1});
        EXPECT_TRUE(tlb->lookup(0x5000, false).hit);
        tlb->invalidate(0x5000, PageSize::Size4K, Asid{2});
        EXPECT_FALSE(tlb->lookup(0x5000, false).hit);

        tlb->setAsid(1);
        EXPECT_FALSE(tlb->lookup(0x5000, false).hit);
    }
}

TEST(Asid, IdealTlbTranslatesPerRegisteredTable)
{
    stats::StatGroup root("test");
    mem::PhysMem mem(256 * MiB);
    os::MemoryManager mm(mem, &root);
    os::ProcessParams pa, pb;
    pa.name = "proca";
    pb.name = "procb";
    os::Process proc_a(mm, pa, &root);
    os::Process proc_b(mm, pb, &root);
    VAddr base_a = proc_a.mmap(4 * MiB);
    VAddr base_b = proc_b.mmap(4 * MiB);
    proc_a.touch(base_a);
    proc_b.touch(base_b);

    IdealTlb tlb("ideal", &root, proc_a.pageTable());
    tlb.registerTable(1, proc_a.pageTable());
    tlb.registerTable(2, proc_b.pageTable());

    tlb.setAsid(1);
    EXPECT_TRUE(tlb.lookup(base_a, false).hit);
    tlb.setAsid(2);
    EXPECT_TRUE(tlb.lookup(base_b, false).hit);
    // An ASID with no registered table never hits.
    tlb.setAsid(7);
    EXPECT_FALSE(tlb.lookup(base_a, false).hit);
}

// --- Superpage-sized shootdowns (demotion / reclaim lifecycle) ------
//
// Demotion replaces a 2MB (or 1GB) leaf with smaller leaves and fires
// ONE superpage-sized invalidate; reclaim fires 4KB ones. Every design
// must honour the range semantics precisely: drop everything of the
// right ASID inside the window, keep everything else.

TEST(RangeInvalidate, SuperpageWindowIsAsidPrecise)
{
    stats::StatGroup root("test");
    constexpr VAddr region = 0x00400000; // 2MB-aligned
    for (auto &[name, tlb] : makeAsidTlbs(root)) {
        SCOPED_TRACE(name);

        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate4k(region + 0x1000, 0xA000)));
        tlb->fill(simpleFill(xlate4k(region + 0x5000, 0xC000)));
        // Just past the window: must survive the shootdown.
        tlb->fill(simpleFill(
            xlate4k(region + PageBytes2M + 0x1000, 0xD000)));
        // Same VA, other address space: must also survive.
        tlb->setAsid(2);
        tlb->fill(simpleFill(xlate4k(region + 0x1000, 0xB000)));

        // The demotion shootdown: one 2MB-sized invalidate for ASID 1.
        tlb->invalidate(region, PageSize::Size2M, Asid{1});

        EXPECT_TRUE(tlb->lookup(region + 0x1000, false).hit)
            << "ASID 2 entry inside the window was collateral damage";
        tlb->setAsid(1);
        EXPECT_FALSE(tlb->lookup(region + 0x1000, false).hit);
        EXPECT_FALSE(tlb->lookup(region + 0x5000, false).hit);
        EXPECT_TRUE(
            tlb->lookup(region + PageBytes2M + 0x1000, false).hit)
            << "entry outside the 2MB window was dropped";
    }
}

TEST(RangeInvalidate, GigapageWindowDropsContainedEntries)
{
    stats::StatGroup root("test");
    constexpr VAddr gbase = 4 * GiB; // 1GB-aligned
    for (auto &[name, tlb] : makeAsidTlbs(root)) {
        SCOPED_TRACE(name);

        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate4k(gbase + 0x1000, 0xA000)));
        // A different 2MB region of the same gigapage window.
        tlb->fill(simpleFill(
            xlate4k(gbase + 3 * PageBytes2M + 0x2000, 0xC000)));
        tlb->fill(simpleFill(
            xlate4k(gbase + PageBytes1G + 0x1000, 0xD000)));

        // A 1GB demotion's shootdown.
        tlb->invalidate(gbase, PageSize::Size1G, Asid{1});

        EXPECT_FALSE(tlb->lookup(gbase + 0x1000, false).hit);
        EXPECT_FALSE(
            tlb->lookup(gbase + 3 * PageBytes2M + 0x2000, false).hit);
        EXPECT_TRUE(
            tlb->lookup(gbase + PageBytes1G + 0x1000, false).hit)
            << "entry outside the 1GB window was dropped";
    }
}

TEST(RangeInvalidate, GigapageWindowDrops2mLeaves)
{
    // Designs that cache 2MB leaves must drop them under a 1GB-sized
    // shootdown (1GB -> 512 x 2MB demotion re-walks every child).
    stats::StatGroup root("test");
    constexpr VAddr gbase = 4 * GiB;
    // One set shared by 4KB and 2MB pages.
    SetAssocTlb fa("fa", &root,
                   {32, 32, {PageSize::Size4K, PageSize::Size2M}});
    MixTlb mix("mix", &root, MixTlbParams{});
    std::vector<BaseTlb *> tlbs{&fa, &mix};
    for (BaseTlb *tlb : tlbs) {
        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate2m(gbase + 5 * PageBytes2M, 0x0)));
        tlb->fill(simpleFill(
            xlate2m(gbase + PageBytes1G, PageBytes2M)));
        tlb->invalidate(gbase, PageSize::Size1G, Asid{1});
        EXPECT_FALSE(tlb->lookup(gbase + 5 * PageBytes2M, false).hit);
        EXPECT_TRUE(tlb->lookup(gbase + PageBytes1G + 64, false).hit);
    }
}

TEST(RangeInvalidate, SmallShootdownKillsStaleSuperpageEntry)
{
    // The reverse direction: after a demotion the OS may unmap one 4KB
    // page of the ex-superpage and fire a 4KB shootdown. Any cached
    // 2MB entry overlapping it is stale and must die too.
    stats::StatGroup root("test");
    constexpr VAddr region = 0x00400000;
    // One set shared by 4KB and 2MB pages.
    SetAssocTlb fa("fa", &root,
                   {32, 32, {PageSize::Size4K, PageSize::Size2M}});
    MixTlb mix("mix", &root, MixTlbParams{});
    std::vector<BaseTlb *> tlbs{&fa, &mix};
    for (BaseTlb *tlb : tlbs) {
        tlb->setAsid(1);
        tlb->fill(simpleFill(xlate2m(region, 0x0)));
        ASSERT_TRUE(tlb->lookup(region + 0x7000, false).hit);
        tlb->invalidate(region + 0x7000, PageSize::Size4K, Asid{1});
        EXPECT_FALSE(tlb->lookup(region + 0x7000, false).hit);
        EXPECT_FALSE(tlb->lookup(region, false).hit);
    }
}

TEST(Colt, SmallInvalidateTrimsCoalescedRunMidway)
{
    // Reclaim drops single 4KB pages out of demoted regions; a COLT
    // bundle holding the dropped page must be trimmed, with its
    // neighbours staying resident.
    mem::PhysMem mem{256 * MiB};
    pt::PageTable table{mem};
    stats::StatGroup root("test");
    pt::Walker walker{table, &root};
    for (int i = 0; i < 4; i++) {
        table.map(0x10000 + i * PageBytes4K, 0x800000 + i * PageBytes4K,
                  PageSize::Size4K);
        walker.walk(0x10000 + i * PageBytes4K, false);
    }
    MixTlb tlb("colt", &root, coltParams(32, 4, PageSize::Size4K, 4));
    auto walk = walker.walk(0x10000, false);
    FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.vaddr = 0x10000;
    fill.walk = &walk;
    tlb.fill(fill);
    ASSERT_EQ(tlb.lookup(0x10000, false).bundle->count, 4u);

    tlb.invalidate(0x11000, PageSize::Size4K);

    EXPECT_TRUE(tlb.lookup(0x10000, false).hit);
    EXPECT_FALSE(tlb.lookup(0x11000, false).hit);
    EXPECT_TRUE(tlb.lookup(0x12000, false).hit);
    EXPECT_TRUE(tlb.lookup(0x13000, false).hit);
}

TEST(Colt, RangeInvalidatePartiallyOverlappingRun)
{
    // Colt++ over 2MB pages: a coalesced run of two superpages where a
    // demotion shoots down only the second. The run must be trimmed,
    // not dropped whole (partial window overlap).
    mem::PhysMem mem{1 * GiB};
    pt::PageTable table{mem};
    stats::StatGroup root("test");
    pt::Walker walker{table, &root};
    for (int i = 0; i < 2; i++) {
        table.map(0x00400000 + i * PageBytes2M, i * PageBytes2M,
                  PageSize::Size2M);
        walker.walk(0x00400000 + i * PageBytes2M, false);
    }
    MixTlb tlb("colt2m", &root, coltParams(8, 4, PageSize::Size2M, 2));
    auto walk = walker.walk(0x00400000, false);
    FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.vaddr = 0x00400000;
    fill.walk = &walk;
    tlb.fill(fill);
    ASSERT_TRUE(tlb.lookup(0x00600000, false).hit);

    tlb.invalidate(0x00600000, PageSize::Size2M);

    EXPECT_TRUE(tlb.lookup(0x00400000, false).hit)
        << "trimming the run dropped the surviving superpage";
    EXPECT_FALSE(tlb.lookup(0x00600000, false).hit);
}

TEST(Colt, MarkDirtyLeavesOtherAnchorsClean)
{
    // Two singletons share one 4-page window but not its physical
    // anchor. A dirty micro-op on the first must leave the second
    // clean: a store to a page whose entry claims dirty skips its own
    // micro-op, so the PTE's D bit would never be set.
    stats::StatGroup root("test");
    MixTlb tlb("colt", &root, coltParams(32, 4, PageSize::Size4K));
    tlb.fill(simpleFill(xlate4k(0x10000, 0x800000)));
    tlb.fill(simpleFill(xlate4k(0x11000, 0x900000)));
    tlb.markDirty(0x10000);
    EXPECT_TRUE(tlb.lookup(0x10000, true).entryDirty);
    auto other = tlb.lookup(0x11000, true);
    ASSERT_TRUE(other.hit);
    EXPECT_FALSE(other.entryDirty);
}

namespace
{

/** A COLT geometry for ColtBundle.MatchesPerPageReference. */
struct ColtGeometry
{
    const char *name;
    PageSize size;
    unsigned group;
};

class ColtBundle : public ::testing::TestWithParam<ColtGeometry>
{
};

} // anonymous namespace

// The twin of BundleIntersection.MatchesPerPageReference (test_mix.cc)
// for COLT: seeded fills carrying a walk line and/or an upper-level
// bundle that straddles either window edge, sits one page off the
// window's PA affinity, carries other perms or another page size, is
// clean or dirty, and holds 1 to 12 pages. Every window slot's lookup
// on a fresh TLB must match the entry a per-page check of each line
// slot and each bundle page builds.
TEST_P(ColtBundle, MatchesPerPageReference)
{
    const ColtGeometry &geometry = GetParam();
    const PageSize size = geometry.size;
    const unsigned group = geometry.group;
    const std::uint64_t page = pageBytes(size);
    const std::uint64_t span = group * page;
    const pt::Perms perms[2] = {pt::Perms{}, pt::Perms{false, true, true}};

    Rng rng(0xc017 + static_cast<unsigned>(size));
    for (int iter = 0; iter < 600; iter++) {
        SCOPED_TRACE(testing::Message() << "fill " << iter);
        stats::StatGroup root("colt");
        MixTlb tlb("colt", &root, coltParams(32, 4, size, group));

        const VAddr region = (1ULL << 44) + rng.nextBounded(1ULL << 40);
        const VAddr wbase = region - region % span;
        const auto leaf_slot =
            static_cast<unsigned>(rng.nextBounded(group));
        FillInfo fill;
        fill.leaf.vbase = wbase + leaf_slot * page;
        fill.leaf.pbase =
            (1ULL << 40) + rng.nextBounded(1ULL << 16) * page;
        fill.leaf.size = size;
        fill.leaf.perms = perms[rng.nextBounded(2)];
        fill.leaf.accessed = true;
        fill.leaf.dirty = rng.chance(0.5);
        fill.vaddr = fill.leaf.vbase;
        const PAddr wpbase = fill.leaf.pbase - leaf_slot * page;

        // The reference entry: one per-page check per candidate.
        std::uint32_t bitmap = 1u << leaf_slot;
        bool dirty = fill.leaf.dirty;
        auto consider = [&](VAddr vbase, PAddr pbase, pt::Perms p,
                            bool d) {
            if (p != fill.leaf.perms || vbase < wbase)
                return;
            const std::uint64_t slot = (vbase - wbase) / page;
            if (slot >= group || pbase != wpbase + slot * page)
                return;
            bitmap |= 1u << slot;
            dirty = dirty && d;
        };

        pt::WalkResult walk;
        if (rng.chance(0.5)) {
            walk.leaf = fill.leaf;
            walk.lineGranularity = size;
            const VAddr line = fill.leaf.vbase - (leaf_slot % 8) * page;
            for (unsigned i = 0; i < 8; i++) {
                pt::LinePte pte;
                pte.present = rng.chance(0.8);
                pte.xlate.vbase = line + i * page;
                pte.xlate.pbase = wpbase + (pte.xlate.vbase - wbase) +
                                  (rng.chance(0.2) ? page : 0);
                pte.xlate.size = size;
                pte.xlate.perms =
                    rng.chance(0.85) ? fill.leaf.perms : perms[1];
                pte.xlate.accessed = rng.chance(0.85);
                pte.xlate.dirty = rng.chance(0.5);
                walk.line.push_back(pte);
                if (pte.present && pte.xlate.accessed) {
                    consider(pte.xlate.vbase, pte.xlate.pbase,
                             pte.xlate.perms, pte.xlate.dirty);
                }
            }
            fill.walk = &walk;
        }
        if (rng.chance(0.9)) {
            BundleInfo bundle;
            bundle.count = 1 + rng.nextBounded(12);
            const auto lo = -static_cast<std::int64_t>(bundle.count) - 2;
            const std::int64_t start =
                lo + static_cast<std::int64_t>(rng.nextBounded(
                         static_cast<std::uint64_t>(group + 4 - lo)));
            const auto offset = static_cast<std::uint64_t>(start) * page;
            bundle.vbase = wbase + offset;
            bundle.pbase = wpbase + offset;
            if (rng.chance(0.2))
                bundle.pbase += rng.chance(0.5) ? page : 0 - page;
            bundle.size = rng.chance(0.95) ? size
                                           : (size == PageSize::Size2M
                                                  ? PageSize::Size1G
                                                  : PageSize::Size2M);
            bundle.perms = rng.chance(0.8) ? fill.leaf.perms : perms[1];
            bundle.dirty = rng.chance(0.5);
            fill.bundle = bundle;
            if (bundle.size == size) {
                for (std::uint64_t i = 0; i < bundle.count; i++) {
                    consider(bundle.vbase + i * page,
                             bundle.pbase + i * page, bundle.perms,
                             bundle.dirty);
                }
            }
        }

        tlb.fill(fill);
        for (unsigned slot = 0; slot < group; slot++) {
            SCOPED_TRACE(testing::Message() << "slot " << slot);
            const VAddr va = wbase + slot * page + (page - 1) / 2;
            const auto result = tlb.lookup(va, false);
            const bool present = (bitmap >> slot) & 1;
            ASSERT_EQ(result.hit, present);
            if (!present)
                continue;
            EXPECT_EQ(result.entryDirty, dirty);
            EXPECT_EQ(result.xlate.translate(va), wpbase + (va - wbase));
            unsigned run_lo = slot, run_hi = slot;
            while (run_lo > 0 && ((bitmap >> (run_lo - 1)) & 1))
                run_lo--;
            while (run_hi + 1 < group && ((bitmap >> (run_hi + 1)) & 1))
                run_hi++;
            ASSERT_TRUE(result.bundle.has_value());
            EXPECT_EQ(result.bundle->vbase, wbase + run_lo * page);
            EXPECT_EQ(result.bundle->count, run_hi - run_lo + 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ColtBundle,
    ::testing::Values(ColtGeometry{"Colt4K", PageSize::Size4K, 4},
                      ColtGeometry{"Colt2M", PageSize::Size2M, 4}),
    [](const ::testing::TestParamInfo<ColtGeometry> &info) {
        return std::string(info.param.name);
    });

TEST(Mix, SuperpageInvalidateDropsAllMirrorCopies)
{
    // MIX fills superpages into every set (mirrors), and a dirty store
    // rides the burst-write path to update them all. A demotion's
    // single 2MB shootdown must kill every mirror — a stale copy in
    // any set would translate into freed (or re-used) frames.
    stats::StatGroup root("test");
    constexpr VAddr region = 0x00400000;
    MixTlb tlb("mix", &root, MixTlbParams{});
    tlb.setAsid(1);

    FillInfo fill = simpleFill(xlate2m(region, 0x0));
    fill.vaddr = region + 0x1000;
    tlb.fill(fill);
    // A second demanded offset in another 4KB chunk: with small-page
    // index bits this exercises a different set's mirror.
    FillInfo second = simpleFill(xlate2m(region, 0x0));
    second.vaddr = region + 0x5000;
    tlb.fill(second);
    // Dirty the bundle through one mirror.
    ASSERT_TRUE(tlb.lookup(region + 0x1000, true).hit);
    ASSERT_TRUE(tlb.lookup(region + 0x5000, false).hit);

    tlb.invalidate(region, PageSize::Size2M, Asid{1});

    for (VAddr off = 0; off < PageBytes2M; off += 64 * PageBytes4K)
        EXPECT_FALSE(tlb.lookup(region + off, false).hit) << off;

    contracts::AuditReport report;
    tlb.auditSets(report);
    EXPECT_TRUE(report.violations().empty());
}
