/**
 * @file
 * Unit tests for src/pt: PTE encoding, the radix page table, and the
 * hardware walker (including the cache-line PTE scan MIX TLBs rely on).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/random.hh"
#include "mem/phys_mem.hh"
#include "pt/page_table.hh"
#include "pt/pte.hh"
#include "pt/walker.hh"

using namespace mixtlb;
using namespace mixtlb::pt;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

struct PtFixture : ::testing::Test
{
    mem::PhysMem mem{512 * MiB};
    PageTable table{mem};
    stats::StatGroup root{"test"};
    Walker walker{table, &root};
};

} // anonymous namespace

TEST(Pte, EncodeDecodeRoundTrip)
{
    Perms perms{true, false, true};
    auto raw = pte::make(0x1234000, perms, true, true, false);
    EXPECT_TRUE(pte::present(raw));
    EXPECT_TRUE(pte::pageSizeBit(raw));
    EXPECT_TRUE(pte::accessed(raw));
    EXPECT_FALSE(pte::dirty(raw));
    EXPECT_EQ(pte::frame(raw), 0x1234000u);
    EXPECT_EQ(pte::perms(raw), perms);
}

TEST(Pte, TranslationHelpers)
{
    Translation t;
    t.vbase = 0x00400000;
    t.pbase = 0x00000000;
    t.size = PageSize::Size2M;
    EXPECT_TRUE(t.covers(0x00400000));
    EXPECT_TRUE(t.covers(0x005fffff));
    EXPECT_FALSE(t.covers(0x00600000));
    EXPECT_EQ(t.translate(0x00412345), 0x00012345u);
    EXPECT_EQ(t.vpn(), 2u);
}

TEST_F(PtFixture, Map4KAndTranslate)
{
    table.map(0x7000, 0x42000, PageSize::Size4K);
    auto xlate = table.translate(0x7abc);
    ASSERT_TRUE(xlate.has_value());
    EXPECT_EQ(xlate->pbase, 0x42000u);
    EXPECT_EQ(xlate->size, PageSize::Size4K);
    EXPECT_EQ(xlate->translate(0x7abc), 0x42abcu);
    EXPECT_FALSE(table.translate(0x8000).has_value());
}

TEST_F(PtFixture, Map2MAndTranslate)
{
    table.map(0x00400000, 0x00200000, PageSize::Size2M);
    auto xlate = table.translate(0x00412345);
    ASSERT_TRUE(xlate.has_value());
    EXPECT_EQ(xlate->size, PageSize::Size2M);
    EXPECT_EQ(xlate->vbase, 0x00400000u);
    EXPECT_EQ(xlate->translate(0x00412345), 0x00212345u);
}

TEST_F(PtFixture, Map1GAndTranslate)
{
    table.map(3 * GiB, 1 * GiB, PageSize::Size1G);
    auto xlate = table.translate(3 * GiB + 0x12345678);
    ASSERT_TRUE(xlate.has_value());
    EXPECT_EQ(xlate->size, PageSize::Size1G);
    EXPECT_EQ(xlate->translate(3 * GiB + 0x12345678),
              1 * GiB + 0x12345678u);
}

TEST_F(PtFixture, MixedSizesCoexist)
{
    table.map(0x0000, 0x10000, PageSize::Size4K);
    table.map(0x00400000, 0x00200000, PageSize::Size2M);
    table.map(1 * GiB, 0, PageSize::Size1G);
    EXPECT_EQ(table.numMappings(), 3u);
    EXPECT_EQ(table.translate(0x0123)->size, PageSize::Size4K);
    EXPECT_EQ(table.translate(0x00400123)->size, PageSize::Size2M);
    EXPECT_EQ(table.translate(1 * GiB + 5)->size, PageSize::Size1G);
}

TEST_F(PtFixture, UnmapRemovesMapping)
{
    table.map(0x7000, 0x42000, PageSize::Size4K);
    EXPECT_TRUE(table.unmap(0x7000));
    EXPECT_FALSE(table.translate(0x7000).has_value());
    EXPECT_FALSE(table.unmap(0x7000));
    EXPECT_EQ(table.numMappings(), 0u);
}

TEST_F(PtFixture, FreshMappingHasClearAD)
{
    table.map(0x7000, 0x42000, PageSize::Size4K);
    auto xlate = table.translate(0x7000);
    EXPECT_FALSE(xlate->accessed);
    EXPECT_FALSE(xlate->dirty);
    table.setAccessed(0x7000);
    EXPECT_TRUE(table.translate(0x7000)->accessed);
    table.setDirty(0x7000);
    EXPECT_TRUE(table.translate(0x7000)->dirty);
}

TEST_F(PtFixture, ForEachLeafVisitsAllInOrder)
{
    table.map(0x00400000, 0x00200000, PageSize::Size2M);
    table.map(0x7000, 0x42000, PageSize::Size4K);
    table.map(1 * GiB, 0, PageSize::Size1G);
    std::vector<VAddr> seen;
    table.forEachLeaf([&](const Translation &t) {
        seen.push_back(t.vbase);
    });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 0x7000u);
    EXPECT_EQ(seen[1], 0x00400000u);
    EXPECT_EQ(seen[2], 1 * GiB);
}

using PtDeathTest = PtFixture;

TEST_F(PtFixture, LeafTableHoldsTheRegionsPtesInSlotOrder)
{
    // A PT with two 4K leaves (one accessed and dirty), a 2M leaf, a
    // 1G leaf and an unmapped region.
    const VAddr region = 0x40000000;
    table.map(region + 3 * PageBytes4K, 0x7000, PageSize::Size4K);
    table.map(region + 511 * PageBytes4K, 0x9000, PageSize::Size4K);
    table.setDirty(region + 511 * PageBytes4K);
    table.map(region + PageBytes2M, 0x200000, PageSize::Size2M);
    table.map(0x80000000, 0, PageSize::Size1G);

    auto pt = table.leafTable(region + 0x1234);
    ASSERT_TRUE(pt.has_value());
    for (unsigned slot = 0; slot < 512; slot++) {
        const std::uint64_t raw = mem.read64(*pt + 8 * slot);
        auto x = table.translate(region + slot * PageBytes4K);
        ASSERT_EQ(pte::present(raw), x.has_value()) << slot;
        if (!x)
            continue;
        EXPECT_EQ(pte::frame(raw), x->pbase) << slot;
        EXPECT_EQ(pte::accessed(raw), x->accessed) << slot;
        EXPECT_EQ(pte::dirty(raw), x->dirty) << slot;
    }
    EXPECT_FALSE(table.leafTable(region + PageBytes2M).has_value());
    EXPECT_FALSE(table.leafTable(0x80000000 + 5 * PageBytes2M).has_value());
    EXPECT_FALSE(table.leafTable(region + 2 * PageBytes2M).has_value());
    EXPECT_FALSE(table.leafTable(0x1000000000).has_value());
}

TEST_F(PtDeathTest, MapTwicePanics)
{
    table.map(0x7000, 0x42000, PageSize::Size4K);
    EXPECT_DEATH(table.map(0x7000, 0x43000, PageSize::Size4K),
                 "already mapped");
}

TEST_F(PtDeathTest, MisalignedMapPanics)
{
    EXPECT_DEATH(table.map(0x1000, 0x0, PageSize::Size2M), "misaligned");
    EXPECT_DEATH(table.map(0x00400000, 0x1000, PageSize::Size2M),
                 "misaligned");
}

TEST_F(PtFixture, WalkDepthMatchesPageSize)
{
    table.map(0x7000, 0x42000, PageSize::Size4K);
    table.map(0x00400000, 0x00200000, PageSize::Size2M);
    table.map(1 * GiB, 0, PageSize::Size1G);

    EXPECT_EQ(walker.walk(0x7123, false).accesses.size(), 4u);
    EXPECT_EQ(walker.walk(0x00400123, false).accesses.size(), 3u);
    EXPECT_EQ(walker.walk(1 * GiB + 9, false).accesses.size(), 2u);
}

TEST_F(PtFixture, WalkReturnsLeaf)
{
    table.map(0x00400000, 0x00200000, PageSize::Size2M);
    auto result = walker.walk(0x00412345, false);
    ASSERT_FALSE(result.pageFault());
    EXPECT_EQ(result.leaf->vbase, 0x00400000u);
    EXPECT_EQ(result.leaf->pbase, 0x00200000u);
    EXPECT_EQ(result.leaf->size, PageSize::Size2M);
}

TEST_F(PtFixture, WalkSetsAccessedAndDirty)
{
    table.map(0x7000, 0x42000, PageSize::Size4K);
    walker.walk(0x7000, false);
    auto xlate = table.translate(0x7000);
    EXPECT_TRUE(xlate->accessed);
    EXPECT_FALSE(xlate->dirty);
    walker.walk(0x7000, true);
    EXPECT_TRUE(table.translate(0x7000)->dirty);
    EXPECT_EQ(root.value("walker.dirty_updates"), 1.0);
}

TEST_F(PtFixture, PageFaultReportsPartialWalk)
{
    auto result = walker.walk(0xdead000, false);
    EXPECT_TRUE(result.pageFault());
    EXPECT_EQ(result.accesses.size(), 1u); // root line only
    EXPECT_EQ(root.value("walker.page_faults"), 1.0);
}

TEST_F(PtFixture, LineScanSeesContiguousSuperpages)
{
    // Map superpages B..E contiguously, as Figure 2 of the paper.
    for (int i = 0; i < 4; i++) {
        table.map(0x00400000 + i * 0x200000, 0x00000000 + i * 0x200000,
                  PageSize::Size2M);
    }
    auto result = walker.walk(0x00400000, false);
    ASSERT_FALSE(result.pageFault());
    EXPECT_EQ(result.lineGranularity, PageSize::Size2M);

    // The 2MB entries at indices 2..5 of the PD share the line group
    // [0..7]; slots 2..5 must be present and contiguous.
    unsigned present = 0;
    for (const auto &slot : result.line)
        present += slot.present ? 1 : 0;
    EXPECT_EQ(present, 4u);
    ASSERT_TRUE(result.line[2].present);
    ASSERT_TRUE(result.line[5].present);
    EXPECT_EQ(result.line[2].xlate.vbase, 0x00400000u);
    EXPECT_EQ(result.line[3].xlate.pbase,
              result.line[2].xlate.pbase + 0x200000u);
    EXPECT_EQ(result.leafSlot, 2u);
}

TEST_F(PtFixture, LineScanDoesNotConfuseTablePointersWithLeaves)
{
    // A 4KB mapping makes the PD entry a *table pointer*; a walk to a
    // neighbouring 2MB superpage must not treat it as a 2MB leaf.
    table.map(0x00200000, 0x7000000, PageSize::Size4K); // PD index 1
    table.map(0x00400000, 0x0000000, PageSize::Size2M); // PD index 2
    auto result = walker.walk(0x00400000, false);
    ASSERT_FALSE(result.pageFault());
    EXPECT_EQ(result.lineGranularity, PageSize::Size2M);
    EXPECT_FALSE(result.line[1].present);
    EXPECT_TRUE(result.line[2].present);
}

TEST_F(PtFixture, LineScanReportsNeighbourADBits)
{
    table.map(0x00400000, 0x00000000, PageSize::Size2M);
    table.map(0x00600000, 0x00200000, PageSize::Size2M);
    auto result = walker.walk(0x00400000, false);
    ASSERT_TRUE(result.line[2].present);
    ASSERT_TRUE(result.line[3].present);
    // We walked slot 2, so it is accessed; its neighbour is not (yet).
    EXPECT_TRUE(result.line[2].xlate.accessed);
    EXPECT_FALSE(result.line[3].xlate.accessed);
}

TEST_F(PtFixture, LineGroupAlignment4K)
{
    // 4KB PTEs: 8 per line, groups aligned to 32KB of VA space.
    for (VAddr va = 0x10000; va < 0x20000; va += 0x1000)
        table.map(va, 0x100000 + va, PageSize::Size4K);
    auto result = walker.walk(0x13000, false);
    ASSERT_FALSE(result.pageFault());
    EXPECT_EQ(result.leafSlot, 3u);
    EXPECT_EQ(result.line[0].xlate.vbase, 0x10000u);
    EXPECT_EQ(result.line[7].xlate.vbase, 0x17000u);
}

TEST_F(PtFixture, PageTableFramesComeFromPhysMem)
{
    auto free_before = mem.buddy().freeFrames();
    table.map(0x7000, 0x42000, PageSize::Size4K);
    // PML4 existed; mapping a 4KB page allocates PDPT + PD + PT frames.
    EXPECT_EQ(mem.buddy().freeFrames(), free_before - 3);
    EXPECT_EQ(mem.frameUse(table.root() >> PageShift4K),
              mem::FrameUse::PageTable);
}

TEST_F(PtFixture, SplitLeafDemotes2mTo4kInPlace)
{
    // The demotion primitive: a 2MB leaf becomes 512 4KB leaves over
    // the same frames, so no data moves and translations are
    // preserved bit-for-bit.
    constexpr VAddr region = 0x00400000;
    table.map(region, 0x00800000, PageSize::Size2M);
    ASSERT_TRUE(table.splitLeaf(region));
    for (std::uint64_t i = 0; i < 512; i += 61) {
        auto x = table.translate(region + i * 0x1000 + 0x123);
        ASSERT_TRUE(x.has_value()) << i;
        EXPECT_EQ(x->size, PageSize::Size4K);
        EXPECT_EQ(x->translate(region + i * 0x1000 + 0x123),
                  0x00800000u + i * 0x1000 + 0x123);
    }
    // Splitting a 4KB leaf (or an unmapped VA) is refused.
    EXPECT_FALSE(table.splitLeaf(region));
    EXPECT_FALSE(table.splitLeaf(region + PageBytes2M));
}

namespace
{

void
expectSameTranslation(const Translation &a, const Translation &b)
{
    EXPECT_EQ(a.vbase, b.vbase);
    EXPECT_EQ(a.pbase, b.pbase);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.perms, b.perms);
    EXPECT_EQ(a.accessed, b.accessed);
    EXPECT_EQ(a.dirty, b.dirty);
}

/** One page table with its walker, built from a seed. */
struct SeededTable
{
    mem::PhysMem mem{256 * MiB};
    PageTable table{mem};
    stats::StatGroup root{"test"};
    Walker walker;

    static constexpr VAddr Window = 2 * GiB;
    static constexpr std::uint64_t WindowBytes = 64 * MiB;

    SeededTable(std::uint64_t seed, unsigned scan_lines, unsigned pwc)
        : walker(table, &root, scan_lines, PwcParams{pwc})
    {
        // A 1GB leaf, then 2MB regions that are each a 2MB leaf, a
        // table of 4KB leaves with holes, or a hole.
        table.map(1 * GiB, 0, PageSize::Size1G);
        Rng rng(seed);
        for (VAddr region = Window; region < Window + WindowBytes;
             region += PageBytes2M) {
            Perms perms{rng.nextBounded(4) != 0, true,
                        rng.nextBounded(4) == 0};
            switch (rng.nextBounded(3)) {
              case 0:
                table.map(region, region - Window, PageSize::Size2M,
                          perms);
                break;
              case 1:
                for (VAddr va = region; va < region + PageBytes2M;
                     va += PageBytes4K) {
                    if (rng.nextBounded(10) < 7) {
                        table.map(va, rng.nextBounded(1 << 20) << 12,
                                  PageSize::Size4K, perms);
                    }
                }
                break;
              default:
                break;
            }
        }
    }

    std::string
    statDump() const
    {
        std::ostringstream os;
        root.dump(os);
        return os.str();
    }
};

} // anonymous namespace

// walkLeaf() is walk() without the line decode: the same leaf, the
// same accesses, the same counters and PWC state, the same A/D writes.
TEST(WalkLeaf, MatchesWalkSideBySide)
{
    for (unsigned scan_lines : {1u, 8u}) {
        for (unsigned pwc : {0u, 16u}) {
            for (std::uint64_t seed : {1u, 2u, 3u}) {
                SCOPED_TRACE(testing::Message()
                             << "scan_lines " << scan_lines << " pwc "
                             << pwc << " seed " << seed);
                SeededTable full(seed, scan_lines, pwc);
                SeededTable leaf_only(seed, scan_lines, pwc);
                Rng rng(seed + 100);
                for (int i = 0; i < 3000; i++) {
                    VAddr va;
                    switch (rng.nextBounded(10)) {
                      case 0:
                        va = 1 * GiB + rng.nextBounded(1 * GiB);
                        break;
                      case 1:
                        va = rng.nextBounded(1ULL << 40);
                        break;
                      default:
                        va = SeededTable::Window
                             + rng.nextBounded(SeededTable::WindowBytes);
                        break;
                    }
                    const bool store = rng.nextBounded(3) == 0;

                    auto walk = full.walker.walk(va, store);
                    InlineVec<PAddr, MaxWalkAccesses> accesses;
                    auto leaf = leaf_only.walker.walkLeaf(va, store,
                                                          accesses);
                    ASSERT_EQ(leaf.has_value(), walk.leaf.has_value())
                        << std::hex << va;
                    if (leaf)
                        expectSameTranslation(*leaf, *walk.leaf);
                    ASSERT_EQ(accesses.size(), walk.accesses.size());
                    for (std::size_t a = 0; a < accesses.size(); a++)
                        EXPECT_EQ(accesses[a], walk.accesses[a]);
                }
                // Counters (walks, faults, accesses incl. the wide
                // scan's lines, dirty updates) and the PWC's stats.
                EXPECT_EQ(full.statDump(), leaf_only.statDump());
                EXPECT_GT(full.root.value("walker.page_faults"), 0.0);
                EXPECT_GT(full.root.value("walker.dirty_updates"), 0.0);

                // The same PTE bytes afterwards.
                std::vector<Translation> a, b;
                full.table.forEachLeaf(
                    [&](const Translation &t) { a.push_back(t); });
                leaf_only.table.forEachLeaf(
                    [&](const Translation &t) { b.push_back(t); });
                ASSERT_EQ(a.size(), b.size());
                for (std::size_t k = 0; k < a.size(); k++) {
                    auto pa = full.table.leafPteAddr(a[k].vbase);
                    auto pb = leaf_only.table.leafPteAddr(b[k].vbase);
                    ASSERT_TRUE(pa && pb);
                    ASSERT_EQ(full.mem.read64(*pa),
                              leaf_only.mem.read64(*pb))
                        << std::hex << a[k].vbase;
                }
            }
        }
    }
}

// LinePte as the decoded line holds it: InlineVec copies only live
// slots and never constructs the rest.
TEST(InlineVec, LinePteRoundTrip)
{
    auto pte = [](unsigned i) {
        LinePte entry;
        entry.present = i % 3 != 0;
        entry.xlate.vbase = 0x40000000ULL + i * PageBytes2M;
        entry.xlate.pbase = 0x80000000ULL + i * PageBytes2M;
        entry.xlate.size = PageSize::Size2M;
        entry.xlate.perms = Perms{i % 2 == 0, true, i % 5 == 0};
        entry.xlate.accessed = i % 2 == 1;
        entry.xlate.dirty = i % 4 == 1;
        return entry;
    };
    auto expect_line = [&](const InlineVec<LinePte, MaxLineSlots> &line,
                           unsigned first, unsigned count) {
        ASSERT_EQ(line.size(), count);
        for (unsigned i = 0; i < count; i++) {
            EXPECT_EQ(line[i].present, pte(first + i).present);
            expectSameTranslation(line[i].xlate, pte(first + i).xlate);
        }
    };

    InlineVec<LinePte, MaxLineSlots> line{};
    EXPECT_TRUE(line.empty());
    for (unsigned i = 0; i < 8; i++)
        line.push_back(pte(i));
    expect_line(line, 0, 8);

    LinePte more[MaxLineSlots - 8];
    for (unsigned i = 0; i < MaxLineSlots - 8; i++)
        more[i] = pte(8 + i);
    line.append(more, more + MaxLineSlots - 8);
    expect_line(line, 0, MaxLineSlots);

    InlineVec<LinePte, MaxLineSlots> copy(line);
    expect_line(copy, 0, MaxLineSlots);
    line.assign(3, LinePte{});
    ASSERT_EQ(line.size(), 3u);
    EXPECT_FALSE(line[2].present);
    expectSameTranslation(line[2].xlate, Translation{});
    expect_line(copy, 0, MaxLineSlots); // the copy owns its slots

    InlineVec<LinePte, MaxLineSlots> assigned;
    assigned.push_back(pte(1));
    assigned = copy;
    expect_line(assigned, 0, MaxLineSlots);
    assigned = line;
    ASSERT_EQ(assigned.size(), 3u);
    EXPECT_FALSE(assigned[0].present);
}

TEST(Pwc, RepromotionShootdownDropsRetiredLeafTable)
{
    // Demotion creates a 4KB leaf table; re-promotion (or releasing a
    // fully reclaimed region) retires it again via clearLevelEntry.
    // The PWC cached that table as a walk starting point — without the
    // superpage-sized shootdown, a later walk would start inside a
    // freed (soon recycled) table frame.
    mem::PhysMem mem{512 * MiB};
    PageTable table{mem};
    stats::StatGroup root{"test"};
    PwcParams pwcp;
    pwcp.entries = 16;
    Walker walker{table, &root, 1, pwcp};

    constexpr VAddr region = 0x00400000;
    table.map(region, 0x00800000, PageSize::Size2M);
    ASSERT_TRUE(table.splitLeaf(region));
    for (int i = 0; i < 4; i++)
        ASSERT_FALSE(walker.walk(region + i * 0x1000, false).pageFault());

    // The PWC now shortcuts straight to the demoted region's 4KB leaf
    // table: this is exactly the stale-hit hazard.
    auto stale = walker.pwc().probe(region + 0x1000);
    ASSERT_TRUE(stale.has_value());
    ASSERT_EQ(stale->first, leafLevel(PageSize::Size4K));

    // Re-promote: retire the leaf table, map the 2MB leaf again.
    table.clearLevelEntry(region, leafLevel(PageSize::Size2M));
    table.map(region, 0x00800000, PageSize::Size2M);
    walker.pwc().invalidate(region, PageSize::Size2M);
    EXPECT_GE(table.reclaimRetiredFrames(), 1u);

    // No stale shortcut into the freed table frame survives ...
    auto after = walker.pwc().probe(region + 0x1000);
    if (after.has_value()) {
        EXPECT_NE(after->second, stale->second);
    }
    // ... and a fresh walk sees the re-promoted superpage.
    auto walk = walker.walk(region + 0x1000, false);
    ASSERT_FALSE(walk.pageFault());
    ASSERT_TRUE(walk.leaf.has_value());
    EXPECT_EQ(walk.leaf->size, PageSize::Size2M);
    EXPECT_EQ(walk.leaf->translate(region + 0x1234), 0x00801234u);
}

TEST(Pwc, StaleProbeWithoutShootdownIsTheHazard)
{
    // Negative control for the test above: skipping the shootdown
    // leaves the PWC pointing at the retired table. This documents
    // why Process::releaseEmptyRegion and tryRepromote2m must fire a
    // superpage-sized invalidate before reclaimRetiredFrames() frees
    // the frame.
    mem::PhysMem mem{512 * MiB};
    PageTable table{mem};
    stats::StatGroup root{"test"};
    PwcParams pwcp;
    pwcp.entries = 16;
    Walker walker{table, &root, 1, pwcp};

    constexpr VAddr region = 0x00400000;
    table.map(region, 0x00800000, PageSize::Size2M);
    ASSERT_TRUE(table.splitLeaf(region));
    ASSERT_FALSE(walker.walk(region, false).pageFault());
    auto stale = walker.pwc().probe(region + 0x1000);
    ASSERT_TRUE(stale.has_value());

    table.clearLevelEntry(region, leafLevel(PageSize::Size2M));
    // No invalidate: the stale shortcut is still there.
    auto still = walker.pwc().probe(region + 0x1000);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->second, stale->second);
}
