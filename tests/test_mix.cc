/**
 * @file
 * Tests for the MIX TLB, built around the paper's running example
 * (Figures 2-4, 7, 8): 4KB translation A, contiguous 2MB superpages
 * B and C, a 2-set TLB.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/intmath.hh"
#include "common/random.hh"
#include "mem/phys_mem.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "tlb/mix.hh"

#include "mix_test_access.hh"

using namespace mixtlb;
using namespace mixtlb::tlb;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

/** Figure 2 of the paper, with a real page table + walker behind it. */
struct MixFixture : ::testing::Test
{
    mem::PhysMem mem{8 * GiB};
    pt::PageTable table{mem};
    stats::StatGroup root{"test"};
    pt::Walker walker{table, &root};

    // Figure 2: A is a 4KB page; B and C are contiguous 2MB superpages
    // at virtual 0x00400000/0x00600000, physical 0x00000000/0x00200000.
    static constexpr VAddr A = 0x00000000;
    static constexpr VAddr B = 0x00400000;
    static constexpr VAddr C = 0x00600000;

    void
    mapFigure2()
    {
        table.map(A, 0x00400000, PageSize::Size4K);
        table.map(B, 0x00000000, PageSize::Size2M);
        table.map(C, 0x00200000, PageSize::Size2M);
    }

    /** Walk (sets A-bits) and return the result for a fill. */
    pt::WalkResult
    walkFor(VAddr vaddr, bool store = false)
    {
        auto result = walker.walk(vaddr, store);
        EXPECT_FALSE(result.pageFault());
        return result;
    }

    MixTlbParams
    twoSetParams(CoalesceMode mode = CoalesceMode::Bitmap)
    {
        MixTlbParams params;
        params.entries = 4;
        params.assoc = 2;
        params.mode = mode;
        return params;
    }

    /** Build a FillInfo from a walk; @p vaddr is the demanded address. */
    static FillInfo
    fillFrom(const pt::WalkResult &walk, VAddr vaddr = 0)
    {
        FillInfo fill;
        fill.leaf = *walk.leaf;
        fill.vaddr = vaddr ? vaddr : walk.leaf->vbase;
        fill.walk = &walk;
        return fill;
    }
};

} // anonymous namespace

TEST_F(MixFixture, SmallPageLookupUnchanged)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams());
    auto walk = walkFor(A);
    tlb.fill(fillFrom(walk));

    auto result = tlb.lookup(A + 0x123, false);
    ASSERT_TRUE(result.hit);
    EXPECT_EQ(result.xlate.translate(A + 0x123), 0x00400123u);
    EXPECT_FALSE(tlb.lookup(A + PageBytes4K, false).hit);
}

TEST_F(MixFixture, SuperpageFillCoalescesContiguousNeighbours)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams());
    // Touch C first so its accessed bit permits coalescing (Sec. 4.4).
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));

    // B and C both hit from the single coalesced (mirrored) entry.
    auto bhit = tlb.lookup(B + 0x1234, false);
    ASSERT_TRUE(bhit.hit);
    EXPECT_EQ(bhit.xlate.translate(B + 0x1234), 0x00001234u);
    auto chit = tlb.lookup(C + 0x4321, false);
    ASSERT_TRUE(chit.hit);
    EXPECT_EQ(chit.xlate.translate(C + 0x4321), 0x00204321u);
    EXPECT_EQ(root.value("mix.coalesces")
                  + root.value("mix.fills"),
              2.0); // one entry per set, however accounted
}

TEST_F(MixFixture, MirrorsServeEvenAndOddRegions)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams());
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));

    // Figure 4: B0, B2 (even 4KB regions) probe set 0; B1, B3 probe
    // set 1. Both must hit because B was mirrored into both sets.
    for (unsigned region = 0; region < 8; region++) {
        auto result = tlb.lookup(B + region * PageBytes4K, false);
        ASSERT_TRUE(result.hit) << "region " << region;
        EXPECT_EQ(result.xlate.translate(B + region * PageBytes4K),
                  region * PageBytes4K);
    }
    EXPECT_EQ(root.value("mix.mirror_writes"), 2.0);
}

TEST_F(MixFixture, UnaccessedNeighbourNotCoalescedAtFill)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams());
    // C has never been walked, so its accessed bit is clear; the x86
    // rule (Sec. 4.4) forbids coalescing it on B's fill.
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    EXPECT_TRUE(tlb.lookup(B, false).hit);
    EXPECT_FALSE(tlb.lookup(C, false).hit);
}

TEST_F(MixFixture, LaterFillExtendsExistingBundle)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams());
    auto walk_b = walkFor(B);
    tlb.fill(fillFrom(walk_b));
    ASSERT_FALSE(tlb.lookup(C, false).hit);

    // A miss on C walks and merges C into B's bundle (Sec. 4.2).
    auto walk_c = walkFor(C);
    tlb.fill(fillFrom(walk_c));
    EXPECT_TRUE(tlb.lookup(C, false).hit);
    EXPECT_GT(root.value("mix.extensions"), 0.0);
}

TEST_F(MixFixture, NonContiguousPhysicalPagesDoNotCoalesce)
{
    table.map(B, 0x00000000, PageSize::Size2M);
    table.map(C, 0x00800000, PageSize::Size2M); // physical gap
    MixTlb tlb("mix", &root, twoSetParams());
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    EXPECT_TRUE(tlb.lookup(B, false).hit);
    // C is present in the line but not PA-contiguous: separate entry
    // needed, so a lookup before filling C misses.
    EXPECT_FALSE(tlb.lookup(C, false).hit);
}

TEST_F(MixFixture, DifferentPermissionsDoNotCoalesce)
{
    table.map(B, 0x00000000, PageSize::Size2M, pt::Perms{true, true});
    table.map(C, 0x00200000, PageSize::Size2M,
              pt::Perms{false, true}); // read-only
    MixTlb tlb("mix", &root, twoSetParams());
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    EXPECT_TRUE(tlb.lookup(B, false).hit);
    EXPECT_FALSE(tlb.lookup(C, false).hit);
}

TEST_F(MixFixture, DuplicateMirrorsCollapseOnProbe)
{
    // Figure 8's scenario on a 2-set, 2-way MIX TLB.
    mapFigure2();
    table.map(0x00001000, 0x00500000, PageSize::Size4K); // D -> set 1
    table.map(0x00003000, 0x00501000, PageSize::Size4K); // E -> set 1
    MixTlb tlb("mix", &root, twoSetParams());

    walkFor(C);
    auto walk_b = walkFor(B);
    tlb.fill(fillFrom(walk_b)); // B-C both sets

    auto walk_a = walkFor(A);
    tlb.fill(fillFrom(walk_a)); // A -> set 0

    // D and E evict set 1's B-C mirror.
    auto walk_d = walkFor(0x00001000);
    tlb.fill(fillFrom(walk_d));
    auto walk_e = walkFor(0x00003000);
    tlb.fill(fillFrom(walk_e));
    EXPECT_FALSE(tlb.lookup(B + PageBytes4K, false).hit); // B1: set 1 miss
    EXPECT_TRUE(tlb.lookup(B, false).hit);                // B0: set 0 hit

    // Refill after the B1 miss: blind mirroring duplicates B-C in set 0.
    auto walk_b1 = walkFor(B + PageBytes4K);
    tlb.fill(fillFrom(walk_b1, B + PageBytes4K));

    // A probe of set 0 collapses duplicates; everything still hits and
    // the set serves both A... (A may have been evicted by the dup) and
    // both superpages.
    EXPECT_TRUE(tlb.lookup(B, false).hit);
    EXPECT_TRUE(tlb.lookup(C, false).hit);
}

TEST_F(MixFixture, BitmapInvalidationKeepsNeighbours)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams(CoalesceMode::Bitmap));
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));

    tlb.invalidate(B, PageSize::Size2M);
    EXPECT_FALSE(tlb.lookup(B, false).hit);
    EXPECT_TRUE(tlb.lookup(C, false).hit); // Sec. 4.4: C survives
}

TEST_F(MixFixture, LengthInvalidationDropsWholeBundle)
{
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams(CoalesceMode::Length));
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    ASSERT_TRUE(tlb.lookup(C, false).hit);

    tlb.invalidate(B, PageSize::Size2M);
    EXPECT_FALSE(tlb.lookup(B, false).hit);
    EXPECT_FALSE(tlb.lookup(C, false).hit); // simple approach drops all
}

TEST_F(MixFixture, LengthModeStoresRuns)
{
    // Map 8 contiguous superpages filling one PD cache line.
    for (int i = 0; i < 8; i++) {
        table.map(B + i * PageBytes2M, 0x10000000 + i * PageBytes2M,
                  PageSize::Size2M);
        walkFor(B + i * PageBytes2M);
    }
    MixTlbParams params = twoSetParams(CoalesceMode::Length);
    params.entries = 16;
    params.assoc = 2; // 8 sets, window = 8 superpages
    MixTlb tlb("mix", &root, params);
    auto walk = walkFor(B + 3 * PageBytes2M);
    tlb.fill(fillFrom(walk));
    for (int i = 0; i < 8; i++) {
        VAddr va = B + i * PageBytes2M + 0x999;
        // Window base is 16MB-aligned = 0x00000000; B (0x00400000) is
        // slot 2. Slots 2..7 sit in B's aligned window; slots beyond
        // come from the next window.
        auto result = tlb.lookup(va, false);
        if (B + i * PageBytes2M < 0x01000000) {
            ASSERT_TRUE(result.hit) << i;
            EXPECT_EQ(result.xlate.translate(va),
                      0x10000000 + i * PageBytes2M + 0x999);
        }
    }
}

TEST_F(MixFixture, AlignmentRestrictionClipsWindow)
{
    // Superpages at slots 2..5 of an 8-slot window coalesce; with a
    // 2-superpage window (2-set TLB), B (slot 2) and C (slot 3) fall in
    // different 2-superpage windows: B pairs with the slot-2 window.
    mapFigure2();
    MixTlb tlb("mix", &root, twoSetParams());
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    // B at 0x00400000 is an even 2MB slot; its 2-wide window is
    // [0x00400000, 0x00800000), which contains C. Both coalesce.
    EXPECT_TRUE(tlb.lookup(B, false).hit);
    EXPECT_TRUE(tlb.lookup(C, false).hit);

    // Now the misaligned pair: superpages at odd/even boundary crossing
    // a window edge must NOT coalesce.
    table.map(0x00a00000, 0x00a00000, PageSize::Size2M); // odd slot 5
    table.map(0x00c00000, 0x00c00000, PageSize::Size2M); // even slot 6
    walkFor(0x00c00000);
    auto walk2 = walkFor(0x00a00000);
    tlb.fill(fillFrom(walk2));
    EXPECT_TRUE(tlb.lookup(0x00a00000, false).hit);
    // 0x00c00000 belongs to the next window: not coalesced by this fill.
    EXPECT_FALSE(tlb.lookup(0x00c00000, false).hit);
}

TEST_F(MixFixture, BundleDirtyBitIsAndOfMembers)
{
    mapFigure2();
    table.setDirty(C); // C dirty, B clean
    MixTlb tlb("mix", &root, twoSetParams());
    walkFor(C);
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    auto result = tlb.lookup(C, false);
    ASSERT_TRUE(result.hit);
    EXPECT_FALSE(result.entryDirty); // B clean -> bundle clean

    // markDirty must not set a multi-page bundle's dirty bit.
    tlb.markDirty(C);
    EXPECT_FALSE(tlb.lookup(C, false).entryDirty);
}

TEST_F(MixFixture, SingletonDirtyBitSets)
{
    table.map(B, 0x00000000, PageSize::Size2M);
    MixTlb tlb("mix", &root, twoSetParams());
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    ASSERT_FALSE(tlb.lookup(B, false).entryDirty);
    tlb.markDirty(B);
    EXPECT_TRUE(tlb.lookup(B, false).entryDirty);
}

TEST_F(MixFixture, ColtModeCoalescesSmallPages)
{
    // Four VA+PA contiguous small pages in one aligned group.
    for (int i = 0; i < 4; i++) {
        table.map(0x00010000 + i * PageBytes4K,
                  0x00800000 + i * PageBytes4K, PageSize::Size4K);
        walkFor(0x00010000 + i * PageBytes4K);
    }
    MixTlbParams params = twoSetParams();
    params.colt4k = 4;
    MixTlb tlb("mixcolt", &root, params);
    auto walk = walkFor(0x00010000);
    tlb.fill(fillFrom(walk));
    for (int i = 0; i < 4; i++) {
        auto result = tlb.lookup(0x00010000 + i * PageBytes4K, false);
        ASSERT_TRUE(result.hit) << i;
        EXPECT_EQ(result.xlate.translate(0x00010000 + i * PageBytes4K),
                  0x00800000u + i * PageBytes4K);
    }
    // One entry in one set serves all four pages.
    EXPECT_EQ(root.value("mixcolt.fills"), 1.0);
}

TEST_F(MixFixture, SuperpageIndexAblationConflictsOnSmallPages)
{
    // With 2MB index bits, adjacent 4KB pages all map to one set
    // (Sec. 3's rejected design): a 2-way TLB thrashes on 3 pages.
    MixTlbParams params = twoSetParams();
    params.superpageIndexBits = true;
    MixTlb tlb("mixsp", &root, params);
    for (int i = 0; i < 3; i++) {
        table.map(0x00010000 + i * PageBytes4K,
                  0x00800000 + i * PageBytes4K, PageSize::Size4K);
        auto walk = walkFor(0x00010000 + i * PageBytes4K);
        tlb.fill(fillFrom(walk));
    }
    // All three went to the same set (2 ways): the first was evicted.
    EXPECT_FALSE(tlb.lookup(0x00010000, false).hit);

    // The normal MIX spreads them over sets and keeps all three.
    MixTlb tlb2("mixnorm", &root, twoSetParams());
    for (int i = 0; i < 3; i++) {
        auto walk = walkFor(0x00010000 + i * PageBytes4K);
        tlb2.fill(fillFrom(walk));
    }
    EXPECT_TRUE(tlb2.lookup(0x00010000, false).hit);
}

TEST_F(MixFixture, OneGigabytePagesSupported)
{
    table.map(4 * GiB, 1 * GiB, PageSize::Size1G);
    MixTlb tlb("mix", &root, twoSetParams());
    auto walk = walkFor(4 * GiB + 0x12345678);
    tlb.fill(fillFrom(walk));
    auto result = tlb.lookup(4 * GiB + 0x9999999, false);
    ASSERT_TRUE(result.hit);
    EXPECT_EQ(result.xlate.size, PageSize::Size1G);
    EXPECT_EQ(result.xlate.translate(4 * GiB + 0x9999999),
              1 * GiB + 0x9999999u);
}

TEST_F(MixFixture, MixedSizesShareTheArray)
{
    mapFigure2();
    MixTlbParams params;
    params.entries = 16;
    params.assoc = 4;
    MixTlb tlb("mix", &root, params);
    auto walk_a = walkFor(A);
    tlb.fill(fillFrom(walk_a));
    walkFor(C);
    auto walk_b = walkFor(B);
    tlb.fill(fillFrom(walk_b));
    EXPECT_TRUE(tlb.lookup(A, false).hit);
    EXPECT_TRUE(tlb.lookup(B, false).hit);
    EXPECT_TRUE(tlb.lookup(C, false).hit);
}

TEST_F(MixFixture, HitsAgreeWithPageTableProperty)
{
    // Property: every MIX hit must agree exactly with the page table.
    Rng rng(123);
    MixTlbParams params;
    params.entries = 64;
    params.assoc = 4;
    MixTlb tlb("mix", &root, params);

    // A mixture of sizes over a 1GB-aligned arena.
    std::vector<VAddr> vas;
    for (int i = 0; i < 20; i++) {
        VAddr va = 8 * GiB + i * PageBytes4K;
        table.map(va, 0x4000000 + i * PageBytes4K, PageSize::Size4K);
        vas.push_back(va);
    }
    for (int i = 0; i < 20; i++) {
        VAddr va = 9 * GiB + i * PageBytes2M;
        table.map(va, 0x40000000ULL + i * PageBytes2M, PageSize::Size2M);
        vas.push_back(va + (rng.next() % PageBytes2M));
    }

    for (int iter = 0; iter < 5000; iter++) {
        VAddr va = vas[rng.nextBounded(vas.size())];
        va = pageBase(va, PageSize::Size4K) + rng.nextBounded(PageBytes4K);
        auto result = tlb.lookup(va, false);
        auto truth = table.translate(va);
        ASSERT_TRUE(truth.has_value());
        if (result.hit) {
            ASSERT_EQ(result.xlate.translate(va), truth->translate(va))
                << std::hex << va;
        } else {
            auto walk = walkFor(va);
            tlb.fill(fillFrom(walk));
        }
    }
}

TEST_F(MixFixture, DirtyUpdateReachesMirrorCopies)
{
    // B alone: a singleton bundle, mirrored into both sets.
    table.map(B, 0x00000000, PageSize::Size2M);
    MixTlb tlb("mix", &root, twoSetParams());
    auto walk = walkFor(B);
    tlb.fill(fillFrom(walk));
    ASSERT_FALSE(tlb.lookup(B, false).entryDirty);
    ASSERT_FALSE(tlb.lookup(B + PageBytes4K, false).entryDirty);

    // The dirty micro-op probes set 0 (B's even 4KB regions); the
    // mirror in set 1 must be updated too, or a later probe of B
    // through an odd 4KB region hits a clean mirror and the hierarchy
    // re-issues the dirty micro-op for an already-dirty page.
    tlb.markDirty(B);
    EXPECT_TRUE(tlb.lookup(B, false).entryDirty);
    EXPECT_TRUE(tlb.lookup(B + PageBytes4K, false).entryDirty);
}

TEST(MixParams, RejectsColtWindowBeyondBitmap)
{
    // colt4k > 64 would shift the 64-bit membership bitmap by >= 64
    // (undefined behaviour) in buildEntry/invalidate; the constructor
    // must reject the configuration outright.
    stats::StatGroup root("guard");
    MixTlbParams params;
    params.entries = 256;
    params.assoc = 2;
    params.colt4k = 128;
    EXPECT_EXIT({ MixTlb tlb("bad", &root, params); },
                ::testing::ExitedWithCode(1), "colt4k");
}

namespace
{

using Entry = MixTlbTestAccess::Entry;

/**
 * MixTlb::buildEntry in its per-page form: every walk-line slot and
 * every bundle page is checked on its own (perms, window, PA
 * affinity), with divides, and runs are walked bit by bit. The oracle
 * for BundleIntersection.MatchesPerPageReference, which checks that
 * the slot-range intersection builds the same entry.
 */
Entry
referenceBuildEntry(const MixTlbParams &params, unsigned max_coalesce,
                    const FillInfo &fill)
{
    const pt::Translation &leaf = fill.leaf;
    const unsigned group =
        leaf.size == PageSize::Size4K ? params.colt4k : max_coalesce;
    const std::uint64_t page = pageBytes(leaf.size);
    const std::uint64_t span = group * page;

    Entry entry{};
    entry.size = leaf.size;
    entry.asid = 0;
    entry.perms = leaf.perms;
    entry.wbase = params.alignmentRestricted
                      ? leaf.vbase - leaf.vbase % span
                      : leaf.vbase;
    const auto leaf_slot =
        static_cast<unsigned>((leaf.vbase - entry.wbase) / page);
    entry.wpbase = leaf.pbase - leaf_slot * page;
    entry.dirty = leaf.dirty;

    const bool leaf_tracked = leaf_slot < 64;
    std::uint64_t present = leaf_tracked ? pow2(leaf_slot) : 0;
    std::uint64_t all_dirty =
        leaf.dirty || !leaf_tracked ? ~0ULL : ~pow2(leaf_slot);
    auto consider = [&](VAddr vbase, PAddr pbase, pt::Perms perms,
                        bool dirty) {
        if (perms != leaf.perms || vbase < entry.wbase)
            return;
        const std::uint64_t slot = (vbase - entry.wbase) / page;
        if (slot >= group || slot >= 64)
            return;
        if (pbase != entry.wpbase + slot * page)
            return;
        present |= pow2(static_cast<unsigned>(slot));
        if (!dirty)
            all_dirty &= ~pow2(static_cast<unsigned>(slot));
    };
    if (fill.walk && !fill.walk->pageFault() &&
        fill.walk->lineGranularity == leaf.size) {
        for (const auto &slot : fill.walk->line) {
            if (slot.present && slot.xlate.accessed) {
                consider(slot.xlate.vbase, slot.xlate.pbase,
                         slot.xlate.perms, slot.xlate.dirty);
            }
        }
    }
    if (fill.bundle && fill.bundle->size == leaf.size) {
        const BundleInfo &bundle = *fill.bundle;
        for (std::uint64_t i = 0; i < bundle.count; i++) {
            consider(bundle.vbase + i * page, bundle.pbase + i * page,
                     bundle.perms, bundle.dirty);
        }
    }

    auto tracked = [&](unsigned slot) {
        return slot < 64 && ((present >> (slot & 63)) & 1) != 0;
    };
    if (leaf.size != PageSize::Size4K &&
        params.mode == CoalesceMode::Length) {
        unsigned lo = leaf_slot;
        while (lo > 0 && tracked(lo - 1))
            lo--;
        unsigned hi = leaf_slot;
        while (hi + 1 < group && tracked(hi + 1))
            hi++;
        entry.runStart = lo;
        entry.length = hi - lo + 1;
        if (lo >= 64) {
            entry.dirty = leaf.dirty;
        } else {
            const std::uint64_t run_mask =
                entry.length >= 64 ? ~0ULL
                                   : shiftLeft(pow2(entry.length) - 1, lo);
            entry.dirty = leaf.dirty && (all_dirty & run_mask) == run_mask;
        }
    } else {
        entry.bitmap = present;
        entry.dirty = (all_dirty & present) == present;
    }
    return entry;
}

bool
referencePresent(const Entry &entry, unsigned slot, CoalesceMode mode)
{
    if (entry.size == PageSize::Size4K || mode == CoalesceMode::Bitmap)
        return slot < 64 && ((entry.bitmap >> (slot & 63)) & 1) != 0;
    return slot >= entry.runStart && slot < entry.runStart + entry.length;
}

/** The bundle a hit on @p slot reports, by the per-bit walk. */
BundleInfo
referenceBundle(const Entry &entry, unsigned slot, unsigned group,
                CoalesceMode mode)
{
    unsigned lo = slot, hi = slot;
    if (entry.size == PageSize::Size4K || mode == CoalesceMode::Bitmap) {
        while (lo > 0 && referencePresent(entry, lo - 1, mode))
            lo--;
        while (hi + 1 < group && referencePresent(entry, hi + 1, mode))
            hi++;
    } else {
        lo = entry.runStart;
        hi = entry.runStart + entry.length - 1;
    }
    const std::uint64_t page = pageBytes(entry.size);
    BundleInfo bundle;
    bundle.vbase = entry.wbase + lo * page;
    bundle.pbase = entry.wpbase + lo * page;
    bundle.size = entry.size;
    bundle.count = hi - lo + 1;
    bundle.perms = entry.perms;
    bundle.dirty = entry.dirty;
    return bundle;
}

struct BundleGeometry
{
    const char *name;
    std::uint64_t entries;
    unsigned assoc;
    CoalesceMode mode;
    unsigned colt4k;
    bool aligned;
    PageSize size;
};

class BundleIntersection : public ::testing::TestWithParam<BundleGeometry>
{
};

} // anonymous namespace

// Seeded fills carrying a walk line and/or an upper-level bundle. The
// bundles straddle either window edge, start past slot 63 (68-slot L2
// windows), sit one page off the window's PA affinity, carry other
// perms, are clean or dirty, and hold 1 to 200 pages. The built entry
// and every window slot's lookup on a fresh TLB must match the
// per-page reference.
TEST_P(BundleIntersection, MatchesPerPageReference)
{
    const BundleGeometry &geometry = GetParam();
    MixTlbParams params;
    params.entries = geometry.entries;
    params.assoc = geometry.assoc;
    params.mode = geometry.mode;
    params.colt4k = geometry.colt4k;
    params.alignmentRestricted = geometry.aligned;
    const PageSize size = geometry.size;
    const std::uint64_t page = pageBytes(size);
    const pt::Perms perms[2] = {pt::Perms{}, pt::Perms{false, true, true}};

    Rng rng(0x5eed + static_cast<unsigned>(size));
    for (int iter = 0; iter < 600; iter++) {
        SCOPED_TRACE(testing::Message() << "fill " << iter);
        stats::StatGroup root("bundle");
        MixTlb tlb("mix", &root, params);
        const unsigned group = size == PageSize::Size4K
                                   ? params.colt4k
                                   : tlb.maxCoalesce();
        const std::uint64_t span = group * page;

        // The leaf: a random slot of a random window.
        const VAddr region = (1ULL << 44) + rng.nextBounded(1ULL << 40);
        const VAddr wbase = region - region % span;
        const unsigned leaf_slot =
            static_cast<unsigned>(rng.nextBounded(group));
        FillInfo fill;
        fill.leaf.vbase = wbase + leaf_slot * page;
        fill.leaf.pbase =
            (1ULL << 40) + rng.nextBounded(1ULL << 16) * page;
        fill.leaf.size = size;
        fill.leaf.perms = perms[rng.nextBounded(2)];
        fill.leaf.accessed = true;
        fill.leaf.dirty = rng.chance(0.5);
        fill.vaddr = fill.leaf.vbase + rng.nextBounded(page);
        // The window the entry will anchor (floating: at the leaf).
        const VAddr anchor = geometry.aligned ? wbase : fill.leaf.vbase;
        const PAddr panchor =
            fill.leaf.pbase - (fill.leaf.vbase - anchor);

        pt::WalkResult walk;
        if (rng.chance(0.5)) {
            // A walk line of 8 slots around the leaf, some off the
            // window's PA affinity, unaccessed, or of other perms.
            walk.leaf = fill.leaf;
            walk.lineGranularity = size;
            const VAddr line = fill.leaf.vbase - (leaf_slot % 8) * page;
            for (unsigned i = 0; i < 8; i++) {
                pt::LinePte pte;
                pte.present = rng.chance(0.8);
                pte.xlate.vbase = line + i * page;
                pte.xlate.pbase = panchor + (pte.xlate.vbase - anchor) +
                                  (rng.chance(0.2) ? page : 0);
                pte.xlate.size = size;
                pte.xlate.perms =
                    rng.chance(0.85) ? fill.leaf.perms : perms[1];
                pte.xlate.accessed = rng.chance(0.85);
                pte.xlate.dirty = rng.chance(0.5);
                walk.line.push_back(pte);
            }
            fill.walk = &walk;
        }
        if (rng.chance(0.9)) {
            BundleInfo bundle;
            bundle.count = 1 + rng.nextBounded(200);
            // Start slot relative to the anchor: anywhere from fully
            // below the window to past its end, or past slot 63.
            std::int64_t start;
            if (group > 64 && rng.chance(0.2)) {
                start = 60 + static_cast<std::int64_t>(
                                 rng.nextBounded(group - 56));
            } else {
                const auto lo = -static_cast<std::int64_t>(bundle.count) - 2;
                start = lo + static_cast<std::int64_t>(rng.nextBounded(
                                 static_cast<std::uint64_t>(group + 4 - lo)));
            }
            const auto offset = static_cast<std::uint64_t>(start) * page;
            bundle.vbase = anchor + offset;
            bundle.pbase = panchor + offset;
            if (rng.chance(0.2))
                bundle.pbase += rng.chance(0.5) ? page : 0 - page;
            bundle.size = rng.chance(0.95) ? size
                                           : (size == PageSize::Size2M
                                                  ? PageSize::Size1G
                                                  : PageSize::Size2M);
            bundle.perms = rng.chance(0.8) ? fill.leaf.perms : perms[1];
            bundle.dirty = rng.chance(0.5);
            fill.bundle = bundle;
        }

        const Entry want =
            referenceBuildEntry(params, tlb.maxCoalesce(), fill);
        const Entry got = MixTlbTestAccess::buildEntry(tlb, fill);
        ASSERT_EQ(got.size, want.size);
        ASSERT_EQ(got.wbase, want.wbase);
        ASSERT_EQ(got.wpbase, want.wpbase);
        ASSERT_EQ(got.bitmap, want.bitmap);
        ASSERT_EQ(got.runStart, want.runStart);
        ASSERT_EQ(got.length, want.length);
        ASSERT_EQ(got.perms, want.perms);
        ASSERT_EQ(got.dirty, want.dirty);

        tlb.fill(fill);
        for (unsigned slot = 0; slot < group; slot++) {
            SCOPED_TRACE(testing::Message() << "slot " << slot);
            const VAddr va = want.wbase + slot * page + (page - 1) / 2;
            const auto result = tlb.lookup(va, false);
            const bool present =
                referencePresent(want, slot, params.mode);
            ASSERT_EQ(result.hit, present);
            if (!present)
                continue;
            EXPECT_EQ(result.entryDirty, want.dirty);
            EXPECT_EQ(result.xlate.translate(va),
                      want.wpbase + (va - want.wbase));
            const BundleInfo ref =
                referenceBundle(want, slot, group, params.mode);
            ASSERT_TRUE(result.bundle.has_value());
            EXPECT_EQ(result.bundle->vbase, ref.vbase);
            EXPECT_EQ(result.bundle->pbase, ref.pbase);
            EXPECT_EQ(result.bundle->count, ref.count);
            EXPECT_EQ(result.bundle->dirty, ref.dirty);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BundleIntersection,
    ::testing::Values(
        BundleGeometry{"L1Bitmap2M", 96, 6, CoalesceMode::Bitmap, 1, true,
                       PageSize::Size2M},
        BundleGeometry{"L1Bitmap1G", 96, 6, CoalesceMode::Bitmap, 1, true,
                       PageSize::Size1G},
        BundleGeometry{"L2Length2M", 544, 8, CoalesceMode::Length, 1,
                       true, PageSize::Size2M},
        BundleGeometry{"Colt4K", 96, 6, CoalesceMode::Bitmap, 4, true,
                       PageSize::Size4K},
        BundleGeometry{"FloatingL1", 96, 6, CoalesceMode::Bitmap, 1,
                       false, PageSize::Size2M},
        BundleGeometry{"FloatingL2", 544, 8, CoalesceMode::Length, 1,
                       false, PageSize::Size2M}),
    [](const ::testing::TestParamInfo<BundleGeometry> &info) {
        return std::string(info.param.name);
    });

TEST(LengthWindow, CleanLeafPastScratchMapKeepsRunClean)
{
    // An L2 (Length) window has 68 slots, and the fill's scratch map
    // tracks only slots 0-63. A clean leaf at slot 64 whose run reaches
    // down into a dirty bundle at slots 60-63 is still a member of the
    // run, so the run is clean: a dirty one would let a store to the
    // leaf skip the micro-op that sets its D bit.
    MixTlbParams params;
    params.entries = 544;
    params.assoc = 8;
    params.mode = CoalesceMode::Length;
    stats::StatGroup root("slot64");
    MixTlb tlb("mix", &root, params);
    ASSERT_EQ(tlb.maxCoalesce(), 68u);

    const VAddr wbase = 68 * PageBytes2M;
    const PAddr wpbase = 1 * GiB;
    FillInfo fill;
    fill.leaf.vbase = wbase + 64 * PageBytes2M;
    fill.leaf.pbase = wpbase + 64 * PageBytes2M;
    fill.leaf.size = PageSize::Size2M;
    fill.leaf.accessed = true;
    fill.leaf.dirty = false;
    fill.vaddr = fill.leaf.vbase;
    BundleInfo bundle;
    bundle.vbase = wbase + 60 * PageBytes2M;
    bundle.pbase = wpbase + 60 * PageBytes2M;
    bundle.size = PageSize::Size2M;
    bundle.count = 4;
    bundle.perms = fill.leaf.perms;
    bundle.dirty = true;
    fill.bundle = bundle;

    for (const Entry &entry :
         {MixTlbTestAccess::buildEntry(tlb, fill),
          referenceBuildEntry(params, tlb.maxCoalesce(), fill)}) {
        EXPECT_EQ(entry.runStart, 60u);
        EXPECT_EQ(entry.length, 5u);
        EXPECT_FALSE(entry.dirty);
    }
    tlb.fill(fill);
    const auto result = tlb.lookup(fill.leaf.vbase, true);
    ASSERT_TRUE(result.hit);
    EXPECT_FALSE(result.entryDirty);
}
