/**
 * @file
 * Property-based tests (parameterized sweeps) over the TLB design
 * space. The central invariant for every design and geometry: a TLB
 * hit must return EXACTLY the page table's translation — regardless of
 * page-size mix, coalescing, mirroring, duplication, invalidation, or
 * migration history.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "tlb/tag_lane.hh"
#include "mem/phys_mem.hh"
#include "os/memhog.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "sim/machine.hh"
#include "tlb/hierarchy.hh"
#include "tlb/mix.hh"
#include "tlb/set_assoc.hh"
#include "tlb/skew.hh"
#include "tlb/split.hh"
#include "workload/generator.hh"

using namespace mixtlb;
using namespace mixtlb::tlb;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

/** A mapped mixed-page-size address space to fuzz against. */
struct Arena
{
    mem::PhysMem mem{8 * GiB};
    pt::PageTable table{mem};
    stats::StatGroup root{"prop"};
    pt::Walker walker{table, &root, 8};
    std::vector<VAddr> pages; ///< one representative VA per page

    explicit Arena(std::uint64_t seed)
    {
        Rng rng(seed);
        // 4KB pages, some contiguous.
        PAddr pa = 0x10000000;
        for (int i = 0; i < 64; i++) {
            VAddr va = 0x00010000 + i * PageBytes4K;
            table.map(va, pa, PageSize::Size4K);
            pa += rng.chance(0.7) ? PageBytes4K : 3 * PageBytes4K;
            pages.push_back(va);
        }
        // 2MB superpages: one long contiguous run plus scattered ones.
        pa = 0x40000000;
        for (int i = 0; i < 24; i++) {
            VAddr va = 0x40000000 + static_cast<VAddr>(i) * PageBytes2M;
            table.map(va, pa, PageSize::Size2M);
            pa += rng.chance(0.8) ? PageBytes2M : 5 * PageBytes2M;
            pages.push_back(va);
        }
        // 1GB pages.
        table.map(8 * GiB, 1 * GiB, PageSize::Size1G);
        table.map(9 * GiB, 2 * GiB, PageSize::Size1G);
        pages.push_back(8 * GiB);
        pages.push_back(9 * GiB);
    }

    VAddr
    randomAddr(Rng &rng)
    {
        VAddr page = pages[rng.nextBounded(pages.size())];
        auto size = table.translate(page)->size;
        return page + rng.nextBounded(pageBytes(size));
    }
};

/**
 * Fuzz one TLB: random lookups; misses are walked and filled; every
 * hit must agree with the page table, and a hit may claim its entry
 * dirty only when the page's PTE is (a store trusting a dirty entry
 * skips the micro-op that sets the D bit). A store hit on a clean
 * entry runs that micro-op, as TlbHierarchy::dirtyMicroOp does.
 * Random invalidations and re-maps are thrown in.
 */
void
fuzzAgainstPageTable(BaseTlb &tlb, Arena &arena, std::uint64_t seed,
                     int iterations = 20000)
{
    Rng rng(seed);
    for (int i = 0; i < iterations; i++) {
        VAddr va = arena.randomAddr(rng);
        bool store = rng.chance(0.3);
        auto result = tlb.lookup(va, store);
        auto truth = arena.table.translate(va);
        ASSERT_TRUE(truth.has_value());
        if (result.hit) {
            ASSERT_EQ(result.xlate.translate(va), truth->translate(va))
                << std::hex << "va=0x" << va;
            ASSERT_TRUE(!result.entryDirty || truth->dirty)
                << std::hex << "clean PTE behind a dirty entry, va=0x"
                << va;
            if (store && !result.entryDirty) {
                arena.table.setDirty(va);
                tlb.markDirty(va);
            }
        } else if (tlb.supports(truth->size)) {
            auto walk = arena.walker.walk(va, store);
            ASSERT_FALSE(walk.pageFault());
            FillInfo fill;
            fill.leaf = *walk.leaf;
            fill.vaddr = va;
            fill.walk = &walk;
            tlb.fill(fill);
            auto again = tlb.lookup(va, store);
            ASSERT_TRUE(again.hit) << std::hex << "va=0x" << va;
            ASSERT_EQ(again.xlate.translate(va), truth->translate(va));
        }
        // Occasional shootdowns keep the invalidation paths honest.
        if (rng.chance(0.002)) {
            VAddr page = arena.pages[rng.nextBounded(
                arena.pages.size())];
            auto size = arena.table.translate(page)->size;
            tlb.invalidate(page, size);
            ASSERT_FALSE(tlb.lookup(page, false).hit);
        }
    }
}

struct MixGeometry
{
    std::uint64_t entries;
    unsigned assoc;
    CoalesceMode mode;
    unsigned colt4k;
    bool alignment;
};

class MixProperty : public ::testing::TestWithParam<MixGeometry>
{
};

} // anonymous namespace

TEST_P(MixProperty, HitsAlwaysAgreeWithPageTable)
{
    const auto &geometry = GetParam();
    Arena arena(42);
    MixTlbParams params;
    params.entries = geometry.entries;
    params.assoc = geometry.assoc;
    params.mode = geometry.mode;
    params.colt4k = geometry.colt4k;
    params.alignmentRestricted = geometry.alignment;
    MixTlb tlb("mix", &arena.root, params);
    fuzzAgainstPageTable(tlb, arena, 7);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MixProperty,
    ::testing::Values(
        MixGeometry{4, 2, CoalesceMode::Bitmap, 1, true},
        MixGeometry{4, 2, CoalesceMode::Length, 1, true},
        MixGeometry{96, 6, CoalesceMode::Bitmap, 1, true},
        MixGeometry{96, 6, CoalesceMode::Bitmap, 4, true},
        MixGeometry{544, 8, CoalesceMode::Length, 1, true},
        MixGeometry{544, 8, CoalesceMode::Length, 4, true},
        MixGeometry{544, 8, CoalesceMode::Length, 1, false},
        MixGeometry{96, 6, CoalesceMode::Bitmap, 1, false},
        MixGeometry{128, 2, CoalesceMode::Bitmap, 1, true},
        MixGeometry{64, 64, CoalesceMode::Length, 1, true}));

namespace
{

class MixSuperIndexProperty : public ::testing::TestWithParam<unsigned>
{
};

} // anonymous namespace

TEST_P(MixSuperIndexProperty, AblationModeStaysCorrect)
{
    Arena arena(43);
    MixTlbParams params;
    params.entries = 96;
    params.assoc = GetParam();
    params.superpageIndexBits = true;
    MixTlb tlb("mixsp", &arena.root, params);
    fuzzAgainstPageTable(tlb, arena, 11);
}

INSTANTIATE_TEST_SUITE_P(Assocs, MixSuperIndexProperty,
                         ::testing::Values(2u, 4u, 6u));

namespace
{

/** The non-MIX designs and the COLT components behind the same fuzz. */
enum class Family
{
    Split,
    HashRehash,
    HashRehashPred,
    Skew,
    SkewPred,
    Colt4K,
    Colt2M, ///< colt++'s L2 superpage components
    Colt1G,
};

class FamilyProperty : public ::testing::TestWithParam<Family>
{
  public:
    static std::unique_ptr<BaseTlb>
    build(Family family, stats::StatGroup *root)
    {
        switch (family) {
          case Family::Split: {
            auto split = std::make_unique<SplitTlb>("t", root);
            split->addComponent(std::make_unique<SetAssocTlb>(
                "t4k", root, SetAssocParams{64, 4, {PageSize::Size4K}}));
            split->addComponent(std::make_unique<SetAssocTlb>(
                "t2m", root, SetAssocParams{32, 4, {PageSize::Size2M}}));
            split->addComponent(std::make_unique<SetAssocTlb>(
                "t1g", root, SetAssocParams{4, 4, {PageSize::Size1G}}));
            return split;
          }
          case Family::HashRehash:
          case Family::HashRehashPred: {
            SetAssocParams params;
            params.entries = 96;
            params.assoc = 6;
            params.usePredictor = family == Family::HashRehashPred;
            return std::make_unique<SetAssocTlb>("t", root, params);
          }
          case Family::Skew:
          case Family::SkewPred: {
            SkewTlbParams params;
            params.setsPerWay = 16;
            params.usePredictor = family == Family::SkewPred;
            return std::make_unique<SkewTlb>("t", root, params);
          }
          case Family::Colt4K:
            return std::make_unique<MixTlb>(
                "t", root, coltParams(64, 4, PageSize::Size4K));
          case Family::Colt2M:
            return std::make_unique<MixTlb>(
                "t", root, coltParams(256, 8, PageSize::Size2M));
          case Family::Colt1G:
            return std::make_unique<MixTlb>(
                "t", root, coltParams(32, 4, PageSize::Size1G));
        }
        return nullptr;
    }
};

} // anonymous namespace

TEST_P(FamilyProperty, HitsAlwaysAgreeWithPageTable)
{
    Arena arena(44);
    auto tlb = build(GetParam(), &arena.root);
    fuzzAgainstPageTable(*tlb, arena, 13);
}

INSTANTIATE_TEST_SUITE_P(Designs, FamilyProperty,
                         ::testing::Values(Family::Split,
                                           Family::HashRehash,
                                           Family::HashRehashPred,
                                           Family::Skew,
                                           Family::SkewPred,
                                           Family::Colt4K,
                                           Family::Colt2M,
                                           Family::Colt1G));

namespace
{

/** End-to-end invariant under OS churn: migration + shootdowns. */
class MigrationProperty : public ::testing::TestWithParam<int>
{
};

} // anonymous namespace

TEST_P(MigrationProperty, TranslationsSurviveCompactionChurn)
{
    // A THS process under heavy fragmentation; compaction migrates
    // pages mid-run while we fuzz translations through a MIX
    // hierarchy-like flow at the page-table level.
    mem::PhysMem mem(1 * GiB);
    stats::StatGroup root("prop");
    os::MemoryManager mm(mem, &root,
                         os::CompactionParams{
                             .maxCandidates = 64,
                             .deferOnFailure = true,
                             .minFreeFraction = 0.02,
                             .fullEffortFreeFraction = 0.05,
                             .seed = static_cast<std::uint64_t>(
                                 GetParam())});
    os::Memhog hog(mm, 0.0);
    hog.fragment(0.4, GetParam());
    os::ProcessParams proc_params;
    proc_params.policy = os::PagePolicy::SmallOnly;
    os::Process proc(mm, proc_params, &root);
    VAddr base = proc.mmap(128 * MiB);
    for (VAddr va = base; va < base + 64 * MiB; va += PageBytes4K)
        proc.touch(va);

    Rng rng(GetParam());
    for (int i = 0; i < 200; i++) {
        // Force compaction (migrates process pages).
        mm.allocContiguous(mem::Order2M, mem::FrameUse::AppHuge, true);
        // Every page must still translate, and A/D state is preserved.
        for (int j = 0; j < 50; j++) {
            VAddr va = base + rng.nextBounded(64 * MiB);
            auto xlate = proc.pageTable().translate(va);
            ASSERT_TRUE(xlate.has_value());
            ASSERT_EQ(mem.frameUse(xlate->pfn4k()),
                      mem::FrameUse::AppSmall);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationProperty,
                         ::testing::Values(1, 2, 3));

namespace
{

/**
 * Bit-exactness of the SoA tag-lane fast path: every design driven
 * through an identical interleaved op stream with the packed tag scan
 * on and off must produce identical lookup results, identical
 * statistics, and identical post-state. Two arenas are built from the
 * same seed (so they are equal) and each TLB gets its own — the
 * walkers' stats then also evolve in lockstep, letting the final check
 * compare the full stat dumps byte for byte.
 */
struct ReferenceScanGuard
{
    bool prev = referenceScanEnabled();
    ~ReferenceScanGuard() { setReferenceScanEnabled(prev); }
};

void
expectLookupEq(const TlbLookup &a, const TlbLookup &b, VAddr va)
{
    ASSERT_EQ(a.hit, b.hit) << std::hex << "va=0x" << va;
    EXPECT_EQ(a.probes, b.probes) << std::hex << "va=0x" << va;
    EXPECT_EQ(a.waysRead, b.waysRead) << std::hex << "va=0x" << va;
    EXPECT_EQ(a.entryDirty, b.entryDirty) << std::hex << "va=0x" << va;
    if (a.hit) {
        EXPECT_EQ(a.xlate.vbase, b.xlate.vbase);
        EXPECT_EQ(a.xlate.pbase, b.xlate.pbase);
        EXPECT_EQ(a.xlate.size, b.xlate.size);
        EXPECT_TRUE(a.xlate.perms == b.xlate.perms);
        EXPECT_EQ(a.xlate.accessed, b.xlate.accessed);
        EXPECT_EQ(a.xlate.dirty, b.xlate.dirty);
    }
    ASSERT_EQ(a.bundle.has_value(), b.bundle.has_value())
        << std::hex << "va=0x" << va;
    if (a.bundle) {
        EXPECT_EQ(a.bundle->vbase, b.bundle->vbase);
        EXPECT_EQ(a.bundle->pbase, b.bundle->pbase);
        EXPECT_EQ(a.bundle->size, b.bundle->size);
        EXPECT_EQ(a.bundle->count, b.bundle->count);
        EXPECT_TRUE(a.bundle->perms == b.bundle->perms);
        EXPECT_EQ(a.bundle->dirty, b.bundle->dirty);
    }
}

std::string
statDump(stats::StatGroup &group)
{
    std::ostringstream os;
    group.dump(os);
    return os.str();
}

/**
 * The bundle an upper-level TLB would hand down with @p leaf: the run
 * of same-size, same-perms pages around it that @p table maps VA- and
 * PA-contiguously, clipped to a random reach of under 80 pages each
 * way. Some bundles are then broken on purpose (PA one page off, or
 * other perms), which a fill must reject as a whole.
 */
BundleInfo
bundleFromTable(const pt::PageTable &table, const pt::Translation &leaf,
                Rng &rng)
{
    const std::uint64_t page = pageBytes(leaf.size);
    const auto contiguous = [&](VAddr vbase) {
        auto xlate = table.translate(vbase);
        return xlate && xlate->size == leaf.size &&
               xlate->perms == leaf.perms &&
               xlate->pbase - xlate->vbase == leaf.pbase - leaf.vbase;
    };
    VAddr lo = leaf.vbase;
    VAddr hi = leaf.vbase + page;
    for (auto reach = rng.nextBounded(80);
         reach > 0 && lo >= page && contiguous(lo - page); reach--) {
        lo -= page;
    }
    for (auto reach = rng.nextBounded(80);
         reach > 0 && contiguous(hi); reach--) {
        hi += page;
    }
    BundleInfo bundle;
    bundle.vbase = lo;
    bundle.pbase = leaf.pbase - (leaf.vbase - lo);
    bundle.size = leaf.size;
    bundle.count = (hi - lo) / page;
    bundle.perms = leaf.perms;
    bundle.dirty = rng.chance(0.5);
    if (rng.chance(0.15))
        bundle.pbase += page;
    else if (rng.chance(0.15))
        bundle.perms.writable = !bundle.perms.writable;
    return bundle;
}

template <typename Build>
void
compareScanModes(Build &&build, std::uint64_t seed)
{
    ReferenceScanGuard guard;
    setReferenceScanEnabled(true);
    Arena ref_arena(seed);
    auto ref = build(&ref_arena.root);
    setReferenceScanEnabled(false);
    Arena soa_arena(seed);
    auto soa = build(&soa_arena.root);

    // About 30% of fills also carry a bundle, as an L2 hit's refill
    // of L1 does. Its own generator leaves the op stream unchanged.
    Rng bundle_rng(seed * 0x2545f4914f6cdd1dULL + 3);
    const auto fillBoth = [&](VAddr va, bool store) {
        auto ref_walk = ref_arena.walker.walk(va, store);
        auto soa_walk = soa_arena.walker.walk(va, store);
        ASSERT_FALSE(ref_walk.pageFault());
        ASSERT_FALSE(soa_walk.pageFault());
        std::optional<BundleInfo> bundle;
        if (bundle_rng.chance(0.3)) {
            bundle = bundleFromTable(ref_arena.table, *ref_walk.leaf,
                                     bundle_rng);
        }
        FillInfo ref_fill;
        ref_fill.leaf = *ref_walk.leaf;
        ref_fill.vaddr = va;
        ref_fill.walk = &ref_walk;
        ref_fill.bundle = bundle;
        ref->fill(ref_fill);
        FillInfo soa_fill;
        soa_fill.leaf = *soa_walk.leaf;
        soa_fill.vaddr = va;
        soa_fill.walk = &soa_walk;
        soa_fill.bundle = bundle;
        soa->fill(soa_fill);
    };

    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const Asid asids[] = {0, 1, 2};
    for (int i = 0; i < 20000; i++) {
        if (rng.chance(0.001)) {
            Asid asid = asids[rng.nextBounded(3)];
            ref->setAsid(asid);
            soa->setAsid(asid);
        }
        VAddr va = ref_arena.randomAddr(rng);
        bool store = rng.chance(0.3);
        auto ref_result = ref->lookup(va, store);
        auto soa_result = soa->lookup(va, store);
        expectLookupEq(ref_result, soa_result, va);
        auto truth = ref_arena.table.translate(va);
        ASSERT_TRUE(truth.has_value());
        if (!ref_result.hit && ref->supports(truth->size))
            fillBoth(va, store);
        if (rng.chance(0.05)) {
            ref->markDirty(va);
            soa->markDirty(va);
        }
        if (rng.chance(0.004)) {
            VAddr page =
                ref_arena.pages[rng.nextBounded(ref_arena.pages.size())];
            auto size = ref_arena.table.translate(page)->size;
            ref->invalidate(page, size);
            soa->invalidate(page, size);
        }
        if (rng.chance(0.001)) {
            Asid asid = asids[rng.nextBounded(3)];
            ref->invalidateAsid(asid);
            soa->invalidateAsid(asid);
        }
    }

    // Post-state: a full deterministic sweep (lookups mutate MRU
    // order, but both sides see the same sweep, so they stay in
    // lockstep) followed by a byte-for-byte stat comparison.
    ref->setAsid(0);
    soa->setAsid(0);
    for (VAddr page : ref_arena.pages) {
        auto size = ref_arena.table.translate(page)->size;
        for (VAddr off : {VAddr(0), VAddr(0x40),
                          VAddr(pageBytes(size) - 1)}) {
            expectLookupEq(ref->lookup(page + off, false),
                           soa->lookup(page + off, false), page + off);
        }
    }
    EXPECT_EQ(statDump(ref_arena.root), statDump(soa_arena.root));
}

} // anonymous namespace

TEST_P(FamilyProperty, SoaTagLanesMatchReferenceScan)
{
    const Family family = GetParam();
    compareScanModes(
        [&](stats::StatGroup *root) {
            return FamilyProperty::build(family, root);
        },
        17);
}

TEST_P(MixProperty, SoaTagLanesMatchReferenceScan)
{
    const auto &geometry = GetParam();
    compareScanModes(
        [&](stats::StatGroup *root) {
            MixTlbParams params;
            params.entries = geometry.entries;
            params.assoc = geometry.assoc;
            params.mode = geometry.mode;
            params.colt4k = geometry.colt4k;
            params.alignmentRestricted = geometry.alignment;
            return std::make_unique<MixTlb>("mix", root, params);
        },
        19);
}

namespace
{

/**
 * Bit-exactness of the L0 MRU translation filter: a full machine run
 * with the filter on must leave every modeled statistic identical to
 * the same run with it off. The dump covers both TLB levels, the
 * walker, the caches, and the OS, so any replay that diverged from
 * the full path — a missed counter, a stale latency, a skipped dirty
 * micro-op — shows up as a dump mismatch.
 */
class L0FilterProperty
    : public ::testing::TestWithParam<sim::TlbDesign>
{
  public:
    static std::string
    runOnce(sim::TlbDesign design, bool filter_on)
    {
        tlb::setL0FilterEnabled(filter_on);
        sim::MachineParams params;
        params.name = "m";
        params.memBytes = 512 * MiB;
        params.design = design;
        params.seed = 5;
        sim::Machine machine(params);
        VAddr base = machine.mapArena(32 * MiB);
        machine.warmup(base, 32 * MiB);
        machine.startMeasurement();
        for (const char *workload : {"gups", "streamcluster"}) {
            auto gen = workload::makeGenerator(workload, base,
                                               32 * MiB, 7);
            machine.run(*gen, 100000);
        }
        std::string dump = statDump(machine.root());
        tlb::setL0FilterEnabled(true);
        return dump;
    }
};

} // anonymous namespace

TEST_P(L0FilterProperty, FilterOnOffStatsIdentical)
{
    const sim::TlbDesign design = GetParam();
    EXPECT_EQ(runOnce(design, true), runOnce(design, false));
}

INSTANTIATE_TEST_SUITE_P(Designs, L0FilterProperty,
                         ::testing::Values(sim::TlbDesign::Split,
                                           sim::TlbDesign::Mix,
                                           sim::TlbDesign::MixColt,
                                           sim::TlbDesign::HashRehash,
                                           sim::TlbDesign::Skew));

/**
 * TagLaneSet::findTag/findTagAny against a plain tag-compare-then-
 * confirm loop, on collision-heavy lanes where the scan must resume
 * past failed confirms mid-lane.
 */
TEST(TagLaneSetProperty, ResumesPastFailedConfirms)
{
    Rng rng(0x51D3);
    for (int iter = 0; iter < 1000; ++iter) {
        TagLaneStore<std::uint64_t> store(1, 66);
        auto set = store[0];
        const std::size_t n = rng.nextBounded(66);
        std::uint64_t pool[3];
        for (auto &p : pool)
            p = rng.next();
        for (std::size_t i = 0; i < n; ++i)
            set.insertFront(pool[rng.nextBounded(3)], rng.nextBounded(8));
        // Confirm accepts only one payload residue: with ~n/3 equal
        // tags and a 1/8 acceptance rate the scan routinely rejects
        // several tag hits before confirming mid-lane (or never).
        const std::uint64_t accept = rng.nextBounded(8);
        const auto confirm = [&](const std::uint64_t &p) {
            return p == accept;
        };
        const std::uint64_t needle = pool[rng.nextBounded(3)];
        std::size_t want = TagLaneSet<std::uint64_t>::npos;
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set.tag(i) == needle && confirm(set.payload(i))) {
                want = i;
                break;
            }
        }
        ASSERT_EQ(set.findTag(needle, confirm), want);
        std::uint64_t cands[2] = {pool[rng.nextBounded(3)],
                                  pool[rng.nextBounded(3)]};
        std::size_t want_any = TagLaneSet<std::uint64_t>::npos;
        for (std::size_t i = 0; i < set.size(); ++i) {
            if ((set.tag(i) == cands[0] || set.tag(i) == cands[1]) &&
                confirm(set.payload(i))) {
                want_any = i;
                break;
            }
        }
        ASSERT_EQ(set.findTagAny(cands, 2, confirm), want_any);
    }
}

/**
 * TagLaneStore against a reference MRU list (a std::vector, front =
 * MRU, capped at the way count) under seeded random inserts into
 * non-full and full sets, rotates, erases, stable eraseIf and clears,
 * for every way count 1..66. After every op each set matches its
 * reference position by position, no payload slot is live at two
 * positions, and a hit or fill leaves every payload where it was: a
 * rotate keeps the entry's slot, and a fill into a full set takes the
 * evicted LRU entry's slot.
 */
TEST(TagLaneStoreProperty, MatchesReferenceMruList)
{
    using Ref = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    Rng rng(0x57A7E);
    constexpr unsigned Sets = 3;
    for (unsigned ways = 1; ways <= 66; ++ways) {
        TagLaneStore<std::uint64_t> store(Sets, ways);
        std::vector<Ref> refs(Sets);
        for (int op = 0; op < 400; ++op) {
            const unsigned s = static_cast<unsigned>(rng.nextBounded(Sets));
            auto set = store[s];
            Ref &ref = refs[s];
            const std::size_t n = ref.size();
            const unsigned kind = static_cast<unsigned>(rng.nextBounded(16));
            if (kind < 8 || n == 0) {
                const std::uint64_t tag = rng.nextBounded(8);
                const std::uint64_t payload = rng.next();
                const std::uint64_t *lru =
                    n == ways ? &set.payload(n - 1) : nullptr;
                set.insertFront(tag, payload);
                ref.insert(ref.begin(), {tag, payload});
                if (ref.size() > ways)
                    ref.pop_back();
                if (lru) {
                    ASSERT_EQ(&set.payload(0), lru) << "full-set fill";
                }
            } else if (kind < 12) {
                const std::size_t i = rng.nextBounded(n);
                const std::uint64_t *moved = &set.payload(i);
                set.rotateToFront(i);
                std::rotate(ref.begin(), ref.begin() + i,
                            ref.begin() + i + 1);
                ASSERT_EQ(&set.payload(0), moved) << "rotate";
            } else if (kind < 14) {
                const std::size_t i = rng.nextBounded(n);
                set.eraseAt(i);
                ref.erase(ref.begin() + i);
            } else if (kind < 15) {
                const std::uint64_t mod = 2 + rng.nextBounded(3);
                const auto pred = [&](const std::uint64_t &p) {
                    return p % mod == 0;
                };
                const std::size_t removed = set.eraseIf(pred);
                const std::size_t before = ref.size();
                std::erase_if(ref, [&](const auto &e) {
                    return pred(e.second);
                });
                ASSERT_EQ(removed, before - ref.size());
            } else {
                set.clear();
                ref.clear();
            }
            for (unsigned t = 0; t < Sets; ++t) {
                const auto check = store[t];
                const Ref &want = refs[t];
                ASSERT_EQ(check.size(), want.size())
                    << "ways " << ways << " op " << op << " set " << t;
                std::vector<const std::uint64_t *> live;
                for (std::size_t i = 0; i < want.size(); ++i) {
                    ASSERT_EQ(check.tag(i), want[i].first);
                    ASSERT_EQ(check.payload(i), want[i].second);
                    live.push_back(&check.payload(i));
                }
                std::sort(live.begin(), live.end());
                ASSERT_EQ(std::adjacent_find(live.begin(), live.end()),
                          live.end())
                    << "a payload slot is live at two positions";
            }
        }
    }
}

/**
 * The probe scans in src/common/simd.hh against the standard
 * algorithms they stand in for, on collision-heavy lanes of every
 * ragged size 0..65 with random start offsets (including past the end).
 */
TEST(SimdKernels, FirstEqualMatchesScalarOnAdversarialLanes)
{
    Rng rng(0x51D0);
    for (int iter = 0; iter < 4000; ++iter) {
        const std::size_t n = rng.nextBounded(66);
        // A 4-value tag pool makes duplicates (and thus non-first
        // matches the scan must NOT return) the common case.
        std::uint64_t pool[4];
        for (auto &p : pool)
            p = rng.next();
        std::vector<std::uint64_t> lane(n);
        for (auto &t : lane)
            t = pool[rng.nextBounded(4)];
        const std::uint64_t needle =
            rng.chance(0.8) ? pool[rng.nextBounded(4)] : rng.next();
        const std::size_t start = rng.nextBounded(n + 2);
        std::size_t want = simd::npos;
        if (start < n) {
            auto it = std::find(lane.begin() + start, lane.end(), needle);
            if (it != lane.end())
                want = static_cast<std::size_t>(it - lane.begin());
        }
        ASSERT_EQ(simd::firstEqual(lane.data(), n, needle, start), want)
            << "n=" << n << " start=" << start;
    }
}

TEST(SimdKernels, FirstEqualAnyMatchesScalarOnAdversarialLanes)
{
    Rng rng(0x51D1);
    for (int iter = 0; iter < 4000; ++iter) {
        const std::size_t n = rng.nextBounded(66);
        std::uint64_t pool[4];
        for (auto &p : pool)
            p = rng.next();
        std::vector<std::uint64_t> lane(n);
        for (auto &t : lane)
            t = pool[rng.nextBounded(4)];
        // 0..6 candidates: 0 (empty), 1..3 (the hoisted cases), 4+
        // (the generic nested loop).
        const unsigned ncands = static_cast<unsigned>(rng.nextBounded(7));
        std::uint64_t cands[6];
        for (unsigned c = 0; c < ncands; ++c)
            cands[c] = rng.chance(0.6) ? pool[rng.nextBounded(4)]
                                       : rng.next();
        const std::size_t start = rng.nextBounded(n + 2);
        std::size_t want = simd::npos;
        if (start < n) {
            auto it = std::find_first_of(lane.begin() + start, lane.end(),
                                         cands, cands + ncands);
            if (it != lane.end())
                want = static_cast<std::size_t>(it - lane.begin());
        }
        ASSERT_EQ(
            simd::firstEqualAny(lane.data(), n, cands, ncands, start),
            want)
            << "n=" << n << " ncands=" << ncands << " start=" << start;
    }
}

TEST(SimdKernels, L0RunLengthMatchesScalar)
{
    Rng rng(0x51D2);
    for (int iter = 0; iter < 4000; ++iter) {
        const std::size_t n = rng.nextBounded(66);
        const VAddr lo = (rng.next() >> 12) << 12;
        std::vector<MemRef> refs(n);
        for (auto &ref : refs) {
            if (rng.chance(0.8)) {
                ref.vaddr = lo + rng.nextBounded(PageBytes4K);
            } else if (rng.chance(0.5)) {
                // Boundary adversaries: one byte out on either side.
                ref.vaddr = rng.chance(0.5) ? lo - 1 : lo + PageBytes4K;
            } else {
                ref.vaddr = rng.next();
            }
            ref.type = rng.chance(0.3) ? AccessType::Write
                                       : AccessType::Read;
        }
        for (bool stores_ok : {false, true}) {
            auto it = std::find_if(
                refs.begin(), refs.end(), [&](const MemRef &ref) {
                    const bool in_page =
                        ref.vaddr >= lo && ref.vaddr < lo + PageBytes4K;
                    return !in_page ||
                           (!stores_ok && ref.type != AccessType::Read);
                });
            const auto want = static_cast<std::size_t>(it - refs.begin());
            ASSERT_EQ(simd::l0RunLength(refs.data(), n, lo, stores_ok),
                      want)
                << "n=" << n << " stores_ok=" << stores_ok;
        }
    }
}

/**
 * The reference scan is the oracle SoaTagLanesMatchReferenceScan holds
 * the packed tag lanes to; it must itself agree with the page table.
 */
TEST_P(FamilyProperty, ReferenceScanHitsAgreeWithPageTable)
{
    ReferenceScanGuard guard;
    setReferenceScanEnabled(true);
    Arena arena(44);
    auto tlb = build(GetParam(), &arena.root);
    fuzzAgainstPageTable(*tlb, arena, 23);
}

TEST_P(MixProperty, ReferenceScanHitsAgreeWithPageTable)
{
    ReferenceScanGuard guard;
    setReferenceScanEnabled(true);
    const auto &geometry = GetParam();
    Arena arena(42);
    MixTlbParams params;
    params.entries = geometry.entries;
    params.assoc = geometry.assoc;
    params.mode = geometry.mode;
    params.colt4k = geometry.colt4k;
    params.alignmentRestricted = geometry.alignment;
    MixTlb tlb("mix", &arena.root, params);
    fuzzAgainstPageTable(tlb, arena, 29);
}

namespace
{

/** One cache level as a per-set std::list in LRU order (front = MRU). */
class ListLruCache
{
  public:
    explicit ListLruCache(const cache::CacheParams &params)
        : assoc_(params.assoc),
          sets_(params.sizeBytes / params.lineBytes / params.assoc),
          lru_(sets_)
    {
    }

    bool
    access(std::uint64_t line)
    {
        auto &set = lru_[line % sets_];
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.splice(set.begin(), set, it);
            return true;
        }
        set.push_front(line);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

    void
    flush()
    {
        for (auto &set : lru_)
            set.clear();
    }

    std::uint64_t sets() const { return sets_; }

  private:
    std::size_t assoc_;
    std::uint64_t sets_;
    std::vector<std::list<std::uint64_t>> lru_;
};

} // anonymous namespace

/**
 * The flat tag-window cache against a list-per-set LRU model, level by
 * level. Part of the stream is confined to a few LLC sets so every
 * level — including the 24 MiB LLC's non-power-of-two set count —
 * evicts, not just the L1.
 */
TEST(CacheProperty, HierarchyMatchesListLruReference)
{
    const cache::HierarchyParams params;
    stats::StatGroup root("cacheprop");
    cache::CacheHierarchy caches(params, &root);
    ListLruCache l1(params.l1), l2(params.l2), llc(params.llc);
    const auto refLevel = [&](std::uint64_t line) {
        if (l1.access(line))
            return cache::HitLevel::L1;
        if (l2.access(line))
            return cache::HitLevel::L2;
        if (llc.access(line))
            return cache::HitLevel::LLC;
        return cache::HitLevel::Memory;
    };
    Rng rng(0x51D4);
    std::uint64_t served[4] = {};
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t line;
        if (rng.chance(0.7)) {
            line = rng.nextBounded(1 << 12);
        } else {
            // 4 LLC sets x 40 candidate lines: more than 16 ways each.
            line = rng.nextBounded(4) + rng.nextBounded(40) * llc.sets();
        }
        const PAddr paddr = line * CacheLineBytes +
                            rng.nextBounded(CacheLineBytes);
        const cache::HitLevel want = refLevel(line);
        ++served[static_cast<unsigned>(want)];
        ASSERT_EQ(caches.accessLevel(paddr, rng.chance(0.3)), want)
            << "access #" << i << " line=" << line;
        if (rng.chance(0.0005)) {
            caches.flush();
            l1.flush();
            l2.flush();
            llc.flush();
        }
    }
    // Each level's hit count, and the accesses that reached memory.
    EXPECT_EQ(root.value("caches.l1d.hits"), served[0]);
    EXPECT_EQ(root.value("caches.l2.hits"), served[1]);
    EXPECT_EQ(root.value("caches.llc.hits"), served[2]);
    EXPECT_EQ(root.value("caches.mem_accesses"), served[3]);
    EXPECT_GT(served[2], 0u);
    EXPECT_GT(served[3], 0u);
}

namespace
{

/**
 * End-to-end: full machine runs (L0 replay, tag lanes, walker and
 * cache charging all live) must dump identical stats whether every TLB
 * was built on the reference scan or on the packed tag lanes.
 */
class ScanModeMachineProperty
    : public ::testing::TestWithParam<sim::TlbDesign>
{
  public:
    static std::string
    runOnce(sim::TlbDesign design, bool reference_scan)
    {
        ReferenceScanGuard guard;
        setReferenceScanEnabled(reference_scan);
        sim::MachineParams params;
        params.name = "m";
        params.memBytes = 512 * MiB;
        params.design = design;
        params.seed = 5;
        sim::Machine machine(params);
        VAddr base = machine.mapArena(32 * MiB);
        machine.warmup(base, 32 * MiB);
        machine.startMeasurement();
        for (const char *workload : {"gups", "streamcluster"}) {
            auto gen = workload::makeGenerator(workload, base,
                                               32 * MiB, 7);
            machine.run(*gen, 100000);
        }
        return statDump(machine.root());
    }
};

} // anonymous namespace

TEST_P(ScanModeMachineProperty, ReferenceScanStatsIdentical)
{
    const sim::TlbDesign design = GetParam();
    EXPECT_EQ(runOnce(design, false), runOnce(design, true));
}

INSTANTIATE_TEST_SUITE_P(Designs, ScanModeMachineProperty,
                         ::testing::Values(sim::TlbDesign::Split,
                                           sim::TlbDesign::Mix,
                                           sim::TlbDesign::MixColt,
                                           sim::TlbDesign::HashRehash,
                                           sim::TlbDesign::Skew));
