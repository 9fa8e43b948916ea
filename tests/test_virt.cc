/**
 * @file
 * Tests for the virtualization substrate: EPT backing, nested walks
 * (the 24-access 2-D walk), effective page sizes under splintering,
 * nested coalescing candidates for MIX TLBs, and guest TLB shootdowns
 * on host-side EPT changes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.hh"
#include "os/memhog.hh"
#include "os/scan.hh"
#include "sim/machine.hh"
#include "virt/nested_walk.hh"
#include "virt/vm.hh"

using namespace mixtlb;
using namespace mixtlb::virt;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

struct VirtFixture : ::testing::Test
{
    mem::PhysMem hostMem{4 * GiB};
    stats::StatGroup root{"test"};
    os::MemoryManager hostMm{hostMem, &root};

    VmParams
    vmParams(std::uint64_t guest_bytes = 1 * GiB)
    {
        VmParams params;
        params.guestMemBytes = guest_bytes;
        return params;
    }

    os::ProcessParams
    guestThp()
    {
        os::ProcessParams params;
        params.name = "guest";
        params.policy = os::PagePolicy::Thp;
        return params;
    }
};

} // anonymous namespace

TEST_F(VirtFixture, EptBacksGuestPhysicalLazily)
{
    Vm vm(hostMm, vmParams(), &root);
    EXPECT_FALSE(vm.hostPhysIfMapped(0x1000).has_value());
    auto spa = vm.hostPhys(0x1000, false);
    ASSERT_TRUE(spa.has_value());
    EXPECT_TRUE(vm.hostPhysIfMapped(0x1000).has_value());
    EXPECT_EQ(*vm.hostPhysIfMapped(0x1000), *spa);
    EXPECT_GT(root.scalar("vm.ept_faults").value(), 0.0);
}

TEST_F(VirtFixture, HostThpBacksGuestWithSuperpages)
{
    Vm vm(hostMm, vmParams(), &root);
    auto leaf = vm.hostLeaf(64 * MiB, false);
    ASSERT_TRUE(leaf.has_value());
    EXPECT_EQ(leaf->size, PageSize::Size2M);
}

TEST_F(VirtFixture, NestedWalkIssues24AccessesFor4KOn4K)
{
    // Force 4KB pages at both levels.
    VmParams vp = vmParams();
    vp.hostPolicy = os::PagePolicy::SmallOnly;
    Vm vm(hostMm, vp, &root);
    os::ProcessParams gp = guestThp();
    gp.policy = os::PagePolicy::SmallOnly;
    os::Process guest(vm.guestMm(), gp, &root);
    NestedWalkSource source(vm, guest, &root);

    VAddr va = guest.mmap(16 * MiB);
    guest.touch(va);
    // Warm the EPT so no EPT violations inflate the count.
    source.walk(va, false);
    auto walk = source.walk(va, false);
    ASSERT_FALSE(walk.pageFault());
    // 4 guest levels x (4-level host walk + guest PTE read) + final
    // 4-level host walk = 24.
    EXPECT_EQ(walk.accesses.size(), 24u);
}

TEST_F(VirtFixture, NestedWalkShortensWithSuperpages)
{
    // Guest 2MB page over host THS (2MB EPT pages): guest walk is 3
    // levels, each host walk is 3 accesses, plus a 3-access final walk:
    // 3*(3+1) + 3 = 15.
    Vm vm(hostMm, vmParams(), &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);

    VAddr va = guest.mmap(64 * MiB);
    guest.touch(va);
    ASSERT_EQ(guest.pageTable().translate(va)->size, PageSize::Size2M);
    source.walk(va, false);
    auto walk = source.walk(va, false);
    ASSERT_FALSE(walk.pageFault());
    EXPECT_LT(walk.accesses.size(), 24u);
    EXPECT_GE(walk.accesses.size(), 12u);
}

TEST_F(VirtFixture, EffectivePageSizeIsMinOfLevels)
{
    // Guest 2MB page, host 4KB backing: the effective (TLB-cacheable)
    // page size must splinter to 4KB.
    VmParams vp = vmParams();
    vp.hostPolicy = os::PagePolicy::SmallOnly;
    Vm vm(hostMm, vp, &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);

    VAddr va = guest.mmap(64 * MiB);
    guest.touch(va);
    ASSERT_EQ(guest.pageTable().translate(va)->size, PageSize::Size2M);
    auto walk = source.walk(va, false);
    ASSERT_FALSE(walk.pageFault());
    EXPECT_EQ(walk.leaf->size, PageSize::Size4K);
}

TEST_F(VirtFixture, NestedTranslationIsCorrect)
{
    Vm vm(hostMm, vmParams(), &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);
    VAddr base = guest.mmap(64 * MiB);
    for (VAddr va = base; va < base + 16 * MiB; va += 3 * PageBytes4K) {
        guest.touch(va);
        auto walk = source.walk(va, false);
        ASSERT_FALSE(walk.pageFault());
        // Compose the two levels functionally and compare.
        auto gleaf = guest.pageTable().translate(va);
        PAddr gpa = gleaf->translate(va);
        auto spa = vm.hostPhysIfMapped(gpa);
        ASSERT_TRUE(spa.has_value());
        EXPECT_EQ(walk.leaf->translate(va), *spa);
    }
}

TEST_F(VirtFixture, NestedLineEnablesEndToEndCoalescing)
{
    // Guest allocates contiguous 2MB pages; the host backs them with
    // THS 2MB pages allocated contiguously too. The nested walk's line
    // must expose neighbours with *system* physical contiguity.
    Vm vm(hostMm, vmParams(), &root);
    os::Process guest(vm.guestMm(), guestThp(), &root);
    NestedWalkSource source(vm, guest, &root);
    VAddr base = guest.mmap(64 * MiB);
    for (VAddr va = base; va < base + 16 * MiB; va += PageBytes2M) {
        guest.touch(va);
        source.walk(va, false); // sets guest A bits, backs the EPT
    }

    auto walk = source.walk(base, false);
    ASSERT_FALSE(walk.pageFault());
    ASSERT_EQ(walk.lineGranularity, PageSize::Size2M);
    unsigned present = 0, contiguous = 0;
    PAddr anchor = walk.leaf->pbase;
    VAddr vanchor = walk.leaf->vbase;
    for (const auto &slot : walk.line) {
        if (!slot.present)
            continue;
        present++;
        if (slot.xlate.pbase - anchor == slot.xlate.vbase - vanchor)
            contiguous++;
    }
    EXPECT_GE(present, 2u);
    EXPECT_GE(contiguous, 2u);
}

namespace
{

/**
 * The nested walk's neighbour line as built with one full EPT
 * translate per present neighbour: the reference the host-leaf memo
 * must reproduce slot for slot.
 */
std::vector<pt::LinePte>
referenceLine(Vm &vm, os::Process &guest, VAddr gva, unsigned scan_lines,
              const pt::WalkResult &result)
{
    const PAddr gpa_pte = *guest.pageTable().leafPteAddr(gva);
    const PageSize gsize = guest.pageTable().translate(gva)->size;
    const unsigned level = pt::leafLevel(gsize);
    const unsigned lines = level > 0 ? scan_lines : 1;
    const unsigned slots = lines * PtesPerCacheLine;
    const PAddr line_gpa = alignDown(gpa_pte, lines * CacheLineBytes);
    const std::uint64_t span = 1ULL << pt::levelShift(level);
    const VAddr group_base = alignDown(gva, span * slots);

    std::vector<pt::LinePte> line(slots);
    for (unsigned i = 0; i < slots; i++) {
        std::uint64_t nraw = vm.guestPhys().read64(line_gpa + 8 * i);
        bool leaf_slot = pt::pte::present(nraw)
                         && (level == 0 || pt::pte::pageSizeBit(nraw));
        if (!leaf_slot)
            continue;
        PAddr n_gpa = pt::pte::frame(nraw);
        auto n_host = vm.ept().translate(vm.eptHva(n_gpa));
        if (!n_host || pageShift(n_host->size) < pageShift(gsize))
            continue;
        auto &entry = line[i];
        entry.present = true;
        entry.xlate.vbase = group_base + i * span;
        entry.xlate.pbase = n_host->translate(vm.eptHva(n_gpa));
        entry.xlate.size = gsize;
        entry.xlate.perms.writable =
            pt::pte::perms(nraw).writable && n_host->perms.writable;
        entry.xlate.perms.user = pt::pte::perms(nraw).user;
        entry.xlate.perms.noExec =
            pt::pte::perms(nraw).noExec || n_host->perms.noExec;
        entry.xlate.accessed = pt::pte::accessed(nraw);
        entry.xlate.dirty = pt::pte::dirty(nraw);
    }
    const unsigned slot =
        static_cast<unsigned>((gpa_pte - line_gpa) / 8);
    line[slot].present = true;
    line[slot].xlate = *result.leaf;
    return line;
}

/** Walk @p gva and compare its line with referenceLine(). */
void
expectLineMatchesReference(Vm &vm, os::Process &guest,
                           NestedWalkSource &source, VAddr gva,
                           unsigned scan_lines, bool store)
{
    SCOPED_TRACE(testing::Message() << "gva 0x" << std::hex << gva);
    auto walk = source.walk(gva, store);
    ASSERT_FALSE(walk.pageFault());
    if (walk.leaf->size != guest.pageTable().translate(gva)->size) {
        EXPECT_TRUE(walk.line.empty()); // splintered: no line
        return;
    }
    auto ref = referenceLine(vm, guest, gva, scan_lines, walk);
    ASSERT_EQ(walk.line.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i++) {
        SCOPED_TRACE(testing::Message() << "slot " << i);
        ASSERT_EQ(walk.line[i].present, ref[i].present);
        if (!ref[i].present)
            continue;
        const auto &got = walk.line[i].xlate;
        const auto &want = ref[i].xlate;
        EXPECT_EQ(got.vbase, want.vbase);
        EXPECT_EQ(got.pbase, want.pbase);
        EXPECT_EQ(got.size, want.size);
        EXPECT_EQ(got.perms, want.perms);
        EXPECT_EQ(got.accessed, want.accessed);
        EXPECT_EQ(got.dirty, want.dirty);
    }
}

} // anonymous namespace

// The neighbour scan reuses one host leaf across neighbours. Its
// guest PT lines point into 2MB host pages (several neighbours per
// page), read-only 2MB host pages, 4KB host pages (one neighbour per
// page, and a hole between them) and unbacked guest-physical memory.
TEST_F(VirtFixture, NestedLineMatchesPerSlotHostTranslate)
{
    constexpr PAddr r1 = 256 * MiB; // 2MB host page
    constexpr PAddr r2 = 260 * MiB; // 4KB host pages, with a hole
    constexpr PAddr r3 = 264 * MiB; // unbacked
    constexpr PAddr r5 = 268 * MiB; // read-only, no-exec 2MB host page
    constexpr PAddr r6 = 272 * MiB; // 2MB host page
    constexpr VAddr line4k = 0x7f0000000000ULL;
    constexpr VAddr line2m = 0x7f0040000000ULL;

    for (unsigned scan_lines : {1u, 8u}) {
        SCOPED_TRACE(testing::Message() << "scan_lines " << scan_lines);
        Vm vm(hostMm, vmParams(), &root);
        os::Process guest(vm.guestMm(), guestThp(), &root);
        NestedWalkSource source(vm, guest, &root, scan_lines);

        // Host side: map the EPT directly so each region gets exactly
        // the page size named above. Nothing here is ever faulted in
        // through the EPT process, so the maps cannot collide.
        pt::PageTable &ept = vm.ept();
        ept.map(vm.eptHva(r1), 2 * GiB, PageSize::Size2M);
        ept.map(vm.eptHva(r2 + 0x5000), 2 * GiB + 0x9000,
                PageSize::Size4K);
        ept.map(vm.eptHva(r2 + 0x6000), 2 * GiB + 0x3000,
                PageSize::Size4K);
        ept.map(vm.eptHva(r5), 2 * GiB + 4 * MiB, PageSize::Size2M,
                pt::Perms{false, true, true});
        ept.map(vm.eptHva(r6), 2 * GiB + 6 * MiB, PageSize::Size2M);

        // Guest side: one line of 4KB PTEs ...
        pt::PageTable &gpt = guest.pageTable();
        const PAddr slots4k[8] = {r1 + 0x10000, 0,
                                  r1 + 0x11000, r2 + 0x5000,
                                  r2 + 0x6000, r2 + 0x7000,
                                  r3,           r1 + 0x12000};
        for (unsigned i = 0; i < 8; i++) {
            if (slots4k[i] != 0) {
                gpt.map(line4k + i * PageBytes4K, slots4k[i],
                        PageSize::Size4K, pt::Perms{i != 4, true, false});
            }
        }
        // ... and one line of 2MB PTEs.
        const PAddr slots2m[8] = {r1, r2, r3, r5, 0, r6, 0, r1};
        for (unsigned i = 0; i < 8; i++) {
            if (slots2m[i] != 0) {
                gpt.map(line2m + i * PageBytes2M, slots2m[i],
                        PageSize::Size2M);
            }
        }

        // Every backed slot as the demanded one, loads and stores.
        // Walking an unbacked slot backs it, so those come last.
        const VAddr backed[] = {
            line4k,
            line4k + 2 * PageBytes4K,
            line4k + 3 * PageBytes4K,
            line4k + 4 * PageBytes4K,
            line4k + 7 * PageBytes4K,
            line2m,
            line2m + 1 * PageBytes2M + 0x5000, // splintered to 4KB
            line2m + 3 * PageBytes2M,
            line2m + 5 * PageBytes2M,
            line2m + 7 * PageBytes2M,
        };
        for (bool store : {false, true}) {
            for (VAddr gva : backed) {
                expectLineMatchesReference(vm, guest, source, gva,
                                           scan_lines, store);
            }
        }

        // The layout is what the comments say: holes, 4KB host pages
        // under a 2MB guest page and unbacked memory drop out.
        auto walk4k = source.walk(line4k, false);
        auto walk2m = source.walk(line2m, false);
        const bool present4k[8] = {true, false, true, true,
                                   true, false, false, true};
        const bool present2m[8] = {true, false, false, true,
                                   false, true, false, true};
        for (unsigned i = 0; i < 8; i++) {
            EXPECT_EQ(walk4k.line[i].present, present4k[i]) << i;
            EXPECT_EQ(walk2m.line[i].present, present2m[i]) << i;
        }

        expectLineMatchesReference(vm, guest, source,
                                   line4k + 6 * PageBytes4K, scan_lines,
                                   false);
        expectLineMatchesReference(vm, guest, source,
                                   line2m + 2 * PageBytes2M, scan_lines,
                                   false);
    }
}

TEST(VirtMachine, ConsolidatedVmsRunAndScan)
{
    sim::VirtMachineParams params;
    params.hostMemBytes = 4 * GiB;
    params.numVms = 2;
    params.design = sim::TlbDesign::Mix;
    params.guestProc.policy = os::PagePolicy::Thp;
    sim::VirtMachine machine(params);

    for (unsigned vm = 0; vm < 2; vm++) {
        VAddr base = machine.mapArena(vm, 64 * MiB);
        auto gen = workload::makeGenerator("gups", base, 32 * MiB,
                                           7 + vm);
        auto done = machine.run(vm, *gen, 20000);
        EXPECT_EQ(done, 20000u);
        auto dist = machine.guestDistribution(vm);
        EXPECT_GT(dist.total(), 0u);
        EXPECT_GT(dist.superpageFraction(), 0.5);
        auto runs = machine.nestedContiguityRuns(vm, PageSize::Size2M);
        EXPECT_FALSE(runs.empty());
    }
    auto metrics = machine.metrics();
    EXPECT_GT(metrics.totalCycles, 0.0);
}

TEST(VirtMachine, GuestMemhogReducesGuestSuperpages)
{
    sim::VirtMachineParams frag;
    frag.hostMemBytes = 4 * GiB;
    frag.numVms = 1;
    // 85% hogged: free memory sits below the compaction-willingness
    // knee, so a visible share of THS faults falls back to 4KB.
    frag.guestMemhogFraction = 0.85;
    frag.guestProc.policy = os::PagePolicy::Thp;
    sim::VirtMachine fragged(frag);

    sim::VirtMachineParams clean = frag;
    clean.guestMemhogFraction = 0.0;
    sim::VirtMachine pristine(clean);

    for (auto *machine : {&fragged, &pristine}) {
        VAddr base = machine->mapArena(0, 64 * MiB);
        auto &proc = machine->guestProcess(0);
        for (VAddr va = base; va < base + 64 * MiB; va += PageBytes4K)
            proc.touch(va);
    }
    EXPECT_LT(fragged.guestDistribution(0).superpageFraction(),
              pristine.guestDistribution(0).superpageFraction());
}

namespace
{

/** Every headline design, one test case each. */
struct EptShootdown : ::testing::TestWithParam<sim::TlbDesign>
{
    /** Restores paranoia 0 even when an expectation fails. */
    struct ParanoiaGuard
    {
        explicit ParanoiaGuard(unsigned level)
        {
            contracts::setParanoia(level);
        }
        ~ParanoiaGuard() { contracts::setParanoia(0); }
    };
};

} // anonymous namespace

/**
 * Host reclaim of a VM's frames must shoot down that VM's guest TLBs:
 * an overcommitted host (two 512 MB VMs on 512 MB) reclaims VM0's
 * backing while VM1 warms, and VM0's next references must not hit the
 * dead gVA->sPA entries (the paranoia-2 oracle exits on the first).
 */
TEST_P(EptShootdown, HostReclaimFlushesGuestTlbs)
{
    sim::VirtMachineParams params;
    params.hostMemBytes = 512 * MiB;
    params.vmMemBytes = 512 * MiB;
    params.numVms = 2;
    params.design = GetParam();
    params.seed = 1;
    sim::VirtMachine machine(params);

    const std::uint64_t hot = 32 * MiB;
    VAddr base0 = machine.mapArena(0, hot);
    machine.warmup(0, base0, hot);
    auto gen = workload::makeGenerator("gups", base0, hot, 1);
    ASSERT_EQ(machine.run(0, *gen, 2000), 2000u);

    const std::uint64_t hog = 496 * MiB;
    VAddr base1 = machine.mapArena(1, hog);
    machine.warmup(1, base1, hog);

    ParanoiaGuard guard(2);
    EXPECT_EQ(machine.run(0, *gen, 2000), 2000u);
}

INSTANTIATE_TEST_SUITE_P(Designs, EptShootdown,
                         ::testing::Values(sim::TlbDesign::Split,
                                           sim::TlbDesign::Mix,
                                           sim::TlbDesign::MixColt,
                                           sim::TlbDesign::HashRehash,
                                           sim::TlbDesign::Skew));
