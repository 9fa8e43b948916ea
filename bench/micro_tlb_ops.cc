/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot operations:
 * TLB lookups/fills for each design, page walks native and nested,
 * full MMU accesses, and the OS model's physical-memory work (memhog
 * fragmentation, buddy frees) and lifecycle scans (cold reclaim).
 * These guard the simulator's own performance (host ns/op), not the
 * modelled cycles.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mem/buddy_allocator.hh"
#include "mem/phys_mem.hh"
#include "os/memhog.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "sim/configs.hh"
#include "sim/machine.hh"
#include "tlb/mix.hh"
#include "tlb/set_assoc.hh"
#include "virt/nested_walk.hh"
#include "virt/vm.hh"

using namespace mixtlb;

namespace
{

constexpr std::uint64_t GiB = 1024ULL * 1024 * 1024;

void
BM_MixTlbLookupHit(benchmark::State &state)
{
    mem::PhysMem mem(1 * GiB);
    pt::PageTable table(mem);
    stats::StatGroup root("bm");
    pt::Walker walker(table, &root);
    table.map(0x00400000, 0, PageSize::Size2M);
    tlb::MixTlbParams params;
    params.entries = 96;
    params.assoc = 6;
    tlb::MixTlb tlb("mix", &root, params);
    auto walk = walker.walk(0x00400000, false);
    tlb::FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.walk = &walk;
    tlb.fill(fill);
    VAddr va = 0x00400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(va, false));
        va = 0x00400000 + ((va + 4096) & 0x1fffff);
    }
}
BENCHMARK(BM_MixTlbLookupHit);

/**
 * Hits in a full single-size SetAssocTlb: Arg 0 is the 64-entry 4-way
 * 4KB split component alone, Arg 1 the three-component split L1 (4KB,
 * 2MB and 1GB, probed in turn) around it. 64 consecutive 4KB pages
 * fill all 16 sets of the 4KB component; the lookups visit them in a
 * fixed scrambled order, so a hit is at any way and moves to MRU.
 */
void
BM_SetAssocLookupHit(benchmark::State &state)
{
    constexpr unsigned Pages = 64;
    stats::StatGroup root("bm");
    std::unique_ptr<tlb::BaseTlb> tlb;
    if (state.range(0) == 0) {
        tlb = std::make_unique<tlb::SetAssocTlb>(
            "t4k", &root,
            tlb::SetAssocParams{Pages, 4, {PageSize::Size4K}});
    } else {
        tlb = sim::makeCpuL1(sim::TlbDesign::Split, &root, nullptr);
    }
    const VAddr base = 1ULL << 32;
    for (unsigned p = 0; p < Pages; p++) {
        tlb::FillInfo fill;
        fill.leaf.vbase = base + p * PageBytes4K;
        fill.leaf.pbase = (1ULL << 30) + p * PageBytes4K;
        fill.leaf.size = PageSize::Size4K;
        fill.leaf.accessed = true;
        tlb->fill(fill);
    }
    unsigned i = 0;
    for (auto _ : state) {
        // Stride 37 (coprime with 64) visits every page once per lap.
        i = (i + 37) % Pages;
        benchmark::DoNotOptimize(
            tlb->lookup(base + i * PageBytes4K + 8, false));
    }
}
BENCHMARK(BM_SetAssocLookupHit)->Arg(0)->Arg(1);

/**
 * The TLB miss path: an L1 lookup and then an L2 lookup of an address
 * no component holds, for each of the five designs perfbench runs.
 * Both levels first take 1024 4KB pages and 64 2MB pages, so the
 * probed sets are full; the lookups then visit 64 unmapped 4KB pages
 * far from them in a fixed scrambled order. A split miss probes every
 * component, and a miss changes no TLB state.
 */
void
BM_TlbLookupMiss(benchmark::State &state)
{
    constexpr unsigned Pages = 64;
    const auto design = static_cast<sim::TlbDesign>(state.range(0));
    state.SetLabel(sim::designName(design));
    stats::StatGroup root("bm");
    auto l1 = sim::makeCpuL1(design, &root, nullptr);
    auto l2 = sim::makeCpuL2(design, &root, nullptr);
    const auto fill = [&](VAddr vbase, PageSize size) {
        tlb::FillInfo info;
        info.leaf.vbase = vbase;
        info.leaf.pbase = vbase + (1ULL << 30);
        info.leaf.size = size;
        info.leaf.accessed = true;
        info.vaddr = vbase;
        l1->fill(info);
        l2->fill(info);
    };
    const VAddr base = 1ULL << 32;
    for (unsigned p = 0; p < 1024; p++)
        fill(base + p * PageBytes4K, PageSize::Size4K);
    for (unsigned p = 0; p < 64; p++)
        fill(base + (1ULL << 30) + p * PageBytes2M, PageSize::Size2M);
    const VAddr unmapped = 1ULL << 40;
    unsigned i = 0;
    for (auto _ : state) {
        // Stride 37 (coprime with 64) visits every page once per lap.
        i = (i + 37) % Pages;
        const VAddr va = unmapped + i * PageBytes4K + 8;
        benchmark::DoNotOptimize(l1->lookup(va, false));
        benchmark::DoNotOptimize(l2->lookup(va, false));
    }
}
BENCHMARK(BM_TlbLookupMiss)
    ->Arg(static_cast<int>(sim::TlbDesign::Split))
    ->Arg(static_cast<int>(sim::TlbDesign::Mix))
    ->Arg(static_cast<int>(sim::TlbDesign::MixColt))
    ->Arg(static_cast<int>(sim::TlbDesign::HashRehash))
    ->Arg(static_cast<int>(sim::TlbDesign::Skew));

void
BM_MixTlbSuperpageFill(benchmark::State &state)
{
    mem::PhysMem mem(1 * GiB);
    pt::PageTable table(mem);
    stats::StatGroup root("bm");
    pt::Walker walker(table, &root);
    for (int i = 0; i < 8; i++)
        table.map(0x00400000 + i * PageBytes2M, i * PageBytes2M,
                  PageSize::Size2M);
    tlb::MixTlbParams params;
    params.entries = 544;
    params.assoc = 8;
    params.mode = tlb::CoalesceMode::Length;
    tlb::MixTlb tlb("mix", &root, params);
    auto walk = walker.walk(0x00400000, false);
    tlb::FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.walk = &walk;
    // Re-filling one identical entry merges into the existing copy in
    // every set: this times the L2 (Length) merge-everywhere path.
    for (auto _ : state)
        tlb.fill(fill);
}
BENCHMARK(BM_MixTlbSuperpageFill);

/**
 * L1 MIX (96/6, Bitmap) refills from an L2 Length bundle of 68 2MB
 * pages, the bundle an L2 hit hands down: each fill intersects the
 * bundle with the 16-slot L1 window, merges into the probed set and
 * mirrors blindly into the other 15. Four bundles of 5 windows each
 * outnumber the 6 ways, and the fill order strides across windows,
 * so probed-set fills insert and evict as well as merge.
 */
void
BM_MixTlbBundleRefill(benchmark::State &state)
{
    constexpr unsigned Bundles = 4;
    constexpr unsigned BundlePages = 68;
    constexpr unsigned Pages = Bundles * BundlePages;
    stats::StatGroup root("bm");
    tlb::MixTlbParams params;
    params.entries = 96;
    params.assoc = 6;
    tlb::MixTlb tlb("mix", &root, params);
    std::vector<tlb::FillInfo> fills;
    fills.reserve(Pages);
    for (unsigned i = 0; i < Pages; i++) {
        // Stride 37 (coprime with 272) visits every page once per lap.
        const unsigned p = (i * 37) % Pages;
        const unsigned b = p / BundlePages;
        tlb::BundleInfo bundle;
        bundle.vbase = (1ULL << 40) + b * (1ULL << 36);
        bundle.pbase = (1ULL << 34) + b * (1ULL << 30);
        bundle.size = PageSize::Size2M;
        bundle.count = BundlePages;
        bundle.perms = pt::Perms{};
        bundle.dirty = (b & 1) != 0;
        const std::uint64_t off = (p % BundlePages) * PageBytes2M;
        tlb::FillInfo fill;
        fill.leaf.vbase = bundle.vbase + off;
        fill.leaf.pbase = bundle.pbase + off;
        fill.leaf.size = PageSize::Size2M;
        fill.leaf.perms = bundle.perms;
        fill.leaf.accessed = true;
        fill.leaf.dirty = bundle.dirty;
        fill.vaddr = fill.leaf.vbase + (i % 512) * PageBytes4K;
        fill.bundle = bundle;
        fills.push_back(fill);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        tlb.fill(fills[i]);
        i = i + 1 == fills.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MixTlbBundleRefill);

void
BM_PageTableWalk(benchmark::State &state)
{
    mem::PhysMem mem(1 * GiB);
    pt::PageTable table(mem);
    stats::StatGroup root("bm");
    pt::Walker walker(table, &root);
    for (VAddr va = 0; va < 64 * PageBytes4K; va += PageBytes4K)
        table.map(va, 0x10000000 + va, PageSize::Size4K);
    VAddr va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(walker.walk(va, false));
        va = (va + PageBytes4K) % (64 * PageBytes4K);
    }
}
BENCHMARK(BM_PageTableWalk);

/**
 * 2-D nested walks in two VMs on one host, each running gups over
 * 64 MB of THP guest memory that a guest memhog fragmented (0.4), as
 * the virt-nested perfbench workload does: an EPT walk per guest level
 * and for the data page, then the guest PTE line's neighbour scan.
 * Items are nested walks.
 */
void
BM_NestedWalk(benchmark::State &state)
{
    constexpr unsigned Vms = 2;
    constexpr std::uint64_t Footprint = 64ULL << 20;
    mem::PhysMem host_mem(2 * GiB);
    stats::StatGroup root("bm");
    os::MemoryManager host_mm(host_mem, &root);
    std::vector<std::unique_ptr<virt::Vm>> vms;
    std::vector<std::unique_ptr<os::Memhog>> hogs;
    std::vector<std::unique_ptr<os::Process>> guests;
    std::vector<std::unique_ptr<virt::NestedWalkSource>> sources;
    std::vector<VAddr> bases;
    for (unsigned v = 0; v < Vms; v++) {
        virt::VmParams vm_params;
        vm_params.name = "vm" + std::to_string(v);
        vm_params.guestMemBytes = 512ULL << 20;
        auto &vm = *vms.emplace_back(
            std::make_unique<virt::Vm>(host_mm, vm_params, &root));
        hogs.emplace_back(std::make_unique<os::Memhog>(vm.guestMm()))
            ->fragment(0.4, v + 1);
        os::ProcessParams guest_params;
        guest_params.name = "guest" + std::to_string(v);
        guest_params.policy = os::PagePolicy::Thp;
        auto &guest = *guests.emplace_back(std::make_unique<os::Process>(
            vm.guestMm(), guest_params, &root));
        auto &source = *sources.emplace_back(
            std::make_unique<virt::NestedWalkSource>(vm, guest, &root));
        VAddr base = guest.mmap(Footprint);
        // Back the guest pages, then their page tables and data in
        // the EPT, so the timed walks take no faults.
        for (VAddr va = base; va < base + Footprint; va += PageBytes4K) {
            guest.touch(va);
            source.walk(va, false);
        }
        bases.push_back(base);
    }
    Rng rng(1);
    for (auto _ : state) {
        const auto v = static_cast<unsigned>(rng.nextBounded(Vms));
        const VAddr va = bases[v] + rng.nextBounded(Footprint);
        benchmark::DoNotOptimize(sources[v]->walk(va, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NestedWalk);

/**
 * Full MMU accesses at random addresses of a warmed 256 MB THP arena,
 * for each of the five designs perfbench runs.
 */
void
BM_MachineAccess(benchmark::State &state)
{
    auto design = static_cast<sim::TlbDesign>(state.range(0));
    sim::MachineParams params;
    params.name = "bm";
    params.memBytes = 2 * GiB;
    params.design = design;
    params.proc.policy = os::PagePolicy::Thp;
    sim::Machine machine(params);
    VAddr base = machine.mapArena(256ULL << 20);
    machine.warmup(base, 256ULL << 20);
    Rng rng(1);
    for (auto _ : state) {
        VAddr va = base + rng.nextBounded(256ULL << 20);
        benchmark::DoNotOptimize(machine.tlbs().access(va, false));
    }
}
BENCHMARK(BM_MachineAccess)
    ->Arg(static_cast<int>(sim::TlbDesign::Split))
    ->Arg(static_cast<int>(sim::TlbDesign::Mix))
    ->Arg(static_cast<int>(sim::TlbDesign::MixColt))
    ->Arg(static_cast<int>(sim::TlbDesign::HashRehash))
    ->Arg(static_cast<int>(sim::TlbDesign::Skew));

/**
 * Memhog fragmenting 60% of a 2 GiB machine, as the gups-walk
 * perfbench workload does at setup: buddy allocation down to single
 * frames, a shuffle, frees with merging, and movable registration.
 */
void
BM_MemhogFragment(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto mem = std::make_unique<mem::PhysMem>(2 * GiB);
        stats::StatGroup root("bm");
        auto mm = std::make_unique<os::MemoryManager>(*mem, &root);
        auto hog = std::make_unique<os::Memhog>(*mm, 0.2);
        state.ResumeTiming();
        hog->fragment(0.6, 1);
        benchmark::DoNotOptimize(hog->movableFrames());
        state.PauseTiming();
        hog.reset();
        mm.reset();
        mem.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_MemhogFragment)->Unit(benchmark::kMillisecond);

/**
 * Freeing every frame of a fully allocated 1 GiB buddy allocator one
 * 4KB frame at a time, in shuffled order, so each free probes its
 * buddies and merges whole runs back up to a 1GB block.
 */
void
BM_BuddyFreeMerge(benchmark::State &state)
{
    constexpr std::uint64_t Frames = GiB >> PageShift4K;
    mem::BuddyAllocator buddy(Frames);
    std::vector<Pfn> frames;
    frames.reserve(Frames);
    while (auto pfn = buddy.alloc(0))
        frames.push_back(*pfn);
    Rng rng(7);
    for (std::uint64_t i = frames.size(); i > 1; i--)
        std::swap(frames[i - 1], frames[rng.nextBounded(i)]);
    for (auto _ : state) {
        for (Pfn pfn : frames)
            buddy.free(pfn, 0);
        benchmark::DoNotOptimize(buddy.largestFreeOrder());
        state.PauseTiming();
        while (buddy.alloc(0)) {}
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(Frames));
}
BENCHMARK(BM_BuddyFreeMerge)->Unit(benchmark::kMillisecond);

/**
 * One cold-page reclaim over 64 demoted 2MB regions whose pages are
 * all referenced and clean: the not-accessed pass scans every slot of
 * every region and finds nothing, then the clean pass drops the first
 * page of the lowest region. The dropped page is refaulted and marked
 * referenced again outside the timed region.
 */
void
BM_ReclaimColdScan(benchmark::State &state)
{
    constexpr std::uint64_t Regions = 64;
    mem::PhysMem mem(512ULL << 20);
    stats::StatGroup root("bm");
    os::MemoryManager mm(mem, &root);
    os::Process proc(mm, os::ProcessParams{}, &root);
    const VAddr base = proc.mmap(Regions * PageBytes2M);
    for (std::uint64_t r = 0; r < Regions; r++)
        proc.touch(base + r * PageBytes2M);
    if (proc.demoteStorm(Regions) != Regions) {
        state.SkipWithError("could not demote every region");
        return;
    }
    for (VAddr va = base; va < base + Regions * PageBytes2M;
         va += PageBytes4K) {
        proc.pageTable().setAccessed(va);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(proc.reclaimMemory(1));
        state.PauseTiming();
        proc.touch(base);
        proc.pageTable().setAccessed(base);
        state.ResumeTiming();
    }
}
BENCHMARK(BM_ReclaimColdScan)->Unit(benchmark::kMicrosecond);

} // anonymous namespace

BENCHMARK_MAIN();
