/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot operations:
 * TLB lookups/fills for each design, full MMU accesses, and the OS
 * model's physical-memory work (memhog fragmentation, buddy frees).
 * These guard the simulator's own performance (host ns/op), not the
 * modelled cycles.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/buddy_allocator.hh"
#include "mem/phys_mem.hh"
#include "os/memhog.hh"
#include "os/memory_manager.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "sim/configs.hh"
#include "sim/machine.hh"
#include "tlb/mix.hh"

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
    for (auto _ : state)
        tlb.fill(fill); // all-set mirroring, the costliest fill path
}
BENCHMARK(BM_MixTlbSuperpageFill);

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
    ->Arg(static_cast<int>(sim::TlbDesign::Mix));

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

} // anonymous namespace

BENCHMARK_MAIN();
