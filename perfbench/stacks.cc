#include "stacks.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>

#include "bench_common.hh"
#include "common/contracts.hh"
#include "sim/machine.hh"
#include "sim/multi_machine.hh"
#include "sim/sweep.hh"
#include "tlb/walk_source.hh"
#include "virt/nested_walk.hh"
#include "virt/vm.hh"
#include "workload/generator.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench
{

namespace
{

using bench::GiB;
using bench::MiB;
using Clock = std::chrono::steady_clock;

/** Frames reclaimed with each injected demote storm (as the machines). */
constexpr std::uint64_t StormReclaimFrames = 64;

/** VMs of the virt-nested workload; each gets half the host. */
constexpr unsigned VirtVms = 2;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Workload seed of reference stream @p index. */
std::uint64_t
streamSeed(std::uint64_t seed, unsigned index)
{
    return sim::sweepPointSeed(seed, index);
}

void
pollDeadline(const char *where)
{
    if (fault::deadlineExpired())
        MIX_RAISE("deadline", "%s exceeded the point deadline", where);
}

/** Forwards every call to the wrapped source, timing walk and fault. */
class TimedWalkSource final : public tlb::WalkSource
{
  public:
    TimedWalkSource(tlb::WalkSource &inner, LayerTimes &layers)
        : inner_(inner), layers_(layers)
    {}

    pt::WalkResult
    walk(VAddr vaddr, bool is_store) override
    {
        const std::uint64_t start = ticks();
        pt::WalkResult result = inner_.walk(vaddr, is_store);
        layers_.walk += ticks() - start;
        ++layers_.walks;
        return result;
    }

    bool
    fault(VAddr vaddr, bool is_store) override
    {
        const std::uint64_t start = ticks();
        const bool ok = inner_.fault(vaddr, is_store);
        layers_.fault += ticks() - start;
        ++layers_.faults;
        return ok;
    }

    std::optional<PAddr>
    leafPteAddr(VAddr vaddr) override
    {
        return inner_.leafPteAddr(vaddr);
    }

    void setDirty(VAddr vaddr) override { inner_.setDirty(vaddr); }

    void
    invalidate(VAddr vbase, PageSize size) override
    {
        inner_.invalidate(vbase, size);
    }

    void invalidateAsid(Asid asid) override { inner_.invalidateAsid(asid); }

    bool hasRefTranslate() const override
    {
        return inner_.hasRefTranslate();
    }

    std::optional<PAddr>
    refTranslate(VAddr vaddr) override
    {
        return inner_.refTranslate(vaddr);
    }

  private:
    tlb::WalkSource &inner_;
    LayerTimes &layers_;
};

// ---------------------------------------------------------------------
// Machine stacks: the public run loops, untouched.

class MachineNative final : public Stack
{
  public:
    MachineNative(const WorkloadSpec &spec, sim::TlbDesign design,
                  std::uint64_t seed, SetupTimes &setup)
    {
        const auto start = Clock::now();
        sim::MachineParams params;
        params.name = sim::designName(design);
        params.memBytes = spec.memBytes;
        params.design = design;
        params.memhogFraction = spec.memhog;
        params.seed = MachineSeed;
        params.caches = bench::scaledCaches();
        machine_ = std::make_unique<sim::Machine>(params);
        setup.construct = secondsSince(start);

        const auto warm = Clock::now();
        const VAddr base = machine_->mapArena(spec.footprint);
        machine_->warmup(base, spec.footprint);
        setup.warmup = secondsSince(warm);
        gen_ = workload::makeGenerator(spec.generators[0], base,
                                       spec.footprint, streamSeed(seed, 0));
    }

    std::uint64_t
    run(unsigned, std::uint64_t refs) override
    {
        return machine_->run(*gen_, refs);
    }

    void startMeasurement() override { machine_->startMeasurement(); }
    const stats::StatGroup &root() const override { return machine_->root(); }
    perf::RunMetrics metrics() const override { return machine_->metrics(); }

    os::PageSizeDistribution
    distribution() const override
    {
        return machine_->distribution();
    }

  private:
    std::unique_ptr<sim::Machine> machine_;
    std::unique_ptr<workload::TraceGenerator> gen_;
};

class MachineVirt final : public Stack
{
  public:
    MachineVirt(const WorkloadSpec &spec, sim::TlbDesign design,
                std::uint64_t seed, SetupTimes &setup)
    {
        const auto start = Clock::now();
        sim::VirtMachineParams params;
        params.name = sim::designName(design);
        params.hostMemBytes = spec.memBytes;
        params.numVms = VirtVms;
        params.design = design;
        params.guestProc.policy = os::PagePolicy::Thp;
        params.guestMemhogFraction = spec.memhog;
        params.seed = MachineSeed;
        params.caches = bench::scaledCaches();
        machine_ = std::make_unique<sim::VirtMachine>(params);
        setup.construct = secondsSince(start);

        const auto warm = Clock::now();
        const std::uint64_t footprint = footprintOf(spec);
        for (unsigned vm = 0; vm < VirtVms; vm++) {
            const VAddr base = machine_->mapArena(vm, footprint);
            machine_->warmup(vm, base, footprint);
            gens_.push_back(workload::makeGenerator(
                spec.generators[vm], base, footprint, streamSeed(seed, vm)));
        }
        setup.warmup = secondsSince(warm);
    }

    std::uint64_t
    run(unsigned lane, std::uint64_t refs) override
    {
        return machine_->run(lane, *gens_[lane], refs);
    }

    void startMeasurement() override { machine_->startMeasurement(); }
    const stats::StatGroup &root() const override { return machine_->root(); }
    perf::RunMetrics metrics() const override { return machine_->metrics(); }

    os::PageSizeDistribution
    distribution() const override
    {
        return machine_->guestDistribution(0);
    }

  private:
    std::unique_ptr<sim::VirtMachine> machine_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> gens_;
};

class MachineMulti final : public Stack
{
  public:
    MachineMulti(const WorkloadSpec &spec, sim::TlbDesign design,
                 std::uint64_t seed, SetupTimes &setup)
    {
        const auto start = Clock::now();
        sim::MultiMachineParams params;
        params.name = sim::designName(design);
        params.memBytes = spec.memBytes;
        params.quantum = Quantum;
        params.policy = sim::SwitchPolicy::AsidTagged;
        params.design = design;
        params.memhogFraction = spec.memhog;
        params.seed = MachineSeed;
        params.caches = bench::scaledCaches();
        params.procs.resize(spec.generators.size());
        machine_ = std::make_unique<sim::MultiMachine>(params);
        setup.construct = secondsSince(start);

        const auto warm = Clock::now();
        for (unsigned i = 0; i < machine_->numProcs(); i++) {
            const VAddr base = machine_->mapArena(i, spec.footprint);
            machine_->warmup(i, base, spec.footprint);
            machine_->attachWorkload(
                i, workload::makeGenerator(spec.generators[i], base,
                                           spec.footprint,
                                           streamSeed(seed, i)));
        }
        setup.warmup = secondsSince(warm);
    }

    std::uint64_t
    run(unsigned, std::uint64_t refs) override
    {
        return machine_->run(refs / machine_->numProcs());
    }

    void startMeasurement() override { machine_->startMeasurement(); }
    const stats::StatGroup &root() const override { return machine_->root(); }
    perf::RunMetrics metrics() const override { return machine_->metrics(); }

    os::PageSizeDistribution
    distribution() const override
    {
        return machine_->distribution(0);
    }

  private:
    std::unique_ptr<sim::MultiMachine> machine_;
};

// ---------------------------------------------------------------------
// Traced stacks: the same systems from public parts.

/**
 * What every traced stack shares: the per-reference replay loop, the
 * first-touch sweep, and the counters the machines keep outside their
 * stat trees (references and data-cache cycles).
 */
class TracedStack : public Stack
{
  public:
    explicit TracedStack(const std::string &name, LayerTimes &layers)
        : root_(name), layers_(layers)
    {}

    void
    startMeasurement() override
    {
        root_.resetStats();
        refs_ = 0;
        dataCycles_ = 0;
        layers_ = LayerTimes{};
    }

    const stats::StatGroup &root() const override { return root_; }

  protected:
    stats::StatGroup root_;
    LayerTimes &layers_;
    std::uint64_t refs_ = 0;
    std::uint64_t dataCycles_ = 0;
    VAddr lastPage_ = ~VAddr(0);

    /** A shootdown listener that times TlbHierarchy::invalidatePage. */
    std::function<void(VAddr, PageSize)>
    shootdown(tlb::TlbHierarchy &hier, std::optional<Asid> asid = {})
    {
        return [&hier, asid, this](VAddr vbase, PageSize size) {
            const std::uint64_t start = ticks();
            if (asid)
                hier.invalidatePage(vbase, size, *asid);
            else
                hier.invalidatePage(vbase, size);
            layers_.invalidate += ticks() - start;
            ++layers_.shootdowns;
        };
    }

    /** Machine::warmup: one store per 4KB page, in address order. */
    static void
    warmup(tlb::TlbHierarchy &hier, VAddr base, std::uint64_t bytes)
    {
        std::uint64_t steps = 0;
        for (std::uint64_t off = 0; off < bytes;
             off += PageBytes4K, steps++) {
            if (!hier.access(base + off, true).ok)
                MIX_RAISE("oom", "traced warmup ran out of memory at "
                                 "offset %llu", (unsigned long long)off);
            if ((steps & (CheckPeriod - 1)) == CheckPeriod - 1)
                pollDeadline("traced warmup");
        }
    }

    /**
     * The machines' reference loop, one reference at a time: the same
     * CheckPeriod-aligned batches, with @p boundary run wherever the
     * machine runs its between-batch checks. TlbHierarchy::access plus
     * one data access per reference is bit-identical to
     * translateBatch(refs, true).
     */
    template <typename Boundary>
    std::uint64_t
    replay(workload::TraceGenerator &gen, tlb::TlbHierarchy &hier,
           cache::CacheHierarchy &caches, std::uint64_t refs,
           Boundary &&boundary)
    {
        MemRef batch[CheckPeriod];
        std::uint64_t done = 0;
        while (done < refs) {
            const auto chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(
                    CheckPeriod - (done & (CheckPeriod - 1)),
                    refs - done));
            std::uint64_t now = ticks();
            gen.nextBatch(batch, chunk);
            std::uint64_t mark = ticks();
            layers_.gen += mark - now;
            for (std::size_t i = 0; i < chunk; ++i) {
                const VAddr vaddr = batch[i].vaddr;
                const bool store = batch[i].type == AccessType::Write;
                const auto result = hier.access(vaddr, store);
                now = ticks();
                layers_.tlb += now - mark;
                if (!result.ok) {
                    layers_.refs += i;
                    refs_ += done + i;
                    return done + i;
                }
                const auto level = caches.accessLevel(result.paddr, store);
                dataCycles_ += caches.levelLatency(level);
                mark = ticks();
                layers_.data += mark - now;
                layers_.dataL1Hits += level == cache::HitLevel::L1;
                const VAddr page = vaddr >> 12;
                layers_.samePage += page == lastPage_;
                lastPage_ = page;
            }
            layers_.refs += chunk;
            done += chunk;
            if ((done & (CheckPeriod - 1)) == 0) {
                pollDeadline("traced run");
                boundary();
            }
        }
        refs_ += done;
        return done;
    }

    /** Time one round of OS lifecycle work (storms, maintenance). */
    template <typename Work>
    void
    lifecycle(Work &&work)
    {
        const std::uint64_t start = ticks();
        work();
        layers_.lifecycle += ticks() - start;
    }

    /**
     * Physical memory, memory manager, memhog and caches of a native
     * machine (Machine and MultiMachine build them alike), with memhog
     * already fragmenting memory.
     */
    void
    buildHost(const WorkloadSpec &spec, SetupTimes &setup)
    {
        auto start = Clock::now();
        mem_ = std::make_unique<mem::PhysMem>(spec.memBytes);
        os::CompactionParams compaction;
        compaction.seed = MachineSeed * 0x9e3779b9ULL + 17;
        mm_ = std::make_unique<os::MemoryManager>(*mem_, &root_, compaction);
        memhog_ = std::make_unique<os::Memhog>(*mm_, 0.2);
        caches_ = std::make_unique<cache::CacheHierarchy>(
            bench::scaledCaches(), &root_);
        setup.construct += secondsSince(start);

        start = Clock::now();
        if (spec.memhog > 0.0)
            memhog_->fragment(spec.memhog, MachineSeed);
        setup.memhog += secondsSince(start);
    }

    std::unique_ptr<mem::PhysMem> mem_;
    std::unique_ptr<os::MemoryManager> mm_;
    std::unique_ptr<os::Memhog> memhog_;
    std::unique_ptr<cache::CacheHierarchy> caches_;
};

class TracedNative final : public TracedStack
{
  public:
    TracedNative(const WorkloadSpec &spec, sim::TlbDesign design,
                 std::uint64_t seed, SetupTimes &setup, LayerTimes &layers)
        : TracedStack(sim::designName(design), layers)
    {
        // Machine's construction order: allocation order decides which
        // frames everything gets, so it must match exactly.
        buildHost(spec, setup);
        auto start = Clock::now();
        proc_ = std::make_unique<os::Process>(*mm_, os::ProcessParams{},
                                              &root_);
        inner_ = std::make_unique<tlb::NativeWalkSource>(
            proc_->pageTable(), &root_,
            [this](VAddr va, bool store) {
                return proc_->touch(va, store)
                       != os::TouchResult::OutOfMemory;
            },
            sim::walkerScanLines(design), pt::PwcParams{0});
        source_ = std::make_unique<TimedWalkSource>(*inner_, layers_);
        const pt::PageTable *table = &proc_->pageTable();
        hier_ = std::make_unique<tlb::TlbHierarchy>(
            "tlb", &root_, sim::makeCpuL1(design, &root_, table),
            sim::makeCpuL2(design, &root_, table), *source_, *caches_);
        proc_->addInvalidateListener(shootdown(*hier_));
        setup.construct += secondsSince(start);

        start = Clock::now();
        const VAddr base = proc_->mmap(spec.footprint);
        warmup(*hier_, base, spec.footprint);
        setup.warmup = secondsSince(start);
        gen_ = workload::makeGenerator(spec.generators[0], base,
                                       spec.footprint, streamSeed(seed, 0));
    }

    std::uint64_t
    run(unsigned, std::uint64_t refs) override
    {
        return replay(*gen_, *hier_, *caches_, refs, [this] {
            // Machine::run's between-batch work. Pressure bursts are
            // never injected here, so their release/draw is skipped.
            lifecycle([this] {
                if (fault::fire(fault::Site::DemoteStorm)) {
                    proc_->demoteStorm(1);
                    mm_->reclaim(StormReclaimFrames);
                }
                proc_->maintain();
            });
        });
    }

    perf::RunMetrics
    metrics() const override
    {
        return perf::computeMetrics(refs_, hier_->translationCycleCount(),
                                    static_cast<double>(dataCycles_));
    }

    os::PageSizeDistribution
    distribution() const override
    {
        return os::scanDistribution(proc_->pageTable());
    }

  private:
    std::unique_ptr<os::Process> proc_;
    std::unique_ptr<tlb::NativeWalkSource> inner_;
    std::unique_ptr<TimedWalkSource> source_;
    std::unique_ptr<tlb::TlbHierarchy> hier_;
    std::unique_ptr<workload::TraceGenerator> gen_;
};

class TracedVirt final : public TracedStack
{
  public:
    TracedVirt(const WorkloadSpec &spec, sim::TlbDesign design,
               std::uint64_t seed, SetupTimes &setup, LayerTimes &layers)
        : TracedStack(sim::designName(design), layers)
    {
        // VirtMachine's construction order, VM by VM.
        auto start = Clock::now();
        hostMem_ = std::make_unique<mem::PhysMem>(spec.memBytes);
        hostMm_ = std::make_unique<os::MemoryManager>(*hostMem_, &root_);
        caches_ = std::make_unique<cache::CacheHierarchy>(
            bench::scaledCaches(), &root_);
        for (unsigned i = 0; i < VirtVms; i++) {
            virt::VmParams vm_params;
            vm_params.name = "vm" + std::to_string(i);
            vm_params.guestMemBytes = spec.memBytes / VirtVms;
            vms_.push_back(std::make_unique<virt::Vm>(*hostMm_, vm_params,
                                                      &root_));
            virt::Vm &vm = *vms_[i];
            setup.construct += secondsSince(start);

            start = Clock::now();
            if (spec.memhog > 0.0) {
                memhogs_.push_back(
                    std::make_unique<os::Memhog>(vm.guestMm()));
                memhogs_.back()->fragment(spec.memhog,
                                          MachineSeed + 100 + i);
            }
            setup.memhog += secondsSince(start);

            start = Clock::now();
            os::ProcessParams proc_params;
            proc_params.name = "guest" + std::to_string(i);
            procs_.push_back(std::make_unique<os::Process>(
                vm.guestMm(), proc_params, &root_));
            inners_.push_back(std::make_unique<virt::NestedWalkSource>(
                vm, *procs_[i], &vm.statGroup(),
                sim::walkerScanLines(design)));
            sources_.push_back(
                std::make_unique<TimedWalkSource>(*inners_[i], layers_));
            const pt::PageTable *table = &procs_[i]->pageTable();
            hiers_.push_back(std::make_unique<tlb::TlbHierarchy>(
                "tlb" + std::to_string(i), &root_,
                sim::makeCpuL1(design, &vm.statGroup(), table),
                sim::makeCpuL2(design, &vm.statGroup(), table),
                *sources_[i], *caches_));
            procs_[i]->addInvalidateListener(shootdown(*hiers_[i]));
        }
        setup.construct += secondsSince(start);

        start = Clock::now();
        const std::uint64_t footprint = footprintOf(spec);
        for (unsigned vm = 0; vm < VirtVms; vm++) {
            const VAddr base = procs_[vm]->mmap(footprint);
            warmup(*hiers_[vm], base, footprint);
            gens_.push_back(workload::makeGenerator(
                spec.generators[vm], base, footprint, streamSeed(seed, vm)));
        }
        setup.warmup = secondsSince(start);
    }

    ~TracedVirt() override
    {
        // VirtMachine's teardown order: dependents before their VM.
        hiers_.clear();
        sources_.clear();
        inners_.clear();
        procs_.clear();
        memhogs_.clear();
        vms_.clear();
    }

    std::uint64_t
    run(unsigned lane, std::uint64_t refs) override
    {
        return replay(*gens_[lane], *hiers_[lane], *caches_, refs, [] {});
    }

    perf::RunMetrics
    metrics() const override
    {
        double cycles = 0;
        for (const auto &hier : hiers_)
            cycles += hier->translationCycleCount();
        return perf::computeMetrics(refs_, cycles,
                                    static_cast<double>(dataCycles_));
    }

    os::PageSizeDistribution
    distribution() const override
    {
        return os::scanDistribution(procs_[0]->pageTable());
    }

  private:
    std::unique_ptr<mem::PhysMem> hostMem_;
    std::unique_ptr<os::MemoryManager> hostMm_;
    std::vector<std::unique_ptr<virt::Vm>> vms_;
    std::vector<std::unique_ptr<os::Memhog>> memhogs_;
    std::vector<std::unique_ptr<os::Process>> procs_;
    std::vector<std::unique_ptr<virt::NestedWalkSource>> inners_;
    std::vector<std::unique_ptr<TimedWalkSource>> sources_;
    std::vector<std::unique_ptr<tlb::TlbHierarchy>> hiers_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> gens_;
};

class TracedMulti final : public TracedStack
{
  public:
    TracedMulti(const WorkloadSpec &spec, sim::TlbDesign design,
                std::uint64_t seed, SetupTimes &setup, LayerTimes &layers)
        : TracedStack(sim::designName(design), layers)
    {
        // MultiMachine's construction order.
        buildHost(spec, setup);
        auto start = Clock::now();
        inner_ = std::make_unique<tlb::MultiWalkSource>(
            &root_, sim::walkerScanLines(design), pt::PwcParams{0});
        for (unsigned i = 0; i < spec.generators.size(); i++) {
            os::ProcessParams params;
            params.name = "proc" + std::to_string(i);
            procs_.push_back(
                std::make_unique<os::Process>(*mm_, params, &root_));
            inner_->addProcess(procs_[i]->pageTable(),
                               [this, i](VAddr va, bool store) {
                                   return procs_[i]->touch(va, store)
                                          != os::TouchResult::OutOfMemory;
                               });
        }
        source_ = std::make_unique<TimedWalkSource>(*inner_, layers_);
        const pt::PageTable *table = &procs_[0]->pageTable();
        hier_ = std::make_unique<tlb::TlbHierarchy>(
            "tlb", &root_, sim::makeCpuL1(design, &root_, table),
            sim::makeCpuL2(design, &root_, table), *source_, *caches_);
        for (unsigned i = 0; i < procs_.size(); i++) {
            procs_[i]->addInvalidateListener(
                shootdown(*hier_, sim::MultiMachine::asidOf(i)));
        }
        switchTo(0);
        setup.construct += secondsSince(start);

        start = Clock::now();
        for (unsigned i = 0; i < procs_.size(); i++) {
            const VAddr base = procs_[i]->mmap(spec.footprint);
            switchTo(i);
            warmup(*hier_, base, spec.footprint);
            gens_.push_back(workload::makeGenerator(
                spec.generators[i], base, spec.footprint,
                streamSeed(seed, i)));
        }
        setup.warmup = secondsSince(start);
    }

    /** MultiMachine::run: round robin, one quantum per process turn. */
    std::uint64_t
    run(unsigned, std::uint64_t refs) override
    {
        const auto nprocs = static_cast<unsigned>(procs_.size());
        std::vector<std::uint64_t> remaining(nprocs, refs / nprocs);
        std::uint64_t total = 0;
        bool progress = true;
        while (progress) {
            progress = false;
            for (unsigned i = 0; i < nprocs; i++) {
                if (!remaining[i])
                    continue;
                const std::uint64_t slice =
                    std::min(Quantum, remaining[i]);
                switchTo(i);
                const std::uint64_t done =
                    replay(*gens_[i], *hier_, *caches_, slice, [] {});
                total += done;
                progress = progress || done > 0;
                remaining[i] = done < slice ? 0 : remaining[i] - done;
                lifecycle([this, i] {
                    if (fault::fire(fault::Site::DemoteStorm)) {
                        procs_[i]->demoteStorm(1);
                        mm_->reclaim(StormReclaimFrames);
                    }
                    procs_[i]->maintain();
                });
            }
        }
        return total;
    }

    perf::RunMetrics
    metrics() const override
    {
        return perf::computeMetrics(refs_, hier_->translationCycleCount(),
                                    static_cast<double>(dataCycles_));
    }

    os::PageSizeDistribution
    distribution() const override
    {
        return os::scanDistribution(procs_[0]->pageTable());
    }

  private:
    std::unique_ptr<tlb::MultiWalkSource> inner_;
    std::vector<std::unique_ptr<os::Process>> procs_;
    std::unique_ptr<TimedWalkSource> source_;
    std::unique_ptr<tlb::TlbHierarchy> hier_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> gens_;
    unsigned current_ = 0;
    bool everSwitched_ = false;

    /** MultiMachine::switchTo under the ASID-tagged policy. */
    void
    switchTo(unsigned proc)
    {
        if (everSwitched_ && proc == current_)
            return;
        inner_->switchTo(proc, sim::MultiMachine::asidOf(proc));
        hier_->setAsid(sim::MultiMachine::asidOf(proc));
        current_ = proc;
        everSwitched_ = true;
    }
};

} // anonymous namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"stream-hot",
         "64 MB streamcluster on THP, inside L1 TLB reach: 0 walks, so "
         "data-cache charging, TLB hits and L0 replays carry the time",
         Kind::Native, 512 * MiB, 0.0, 64 * MiB, {"streamcluster"},
         4 * 1024, 0.0, 50.0},
        {"gups-walk",
         "gups over 512 MB of memhog-fragmented THP (4 KB + 2 MB pages), "
         "past L2 TLB reach: TLB miss/fill, radix walks and walk charging",
         Kind::Native, 2 * GiB, 0.6, 512 * MiB, {"gups"}, 1024, 0.0,
         260.0},
        {"virt-nested",
         "2 VMs with guest memhog 0.4, gups in each: 2-D nested walks "
         "and VirtMachine::run, which no native workload reaches",
         Kind::Virt, 2 * GiB, 0.4, 0, {"gups", "gups"}, 1024, 0.0,
         500.0},
        {"multi-lifecycle",
         "4 ASID-tagged processes under memhog 0.3 and demote storms: "
         "demotion, reclaim, refault and their shootdowns between lookups",
         Kind::Multi, 1 * GiB, 0.3, 128 * MiB,
         {"gups", "streamcluster", "memcached", "graph500"}, 4 * 1024, 0.1,
         310.0},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &spec : workloads()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

unsigned
lanesOf(const WorkloadSpec &spec)
{
    return spec.kind == Kind::Virt ? VirtVms : 1;
}

std::uint64_t
footprintOf(const WorkloadSpec &spec)
{
    return spec.kind == Kind::Virt
               ? bench::pressureFootprint(spec.memBytes / VirtVms,
                                          spec.memhog)
               : spec.footprint;
}

const std::vector<sim::TlbDesign> &
designs()
{
    static const std::vector<sim::TlbDesign> list = {
        sim::TlbDesign::Split, sim::TlbDesign::Mix,
        sim::TlbDesign::MixColt, sim::TlbDesign::HashRehash,
        sim::TlbDesign::Skew,
    };
    return list;
}

std::string
designKey(sim::TlbDesign design)
{
    std::string key = sim::designName(design);
    for (char &c : key) {
        const bool keep = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        if (!keep)
            c = '-';
    }
    return key;
}

fault::FaultConfig
faultConfig(const WorkloadSpec &spec)
{
    fault::FaultConfig config;
    config.sites[static_cast<std::size_t>(fault::Site::DemoteStorm)].rate =
        spec.demoteStorm;
    return config;
}

std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

double
ticksPerNs()
{
    static const double rate = [] {
        const auto start = Clock::now();
        const std::uint64_t t0 = ticks();
        while (Clock::now() - start < std::chrono::milliseconds(20)) {
        }
        const std::uint64_t t1 = ticks();
        const double ns = std::chrono::duration<double, std::nano>(
                              Clock::now() - start)
                              .count();
        return static_cast<double>(t1 - t0) / ns;
    }();
    return rate;
}

std::unique_ptr<Stack>
buildMachine(const WorkloadSpec &spec, sim::TlbDesign design,
             std::uint64_t seed, SetupTimes &setup)
{
    switch (spec.kind) {
      case Kind::Native:
        return std::make_unique<MachineNative>(spec, design, seed, setup);
      case Kind::Virt:
        return std::make_unique<MachineVirt>(spec, design, seed, setup);
      case Kind::Multi:
        return std::make_unique<MachineMulti>(spec, design, seed, setup);
    }
    return nullptr;
}

std::unique_ptr<Stack>
buildTraced(const WorkloadSpec &spec, sim::TlbDesign design,
            std::uint64_t seed, SetupTimes &setup, LayerTimes &layers)
{
    switch (spec.kind) {
      case Kind::Native:
        return std::make_unique<TracedNative>(spec, design, seed, setup,
                                              layers);
      case Kind::Virt:
        return std::make_unique<TracedVirt>(spec, design, seed, setup,
                                            layers);
      case Kind::Multi:
        return std::make_unique<TracedMulti>(spec, design, seed, setup,
                                             layers);
    }
    return nullptr;
}

std::map<std::string, std::string>
modeledCounters(const Stack &stack)
{
    std::ostringstream dump;
    dump << std::setprecision(17);
    stack.root().dump(dump);

    std::map<std::string, std::string> counters;
    std::istringstream lines(dump.str());
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string name, value;
        fields >> name >> value;
        // "<design>.<group>...": skip MultiMachine's own attribution.
        const auto dot = name.find('.');
        const std::string group =
            name.substr(dot + 1, name.find('.', dot + 1) - dot - 1);
        const bool attribution =
            group == "sched" ||
            (group.size() > 1 && group[0] == 'p' &&
             std::all_of(group.begin() + 1, group.end(),
                         [](char c) { return c >= '0' && c <= '9'; }));
        if (!name.empty() && !attribution)
            counters[name] = value;
    }
    const perf::RunMetrics metrics = stack.metrics();
    std::ostringstream exact;
    exact << std::setprecision(17) << metrics.translationCycles << ' '
          << metrics.totalCycles;
    counters["perf.refs"] = std::to_string(metrics.refs);
    counters["perf.cycles"] = exact.str();
    return counters;
}

} // namespace perfbench
