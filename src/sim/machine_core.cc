#include "machine_core.hh"

#include <algorithm>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace mixtlb::sim
{

os::CompactionParams
seededCompaction(std::uint64_t seed)
{
    os::CompactionParams compaction;
    compaction.seed = seed * 0x9e3779b9ULL + 17;
    return compaction;
}

MachineCore::MachineCore(const std::string &name, std::uint64_t mem_bytes,
                         const os::CompactionParams &compaction,
                         const cache::HierarchyParams &caches,
                         TlbDesign design, bool charge_data,
                         bool maintain)
    : root_(name), mem_(mem_bytes), mm_(mem_, &root_, compaction),
      caches_(caches, &root_), design_(design), chargeData_(charge_data),
      maintain_(maintain)
{}

MachineCore::~MachineCore() { teardown(); }

void
MachineCore::teardown()
{
    // Dependents first: hierarchies use walk sources, sources use
    // processes, processes and memhogs use memory managers.
    lanes_.clear();
    gens_.clear();
    hiers_.clear();
    sources_.clear();
    procs_.clear();
    memhogs_.clear();
}

os::Memhog &
MachineCore::addMemhog(os::MemoryManager &mm, double fraction,
                       std::uint64_t seed)
{
    memhogs_.push_back(std::make_unique<os::Memhog>(mm));
    if (fraction > 0.0)
        memhogs_.back()->fragment(fraction, seed);
    return *memhogs_.back();
}

os::Process &
MachineCore::addProcess(os::MemoryManager &mm,
                        const os::ProcessParams &params)
{
    procs_.push_back(std::make_unique<os::Process>(mm, params, &root_));
    return *procs_.back();
}

tlb::WalkSource &
MachineCore::addNativeSource(os::Process &proc, unsigned pwc_entries)
{
    return addSource(std::make_unique<tlb::NativeWalkSource>(
        proc.pageTable(), &root_,
        [&proc](VAddr va, bool store) {
            return proc.touch(va, store) != os::TouchResult::OutOfMemory;
        },
        walkerScanLines(design_), pt::PwcParams{pwc_entries}));
}

tlb::TlbHierarchy &
MachineCore::addHierarchy(const std::string &name, stats::StatGroup *parent,
                          std::unique_ptr<tlb::BaseTlb> l1,
                          std::shared_ptr<tlb::BaseTlb> l2,
                          tlb::WalkSource &source)
{
    hiers_.push_back(std::make_unique<tlb::TlbHierarchy>(
        name, parent, std::move(l1), std::move(l2), source, caches_));
    return *hiers_.back();
}

void
MachineCore::addLane(tlb::TlbHierarchy &hier, os::Process &proc,
                     os::Memhog &memhog, Asid asid)
{
    lanes_.push_back(Lane{&hier, &proc, &memhog});
    gens_.resize(lanes_.size());
    proc.addInvalidateListener([&hier, asid](VAddr vbase, PageSize size) {
        hier.invalidatePage(vbase, size, asid);
    });
}

void
MachineCore::attachWorkload(unsigned lane,
                            std::unique_ptr<workload::TraceGenerator> gen)
{
    gens_.at(lane) = std::move(gen);
}

void
MachineCore::warmupLanes(unsigned first, unsigned count, VAddr base,
                         std::uint64_t bytes, std::uint64_t step)
{
    std::uint64_t steps = 0;
    for (std::uint64_t off = 0; off < bytes; off += step, steps++) {
        const VAddr va = base + off;
        const unsigned lane =
            first + static_cast<unsigned>((va >> PageShift4K) % count);
        if (!lanes_[lane].hier->access(va, true).ok) {
            MIX_RAISE("oom",
                      "machine %s: warmup ran out of memory at offset "
                      "%llu of %llu bytes",
                      root_.name().c_str(), (unsigned long long)off,
                      (unsigned long long)bytes);
        }
        if ((steps & (CheckPeriod - 1)) == CheckPeriod - 1 &&
            fault::deadlineExpired()) {
            MIX_RAISE("deadline",
                      "machine %s exceeded per-point deadline during "
                      "warmup",
                      root_.name().c_str());
        }
    }
    if (contracts::paranoia() >= 1)
        auditAll();
}

void
MachineCore::pollDeadline(std::uint64_t done)
{
    if (!fault::deadlineExpired())
        return;
    releaseBursts();
    MIX_RAISE("deadline",
              "machine %s exceeded per-point deadline after %llu refs",
              root_.name().c_str(), (unsigned long long)done);
}

void
MachineCore::osBoundary(const Lane &lane)
{
    // Pressure bursts are transient: the previous burst (if any) ends
    // at this boundary, and a new one may begin.
    os::MemoryManager &mm = lane.proc->memoryManager();
    lane.memhog->burstRelease();
    if (fault::fire(fault::Site::PressureBurst))
        lane.memhog->burstAcquire(mm.phys().buddy().freeFrames() / 2);
    // Injected demotion storms model the OS under memory duress: the
    // reclaim drops cold pages of the demoted region (and may shrink
    // processes sharing the memory manager), and kinds that run
    // maintain() re-promote by collapse: the hard shootdown cases.
    if (fault::fire(fault::Site::DemoteStorm)) {
        lane.proc->demoteStorm(1);
        mm.reclaim(StormReclaimFrames);
    }
    if (maintain_)
        lane.proc->maintain();
}

void
MachineCore::releaseBursts()
{
    for (auto &hog : memhogs_)
        hog->burstRelease();
}

// mixcheck: hot
std::uint64_t
MachineCore::drive(Schedule &schedule)
{
    // References are generated and replayed one CheckPeriod-aligned
    // batch at a time. Alignment counts references since the start of
    // this call, so the deadline poll, the boundary hook and the fault
    // draws land at fixed positions of the reference stream however
    // the turns fall.
    MemRef batch[CheckPeriod];
    std::uint64_t done = 0;
    Turn turn;
    while (schedule.next(turn)) {
        const Lane &lane = lanes_[turn.lane];
        std::uint64_t ran = 0;
        while (ran < turn.refs) {
            const auto chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(
                    CheckPeriod - (done & (CheckPeriod - 1)),
                    turn.refs - ran));
            simd::prefetchWrite(batch); // next trace chunk
            simd::prefetchWrite(batch + 4);
            turn.gen->nextBatch(batch, chunk);
            const auto br = lane.hier->translateBatch({batch, chunk},
                                                      chargeData_);
            ran += br.done;
            done += br.done;
            dataCycles_ += br.dataCycles;
            if (!br.ok) {
                warn("machine %s: lane %u out of memory after %llu refs",
                     root_.name().c_str(), turn.lane,
                     (unsigned long long)done);
                break;
            }
            if ((done & (CheckPeriod - 1)) == 0) {
                pollDeadline(done);
                if (!schedule.hookAtTurnEnd)
                    osBoundary(lane);
            }
            if (contracts::paranoia() >= 3 &&
                (done & (AuditPeriod - 1)) == 0) {
                auditAll();
            }
        }
        schedule.finish(turn, ran);
        if (schedule.hookAtTurnEnd)
            osBoundary(lane);
    }
    releaseBursts();
    refs_ += done;
    if (contracts::paranoia() >= 1)
        auditAll();
    return done;
}

template <typename Fn>
void
MachineCore::forEachLevel(Fn &&fn) const
{
    // A level shared between hierarchies (the GPU's L2) is visited
    // once, at its first hierarchy.
    for (std::size_t i = 0; i < hiers_.size(); i++) {
        for (const tlb::BaseTlb *level :
             {&hiers_[i]->l1(), &hiers_[i]->l2()}) {
            bool seen = false;
            for (std::size_t j = 0; j < i && !seen; j++) {
                seen = level == &hiers_[j]->l1() ||
                       level == &hiers_[j]->l2();
            }
            if (!seen)
                fn(*level, level == &hiers_[i]->l1());
        }
    }
}

void
MachineCore::auditAll() const
{
    contracts::AuditReport report(root_.name());
    mem_.audit(report);
    mm_.audit(report);
    auditOs(report);
    for (const auto &proc : procs_)
        proc->audit(report); // covers the page table's radix invariants
    forEachLevel([&report](const tlb::BaseTlb &level, bool) {
        level.audit(report);
    });
    contracts::require(report);
}

void
MachineCore::startMeasurement()
{
    root_.resetStats();
    refs_ = 0;
    dataCycles_ = 0;
}

perf::RunMetrics
MachineCore::metrics(const perf::PerfParams &params) const
{
    double cycles = 0;
    for (const auto &hier : hiers_)
        cycles += hier->translationCycleCount();
    return perf::computeMetrics(refs_, cycles,
                                static_cast<double>(dataCycles_), params);
}

perf::EnergyInputs
MachineCore::energyInputs() const
{
    const bool predictor = design_ == TlbDesign::HashRehashPred ||
                           design_ == TlbDesign::SkewPred;
    perf::EnergyInputs inputs;
    forEachLevel([&](const tlb::BaseTlb &level, bool l1) {
        (l1 ? inputs.l1WaysRead : inputs.l2WaysRead) +=
            level.waysReadCount();
        (l1 ? inputs.l1Fills : inputs.l2Fills) += level.fillCount();
        (l1 ? inputs.l1Entries : inputs.l2Entries) = level.numEntries();
        inputs.invalidations += level.invalidationCount();
        if (predictor)
            inputs.predictorLookups += level.hits() + level.misses();
    });
    for (const auto &hier : hiers_) {
        inputs.walkAccesses += hier->walkAccessCount();
        inputs.walkDramAccesses += hier->walkDramAccessCount();
        inputs.dirtyOps += hier->dirtyMicroOpCount();
    }
    const bool mirroring = design_ == TlbDesign::Mix ||
                           design_ == TlbDesign::MixColt ||
                           design_ == TlbDesign::MixSuperIndex;
    inputs.fillBurstFactor = mirroring ? 0.25 : 1.0;
    inputs.skewTimestamps =
        design_ == TlbDesign::Skew || design_ == TlbDesign::SkewPred;
    inputs.totalCycles = metrics().totalCycles;
    return inputs;
}

VAddr
MachineCore::mapArena(unsigned proc, std::uint64_t bytes)
{
    return process(proc).mmap(bytes);
}

os::PageSizeDistribution
MachineCore::distribution(unsigned proc) const
{
    return os::scanDistribution(procs_.at(proc)->pageTable());
}

} // namespace mixtlb::sim
