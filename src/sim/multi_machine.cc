#include "multi_machine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "tlb/ideal.hh"

namespace mixtlb::sim
{

const char *
switchPolicyName(SwitchPolicy policy)
{
    switch (policy) {
      case SwitchPolicy::FullFlush: return "full-flush";
      case SwitchPolicy::AsidTagged: return "asid";
    }
    return "unknown";
}

MultiMachine::ProcStats::ProcStats(unsigned index,
                                   stats::StatGroup *parent)
    : group("p" + std::to_string(index), parent),
      accesses(group.addCounter("accesses",
          "translated references attributed to this process")),
      l1Hits(group.addCounter("l1_hits", "L1 TLB hits")),
      l2Hits(group.addCounter("l2_hits", "L2 TLB hits")),
      walks(group.addCounter("walks", "page table walks")),
      walkCycles(group.addCounter("walk_cycles",
                                  "cycles spent in walks")),
      translationCycles(group.addCounter("translation_cycles",
          "total address translation cycles")),
      walkAccesses(group.addCounter("walk_accesses",
          "memory references issued by walks")),
      walkDramAccesses(group.addCounter("walk_dram_accesses",
          "walk references that reached DRAM")),
      dirtyOps(group.addCounter("dirty_ops",
          "dirty-bit update micro-ops")),
      l1WaysRead(group.addCounter("l1_ways_read",
          "L1 TLB ways read during this process's slices")),
      l2WaysRead(group.addCounter("l2_ways_read",
          "L2 TLB ways read during this process's slices")),
      l1Fills(group.addCounter("l1_fills", "L1 TLB fills")),
      l2Fills(group.addCounter("l2_fills", "L2 TLB fills")),
      slices(group.addCounter("slices", "scheduling slices executed"))
{
    group.addFormula("l1_miss_rate", "L1 TLB miss fraction", [this] {
        double total = accesses.value();
        return total > 0 ? 1.0 - l1Hits.value() / total : 0.0;
    });
}

MultiMachine::MultiMachine(const MultiMachineParams &params)
    : MachineCore(params.name, params.memBytes,
                  seededCompaction(params.seed), params.caches,
                  params.design, true, true),
      params_(params), sched_("sched", &root_),
      switches_(sched_.addCounter("context_switches",
          "context switches performed")),
      flushes_(sched_.addCounter("full_flushes",
          "TLB+PWC full flushes forced by the switch policy"))
{
    fatal_if(params.procs.empty(),
             "MultiMachine %s needs at least one process",
             params.name.c_str());
    fatal_if(params.quantum == 0,
             "MultiMachine %s: quantum must be nonzero",
             params.name.c_str());

    os::Memhog &hog = addMemhog(mm_, params.memhogFraction, params.seed);
    source_ = &addSource(std::make_unique<tlb::MultiWalkSource>(
        &root_, walkerScanLines(params.design),
        pt::PwcParams{params.pwcEntries}));

    for (unsigned i = 0; i < params.procs.size(); i++) {
        os::ProcessParams pp = params.procs[i];
        if (pp.name.empty() || pp.name == "proc")
            pp.name = "proc" + std::to_string(i);
        os::Process &proc = addProcess(mm_, pp);
        source_->addProcess(proc.pageTable(), [&proc](VAddr va, bool store) {
            return proc.touch(va, store) != os::TouchResult::OutOfMemory;
        });
        procStats_.push_back(std::make_unique<ProcStats>(i, &root_));
    }

    const pt::PageTable *table = &process(0).pageTable();
    hier_ = &addHierarchy(
        "tlb", &root_,
        makeCpuL1(params.design, &root_, table, params.scale),
        makeCpuL2(params.design, &root_, table, params.scale), *source_);

    // The Ideal design bypasses fills and translates straight from a
    // page table, so it needs every address space registered by ASID.
    if (params.design == TlbDesign::Ideal) {
        for (auto *level : {&hier_->l1(), &hier_->l2()}) {
            auto *ideal = dynamic_cast<tlb::IdealTlb *>(level);
            panic_if(!ideal, "Ideal design without IdealTlb levels");
            for (unsigned i = 0; i < numProcs(); i++)
                ideal->registerTable(asidOf(i), process(i).pageTable());
        }
    }

    // One lane per process over the shared hierarchy. Shootdowns from
    // compaction / memhog churn broadcast with the owning process's
    // ASID, whoever happens to be running.
    for (unsigned i = 0; i < numProcs(); i++)
        addLane(*hier_, process(i), hog, asidOf(i));

    // Start with process 0 resident so warmup/run never translate
    // against an unswitched walker.
    switchTo(0);
}

MultiMachine::~MultiMachine() = default;

MultiMachine::Snapshot
MultiMachine::takeSnapshot() const
{
    // The accessors widen the hierarchy's Counters to double; every
    // count stays far below 2^53, so narrowing back is exact.
    const auto n = [](double v) { return static_cast<std::uint64_t>(v); };
    Snapshot s;
    s.accesses = n(hier_->accessCount());
    s.l1Hits = n(hier_->l1HitCount());
    s.l2Hits = n(hier_->l2HitCount());
    s.walks = n(hier_->walkCount());
    s.walkCycles = n(hier_->walkCycleCount());
    s.translationCycles = n(hier_->translationCycleCount());
    s.walkAccesses = n(hier_->walkAccessCount());
    s.walkDramAccesses = n(hier_->walkDramAccessCount());
    s.dirtyOps = n(hier_->dirtyMicroOpCount());
    s.l1WaysRead = n(hier_->l1().waysReadCount());
    s.l2WaysRead = n(hier_->l2().waysReadCount());
    s.l1Fills = n(hier_->l1().fillCount());
    s.l2Fills = n(hier_->l2().fillCount());
    return s;
}

void
MultiMachine::accumulate(unsigned proc, const Snapshot &before)
{
    const Snapshot now = takeSnapshot();
    ProcStats &ps = *procStats_[proc];
    ps.accesses += now.accesses - before.accesses;
    ps.l1Hits += now.l1Hits - before.l1Hits;
    ps.l2Hits += now.l2Hits - before.l2Hits;
    ps.walks += now.walks - before.walks;
    ps.walkCycles += now.walkCycles - before.walkCycles;
    ps.translationCycles +=
        now.translationCycles - before.translationCycles;
    ps.walkAccesses += now.walkAccesses - before.walkAccesses;
    ps.walkDramAccesses +=
        now.walkDramAccesses - before.walkDramAccesses;
    ps.dirtyOps += now.dirtyOps - before.dirtyOps;
    ps.l1WaysRead += now.l1WaysRead - before.l1WaysRead;
    ps.l2WaysRead += now.l2WaysRead - before.l2WaysRead;
    ps.l1Fills += now.l1Fills - before.l1Fills;
    ps.l2Fills += now.l2Fills - before.l2Fills;
    ++ps.slices;
}

void
MultiMachine::switchTo(unsigned proc)
{
    if (everSwitched_ && proc == current_)
        return;
    if (everSwitched_)
        ++switches_;
    if (params_.policy == SwitchPolicy::FullFlush && everSwitched_) {
        hier_->invalidateAll();
        source_->flushTranslationCaches();
        ++flushes_;
    }
    source_->switchTo(proc, asidOf(proc));
    hier_->setAsid(asidOf(proc));
    current_ = proc;
    everSwitched_ = true;
}

/**
 * The multiprogrammed schedule: processes in round-robin order, one
 * quantum per turn, with a context switch before and per-process
 * attribution after each turn. A short turn (OOM) parks its process
 * for good; the run ends when every process is done or parked.
 */
class MultiMachine::RoundRobin final : public Schedule
{
  public:
    RoundRobin(MultiMachine &machine, std::uint64_t refs_per_proc)
        : machine_(machine),
          remaining_(machine.numProcs(), refs_per_proc)
    {
        hookAtTurnEnd = true;
    }

    bool
    next(Turn &turn) override
    {
        for (std::size_t tried = 0; tried < remaining_.size(); tried++) {
            const unsigned proc = next_;
            next_ = (next_ + 1) % machine_.numProcs();
            if (!remaining_[proc])
                continue;
            machine_.switchTo(proc);
            before_ = machine_.takeSnapshot();
            turn = {proc, machine_.gens_[proc].get(),
                    std::min(machine_.params_.quantum, remaining_[proc])};
            return true;
        }
        return false;
    }

    void
    finish(const Turn &turn, std::uint64_t done) override
    {
        machine_.accumulate(turn.lane, before_);
        remaining_[turn.lane] =
            done < turn.refs ? 0 : remaining_[turn.lane] - done;
    }

  private:
    MultiMachine &machine_;
    std::vector<std::uint64_t> remaining_;
    unsigned next_ = 0;
    Snapshot before_{};
};

std::uint64_t
MultiMachine::run(std::uint64_t refs_per_proc)
{
    for (unsigned i = 0; i < numProcs(); i++) {
        fatal_if(!gens_[i],
                 "machine %s: process %u has no workload attached",
                 params_.name.c_str(), i);
    }
    RoundRobin schedule(*this, refs_per_proc);
    return drive(schedule);
}

void
MultiMachine::warmup(unsigned proc, VAddr base, std::uint64_t bytes,
                     std::uint64_t step)
{
    switchTo(proc);
    warmupLanes(proc, 1, base, bytes, step);
}

double
MultiMachine::procStat(unsigned proc, const std::string &name) const
{
    return procStats_.at(proc)->group.value(name);
}

double
MultiMachine::procL1MissRate(unsigned proc) const
{
    const ProcStats &ps = *procStats_.at(proc);
    const double total = ps.accesses.value();
    return total > 0 ? 1.0 - ps.l1Hits.value() / total : 0.0;
}

} // namespace mixtlb::sim
