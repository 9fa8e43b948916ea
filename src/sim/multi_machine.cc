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

namespace
{

/** One counter attributed to the running process, slice by slice. */
struct Attribution
{
    const char *name; ///< the per-process stat, "p<i>.<name>"
    const char *desc;
    const char *source; ///< the shared counter, under the machine root
};

/**
 * Every per-process attribution counter and the shared hierarchy
 * counter whose growth over a slice it receives.
 */
constexpr Attribution Attributed[] = {
    {"accesses", "translated references attributed to this process",
     "tlb.accesses"},
    {"l1_hits", "L1 TLB hits", "tlb.l1_hits"},
    {"l2_hits", "L2 TLB hits", "tlb.l2_hits"},
    {"walks", "page table walks", "tlb.walks"},
    {"walk_cycles", "cycles spent in walks", "tlb.walk_cycles"},
    {"translation_cycles", "total address translation cycles",
     "tlb.translation_cycles"},
    {"walk_accesses", "memory references issued by walks",
     "tlb.walk_accesses"},
    {"walk_dram_accesses", "walk references that reached DRAM",
     "tlb.walk_dram_accesses"},
    {"dirty_ops", "dirty-bit update micro-ops", "tlb.dirty_micro_ops"},
    {"l1_ways_read", "L1 TLB ways read during this process's slices",
     "l1.ways_read"},
    {"l2_ways_read", "L2 TLB ways read during this process's slices",
     "l2.ways_read"},
    {"l1_fills", "L1 TLB fills", "l1.fills"},
    {"l2_fills", "L2 TLB fills", "l2.fills"},
};

} // anonymous namespace

MultiMachine::ProcStats::ProcStats(unsigned index,
                                   stats::StatGroup *parent)
    : group(std::string("p").append(std::to_string(index)), parent),
      slices(group.addCounter("slices", "scheduling slices executed"))
{
    for (const Attribution &entry : Attributed)
        attributed.push_back(&group.addCounter(entry.name, entry.desc));
    group.addFormula("l1_miss_rate", "L1 TLB miss fraction", [this] {
        double total = group.value("accesses");
        return total > 0 ? 1.0 - group.value("l1_hits") / total : 0.0;
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
    for (const Attribution &entry : Attributed)
        attributedSources_.push_back(&root_.counter(entry.source));

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

void
MultiMachine::accumulate(unsigned proc,
                         const std::vector<std::uint64_t> &before)
{
    ProcStats &ps = *procStats_[proc];
    for (std::size_t k = 0; k < before.size(); k++)
        *ps.attributed[k] += attributedSources_[k]->value() - before[k];
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
          remaining_(machine.numProcs(), refs_per_proc),
          before_(machine.attributedSources_.size())
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
            for (std::size_t k = 0; k < before_.size(); k++)
                before_[k] = machine_.attributedSources_[k]->value();
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
    /** The attributed hierarchy counters at the turn's start. */
    std::vector<std::uint64_t> before_;
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
    const double total = procStat(proc, "accesses");
    return total > 0 ? 1.0 - procStat(proc, "l1_hits") / total : 0.0;
}

} // namespace mixtlb::sim
