/**
 * @file
 * What every machine kind shares: the machine core (stat root, memory,
 * caches, processes, walk sources, TLB hierarchies) and the one batch
 * driver that replays reference streams through it. A machine kind is
 * a configuration of the core plus a Schedule saying which lane runs
 * each turn, on which stream, for how long (DESIGN.md §8).
 */

#ifndef MIXTLB_SIM_MACHINE_CORE_HH
#define MIXTLB_SIM_MACHINE_CORE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/contracts.hh"
#include "os/memhog.hh"
#include "os/process.hh"
#include "os/scan.hh"
#include "perf/energy_model.hh"
#include "perf/perf_model.hh"
#include "sim/configs.hh"
#include "tlb/hierarchy.hh"
#include "tlb/walk_source.hh"
#include "workload/generator.hh"

namespace mixtlb::sim
{

/** Cadence of the deadline poll and OS boundary hook (power of two). */
constexpr std::uint64_t CheckPeriod = 1ULL << 10;

/** Mid-run audit cadence at paranoia >= 3 (power of two). */
constexpr std::uint64_t AuditPeriod = 1ULL << 16;

/**
 * Frames reclaimed alongside each injected demote storm: enough to
 * punch refault-able holes into the demoted region without stalling
 * the run on refault service.
 */
constexpr std::uint64_t StormReclaimFrames = 64;

/** Compaction seeded from a machine seed (native and multi kinds). */
os::CompactionParams seededCompaction(std::uint64_t seed);

/** One turn of a schedule: @p refs references of @p gen on @p lane. */
struct Turn
{
    unsigned lane = 0;
    workload::TraceGenerator *gen = nullptr;
    std::uint64_t refs = 0;
};

/** Which lane runs each turn; called per turn, never per reference. */
class Schedule
{
  public:
    virtual ~Schedule() = default;

    /** Fill @p turn with the next turn to run; false ends the run. */
    virtual bool next(Turn &turn) = 0;

    /** The turn ran @p done references (fewer than asked: OOM). */
    virtual void finish(const Turn &, std::uint64_t /* done */) {}

    /** Fire the OS boundary hook at turn ends, not CheckPeriods. */
    bool hookAtTurnEnd = false;
};

/** One stream on one lane: the native and virtualized schedule. */
class OneStream final : public Schedule
{
  public:
    OneStream(unsigned lane, workload::TraceGenerator &gen,
              std::uint64_t refs)
        : turn_{lane, &gen, refs}
    {}

    bool
    next(Turn &turn) override
    {
        turn = turn_;
        return !std::exchange(issued_, true);
    }

  private:
    Turn turn_;
    bool issued_ = false;
};

/**
 * The state every machine kind owns, with warmup, measurement, metrics,
 * energy inputs, audits and the batch driver implemented once.
 *
 * A *lane* is a (TLB hierarchy, process, memhog) triple the driver can
 * run: one per machine (native), per VM (virtualized), per process
 * over a shared hierarchy (multiprogrammed), or per shader core over a
 * shared process (GPU).
 */
class MachineCore
{
  public:
    MachineCore(const MachineCore &) = delete;
    MachineCore &operator=(const MachineCore &) = delete;

    /** Zero all statistics; metrics cover only what follows. */
    void startMeasurement();

    /**
     * Run every structural auditor (memory, the movable registry,
     * kind-specific OS state, processes, each distinct TLB level) and
     * raise on any violation. Runs at phase boundaries when paranoia
     * >= 1 and periodically mid-run at paranoia >= 3.
     */
    void auditAll() const;

    /** Metrics over the measured window, summed over hierarchies. */
    perf::RunMetrics metrics(const perf::PerfParams &params = {}) const;

    /**
     * Energy-model inputs: TLB-level counters summed over *distinct*
     * levels (a shared L2 counts once), walk counters over hierarchies.
     */
    perf::EnergyInputs energyInputs() const;

    /** Reserve a virtual arena in process @p proc's address space. */
    VAddr mapArena(unsigned proc, std::uint64_t bytes);
    VAddr mapArena(std::uint64_t bytes) { return mapArena(0, bytes); }

    os::PageSizeDistribution distribution(unsigned proc = 0) const;

    /** Hand lane @p lane its reference stream (Multi, GPU). */
    void attachWorkload(unsigned lane,
                        std::unique_ptr<workload::TraceGenerator> gen);

    unsigned numHierarchies() const { return unsigned(hiers_.size()); }
    tlb::TlbHierarchy &hierarchy(unsigned idx) { return *hiers_.at(idx); }
    unsigned numProcesses() const { return unsigned(procs_.size()); }
    os::Process &process(unsigned idx = 0) { return *procs_.at(idx); }
    const os::Process &process(unsigned idx = 0) const
    {
        return *procs_.at(idx);
    }
    stats::StatGroup &root() { return root_; }

  protected:
    /**
     * @param charge_data push data references through the caches (CPU
     *        kinds) or not (GPU: the paper models translation only).
     * @param maintain run Process::maintain() at every OS boundary
     *        (native and multiprogrammed kinds) or never (virtualized
     *        and GPU kinds, whose published numbers predate it).
     */
    MachineCore(const std::string &name, std::uint64_t mem_bytes,
                const os::CompactionParams &compaction,
                const cache::HierarchyParams &caches, TlbDesign design,
                bool charge_data, bool maintain);
    ~MachineCore();

    // Construction helpers. Call order decides which frames everything
    // gets, so each kind keeps its historical order.
    os::Memhog &addMemhog(os::MemoryManager &mm, double fraction,
                          std::uint64_t seed);
    os::Process &addProcess(os::MemoryManager &mm,
                            const os::ProcessParams &params);
    tlb::WalkSource &addNativeSource(os::Process &proc,
                                     unsigned pwc_entries = 0);

    template <typename Source>
    Source &
    addSource(std::unique_ptr<Source> source)
    {
        Source &ref = *source;
        sources_.push_back(std::move(source));
        return ref;
    }

    tlb::TlbHierarchy &addHierarchy(const std::string &name,
                                    stats::StatGroup *parent,
                                    std::unique_ptr<tlb::BaseTlb> l1,
                                    std::shared_ptr<tlb::BaseTlb> l2,
                                    tlb::WalkSource &source);

    /**
     * Register a lane. Every OS translation change of @p proc (demotion,
     * reclaim, migration) shoots down @p hier's entries tagged @p asid,
     * so no stale translation survives into the differential oracle.
     */
    void addLane(tlb::TlbHierarchy &hier, os::Process &proc,
                 os::Memhog &memhog, Asid asid = 0);

    /**
     * A real program's initialization phase: one store per @p step
     * over [base, base+bytes), ascending, *through the MMU*. The page
     * at va goes through lane first + (va / 4KB) % count, so a GPU's
     * input upload rotates over its cores.
     */
    void warmupLanes(unsigned first, unsigned count, VAddr base,
                     std::uint64_t bytes, std::uint64_t step);

    /** Replay @p schedule through the lanes; returns references done. */
    std::uint64_t drive(Schedule &schedule);

    /** Kind-specific OS state to audit (a VirtMachine's VMs). */
    virtual void auditOs(contracts::AuditReport &) const {}

    /**
     * Destroy lanes, hierarchies, sources, processes and memhogs. Kinds
     * whose own members (VMs, stat groups) those depend on call this
     * from their destructor.
     */
    void teardown();

    stats::StatGroup root_;
    mem::PhysMem mem_;
    os::MemoryManager mm_;
    cache::CacheHierarchy caches_;
    std::vector<std::unique_ptr<workload::TraceGenerator>> gens_;

  private:
    struct Lane
    {
        tlb::TlbHierarchy *hier;
        os::Process *proc;
        os::Memhog *memhog;
    };

    void pollDeadline(std::uint64_t done);
    void osBoundary(const Lane &lane);
    void releaseBursts();

    /** Call fn(level, is_l1) once per distinct TLB level. */
    template <typename Fn>
    void forEachLevel(Fn &&fn) const;

    TlbDesign design_;
    bool chargeData_;
    bool maintain_;
    std::uint64_t refs_ = 0;
    /** Hot counter: integral cycles, converted to double at report. */
    std::uint64_t dataCycles_ = 0;

    std::vector<std::unique_ptr<os::Memhog>> memhogs_;
    std::vector<std::unique_ptr<os::Process>> procs_;
    std::vector<std::unique_ptr<tlb::WalkSource>> sources_;
    std::vector<std::unique_ptr<tlb::TlbHierarchy>> hiers_;
    std::vector<Lane> lanes_;
};

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_MACHINE_CORE_HH
