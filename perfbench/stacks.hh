/**
 * @file
 * The simulated systems the host-throughput benchmark drives, in two
 * builds of the same configuration:
 *
 *  - the *machine* stack wraps the public sim::Machine, VirtMachine or
 *    MultiMachine and calls their run() loops unchanged (the untraced,
 *    end-to-end measurement);
 *  - the *traced* stack assembles the same system from public parts
 *    (PhysMem, MemoryManager, Memhog, Process, CacheHierarchy,
 *    makeCpuL1/L2, TlbHierarchy) and replays references one at a time
 *    so the host time of each layer can be read off at its public
 *    boundary.
 *
 * Both must end every run with bit-identical modeled counters; the
 * identity test and the --trace 1 run check that they do.
 */

#ifndef PERFBENCH_STACKS_HH
#define PERFBENCH_STACKS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "os/scan.hh"
#include "perf/perf_model.hh"
#include "sim/configs.hh"

namespace perfbench
{

using namespace mixtlb;

enum class Kind : std::uint8_t
{
    Native, ///< sim::Machine, one process
    Virt,   ///< sim::VirtMachine, one guest process per VM
    Multi,  ///< sim::MultiMachine, ASID-tagged round robin
};

struct WorkloadSpec
{
    std::string name;
    std::string why;
    Kind kind = Kind::Native;
    /** Machine memory; the host's memory for Virt. */
    std::uint64_t memBytes = 0;
    /** Memhog fraction: machine-wide, or inside each VM for Virt. */
    double memhog = 0.0;
    /** Arena per process; 0 for Virt, sized by footprintOf(). */
    std::uint64_t footprint = 0;
    /** Generator per process (Multi) or VM (Virt); one for Native. */
    std::vector<std::string> generators;
    /** References per run() call (summed over processes for Multi). */
    std::uint64_t sliceRefs = 0;
    /** demote-storm injection rate; 0 = none. */
    double demoteStorm = 0.0;
    /** Nominal host ns per reference: sizes the timed phase. */
    double nominalNsPerRef = 0.0;
};

/** The benchmark's workloads, in report order. */
const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(const std::string &name);

/** Independent reference streams of a workload: its VMs, else 1. */
unsigned lanesOf(const WorkloadSpec &spec);

/** Arena bytes per stream (Virt: bench::pressureFootprint per VM). */
std::uint64_t footprintOf(const WorkloadSpec &spec);

/** The designs every workload replays through (bench_hotpath's set). */
const std::vector<sim::TlbDesign> &designs();

/** designName() with characters outside [a-z0-9-] mapped to '-'. */
std::string designKey(sim::TlbDesign design);

/**
 * Seed of every machine: memhog layout, compaction draws and the
 * demote-storm schedule. It is fixed so each workload keeps one
 * page-size mix and one storm count (under another seed memhog 0.6 can
 * leave gups-walk with no 4KB pages and hence no walks); the
 * benchmark's --seed drives the reference streams.
 */
constexpr std::uint64_t MachineSeed = 1;

/** Run loops batch references in CheckPeriod-sized chunks. */
constexpr std::uint64_t CheckPeriod = 1024;
/** MultiMachine scheduling quantum. */
constexpr std::uint64_t Quantum = 1024;

/** Injection config of a workload's points (demote storms only). */
fault::FaultConfig faultConfig(const WorkloadSpec &spec);

/** Host seconds spent building a stack, by phase. */
struct SetupTimes
{
    double construct = 0; ///< objects (includes memhog for machines)
    double memhog = 0;    ///< memhog fragmentation (traced stack only)
    double warmup = 0;    ///< mmap + first-touch sweep through the MMU

    double total() const { return construct + memhog + warmup; }
};

/**
 * Host time and event counts gathered at the traced stack's layer
 * boundaries since the last startMeasurement(). Times are in ticks
 * (see ticksPerNs()).
 */
struct LayerTimes
{
    std::uint64_t gen = 0;        ///< TraceGenerator::nextBatch
    std::uint64_t tlb = 0;        ///< TlbHierarchy::access, children incl.
    std::uint64_t walk = 0;       ///< WalkSource::walk
    std::uint64_t fault = 0;      ///< WalkSource::fault
    std::uint64_t data = 0;       ///< CacheHierarchy data accesses
    std::uint64_t lifecycle = 0;  ///< demoteStorm + reclaim + maintain
    std::uint64_t invalidate = 0; ///< TlbHierarchy::invalidatePage
    std::uint64_t refs = 0;
    std::uint64_t walks = 0;
    std::uint64_t faults = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t dataL1Hits = 0;
    /** Refs on the same 4KB page as the reference before them. */
    std::uint64_t samePage = 0;
};

/** A cheap monotonic tick counter (the TSC on x86). */
std::uint64_t ticks();

/** Calibrated ticks per nanosecond (measured once, ~20 ms). */
double ticksPerNs();

/** One simulated system, driven lane by lane. */
class Stack
{
  public:
    virtual ~Stack() = default;

    /**
     * Replay @p refs references of lane @p lane's stream (lanes are
     * the VMs for Virt; see lanesOf()).
     * @return references completed (short only on OOM).
     */
    virtual std::uint64_t run(unsigned lane, std::uint64_t refs) = 0;

    /** Zero all statistics; metrics cover only what follows. */
    virtual void startMeasurement() = 0;

    virtual const stats::StatGroup &root() const = 0;
    virtual perf::RunMetrics metrics() const = 0;

    /** Page-size mix of the first process (guest process for Virt). */
    virtual os::PageSizeDistribution distribution() const = 0;
};

/** Build the stack on sim::Machine / VirtMachine / MultiMachine. */
std::unique_ptr<Stack> buildMachine(const WorkloadSpec &spec,
                                    sim::TlbDesign design,
                                    std::uint64_t seed, SetupTimes &setup);

/** Build the same system from public parts, timing each layer. */
std::unique_ptr<Stack> buildTraced(const WorkloadSpec &spec,
                                   sim::TlbDesign design,
                                   std::uint64_t seed, SetupTimes &setup,
                                   LayerTimes &layers);

/**
 * Every modeled counter of @p stack, by dotted name, printed exactly,
 * plus the perf-model totals. Attribution groups only MultiMachine
 * keeps (per-process "pN" and "sched") are left out.
 */
std::map<std::string, std::string> modeledCounters(const Stack &stack);

} // namespace perfbench

#endif // PERFBENCH_STACKS_HH
