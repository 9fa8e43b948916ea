/**
 * @file
 * A multiprogrammed native machine: N processes, each with its own
 * page table, superpage policy, and workload stream, time-sharing one
 * TLB hierarchy, hardware walker, and cache hierarchy. Context
 * switches happen every `quantum` translated references under one of
 * two policies: FullFlush (the untagged baseline — every switch drops
 * both TLB levels and the PWC) or AsidTagged (entries carry the
 * owning process's ASID and survive switches, competing for capacity).
 */

#ifndef MIXTLB_SIM_MULTI_MACHINE_HH
#define MIXTLB_SIM_MULTI_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine_core.hh"

namespace mixtlb::sim
{

/** What a context switch does to the translation caches. */
enum class SwitchPolicy : std::uint8_t
{
    FullFlush,  ///< untagged hardware: flush TLBs + PWC every switch
    AsidTagged, ///< tagged hardware: no flush, entries coexist
};

const char *switchPolicyName(SwitchPolicy policy);

struct MultiMachineParams
{
    std::string name = "multi";
    std::uint64_t memBytes = 8ULL << 30;
    /** One entry per process (name defaults to "procN" when empty). */
    std::vector<os::ProcessParams> procs;
    /** Translated references per scheduling slice. */
    std::uint64_t quantum = 1024;
    SwitchPolicy policy = SwitchPolicy::AsidTagged;
    TlbDesign design = TlbDesign::Split;
    ConfigScale scale{};
    double memhogFraction = 0.0;
    std::uint64_t seed = 1;
    unsigned pwcEntries = 0;
    cache::HierarchyParams caches{};
};

/**
 * N processes round-robin scheduled over one shared TlbHierarchy.
 *
 * Per-process translation statistics (accesses, hits, walk cycles,
 * fills, energy feeders) are attributed by snapshotting the shared
 * hierarchy's counters around each slice, and land in per-process
 * stat groups "p0", "p1", ... under the machine root.
 */
class MultiMachine : public MachineCore
{
  public:
    explicit MultiMachine(const MultiMachineParams &params);
    ~MultiMachine();

    unsigned numProcs() const { return numProcesses(); }

    /** ASID of process @p proc. ASID 0 stays the single-process default. */
    static Asid asidOf(unsigned proc)
    {
        return static_cast<Asid>(proc + 1);
    }

    /** Pre-touch + pre-translate an arena as process @p proc. */
    void warmup(unsigned proc, VAddr base, std::uint64_t bytes,
                std::uint64_t step = pageBytes(PageSize::Size4K));

    /**
     * Round-robin all processes, @p refs_per_proc references each, in
     * quantum-sized slices. A process that runs out of memory is
     * parked; the rest keep running. Returns total references done.
     */
    std::uint64_t run(std::uint64_t refs_per_proc);

    /** Per-process attribution scalar @p name (group "p<proc>"). */
    double procStat(unsigned proc, const std::string &name) const;

    /** Per-process L1 TLB miss fraction over the measured window. */
    double procL1MissRate(unsigned proc) const;

    double contextSwitches() const { return double(switches_.value()); }
    double fullFlushes() const { return double(flushes_.value()); }

    tlb::TlbHierarchy &tlbs() { return hierarchy(0); }

  private:
    /**
     * Per-process attribution counters, group "p<index>": one per
     * entry of the attribution table in multi_machine.cc, in its
     * order, plus the slice count.
     */
    struct ProcStats
    {
        ProcStats(unsigned index, stats::StatGroup *parent);

        stats::StatGroup group;
        std::vector<stats::Counter *> attributed;
        stats::Counter &slices;
    };

    /**
     * Add the shared hierarchy's counter growth since @p before (one
     * value per table entry) to process @p proc.
     */
    void accumulate(unsigned proc, const std::vector<std::uint64_t> &before);

    /**
     * Make @p proc the running process: bump the switch counters,
     * apply the flush policy, retarget the walker/PWC, and set the
     * active ASID at both TLB levels.
     */
    void switchTo(unsigned proc);

    class RoundRobin;

    MultiMachineParams params_;
    tlb::MultiWalkSource *source_ = nullptr;
    tlb::TlbHierarchy *hier_ = nullptr;
    std::vector<std::unique_ptr<ProcStats>> procStats_;
    /** The hierarchy counter behind each attribution table entry. */
    std::vector<const stats::Counter *> attributedSources_;

    stats::StatGroup sched_;
    stats::Counter &switches_;
    stats::Counter &flushes_;

    unsigned current_ = 0;
    bool everSwitched_ = false;
};

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_MULTI_MACHINE_HH
