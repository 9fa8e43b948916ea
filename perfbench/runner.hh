/**
 * @file
 * One benchmark run of a workload: build a stack per design, run the
 * paranoia-2 correctness prefix and a discarded warm pass on each, then
 * the timed phase in fixed-size reference slices.
 *
 * The timed phase is cut into chunks that rotate through the designs
 * (chunk 0 of every design, then chunk 1, ...), so host interference
 * lasting seconds hits every design alike instead of whichever design
 * happened to be running. A calibrated run also times a fixed
 * calibration workload around every chunk, to tell the host's
 * slowdowns from the workload's own, and moves to the quietest CPU
 * before every round.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <string>
#include <vector>

#include "stacks.hh"

namespace perfbench
{

/** References per lane and design in each phase of a run. */
struct Plan
{
    std::uint64_t gateRefs = 0;  ///< paranoia-2 oracle prefix
    std::uint64_t warmRefs = 0;  ///< discarded warm pass
    std::uint64_t sliceRefs = 0; ///< references per timed run() call
    std::uint64_t chunks = 0;    ///< design rotations of the timed phase
    std::uint64_t chunkSlices = 0; ///< timed slices per chunk

    std::uint64_t slices() const { return chunks * chunkSlices; }

    std::uint64_t
    perLane() const
    {
        return gateRefs + warmRefs + sliceRefs * slices();
    }
};

/**
 * Size a workload's phases so its timed phase, summed over designs,
 * takes about @p seconds at the workload's nominal host speed. Every
 * count is a multiple of the slice, itself a multiple of CheckPeriod
 * and of the quantum times the process count.
 */
Plan makePlan(const WorkloadSpec &spec, double seconds);

/** Cap on the setups of one design when they are cheap. */
constexpr unsigned MaxSetupRepeats = 25;

struct RunOptions
{
    bool traced = false;
    /** false: each chunk is one run() call per lane, not slices. */
    bool sliced = true;
    /** Minimum setups per design; setup time is their median. */
    unsigned setupRepeats = 1;
    /** Keep repeating setups until this many seconds per design. */
    double setupBudget = 0.0;
    /** Time a calibration piece around every chunk (ChunkTimes::hostFactor). */
    bool calibrated = false;
    /**
     * The lowest quiet calibration level (ns per reference) of earlier
     * runs on this host; 0 = none. Host factors are taken against the
     * lower of it and this run's own.
     */
    double quietFloorNs = 0.0;
    /**
     * Start no further chunk once the timed phase, summed over
     * designs, has taken this many seconds; 0 = run every chunk. Only
     * a host far slower than the nominal speed reaches it.
     */
    double timedLimit = 0.0;
};

/** Host time of one chunk of one design's timed phase. */
struct ChunkTimes
{
    double seconds = 0;
    std::uint64_t refs = 0;
    /** Host ns per reference of each slice. */
    std::vector<double> sliceNsPerRef;
    /** Calibration pieces run before this chunk (in the whole run). */
    std::size_t calibration = 0;
    /**
     * How much slower the host ran around this chunk than in its
     * quietest stretches (this run's, or earlier runs' if quieter), as
     * the calibration workload measured it; 1 when the run is not
     * calibrated.
     */
    double hostFactor = 1.0;
};

/** Everything one design of a run produced. */
struct PointResult
{
    bool ok = true;
    std::string error;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    /**
     * Total setup seconds of each repeat; in a calibrated run, at the
     * run's quiet host speed (as ChunkTimes::hostFactor).
     */
    std::vector<double> setupSeconds;
    /** Setup split of the last repeat. */
    SetupTimes setup;
    /** The timed phase, chunk by chunk. */
    std::vector<ChunkTimes> chunks;
    double timedSeconds = 0;
    std::uint64_t timedRefs = 0;
    /** Page-size mix right after warmup. */
    os::PageSizeDistribution warmMix;
    /** This run's quiet calibration level, ns per reference; 0 if none. */
    double calibrationQuietNs = 0;
    std::map<std::string, std::string> counters;
    perf::RunMetrics metrics;
    LayerTimes layers;

    /** Median setup seconds over the repeats. */
    double setupMedian() const;
};

/**
 * The calibration workload: a stationary one (no storms, a fixed page
 * mix), so its cost per reference changes only with the host's speed.
 * It runs on the split design with a fixed stream seed.
 */
inline constexpr const char *CalibrationWorkload = "gups-walk";
/** References per calibration piece: about 2 ms at the nominal speed. */
constexpr std::uint64_t CalibrationRefs = 8 * 1024;
/** The host's quiet speed is the fastest 1/QuietShare of the pieces. */
constexpr std::size_t QuietShare = 8;

/**
 * Host speed of a design over all of its chunks, each chunk's times
 * divided by its hostFactor: what the design would take on the run's
 * quiet host. Other tenants slow this process by up to 2x for stretches
 * of a fraction of a second to seconds, and the workloads' own costs
 * change from chunk to chunk (multi-lifecycle's storms and
 * re-promotions), so neither raw times nor the fastest chunks are
 * steady; the calibration separates the host's share from the
 * workload's.
 */
struct SteadyStats
{
    double nsPerRef = 0;   ///< total time over total refs
    double sliceP50 = 0;   ///< slice ns/ref, median
    double sliceP99 = 0;   ///< slice ns/ref, 99th percentile
    std::size_t slices = 0;
};

SteadyStats steadyStats(const PointResult &point);

/** Run every design of @p spec; results are in designs() order. */
std::vector<PointResult> runWorkload(const WorkloadSpec &spec,
                                     std::uint64_t seed, const Plan &plan,
                                     const RunOptions &options);

/**
 * Sum of stat @p leaf over every group whose name is @p group plus an
 * optional index ("tlb" matches tlb, tlb0, tlb1).
 */
double sumCounter(const std::map<std::string, std::string> &counters,
                  const std::string &group, const std::string &leaf);

/** Value at quantile @p q (nearest rank) of @p values. */
double quantile(std::vector<double> values, double q);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
