/**
 * @file
 * Shared plumbing for the per-figure benchmark binaries: the scaled
 * cache hierarchy (caches shrink with the footprint scaling so
 * page-table walks keep their real relative cost — see DESIGN.md §5),
 * canonical run helpers, and result records.
 *
 * Every bench prints the same rows/series the corresponding paper
 * figure reports; absolute numbers differ from the paper (simulated
 * substrate, scaled footprints) but the shapes are the deliverable.
 */

#ifndef MIXTLB_BENCH_COMMON_HH
#define MIXTLB_BENCH_COMMON_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/json.hh"
#include "sim/cli.hh"
#include "sim/machine.hh"
#include "sim/multi_machine.hh"
#include "sim/sweep.hh"

namespace mixtlb::bench
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

/**
 * Cache hierarchy scaled to our default footprints: the paper's 80GB
 * footprints put page tables (160MB+) far beyond a 24MB LLC; our
 * multi-GB footprints need a 2MB LLC for walks to cost the same
 * *relative* amount.
 */
inline cache::HierarchyParams
scaledCaches()
{
    cache::HierarchyParams params;
    params.llc = {"llc", 2ULL * MiB, 16, CacheLineBytes, 40};
    return params;
}

/**
 * Everything a figure needs from one run, of any machine kind: the
 * per-point record's "metrics", "energy" and "distribution" blocks
 * (and the "multi" block of a multiprogrammed run), built once from
 * the machine by runNative()/runVirt()/runGpu()/runMulti().
 * BenchSweep::run() hands back each point's whole record, the one the
 * report stores and `--resume` restores verbatim. Read values with
 * valueAt().
 */
using RunResult = json::Value;

/**
 * The number at @p path ("block.key", e.g. "metrics.l1_miss_rate") of
 * @p result. Panics when the record has no such number, so a renamed
 * key fails loudly instead of reading 0. A quarantined point carries
 * no value blocks: every path reads 0, as its table cells always have.
 */
double valueAt(const RunResult &result, const std::string &path);

struct NativeRunConfig
{
    sim::TlbDesign design = sim::TlbDesign::Split;
    os::PagePolicy policy = os::PagePolicy::Thp;
    std::string workload = "graph500";
    std::uint64_t memBytes = 8 * GiB;
    std::uint64_t footprintBytes = 6 * GiB;
    std::uint64_t refs = 150000;
    double memhog = 0.0;
    std::uint64_t seed = 3;
    std::uint64_t pool2m = 0;
    std::uint64_t pool1g = 0;
    sim::ConfigScale scale{};
    /** Warm-sweep stride (coarser for 1GB-page footprints). */
    std::uint64_t warmStep = PageBytes4K;
};

/** Build, warm (init sweep), measure, and summarise one machine. */
RunResult runNative(const NativeRunConfig &config);

/**
 * Footprint the paper's memhog experiments would use: the workload
 * grabs (almost) everything memhog left free, driving memory pressure
 * the way an 80GB workload on an 80GB box does.
 */
inline std::uint64_t
pressureFootprint(std::uint64_t mem_bytes, double memhog_fraction)
{
    auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes)
        * (1.0 - memhog_fraction - 0.12));
    return bytes & ~(PageBytes2M - 1);
}

/** % improvement of b over a (Figure 14's metric). */
inline double
improvement(const RunResult &baseline, const RunResult &other)
{
    perf::RunMetrics base, faster;
    base.totalCycles = valueAt(baseline, "metrics.total_cycles");
    faster.totalCycles = valueAt(other, "metrics.total_cycles");
    return perf::improvementPercent(base, faster);
}

struct VirtRunConfig
{
    sim::TlbDesign design = sim::TlbDesign::Split;
    unsigned numVms = 1;
    std::string workload = "memcached";
    std::uint64_t hostMemBytes = 8 * GiB;
    std::uint64_t footprintBytes = 0; ///< 0 = pressure-sized per VM
    std::uint64_t refsPerVm = 60000;
    double guestMemhog = 0.2;
    std::uint64_t seed = 7;
};

/** One consolidated-VM run; metrics aggregate across vCPUs. */
RunResult runVirt(const VirtRunConfig &config);

struct GpuRunConfig
{
    sim::TlbDesign design = sim::TlbDesign::Split;
    std::string kernel = "bfs";
    unsigned cores = 16;
    std::uint64_t memBytes = 4 * GiB;
    std::uint64_t footprintBytes = 1 * GiB;
    std::uint64_t refs = 200000;
    double memhog = 0.0;
    std::uint64_t seed = 500;
};

/** One GPU run; translation cycles summed over shader cores. */
RunResult runGpu(const GpuRunConfig &config);

struct MultiRunConfig
{
    sim::TlbDesign design = sim::TlbDesign::Split;
    sim::SwitchPolicy policy = sim::SwitchPolicy::AsidTagged;
    unsigned numProcs = 2;
    /** Translated references per scheduling slice. */
    std::uint64_t quantum = 1024;
    /** Comma-separated workload names, cycled across processes. */
    std::string mix = "gups,streamcluster";
    os::PagePolicy procPolicy = os::PagePolicy::Thp;
    std::uint64_t memBytes = 8 * GiB;
    std::uint64_t footprintPerProc = 256 * MiB;
    std::uint64_t refsPerProc = 60000;
    std::uint64_t seed = 11;
};

/**
 * One multiprogrammed run: N processes round-robin over a shared TLB
 * hierarchy. Per-process workload seeds derive from the point seed via
 * sweepPointSeed(seed, proc), so full-flush vs ASID-tagged pairs see
 * identical reference streams.
 */
RunResult runMulti(const MultiRunConfig &config);

/** Any configuration a sweep point can carry. */
using BenchConfig = std::variant<NativeRunConfig, VirtRunConfig,
                                 GpuRunConfig, MultiRunConfig>;

/**
 * One entry of a sweep grid: a labelled configuration plus the
 * *configuration point* it belongs to. Jobs sharing a point (e.g. the
 * split and MIX runs of one table cell) get the same derived seed, so
 * design comparisons see identical workload streams.
 */
struct SweepJob
{
    std::string section; ///< table grouping ("native", "virt", "gpu")
    std::string label;   ///< human-readable config id for the JSON
    BenchConfig config;
    std::size_t point = 0; ///< seed-sharing configuration point
};

/**
 * A declarative grid of runs. Build it up front, hand it to a
 * BenchSweep, and index the returned RunResults with the values add()
 * gave back — results always land in grid order regardless of how many
 * worker threads executed them.
 */
class SweepGrid
{
  public:
    /** Append a job opening a new configuration point. */
    std::size_t add(std::string section, std::string label,
                    BenchConfig config);

    /**
     * Append a job sharing the configuration point (and therefore the
     * derived seed) of job @p paired_with.
     */
    std::size_t addPaired(std::size_t paired_with, std::string section,
                          std::string label, BenchConfig config);

    const std::vector<SweepJob> &jobs() const { return jobs_; }
    std::size_t size() const { return jobs_.size(); }

  private:
    std::vector<SweepJob> jobs_;
    std::size_t nextPoint_ = 0;
};

/**
 * Seed job @p job will actually run with: derived from (the config's
 * own base seed, the job's configuration point), never from thread
 * scheduling — `--jobs 1` and `--jobs N` are bit-identical.
 */
std::uint64_t effectiveSeed(const SweepJob &job);

/** Run one job (seed already derived) on the current thread. */
RunResult runJob(const SweepJob &job);

/**
 * The per-bench sweep harness. Parsed flags:
 *  - `--jobs N` worker threads (default hardware_concurrency)
 *  - `--json <path>` machine-readable report, written atomically
 *  - `--paranoia N` global invariant-checking level (1 = audits at
 *    phase boundaries, 2 = + differential translation oracle, 3 = +
 *    periodic mid-run audits)
 *  - `--inject site=rate[@point],...` deterministic fault injection
 *  - `--demote-storm R` shorthand merging a demote-storm rate into the
 *    injection config (the memory-pressure lifecycle soak)
 *  - `--retries N` extra attempts for a failing point (default 1)
 *  - `--deadline S` cooperative per-point deadline in seconds
 *  - `--checkpoint <path>` completed-point journal (default
 *    `<json>.ckpt` when `--json` is given)
 *  - `--resume <checkpoint>` reuse completed points from a previous
 *    (killed) run of the *same* sweep; the final JSON is bit-identical
 *    to an uninterrupted run
 *  - `--allow-failures` exit 0 even when points were quarantined
 *  - `--no-timing` omit the per-point "timing" block (wall_seconds,
 *    refs_per_sec) — for byte-stable golden comparisons across runs
 *
 * Failing points no longer kill the process: they are retried with
 * the same deterministic seed, then quarantined into the report's
 * "failures" block while every other point completes.
 */
class BenchSweep
{
  public:
    BenchSweep(const sim::CliArgs &args, std::string benchmark);
    ~BenchSweep();

    BenchSweep(const BenchSweep &) = delete;
    BenchSweep &operator=(const BenchSweep &) = delete;

    /**
     * Run @p grid; results are indexed exactly like grid.jobs(). Each
     * is the point's report record, restored ones included.
     */
    std::vector<RunResult> run(const SweepGrid &grid);

    /**
     * Write the JSON report if `--json` was given and report the
     * process exit code: 0 when every point succeeded (or
     * `--allow-failures` was given), 1 otherwise. Call once at end;
     * benches `return sweep.finish();`.
     */
    int finish();

    unsigned jobs() const { return runner_.jobs(); }
    std::size_t failures() const { return failures_; }

    /** The accumulated report document (tests inspect this). */
    const json::Value &doc() const { return doc_; }

  private:
    sim::SweepRunner runner_;
    std::string jsonPath_;
    std::string checkpointPath_;
    bool allowFailures_ = false;
    bool injecting_ = false;
    bool timing_ = true;
    std::size_t failures_ = 0;
    /** Jobs across all run() calls so far (checkpoint indexing). */
    std::size_t globalIndex_ = 0;
    /** Completed-point records loaded from `--resume`. */
    std::map<std::size_t, json::Value> resumed_;
    std::FILE *checkpoint_ = nullptr;
    std::mutex checkpointMutex_;
    json::Value doc_;

    void loadCheckpoint(const std::string &path);
    void appendCheckpoint(std::size_t global_index,
                          const json::Value &record);
};

/** The "config" JSON block for one job. */
json::Value configJson(const SweepJob &job);

} // namespace mixtlb::bench

#endif // MIXTLB_BENCH_COMMON_HH
