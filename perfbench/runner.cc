#include "runner.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/contracts.hh"
#include "sim/sweep.hh"

namespace perfbench
{

namespace
{

/**
 * Restricts this thread to one CPU at a time and puts its original
 * CPU set back when it goes out of scope.
 */
class CpuPin
{
  public:
    CpuPin()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuPin()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }

    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

    /** The CPUs the process was allowed at construction. */
    const std::vector<int> &cpus() const { return cpus_; }

    bool
    pin(int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        return sched_setaffinity(0, sizeof set, &set) == 0;
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

} // anonymous namespace

/**
 * Cooperative deadline of each setup, prefix and chunk, in seconds. A
 * phase normally takes well under a second, so this only ends a
 * wedged one (e.g. a VM that keeps refaulting after an OOM).
 */
constexpr double PhaseDeadline = 60.0;

Plan
makePlan(const WorkloadSpec &spec, double seconds)
{
    // Chunks of a few tens of ms per design at the nominal speed: short
    // enough that the calibration pieces around a chunk see the host
    // as the chunk saw it, when interference comes and goes within a
    // fraction of a second to seconds.
    constexpr std::uint64_t MaxChunks = 100;
    Plan plan;
    plan.sliceRefs = spec.sliceRefs;
    // Both prefixes are multiples of every workload's slice.
    plan.gateRefs = 32 * 1024;
    plan.warmRefs = 64 * 1024;
    const double timed_refs = seconds * 1e9 / spec.nominalNsPerRef /
                              static_cast<double>(designs().size());
    const auto slices = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               timed_refs / static_cast<double>(spec.sliceRefs *
                                                lanesOf(spec)))));
    plan.chunks = std::min(MaxChunks, slices);
    plan.chunkSlices = slices / plan.chunks;
    return plan;
}

double
PointResult::setupMedian() const
{
    return setupSeconds.empty() ? 0.0 : quantile(setupSeconds, 0.5);
}

std::vector<PointResult>
runWorkload(const WorkloadSpec &spec, std::uint64_t seed, const Plan &plan,
            const RunOptions &options)
{
    using Clock = std::chrono::steady_clock;
    const std::vector<sim::TlbDesign> &list = designs();
    const fault::FaultConfig config = faultConfig(spec);
    const unsigned lanes = lanesOf(spec);
    std::vector<PointResult> out(list.size());
    std::vector<std::unique_ptr<Stack>> stacks(list.size());
    for (PointResult &point : out)
        point.attempted = plan.perLane() * lanes;

    // Each phase of a design runs under its own fault scope (deadline,
    // demote-storm schedule drawn from @p scope_seed); a SimError ends
    // that design only.
    const auto guarded = [&](std::size_t d, std::uint64_t scope_seed,
                             const auto &body) {
        if (!out[d].ok)
            return;
        try {
            fault::FaultScope scope(config, scope_seed, d, PhaseDeadline);
            body();
        } catch (const SimError &error) {
            contracts::setParanoia(0);
            out[d].ok = false;
            out[d].error = error.what();
            stacks[d].reset();
        }
    };
    // Every run() completes or ends the design as failed.
    const auto run = [&](std::size_t d, unsigned lane, std::uint64_t refs) {
        const std::uint64_t done = stacks[d]->run(lane, refs);
        out[d].completed += done;
        if (done < refs) {
            MIX_RAISE("short-run", "%s lane %u completed %llu of %llu refs",
                      sim::designName(list[d]), lane,
                      (unsigned long long)done, (unsigned long long)refs);
        }
    };
    // The storm schedule belongs to the machine, not to the seeded
    // streams, and every chunk replays the same one, so no chunk or
    // seed is cheaper than another by luck of the draw.
    const std::uint64_t prefix_seed = sim::sweepPointSeed(MachineSeed, 0);
    const std::uint64_t chunk_seed = sim::sweepPointSeed(MachineSeed, 1);

    // The calibration stack replays a fixed stream, whatever the seed,
    // on its own machine; the stacks under test never see it.
    std::unique_ptr<Stack> calibration;
    std::vector<double> calibration_ns;
    if (options.calibrated) {
        SetupTimes unused;
        calibration = buildMachine(*findWorkload(CalibrationWorkload),
                                   sim::TlbDesign::Split, MachineSeed, unused);
        calibration->run(0, plan.warmRefs);
    }
    const auto piece = [&] {
        const auto start = Clock::now();
        calibration->run(0, CalibrationRefs);
        return 1e9 *
               std::chrono::duration<double>(Clock::now() - start).count() /
               static_cast<double>(CalibrationRefs);
    };
    const auto calibrate = [&] {
        if (calibration)
            calibration_ns.push_back(piece());
    };
    // Other tenants load the host's cores unevenly, and which vCPU sits
    // on a loaded core changes within minutes; a loaded one runs the
    // simulator up to 2x slower. Before each round, move to the CPU on
    // which a calibration piece runs fastest.
    CpuPin pin;
    const auto settle = [&] {
        if (!calibration || pin.cpus().size() < 2)
            return;
        int best = -1;
        double best_ns = 0;
        for (int cpu : pin.cpus()) {
            if (!pin.pin(cpu))
                continue;
            const double ns = piece();
            if (best < 0 || ns < best_ns) {
                best = cpu;
                best_ns = ns;
            }
        }
        if (best >= 0)
            pin.pin(best);
    };

    // Setup rounds rotate through the designs as well; cheap setups
    // repeat until their median is worth reading. Calibration pieces
    // run between the setups too; setup_index holds, per design, how
    // many had run before each of its setups.
    std::vector<double> setup_ns;
    std::vector<std::vector<std::size_t>> setup_index(list.size());
    double spent = 0;
    for (unsigned round = 1;; round++) {
        settle();
        for (std::size_t d = 0; d < list.size(); d++) {
            if (calibration)
                setup_ns.push_back(piece());
            guarded(d, MachineSeed, [&] {
                stacks[d].reset();
                SetupTimes setup;
                stacks[d] = options.traced
                                ? buildTraced(spec, list[d], seed, setup,
                                              out[d].layers)
                                : buildMachine(spec, list[d], seed, setup);
                out[d].setupSeconds.push_back(setup.total());
                setup_index[d].push_back(setup_ns.size());
                out[d].setup = setup;
                spent += setup.total();
            });
        }
        if (calibration)
            setup_ns.push_back(piece());
        const bool enough =
            spent >= options.setupBudget * static_cast<double>(list.size());
        if (round >= MaxSetupRepeats ||
            (round >= options.setupRepeats && enough)) {
            break;
        }
    }

    for (std::size_t d = 0; d < list.size(); d++) {
        guarded(d, prefix_seed, [&] {
            out[d].warmMix = stacks[d]->distribution();
            // Correctness gate: the differential oracle checks every
            // translation of the prefix against the page tables.
            contracts::setParanoia(2);
            for (unsigned lane = 0; lane < lanes; lane++)
                run(d, lane, plan.gateRefs);
            contracts::setParanoia(0);
            for (unsigned lane = 0; lane < lanes; lane++)
                run(d, lane, plan.warmRefs);
            stacks[d]->startMeasurement();
        });
    }

    const std::uint64_t calls = options.sliced ? plan.chunkSlices : 1;
    const std::uint64_t refs =
        plan.sliceRefs * (options.sliced ? 1 : plan.chunkSlices);
    const auto timed_seconds = [&] {
        double sum = 0;
        for (const PointResult &point : out)
            sum += point.timedSeconds;
        return sum;
    };
    for (std::uint64_t chunk = 0; chunk < plan.chunks; chunk++) {
        if (options.timedLimit > 0 && timed_seconds() > options.timedLimit) {
            // References of the chunks not started are not requested.
            const std::uint64_t skipped =
                (plan.chunks - chunk) * plan.chunkSlices * plan.sliceRefs;
            for (PointResult &point : out)
                point.attempted -= skipped * lanes;
            break;
        }
        settle();
        for (std::size_t d = 0; d < list.size(); d++) {
            calibrate();
            guarded(d, chunk_seed, [&] {
                ChunkTimes times;
                times.calibration = calibration_ns.size();
                for (unsigned lane = 0; lane < lanes; lane++) {
                    for (std::uint64_t k = 0; k < calls; k++) {
                        const auto start = Clock::now();
                        run(d, lane, refs);
                        const double secs = std::chrono::duration<double>(
                                                Clock::now() - start)
                                                .count();
                        times.seconds += secs;
                        times.refs += refs;
                        // A lane's first slice in a chunk starts with the
                        // host caches holding another stack's data, a cost
                        // of the rotation, not of the simulator: it counts
                        // in the throughput but not among the slices.
                        if (k > 0 || calls == 1) {
                            times.sliceNsPerRef.push_back(
                                1e9 * secs / static_cast<double>(refs));
                        }
                    }
                }
                out[d].timedSeconds += times.seconds;
                out[d].timedRefs += times.refs;
                out[d].chunks.push_back(std::move(times));
            });
        }
    }
    calibrate();

    if (calibration_ns.size() > 1) {
        // Host speed around a chunk: the mean of the calibration pieces
        // just before and just after it, relative to the mean of the
        // fastest 1/QuietShare of those (the run's quiet host), or to
        // an earlier run's if that was lower: a slowdown that lasts a
        // whole run shows only against another run.
        std::vector<double> around;
        for (std::size_t i = 0; i + 1 < calibration_ns.size(); i++)
            around.push_back((calibration_ns[i] + calibration_ns[i + 1]) / 2);
        std::vector<double> sorted = around;
        std::sort(sorted.begin(), sorted.end());
        sorted.resize((sorted.size() + QuietShare - 1) / QuietShare);
        double run_quiet = 0;
        for (double ns : sorted)
            run_quiet += ns / static_cast<double>(sorted.size());
        const double quiet = options.quietFloorNs > 0
                                 ? std::min(run_quiet, options.quietFloorNs)
                                 : run_quiet;
        for (PointResult &point : out) {
            point.calibrationQuietNs = run_quiet;
            for (ChunkTimes &chunk : point.chunks)
                chunk.hostFactor = around[chunk.calibration - 1] / quiet;
        }
        // Setups likewise, by the pieces just before and after each.
        for (std::size_t d = 0; d < list.size(); d++) {
            for (std::size_t r = 0; r < setup_index[d].size(); r++) {
                const std::size_t i = setup_index[d][r];
                out[d].setupSeconds[r] /=
                    (setup_ns[i - 1] + setup_ns[i]) / 2 / quiet;
            }
        }
    }

    for (std::size_t d = 0; d < list.size(); d++) {
        if (out[d].ok) {
            out[d].metrics = stacks[d]->metrics();
            out[d].counters = modeledCounters(*stacks[d]);
        }
    }
    return out;
}

SteadyStats
steadyStats(const PointResult &point)
{
    SteadyStats stats;
    double seconds = 0, refs = 0;
    std::vector<double> slices;
    for (const ChunkTimes &chunk : point.chunks) {
        seconds += chunk.seconds / chunk.hostFactor;
        refs += static_cast<double>(chunk.refs);
        for (double ns : chunk.sliceNsPerRef)
            slices.push_back(ns / chunk.hostFactor);
    }
    stats.nsPerRef = refs > 0 ? 1e9 * seconds / refs : 0.0;
    stats.sliceP50 = quantile(slices, 0.50);
    stats.sliceP99 = quantile(slices, 0.99);
    stats.slices = slices.size();
    return stats;
}

double
sumCounter(const std::map<std::string, std::string> &counters,
           const std::string &group, const std::string &leaf)
{
    double sum = 0;
    for (const auto &[name, value] : counters) {
        // "<design>.<group><index>.<leaf>"
        const auto first = name.find('.');
        const auto second = name.find('.', first + 1);
        if (first == std::string::npos || second == std::string::npos)
            continue;
        if (name.compare(second + 1, std::string::npos, leaf) != 0)
            continue;
        const std::string head = name.substr(first + 1, second - first - 1);
        if (head.compare(0, group.size(), group) != 0)
            continue;
        const bool indexed = std::all_of(
            head.begin() + static_cast<std::ptrdiff_t>(group.size()),
            head.end(), [](char c) { return c >= '0' && c <= '9'; });
        if (indexed)
            sum += std::stod(value);
    }
    return sum;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

} // namespace perfbench
