/**
 * @file
 * The sweep runner: the paper's headline figures sweep hundreds of
 * (design x policy x workload x fragmentation) configurations, each an
 * independent simulation. SweepRunner executes a declarative grid of
 * such points on a thread pool and hands results back **in grid
 * order**, so a parallel sweep prints tables bit-identical to the
 * serial run.
 *
 * Determinism contract: every randomised input a point consumes must
 * derive from sweepPointSeed(base seed, point index) — never from the
 * scheduling order, thread ids, or wall-clock time — so `--jobs 1` and
 * `--jobs N` produce identical RunResults.
 */

#ifndef MIXTLB_SIM_SWEEP_HH
#define MIXTLB_SIM_SWEEP_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/contracts.hh"
#include "common/fault.hh"
#include "common/thread_pool.hh"

namespace mixtlb::sim
{

/**
 * The deterministic seed for grid point @p index of a sweep seeded
 * with @p base_seed (a splitmix64 mix, so neighbouring points get
 * decorrelated streams).
 */
std::uint64_t sweepPointSeed(std::uint64_t base_seed,
                             std::uint64_t index);

struct SweepParams
{
    /** Concurrent simulation points; 0 = hardware_concurrency. */
    unsigned jobs = 0;
    /**
     * Additional attempts runChecked() grants a failing point before
     * quarantining it. Each retry reuses the point's deterministic
     * seed, so only environmental failures (injected transients,
     * resource blips) can succeed on retry — a deterministic failure
     * fails identically every time.
     */
    unsigned retries = 1;
    /** Cooperative per-point deadline in seconds; 0 disables it. */
    double deadlineSeconds = 0.0;
    /** Fault-injection configuration active during each point. */
    fault::FaultConfig faults{};
};

/**
 * The outcome of one grid point under runChecked(): either a clean
 * result, or a quarantined failure with its error classification.
 */
struct PointStatus
{
    /** The point produced a valid result. */
    bool ok = true;
    /** False when the point was skipped (checkpoint resume). */
    bool ran = true;
    /** Attempts consumed (1 = first try succeeded; 0 = skipped). */
    unsigned attempts = 0;
    /** SimError kind ("oom", "deadline", ...), or "exception". */
    std::string errorKind;
    /** Human-readable failure description. */
    std::string errorMessage;
    /** Faults injected during the final attempt, indexed by Site. */
    std::array<std::uint64_t, fault::SiteCount> faults{};
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepParams params = {});

    /** Resolved worker count (never 0). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run @p body for every index in [0, count) concurrently and
     * return the results indexed by grid position. @p body must be
     * safe to call from multiple threads for distinct indices.
     *
     * Every point executes under a per-point FaultScope (seeded by
     * @p seed_of, so the fault schedule is independent of scheduling
     * order), failures are caught and recorded instead of killing the
     * process, failing points get params.retries additional attempts
     * with the *same* seed, and a nonzero params.deadlineSeconds arms
     * the cooperative watchdog the simulation loops poll.
     *
     * @param statuses resized to @p count; statuses[i] describes
     *        point i's outcome.
     * @param skip when non-null and skip(i) is true, point i is not
     *        executed (checkpoint resume); its status has ran=false.
     * @param on_done when non-null, called from the worker thread as
     *        each point finishes (including skipped points). Called
     *        concurrently for distinct points — the callback
     *        synchronises its own shared state.
     */
    template <typename Result>
    std::vector<Result>
    runChecked(
        std::size_t count,
        const std::function<Result(std::size_t)> &body,
        const std::function<std::uint64_t(std::size_t)> &seed_of,
        std::vector<PointStatus> &statuses,
        const std::function<bool(std::size_t)> &skip = nullptr,
        const std::function<void(std::size_t, const Result &,
                                 const PointStatus &)> &on_done =
            nullptr) const
    {
        std::vector<Result> results(count);
        statuses.assign(count, PointStatus{});
        if (count == 0)
            return results;
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs_, count)));
        for (std::size_t i = 0; i < count; i++) {
            pool.submit([&, i] {
                PointStatus status;
                if (skip && skip(i)) {
                    status.ran = false;
                    status.attempts = 0;
                    statuses[i] = status;
                    if (on_done)
                        on_done(i, results[i], status);
                    return;
                }
                for (unsigned attempt = 1;
                     attempt <= params_.retries + 1; attempt++) {
                    status.attempts = attempt;
                    try {
                        fault::FaultScope scope(params_.faults,
                                                seed_of(i), i,
                                                params_.deadlineSeconds);
                        try {
                            results[i] = body(i);
                            status.ok = true;
                            status.errorKind.clear();
                            status.errorMessage.clear();
                            status.faults = scope.firedCounts();
                        } catch (...) {
                            // Unwinding has not left this frame yet,
                            // so the scope's counters are still live.
                            status.faults = scope.firedCounts();
                            throw;
                        }
                        break;
                    } catch (const SimError &error) {
                        status.ok = false;
                        status.errorKind = error.kind();
                        status.errorMessage = error.what();
                    } catch (const std::exception &error) {
                        status.ok = false;
                        status.errorKind = "exception";
                        status.errorMessage = error.what();
                    } catch (...) {
                        status.ok = false;
                        status.errorKind = "unknown";
                        status.errorMessage =
                            "non-standard exception";
                    }
                }
                if (!status.ok)
                    results[i] = Result{};
                statuses[i] = status;
                if (on_done)
                    on_done(i, results[i], status);
            });
        }
        pool.wait();
        return results;
    }

  private:
    SweepParams params_;
    unsigned jobs_;
};

} // namespace mixtlb::sim

#endif // MIXTLB_SIM_SWEEP_HH
