/**
 * @file
 * Host-throughput benchmark of the simulator: replays one seeded
 * workload through every design and reports the end-to-end host
 * metrics (--trace 0) or the per-layer host profile of a traced
 * rebuild of the same stack (--trace 1). The last line of stdout is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--calibration-file PATH]
 *
 * Setup is repeated at least 3 times per design, and until 0.25 s went
 * into it, and reported as the median.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "runner.hh"
#include "sim/cli.hh"

using namespace perfbench;

namespace
{

/**
 * The timed phase starts no chunk after this multiple of --seconds, so
 * a run on a heavily loaded host stays within its time budget.
 */
constexpr double TimedLimitShare = 1.25;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Print the designs that failed; true if none did. */
bool
reportFailures(const WorkloadSpec &spec,
               const std::vector<PointResult> &points)
{
    bool ok = true;
    for (std::size_t d = 0; d < points.size(); d++) {
        if (!points[d].ok) {
            std::printf("FAIL %s %s: %s\n", spec.name.c_str(),
                        sim::designName(designs()[d]),
                        points[d].error.c_str());
            ok = false;
        }
    }
    return ok;
}

/**
 * Throughput and the slice percentiles come from every chunk of each
 * design, at the run's quiet host speed (see steadyStats). They are
 * combined over designs: throughput over the summed time, percentiles
 * as the mean of the designs' percentiles.
 */
std::vector<Metric>
endToEnd(const std::vector<PointResult> &points, double failed_frac)
{
    double refs = 0, seconds = 0, p50 = 0, p99 = 0, setup = 0;
    for (const auto &p : points) {
        const SteadyStats steady = steadyStats(p);
        refs += static_cast<double>(p.timedRefs);
        seconds += 1e-9 * steady.nsPerRef * static_cast<double>(p.timedRefs);
        p50 += steady.sliceP50;
        p99 += steady.sliceP99;
        setup += p.setupMedian();
    }
    const auto n = static_cast<double>(points.size());
    return {
        {"sim_refs_per_s", ratio(refs, seconds), "1/s"},
        {"slice_ns_per_ref.p50", p50 / n, "ns"},
        {"slice_ns_per_ref.p99", p99 / n, "ns"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"completed_frac", 1.0 - failed_frac, "ratio"},
    };
}

std::vector<Metric>
perLayer(const WorkloadSpec &spec, const std::vector<PointResult> &traced,
         const std::vector<PointResult> &untraced)
{
    const double tpn = ticksPerNs();
    LayerTimes sum;
    double accesses = 0, l1_hits = 0, l2_hits = 0, walks = 0;
    double walk_accesses = 0, mem_accesses = 0, demotions = 0;
    double reclaims = 0, repromotions = 0, cycles = 0, xlate_cycles = 0;
    double model_refs = 0, construct = 0, memhog = 0, warmup = 0;
    double traced_s = 0, untraced_s = 0;
    std::vector<Metric> per_design;
    for (std::size_t d = 0; d < traced.size(); d++) {
        const PointResult &p = traced[d];
        const LayerTimes &l = p.layers;
        sum.gen += l.gen;
        sum.tlb += l.tlb;
        sum.walk += l.walk;
        sum.fault += l.fault;
        sum.data += l.data;
        sum.lifecycle += l.lifecycle;
        sum.invalidate += l.invalidate;
        sum.refs += l.refs;
        sum.walks += l.walks;
        sum.faults += l.faults;
        sum.shootdowns += l.shootdowns;
        sum.dataL1Hits += l.dataL1Hits;
        sum.samePage += l.samePage;
        const auto &c = p.counters;
        accesses += sumCounter(c, "tlb", "accesses");
        l1_hits += sumCounter(c, "tlb", "l1_hits");
        l2_hits += sumCounter(c, "tlb", "l2_hits");
        walks += sumCounter(c, "tlb", "walks");
        walk_accesses += sumCounter(c, "tlb", "walk_accesses");
        mem_accesses += sumCounter(c, "caches", "mem_accesses");
        for (const char *group : {"proc", "guest"}) {
            demotions += sumCounter(c, group, "demotions");
            reclaims += sumCounter(c, group, "reclaims");
            repromotions += sumCounter(c, group, "repromotions");
        }
        cycles += p.metrics.totalCycles;
        xlate_cycles += p.metrics.translationCycles;
        model_refs += static_cast<double>(p.metrics.refs);
        construct += p.setup.construct;
        memhog += p.setup.memhog;
        warmup += p.setup.warmup;
        traced_s += p.timedSeconds;
        untraced_s += untraced[d].timedSeconds;
        per_design.push_back(
            {"tlb." + designKey(designs()[d]) + ".ns_per_ref",
             ratio(static_cast<double>(l.tlb - l.walk - l.fault) / tpn,
                   static_cast<double>(l.refs)),
             "ns"});
    }
    const double refs = static_cast<double>(sum.refs);
    const auto ns_per = [tpn](std::uint64_t ticks, double count) {
        return ratio(static_cast<double>(ticks) / tpn, count);
    };
    const bool nested = spec.kind == Kind::Virt;
    const double walk_ns = ns_per(sum.walk, static_cast<double>(sum.walks));

    std::vector<Metric> m = {
        {"workload.gen_ns_per_ref", ns_per(sum.gen, refs), "ns"},
        {"workload.same_page_frac",
         ratio(static_cast<double>(sum.samePage), refs), "ratio"},
        {"tlb.self_ns_per_ref", ns_per(sum.tlb - sum.walk - sum.fault, refs),
         "ns"},
        {"tlb.l1_hit_rate", ratio(l1_hits, accesses), "ratio"},
        {"tlb.l2_hit_rate", ratio(l2_hits, accesses), "ratio"},
    };
    m.insert(m.end(), per_design.begin(), per_design.end());
    const std::vector<Metric> rest = {
        {"tlb.shootdowns", static_cast<double>(sum.shootdowns), "count"},
        {"tlb.invalidate_ns_per_shootdown",
         ns_per(sum.invalidate, static_cast<double>(sum.shootdowns)), "ns"},
        {"cache.data_ns_per_ref", ns_per(sum.data, refs), "ns"},
        {"cache.l1d_hit_rate",
         ratio(static_cast<double>(sum.dataL1Hits), refs), "ratio"},
        {"cache.mem_accesses_per_kref", 1000.0 * ratio(mem_accesses, refs),
         "count"},
        {"pt.walks_per_kref", nested ? 0.0 : 1000.0 * ratio(walks, accesses),
         "count"},
        {"pt.accesses_per_walk", nested ? 0.0 : ratio(walk_accesses, walks),
         "count"},
        {"pt.walk_ns_per_walk", nested ? 0.0 : walk_ns, "ns"},
        {"virt.walks_per_kref",
         nested ? 1000.0 * ratio(walks, accesses) : 0.0, "count"},
        {"virt.accesses_per_walk", nested ? ratio(walk_accesses, walks) : 0.0,
         "count"},
        {"virt.walk_ns_per_walk", nested ? walk_ns : 0.0, "ns"},
        {"os.faults", static_cast<double>(sum.faults), "count"},
        {"os.fault_ns_per_fault",
         ns_per(sum.fault, static_cast<double>(sum.faults)), "ns"},
        {"os.demotions", demotions, "count"},
        {"os.reclaims", reclaims, "count"},
        {"os.repromotions", repromotions, "count"},
        {"os.lifecycle_ns_per_kref", 1000.0 * ns_per(sum.lifecycle, refs),
         "ns"},
        {"setup.construct_s", construct, "s"},
        {"setup.memhog_s", memhog, "s"},
        {"setup.warmup_s", warmup, "s"},
        {"model.cycles_per_ref", ratio(cycles, model_refs), "cycles"},
        {"model.translation_cycles_per_ref", ratio(xlate_cycles, model_refs),
         "cycles"},
        {"model.l1_miss_rate", 1.0 - ratio(l1_hits, accesses), "ratio"},
        {"trace.overhead_frac", ratio(traced_s - untraced_s, untraced_s),
         "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const auto &m : metrics) {
        std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

void
printDesigns(const std::vector<PointResult> &points)
{
    sim::Table table({"design", "setup s", "refs/s raw", "refs/s steady",
                      "p50 ns", "p99 ns", "slices", "host p50/max",
                      "walks/kref", "l1 miss"});
    for (std::size_t d = 0; d < points.size(); d++) {
        const PointResult &p = points[d];
        const SteadyStats steady = steadyStats(p);
        std::vector<double> host;
        for (const ChunkTimes &chunk : p.chunks)
            host.push_back(chunk.hostFactor);
        const double acc = sumCounter(p.counters, "tlb", "accesses");
        table.addRow(
            {sim::designName(designs()[d]),
             sim::Table::fmt(p.setupMedian(), 3),
             sim::Table::fmt(ratio(static_cast<double>(p.timedRefs),
                                   p.timedSeconds), 0),
             sim::Table::fmt(ratio(1e9, steady.nsPerRef), 0),
             sim::Table::fmt(steady.sliceP50, 1),
             sim::Table::fmt(steady.sliceP99, 1),
             std::to_string(steady.slices),
             sim::Table::fmt(quantile(host, 0.5), 2) + "/" +
                 sim::Table::fmt(quantile(host, 1.0), 2),
             sim::Table::fmt(
                 1000.0 * ratio(sumCounter(p.counters, "tlb", "walks"), acc),
                 1),
             sim::Table::fmt(
                 1.0 - ratio(sumCounter(p.counters, "tlb", "l1_hits"), acc),
                 4)});
    }
    table.print();
}

void
printInputs(const WorkloadSpec &spec, const std::vector<PointResult> &points)
{
    const os::PageSizeDistribution &mix = points.front().warmMix;
    const double total = static_cast<double>(mix.total());
    const std::uint64_t footprint = footprintOf(spec);
    std::printf("inputs: footprint/stream %" PRIu64 " MB x %zu, page mix "
                "after warmup 4K %.3f 2M %.3f 1G %.3f (first stream)\n",
                footprint >> 20, spec.generators.size(),
                ratio(static_cast<double>(mix.bytes4k), total),
                ratio(static_cast<double>(mix.bytes2m), total),
                ratio(static_cast<double>(mix.bytes1g), total));
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Names of the modeled counters that differ between two runs. */
std::vector<std::string>
counterMismatches(const std::map<std::string, std::string> &a,
                  const std::map<std::string, std::string> &b)
{
    std::vector<std::string> diff;
    for (const auto &[name, value] : a) {
        auto it = b.find(name);
        if (it == b.end() || it->second != value)
            diff.push_back(name);
    }
    for (const auto &[name, value] : b) {
        if (!a.count(name))
            diff.push_back(name);
    }
    return diff;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    sim::CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "");
    const std::uint64_t seed = args.getU64("seed", 1);
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getU64("trace", 0) != 0;
    RunOptions options;
    options.setupRepeats = 3;
    options.setupBudget = 0.25;
    options.timedLimit = TimedLimitShare * seconds;
    options.calibrated = true;

    const WorkloadSpec *spec = findWorkload(name);
    if (!spec || seconds <= 0) {
        std::fprintf(stderr, "usage: perfbench --workload {stream-hot,"
                             "gups-walk,virt-nested,multi-lifecycle} "
                             "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    Plan plan = makePlan(*spec, seconds);
    std::printf("workload %s  seed %" PRIu64 "  kernel %s  slices %" PRIu64
                " x %" PRIu64 " refs per lane and design, in %" PRIu64
                " chunks\n",
                spec->name.c_str(), seed, simd::activeKernelName(),
                plan.slices(), plan.sliceRefs, plan.chunks);
    std::printf("why: %s\n", spec->why.c_str());

    // The quietest calibration level of earlier runs, kept in a file
    // the caller names (one line, ns per reference). The calibration
    // stack is the same for every workload, so all runs share it.
    const std::string floor_file = args.getString("calibration-file", "");
    if (!floor_file.empty()) {
        std::ifstream in(floor_file);
        double floor_ns = 0;
        if (in >> floor_ns && floor_ns > 0)
            options.quietFloorNs = floor_ns;
    }
    const std::vector<PointResult> untraced =
        runWorkload(*spec, seed, plan, options);
    const double run_quiet = untraced.front().calibrationQuietNs;
    if (!floor_file.empty() && run_quiet > 0 &&
        (options.quietFloorNs == 0 || run_quiet < options.quietFloorNs)) {
        std::ofstream(floor_file) << std::setprecision(17) << run_quiet
                                  << '\n';
    }
    std::printf("calibration: quiet %.1f ns/ref this run, floor %.1f\n",
                run_quiet, options.quietFloorNs);
    bool correct = reportFailures(*spec, untraced);
    std::vector<PointResult> traced;
    if (trace) {
        RunOptions traced_options = options;
        traced_options.traced = true;
        traced_options.setupRepeats = 1;
        traced_options.setupBudget = 0.0;
        traced_options.timedLimit = 0.0;
        traced_options.calibrated = false;
        // The same chunks as the untraced run, so the counters match.
        plan.chunks = untraced.front().chunks.size();
        traced = runWorkload(*spec, seed, plan, traced_options);
        correct = reportFailures(*spec, traced) && correct;
    }

    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t d = 0; d < untraced.size(); d++) {
        std::vector<const PointResult *> runs = {&untraced[d]};
        if (trace) {
            runs.push_back(&traced[d]);
            const auto diff =
                counterMismatches(untraced[d].counters, traced[d].counters);
            if (traced[d].ok && untraced[d].ok && !diff.empty()) {
                correct = false;
                std::printf("FAIL %s: traced run differs from untraced in "
                            "%zu modeled counters, first %s\n",
                            sim::designName(designs()[d]), diff.size(),
                            diff.front().c_str());
            }
        }
        for (const PointResult *r : runs) {
            attempted += r->attempted;
            failed += r->attempted - r->completed;
            correct = correct && r->ok;
        }
    }
    // A failed check counts every reference of the workload as failed.
    if (!correct)
        failed = attempted;
    const double failed_frac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));

    printDesigns(untraced);
    printInputs(*spec, untraced);
    const std::vector<Metric> e2e = endToEnd(untraced, failed_frac);
    printTable("end-to-end (untraced run)", e2e);
    std::printf("  %-36s %18.6g ratio\n", "failed_frac", failed_frac);
    if (trace) {
        const std::vector<Metric> layers = perLayer(*spec, traced, untraced);
        printTable("per-layer (traced run)", layers);
        printJson(correct, attempted, failed, layers);
    } else {
        printJson(correct, attempted, failed, e2e);
    }
    return correct ? 0 : 1;
}
