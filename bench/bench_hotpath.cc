/**
 * @file
 * Self-measuring throughput harness for the per-reference hot path:
 * replays a fixed gups + stream reference mix through each TLB design
 * on a native machine and reports simulator throughput (refs/sec and
 * ns per simulated lookup) per design.
 *
 * Unlike the figure benches, the numbers here are *host* wall-clock
 * measurements of the simulator itself — the repo's perf trajectory
 * baseline. `--json` (default BENCH_hotpath.json) emits the report
 * that tools/check_perf.py validates in CI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "workload/generator.hh"

using namespace mixtlb;
using namespace mixtlb::bench;

namespace
{

struct MixPoint
{
    /** JSON label for the reference family. */
    const char *label;
    /** Workload name handed to makeGenerator(). */
    const char *workload;
};

/** The fixed mix: worst-case random RMWs plus a unit-stride sweep. */
constexpr MixPoint ReferenceMix[] = {
    {"gups", "gups"},
    {"stream", "streamcluster"},
};

constexpr sim::TlbDesign Designs[] = {
    sim::TlbDesign::Split,     sim::TlbDesign::Mix,
    sim::TlbDesign::MixColt,   sim::TlbDesign::HashRehash,
    sim::TlbDesign::Skew,
};

constexpr std::size_t NumMixPoints =
    sizeof(ReferenceMix) / sizeof(ReferenceMix[0]);

struct Sample
{
    std::uint64_t refs = 0;
    double wallSeconds = 0;
    double refsPerSec = 0;
    double nsPerRef = 0;
};

struct DesignRun
{
    Sample workloads[NumMixPoints];
    double refsPerSec = 0;
    double nsPerRef = 0;
};

double
seconds(std::chrono::steady_clock::time_point start,
        std::chrono::steady_clock::time_point stop)
{
    return std::chrono::duration<double>(stop - start).count();
}

/** One full measurement of a design. */
DesignRun
measureDesign(sim::TlbDesign design, std::uint64_t refs,
              std::uint64_t footprint, std::uint64_t mem,
              std::uint64_t seed)
{
    sim::MachineParams params;
    params.name = sim::designName(design);
    params.memBytes = mem;
    params.design = design;
    params.seed = seed;
    params.caches = scaledCaches();
    sim::Machine machine(params);

    VAddr base = machine.mapArena(footprint);
    machine.warmup(base, footprint);
    machine.startMeasurement();

    DesignRun run;
    double total_refs = 0, total_seconds = 0;
    for (std::size_t p = 0; p < NumMixPoints; ++p) {
        auto gen = workload::makeGenerator(ReferenceMix[p].workload,
                                           base, footprint, seed);
        auto start = std::chrono::steady_clock::now();
        std::uint64_t done = machine.run(*gen, refs);
        auto stop = std::chrono::steady_clock::now();

        Sample &sample = run.workloads[p];
        sample.refs = done;
        sample.wallSeconds = seconds(start, stop);
        sample.refsPerSec = sample.wallSeconds > 0
                                ? done / sample.wallSeconds
                                : 0.0;
        sample.nsPerRef =
            done > 0 ? 1e9 * sample.wallSeconds / done : 0.0;
        total_refs += static_cast<double>(done);
        total_seconds += sample.wallSeconds;
    }
    run.refsPerSec = total_seconds > 0 ? total_refs / total_seconds : 0.0;
    run.nsPerRef = total_refs > 0 ? 1e9 * total_seconds / total_refs : 0.0;
    return run;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    sim::CliArgs args(argc, argv);
    const std::uint64_t refs = args.getU64("refs", 1000000);
    const std::uint64_t footprint =
        args.getU64("footprint-mb", 64) * MiB;
    const std::uint64_t mem = args.getU64("mem-mb", 512) * MiB;
    const std::uint64_t seed = args.getU64("seed", 3);
    const std::string json_path =
        args.getString("json", "BENCH_hotpath.json");

    auto doc = json::Value::object();
    doc["benchmark"] = "hotpath";
    doc["refs_per_workload"] = refs;
    doc["footprint_bytes"] = footprint;
    doc["designs"] = json::Value::array();

    sim::Table table({"design", "workload", "refs/sec", "ns/lookup"});

    double log_rate_sum = 0;
    std::size_t rate_count = 0;

    // Discarded warm pass: the first timed sample of the process
    // otherwise absorbs one-time host costs (lazy binding, page-cache
    // and predictor warm-up) and skews whichever design runs first.
    measureDesign(Designs[0], std::min<std::uint64_t>(refs / 10, 100000),
                  footprint, mem, seed);

    for (sim::TlbDesign design : Designs) {
        const DesignRun run =
            measureDesign(design, refs, footprint, mem, seed);

        auto entry = json::Value::object();
        entry["design"] = sim::designName(design);
        auto workloads = json::Value::object();

        for (std::size_t p = 0; p < NumMixPoints; ++p) {
            const Sample &s = run.workloads[p];
            auto sample = json::Value::object();
            sample["refs"] = s.refs;
            sample["wall_seconds"] = s.wallSeconds;
            sample["refs_per_sec"] = s.refsPerSec;
            sample["ns_per_ref"] = s.nsPerRef;
            if (s.refsPerSec > 0) {
                log_rate_sum += std::log(s.refsPerSec);
                ++rate_count;
            }
            workloads[ReferenceMix[p].label] = std::move(sample);
            table.addRow({sim::designName(design), ReferenceMix[p].label,
                          sim::Table::fmt(s.refsPerSec, 0),
                          sim::Table::fmt(s.nsPerRef, 1)});
        }

        entry["workloads"] = std::move(workloads);
        entry["refs_per_sec"] = run.refsPerSec;
        entry["ns_per_ref"] = run.nsPerRef;
        doc["designs"].push(std::move(entry));
    }

    if (rate_count > 0)
        doc["geomean_refs_per_sec"] = std::exp(log_rate_sum / rate_count);

    table.print();
    if (rate_count > 0)
        std::printf("geomean %.0f refs/sec\n",
                    std::exp(log_rate_sum / rate_count));
    if (!json::writeFile(json_path, doc)) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
