/**
 * @file
 * Multiprogramming sweep: N processes round-robin over one shared TLB
 * hierarchy, full-flush vs ASID-tagged context switches, across the
 * five headline designs × process count × switch quantum × workload
 * mix. Each full-flush/ASID pair shares a sweep point (and therefore
 * a derived seed), so both policies replay byte-identical reference
 * streams and the miss-rate delta is purely the flush policy.
 *
 * `--json <path>` emits the report that tools/check_perf.py validates
 * in CI.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace mixtlb;
using namespace mixtlb::bench;
using namespace mixtlb::sim;

namespace
{

constexpr TlbDesign Designs[] = {
    TlbDesign::Split,      TlbDesign::Mix,  TlbDesign::MixColt,
    TlbDesign::HashRehash, TlbDesign::Skew,
};

struct Mix
{
    const char *label;
    const char *workloads;
};

/** Random RMWs vs streaming, and a key-value vs graph pairing. */
constexpr Mix Mixes[] = {
    {"gups+stream", "gups,streamcluster"},
    {"kv+graph", "memcached,graph500"},
};

struct PairRef
{
    std::size_t flush = 0;
    std::size_t asid = 0;
    TlbDesign design{};
    unsigned procs = 0;
    std::uint64_t quantum = 0;
    const char *mix = "";
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::uint64_t refs_per_proc = args.getU64("refs", 30000);
    const std::uint64_t footprint =
        args.getU64("footprint-mb", 48) * MiB;
    const std::uint64_t mem = args.getU64("mem-mb", 2048) * MiB;
    const std::uint64_t seed = args.getU64("seed", 11);

    SweepGrid grid;
    std::vector<PairRef> pairs;
    for (TlbDesign design : Designs) {
        for (unsigned procs : {2u, 4u}) {
            for (std::uint64_t quantum : {512ull, 4096ull}) {
                for (const Mix &mix : Mixes) {
                    MultiRunConfig config;
                    config.design = design;
                    config.numProcs = procs;
                    config.quantum = quantum;
                    config.mix = mix.workloads;
                    config.memBytes = mem;
                    config.footprintPerProc = footprint;
                    config.refsPerProc = refs_per_proc;
                    config.seed = seed;

                    const std::string label =
                        std::string(designName(design)) + "/p"
                        + std::to_string(procs) + "/q"
                        + std::to_string(quantum) + "/" + mix.label;
                    PairRef pair;
                    pair.design = design;
                    pair.procs = procs;
                    pair.quantum = quantum;
                    pair.mix = mix.label;

                    config.policy = SwitchPolicy::FullFlush;
                    pair.flush = grid.add("multiprog",
                                          label + "/flush", config);
                    config.policy = SwitchPolicy::AsidTagged;
                    pair.asid = grid.addPaired(
                        pair.flush, "multiprog", label + "/asid",
                        config);
                    pairs.push_back(pair);
                }
            }
        }
    }

    BenchSweep sweep(args, "multiprog");
    auto results = sweep.run(grid);

    std::printf("=== Multiprogrammed L1 miss rate: full-flush vs "
                "ASID-tagged ===\n\n");
    Table table({"design", "procs", "quantum", "mix", "flush miss%",
                 "asid miss%", "improv%"});
    for (const PairRef &pair : pairs) {
        const RunResult &flush = results[pair.flush];
        const RunResult &asid = results[pair.asid];
        table.addRow({designName(pair.design),
                      std::to_string(pair.procs),
                      std::to_string(pair.quantum), pair.mix,
                      Table::fmt(100.0 * valueAt(flush,
                                                 "metrics.l1_miss_rate"),
                                 2),
                      Table::fmt(100.0 * valueAt(asid,
                                                 "metrics.l1_miss_rate"),
                                 2),
                      Table::fmt(improvement(flush, asid), 2)});
    }
    table.print();

    return sweep.finish();
}
