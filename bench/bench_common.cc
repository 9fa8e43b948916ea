#include "bench_common.hh"

#include <algorithm>
#include <chrono>

#include "common/contracts.hh"
#include "common/logging.hh"

namespace mixtlb::bench
{

namespace
{

/**
 * Add every process's THP fallbacks and lifecycle counters into
 * @p result. Called once before startMeasurement() (warmup is where
 * allocation happens, and the stat reset would discard it) and once
 * after the run.
 */
void
addProcessStats(sim::MachineCore &machine, RunResult &result)
{
    for (unsigned i = 0; i < machine.numProcesses(); i++) {
        const stats::StatGroup &group = machine.process(i).statGroup();
        result.thpFallbacks += group.value("thp_fallbacks");
        result.demotions += group.value("demotions");
        result.reclaims += group.value("reclaims");
        result.repromotions += group.value("repromotions");
        result.oomRetries += group.value("oom_retries");
        result.demoteRescues += group.value("demote_rescues");
        result.compactionRescues += group.value("compaction_rescues");
    }
}

/** Start the measured window, keeping the warmup's process stats. */
RunResult
startMeasurement(sim::MachineCore &machine)
{
    RunResult result;
    addProcessStats(machine, result);
    machine.startMeasurement();
    return result;
}

/** The one RunResult summary every machine kind shares. */
void
summarize(sim::MachineCore &machine, RunResult &result)
{
    addProcessStats(machine, result);
    result.metrics = machine.metrics();
    result.energy = machine.energyInputs();
    double accesses = 0, l1_hits = 0, walks = 0, walk_accesses = 0;
    for (unsigned i = 0; i < machine.numHierarchies(); i++) {
        const tlb::TlbHierarchy &hier = machine.hierarchy(i);
        accesses += hier.accessCount();
        l1_hits += hier.l1HitCount();
        walks += hier.walkCount();
        walk_accesses += hier.walkAccessCount();
    }
    result.l1MissRate = 1.0 - l1_hits / accesses;
    result.walksPerKref = 1000.0 * walks / accesses;
    result.accessesPerWalk = walks > 0 ? walk_accesses / walks : 0.0;
    result.distribution = machine.distribution();
}

} // anonymous namespace

RunResult
runNative(const NativeRunConfig &config)
{
    sim::MachineParams params;
    params.name = sim::designName(config.design);
    params.memBytes = config.memBytes;
    params.design = config.design;
    params.scale = config.scale;
    params.proc.policy = config.policy;
    params.proc.pool2mPages = config.pool2m;
    params.proc.pool1gPages = config.pool1g;
    params.memhogFraction = config.memhog;
    params.seed = config.seed;
    params.caches = scaledCaches();
    sim::Machine machine(params);

    VAddr base = machine.mapArena(config.footprintBytes);
    machine.warmup(base, config.footprintBytes, config.warmStep);
    RunResult result = startMeasurement(machine);
    auto gen = workload::makeGenerator(config.workload, base,
                                       config.footprintBytes,
                                       config.seed);
    machine.run(*gen, config.refs);
    summarize(machine, result);
    return result;
}

RunResult
runVirt(const VirtRunConfig &config)
{
    sim::VirtMachineParams params;
    params.name = sim::designName(config.design);
    params.hostMemBytes = config.hostMemBytes;
    params.numVms = config.numVms;
    params.design = config.design;
    params.guestProc.policy = os::PagePolicy::Thp;
    params.guestMemhogFraction = config.guestMemhog;
    params.seed = config.seed;
    params.caches = scaledCaches();
    sim::VirtMachine machine(params);

    std::uint64_t guest_mem = config.hostMemBytes / config.numVms;
    std::uint64_t footprint =
        config.footprintBytes
            ? config.footprintBytes
            : pressureFootprint(guest_mem, config.guestMemhog);
    std::vector<VAddr> bases;
    for (unsigned vm = 0; vm < config.numVms; vm++) {
        bases.push_back(machine.mapArena(vm, footprint));
        machine.warmup(vm, bases[vm], footprint);
    }
    RunResult result = startMeasurement(machine);
    for (unsigned vm = 0; vm < config.numVms; vm++) {
        auto gen = workload::makeGenerator(config.workload, bases[vm],
                                           footprint,
                                           config.seed + vm);
        machine.run(vm, *gen, config.refsPerVm);
    }
    summarize(machine, result);
    return result;
}

RunResult
runGpu(const GpuRunConfig &config)
{
    sim::GpuMachineParams params;
    params.name = sim::designName(config.design);
    params.memBytes = config.memBytes;
    params.numCores = config.cores;
    params.design = config.design;
    params.memhogFraction = config.memhog;
    params.seed = config.seed;
    params.caches = scaledCaches();
    sim::GpuMachine machine(params);

    VAddr base = machine.mapArena(config.footprintBytes);
    machine.warmup(base, config.footprintBytes);
    RunResult result = startMeasurement(machine);
    for (unsigned core = 0; core < config.cores; core++) {
        machine.attachWorkload(
            core, workload::makeGenerator(config.kernel, base,
                                          config.footprintBytes,
                                          config.seed + core));
    }
    machine.run(config.refs);
    summarize(machine, result);
    return result;
}

RunResult
runMulti(const MultiRunConfig &config)
{
    sim::MultiMachineParams params;
    params.name = sim::designName(config.design);
    params.memBytes = config.memBytes;
    params.quantum = config.quantum;
    params.policy = config.policy;
    params.design = config.design;
    params.seed = config.seed;
    params.caches = scaledCaches();
    for (unsigned i = 0; i < config.numProcs; i++) {
        os::ProcessParams pp;
        pp.policy = config.procPolicy;
        params.procs.push_back(pp);
    }
    sim::MultiMachine machine(params);

    // "gups,streamcluster" with 4 processes runs gups, streamcluster,
    // gups, streamcluster.
    std::vector<std::string> workloads;
    for (std::size_t pos = 0; pos <= config.mix.size();) {
        std::size_t comma = config.mix.find(',', pos);
        if (comma == std::string::npos)
            comma = config.mix.size();
        if (comma > pos)
            workloads.push_back(config.mix.substr(pos, comma - pos));
        pos = comma + 1;
    }
    fatal_if(workloads.empty(), "empty workload mix '%s'",
             config.mix.c_str());

    std::vector<VAddr> bases;
    for (unsigned i = 0; i < config.numProcs; i++) {
        bases.push_back(
            machine.mapArena(i, config.footprintPerProc));
        machine.warmup(i, bases[i], config.footprintPerProc);
    }
    RunResult result = startMeasurement(machine);
    for (unsigned i = 0; i < config.numProcs; i++) {
        machine.attachWorkload(
            i, workload::makeGenerator(
                   workloads[i % workloads.size()], bases[i],
                   config.footprintPerProc,
                   sim::sweepPointSeed(config.seed, i)));
    }
    machine.run(config.refsPerProc);
    summarize(machine, result);
    for (unsigned i = 0; i < config.numProcs; i++)
        result.procL1MissRates.push_back(machine.procL1MissRate(i));
    result.contextSwitches = machine.contextSwitches();
    result.fullFlushes = machine.fullFlushes();
    return result;
}

std::size_t
SweepGrid::add(std::string section, std::string label,
               BenchConfig config)
{
    jobs_.push_back(SweepJob{std::move(section), std::move(label),
                             std::move(config), nextPoint_++});
    return jobs_.size() - 1;
}

std::size_t
SweepGrid::addPaired(std::size_t paired_with, std::string section,
                     std::string label, BenchConfig config)
{
    panic_if(paired_with >= jobs_.size(),
             "addPaired references job %zu of %zu", paired_with,
             jobs_.size());
    jobs_.push_back(SweepJob{std::move(section), std::move(label),
                             std::move(config),
                             jobs_[paired_with].point});
    return jobs_.size() - 1;
}

std::uint64_t
effectiveSeed(const SweepJob &job)
{
    std::uint64_t base = std::visit(
        [](const auto &config) { return config.seed; }, job.config);
    return sim::sweepPointSeed(base, job.point);
}

RunResult
runJob(const SweepJob &job)
{
    SweepJob seeded = job;
    std::uint64_t seed = effectiveSeed(job);
    std::visit([seed](auto &config) { config.seed = seed; },
               seeded.config);
    return std::visit(
        [](const auto &config) -> RunResult {
            using Config = std::decay_t<decltype(config)>;
            if constexpr (std::is_same_v<Config, NativeRunConfig>)
                return runNative(config);
            else if constexpr (std::is_same_v<Config, VirtRunConfig>)
                return runVirt(config);
            else if constexpr (std::is_same_v<Config, MultiRunConfig>)
                return runMulti(config);
            else
                return runGpu(config);
        },
        seeded.config);
}

json::Value
configJson(const SweepJob &job)
{
    auto out = json::Value::object();
    std::visit(
        [&out](const auto &config) {
            using Config = std::decay_t<decltype(config)>;
            out["design"] = sim::designName(config.design);
            if constexpr (std::is_same_v<Config, NativeRunConfig>) {
                out["kind"] = "native";
                out["workload"] = config.workload;
                out["policy"] = os::pagePolicyName(config.policy);
                out["mem_bytes"] = config.memBytes;
                out["footprint_bytes"] = config.footprintBytes;
                out["refs"] = config.refs;
                out["memhog"] = config.memhog;
            } else if constexpr (std::is_same_v<Config,
                                                VirtRunConfig>) {
                out["kind"] = "virt";
                out["workload"] = config.workload;
                out["num_vms"] = config.numVms;
                out["host_mem_bytes"] = config.hostMemBytes;
                out["refs_per_vm"] = config.refsPerVm;
                out["guest_memhog"] = config.guestMemhog;
            } else if constexpr (std::is_same_v<Config,
                                                MultiRunConfig>) {
                out["kind"] = "multi";
                out["policy"] = sim::switchPolicyName(config.policy);
                out["num_procs"] = config.numProcs;
                out["quantum"] = config.quantum;
                out["mix"] = config.mix;
                out["mem_bytes"] = config.memBytes;
                out["footprint_per_proc"] = config.footprintPerProc;
                out["refs_per_proc"] = config.refsPerProc;
            } else {
                out["kind"] = "gpu";
                out["kernel"] = config.kernel;
                out["cores"] = config.cores;
                out["mem_bytes"] = config.memBytes;
                out["footprint_bytes"] = config.footprintBytes;
                out["refs"] = config.refs;
                out["memhog"] = config.memhog;
            }
        },
        job.config);
    // As a decimal string: 64-bit seeds do not survive the round trip
    // through a JSON (double) number.
    out["seed"] = std::to_string(effectiveSeed(job));
    return out;
}

json::Value
resultJson(const RunResult &result)
{
    auto out = json::Value::object();

    auto &metrics = out["metrics"];
    metrics["refs"] = result.metrics.refs;
    metrics["translation_cycles"] = result.metrics.translationCycles;
    metrics["base_cycles"] = result.metrics.baseCycles;
    metrics["overhead_cycles"] = result.metrics.overheadCycles;
    metrics["total_cycles"] = result.metrics.totalCycles;
    metrics["overhead_fraction"] = result.metrics.overheadFraction();
    metrics["l1_hit_rate"] = 1.0 - result.l1MissRate;
    metrics["l1_miss_rate"] = result.l1MissRate;
    metrics["walks_per_kref"] = result.walksPerKref;
    metrics["accesses_per_walk"] = result.accessesPerWalk;
    metrics["superpage_fraction"] =
        result.distribution.superpageFraction();
    metrics["thp_fallbacks"] = result.thpFallbacks;
    metrics["demotions"] = result.demotions;
    metrics["reclaims"] = result.reclaims;
    metrics["repromotions"] = result.repromotions;
    metrics["oom_retries"] = result.oomRetries;
    metrics["demote_rescues"] = result.demoteRescues;
    metrics["compaction_rescues"] = result.compactionRescues;

    auto &energy = out["energy"];
    energy["l1_ways_read"] = result.energy.l1WaysRead;
    energy["l2_ways_read"] = result.energy.l2WaysRead;
    energy["l1_entries"] = result.energy.l1Entries;
    energy["l2_entries"] = result.energy.l2Entries;
    energy["l1_fills"] = result.energy.l1Fills;
    energy["l2_fills"] = result.energy.l2Fills;
    energy["fill_burst_factor"] = result.energy.fillBurstFactor;
    energy["walk_accesses"] = result.energy.walkAccesses;
    energy["walk_dram_accesses"] = result.energy.walkDramAccesses;
    energy["dirty_ops"] = result.energy.dirtyOps;
    energy["invalidations"] = result.energy.invalidations;
    energy["predictor_lookups"] = result.energy.predictorLookups;
    energy["skew_timestamps"] = result.energy.skewTimestamps;
    energy["total_cycles"] = result.energy.totalCycles;
    auto breakdown = perf::EnergyModel{}.compute(result.energy);
    energy["lookup_pj"] = breakdown.lookup;
    energy["walk_pj"] = breakdown.walk;
    energy["fill_pj"] = breakdown.fill;
    energy["other_pj"] = breakdown.other;
    energy["leakage_pj"] = breakdown.leakage;
    energy["total_pj"] = breakdown.total();
    energy["pj_per_access"] =
        result.metrics.refs
            ? breakdown.total()
                  / static_cast<double>(result.metrics.refs)
            : 0.0;

    auto &distribution = out["distribution"];
    distribution["bytes_4k"] = result.distribution.bytes4k;
    distribution["bytes_2m"] = result.distribution.bytes2m;
    distribution["bytes_1g"] = result.distribution.bytes1g;

    if (!result.procL1MissRates.empty()) {
        auto &multi = out["multi"];
        multi["context_switches"] = result.contextSwitches;
        multi["full_flushes"] = result.fullFlushes;
        auto rates = json::Value::array();
        for (double rate : result.procL1MissRates)
            rates.push(rate);
        multi["proc_l1_miss_rates"] = std::move(rates);
    }
    return out;
}

namespace
{

double
numberAt(const json::Value &object, const char *key)
{
    const json::Value *value = object.find(key);
    return value ? value->number() : 0.0;
}

} // anonymous namespace

RunResult
resultFromJson(const json::Value &record)
{
    RunResult result;
    const json::Value *metrics = record.find("metrics");
    if (metrics) {
        result.metrics.refs = static_cast<std::uint64_t>(
            numberAt(*metrics, "refs"));
        result.metrics.translationCycles =
            numberAt(*metrics, "translation_cycles");
        result.metrics.baseCycles = numberAt(*metrics, "base_cycles");
        result.metrics.overheadCycles =
            numberAt(*metrics, "overhead_cycles");
        result.metrics.totalCycles = numberAt(*metrics, "total_cycles");
        result.l1MissRate = numberAt(*metrics, "l1_miss_rate");
        result.walksPerKref = numberAt(*metrics, "walks_per_kref");
        result.accessesPerWalk =
            numberAt(*metrics, "accesses_per_walk");
        result.thpFallbacks = numberAt(*metrics, "thp_fallbacks");
        result.demotions = numberAt(*metrics, "demotions");
        result.reclaims = numberAt(*metrics, "reclaims");
        result.repromotions = numberAt(*metrics, "repromotions");
        result.oomRetries = numberAt(*metrics, "oom_retries");
        result.demoteRescues = numberAt(*metrics, "demote_rescues");
        result.compactionRescues =
            numberAt(*metrics, "compaction_rescues");
    }
    const json::Value *energy = record.find("energy");
    if (energy) {
        result.energy.l1WaysRead = numberAt(*energy, "l1_ways_read");
        result.energy.l2WaysRead = numberAt(*energy, "l2_ways_read");
        result.energy.l1Entries = static_cast<std::uint64_t>(
            numberAt(*energy, "l1_entries"));
        result.energy.l2Entries = static_cast<std::uint64_t>(
            numberAt(*energy, "l2_entries"));
        result.energy.l1Fills = numberAt(*energy, "l1_fills");
        result.energy.l2Fills = numberAt(*energy, "l2_fills");
        result.energy.fillBurstFactor =
            numberAt(*energy, "fill_burst_factor");
        result.energy.walkAccesses = numberAt(*energy, "walk_accesses");
        result.energy.walkDramAccesses =
            numberAt(*energy, "walk_dram_accesses");
        result.energy.dirtyOps = numberAt(*energy, "dirty_ops");
        result.energy.invalidations =
            numberAt(*energy, "invalidations");
        result.energy.predictorLookups =
            numberAt(*energy, "predictor_lookups");
        const json::Value *skew = energy->find("skew_timestamps");
        result.energy.skewTimestamps = skew && skew->boolean();
        result.energy.totalCycles = numberAt(*energy, "total_cycles");
    }
    const json::Value *multi = record.find("multi");
    if (multi) {
        result.contextSwitches = numberAt(*multi, "context_switches");
        result.fullFlushes = numberAt(*multi, "full_flushes");
        if (const json::Value *rates =
                multi->find("proc_l1_miss_rates")) {
            for (const auto &[key, rate] : rates->members()) {
                (void)key;
                result.procL1MissRates.push_back(rate.number());
            }
        }
    }
    const json::Value *distribution = record.find("distribution");
    if (distribution) {
        result.distribution.bytes4k = static_cast<std::uint64_t>(
            numberAt(*distribution, "bytes_4k"));
        result.distribution.bytes2m = static_cast<std::uint64_t>(
            numberAt(*distribution, "bytes_2m"));
        result.distribution.bytes1g = static_cast<std::uint64_t>(
            numberAt(*distribution, "bytes_1g"));
    }
    return result;
}

namespace
{

sim::SweepParams
sweepParamsFromArgs(const sim::CliArgs &args)
{
    sim::SweepParams params;
    params.jobs = static_cast<unsigned>(args.getU64("jobs", 0));
    params.retries = static_cast<unsigned>(args.getU64("retries", 1));
    params.deadlineSeconds = args.getDouble("deadline", 0.0);
    params.faults =
        fault::FaultConfig::parse(args.getString("inject", ""));
    // Sugar for the pressure-lifecycle soak: `--demote-storm R` merges
    // a demote-storm rate into the injection config without the full
    // `--inject` syntax (and composes with it; the explicit flag wins).
    double storm = args.getDouble("demote-storm", 0.0);
    if (storm > 0.0) {
        auto &site = params.faults
                         .sites[static_cast<std::size_t>(
                             fault::Site::DemoteStorm)];
        site.rate = storm;
        site.pointLimited = false;
    }
    return params;
}

/** The full per-point record stored in the report and checkpoint. */
json::Value
makeRecord(const SweepJob &job, const RunResult &result,
           const sim::PointStatus &status, bool injecting)
{
    auto record = json::Value::object();
    record["section"] = job.section;
    record["label"] = job.label;
    record["config"] = configJson(job);
    record["status"] = status.ok ? "ok" : "failed";
    record["attempts"] = status.attempts;
    if (status.ok) {
        auto blocks = resultJson(result);
        record["metrics"] = blocks["metrics"];
        record["energy"] = blocks["energy"];
        record["distribution"] = blocks["distribution"];
        if (const json::Value *multi = blocks.find("multi"))
            record["multi"] = *multi;
    } else {
        auto &error = record["error"];
        error["kind"] = status.errorKind;
        error["message"] = status.errorMessage;
    }
    if (injecting) {
        auto &faults = record["faults"];
        for (std::size_t s = 0; s < fault::SiteCount; s++) {
            faults[fault::siteName(static_cast<fault::Site>(s))] =
                status.faults[s];
        }
    }
    return record;
}

} // anonymous namespace

BenchSweep::BenchSweep(const sim::CliArgs &args, std::string benchmark)
    : runner_(sweepParamsFromArgs(args)),
      jsonPath_(args.getString("json", "")),
      allowFailures_(args.has("allow-failures")),
      timing_(!args.has("no-timing")),
      doc_(json::Value::object())
{
    contracts::setParanoia(
        static_cast<unsigned>(args.getU64("paranoia", 0)));

    std::string inject = args.getString("inject", "");
    double storm = args.getDouble("demote-storm", 0.0);
    injecting_ = !inject.empty() || storm > 0.0;

    doc_["benchmark"] = std::move(benchmark);
    doc_["jobs"] = runner_.jobs();
    doc_["paranoia"] = contracts::paranoia();
    doc_["retries"] = args.getU64("retries", 1);
    if (!inject.empty())
        doc_["inject"] = inject;
    if (storm > 0.0)
        doc_["demote_storm"] = storm;
    doc_["results"] = json::Value::array();
    doc_["failures"] = json::Value::array();

    // Checkpointing: on by default whenever a JSON report is requested
    // (the journal rides alongside it); `--resume` points at a prior
    // run's journal and keeps appending to it.
    std::string resume = args.getString("resume", "");
    checkpointPath_ = args.getString(
        "checkpoint", jsonPath_.empty() ? "" : jsonPath_ + ".ckpt");
    if (!resume.empty()) {
        loadCheckpoint(resume);
        checkpointPath_ = resume;
    }
    if (!checkpointPath_.empty()) {
        checkpoint_ = std::fopen(checkpointPath_.c_str(),
                                 resume.empty() ? "w" : "a");
        fatal_if(!checkpoint_, "cannot open checkpoint '%s'",
                 checkpointPath_.c_str());
    }
}

BenchSweep::~BenchSweep()
{
    if (checkpoint_)
        std::fclose(checkpoint_);
}

void
BenchSweep::loadCheckpoint(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(!file, "cannot read resume checkpoint '%s'", path.c_str());
    std::string content;
    char buffer[4096];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
        content.append(buffer, got);
    std::fclose(file);

    std::size_t pos = 0;
    while (pos < content.size()) {
        std::size_t newline = content.find('\n', pos);
        std::string line =
            newline == std::string::npos
                ? content.substr(pos)
                : content.substr(pos, newline - pos);
        pos = newline == std::string::npos ? content.size()
                                           : newline + 1;
        if (line.empty())
            continue;
        auto parsed = json::Value::parse(line);
        if (!parsed) {
            // A SIGKILL mid-append leaves a truncated final line; the
            // undamaged prefix is still a valid resume point.
            warn("checkpoint '%s': discarding a truncated trailing "
                 "line",
                 path.c_str());
            break;
        }
        const json::Value *index = parsed->find("i");
        const json::Value *record = parsed->find("record");
        fatal_if(!index || !index->isNumber() || !record,
                 "checkpoint '%s' is not a mixtlb sweep journal",
                 path.c_str());
        resumed_[static_cast<std::size_t>(index->number())] = *record;
    }
    inform("resume: %zu completed points loaded from %s",
           resumed_.size(), path.c_str());
}

void
BenchSweep::appendCheckpoint(std::size_t global_index,
                             const json::Value &record)
{
    if (!checkpoint_)
        return;
    auto line = json::Value::object();
    line["i"] = static_cast<std::uint64_t>(global_index);
    line["record"] = record;
    std::string text = line.dump(0);
    text += '\n';
    std::lock_guard<std::mutex> lock(checkpointMutex_);
    std::fwrite(text.data(), 1, text.size(), checkpoint_);
    // One flushed line per completed point: a kill at any moment
    // loses at most the in-flight point.
    std::fflush(checkpoint_);
}

std::vector<RunResult>
BenchSweep::run(const SweepGrid &grid)
{
    const auto &jobs = grid.jobs();
    const std::size_t base = globalIndex_;
    globalIndex_ += jobs.size();

    std::vector<json::Value> records(jobs.size());
    std::vector<sim::PointStatus> statuses;
    // Wall-clock per point (the final attempt when retried). Kept out
    // of the modeled statistics: it annotates the report only, and
    // `--no-timing` drops it for byte-stable golden comparisons.
    std::vector<double> wallSeconds(jobs.size(), 0.0);
    auto results = runner_.runChecked<RunResult>(
        jobs.size(),
        [&jobs, &wallSeconds](std::size_t i) {
            auto start = std::chrono::steady_clock::now();
            RunResult result = runJob(jobs[i]);
            wallSeconds[i] =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return result;
        },
        [&jobs](std::size_t i) { return effectiveSeed(jobs[i]); },
        statuses,
        [this, base](std::size_t i) {
            return resumed_.count(base + i) != 0;
        },
        [&](std::size_t i, const RunResult &result,
            const sim::PointStatus &status) {
            if (!status.ran)
                return;
            records[i] = makeRecord(jobs[i], result, status,
                                    injecting_);
            if (timing_ && status.ok) {
                auto &timing = records[i]["timing"];
                timing["wall_seconds"] = wallSeconds[i];
                timing["refs_per_sec"] =
                    wallSeconds[i] > 0
                        ? static_cast<double>(result.metrics.refs)
                              / wallSeconds[i]
                        : 0.0;
            }
            appendCheckpoint(base + i, records[i]);
        });

    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (!statuses[i].ran) {
            // Restored from the checkpoint: the stored record is
            // reused verbatim, so a resumed report is bit-identical
            // to an uninterrupted one — but first prove the journal
            // belongs to *this* sweep.
            const json::Value &stored = resumed_.at(base + i);
            const json::Value *label = stored.find("label");
            fatal_if(!label || label->str() != jobs[i].label,
                     "resume checkpoint does not match this sweep "
                     "(point %zu is '%s', expected '%s')",
                     base + i,
                     label ? label->str().c_str() : "<missing>",
                     jobs[i].label.c_str());
            const json::Value *config = stored.find("config");
            fatal_if(!config || config->dump(0)
                                    != configJson(jobs[i]).dump(0),
                     "resume checkpoint config mismatch at point %zu "
                     "('%s')",
                     base + i, jobs[i].label.c_str());
            records[i] = stored;
            results[i] = resultFromJson(stored);
        }

        const json::Value *state = records[i].find("status");
        const bool ok = state && state->str() == "ok";
        if (!ok) {
            failures_++;
            auto failure = json::Value::object();
            failure["index"] = static_cast<std::uint64_t>(base + i);
            failure["section"] = jobs[i].section;
            failure["label"] = jobs[i].label;
            const json::Value *error = records[i].find("error");
            if (error)
                failure["error"] = *error;
            const json::Value *attempts = records[i].find("attempts");
            if (attempts)
                failure["attempts"] = *attempts;
            doc_["failures"].push(std::move(failure));

            const json::Value *kind =
                error ? error->find("kind") : nullptr;
            warn("sweep point %zu (%s/%s) quarantined: %s",
                 base + i, jobs[i].section.c_str(),
                 jobs[i].label.c_str(),
                 kind ? kind->str().c_str() : "unknown");
        }
        doc_["results"].push(records[i]);
    }
    return results;
}

int
BenchSweep::finish()
{
    if (checkpoint_) {
        std::fclose(checkpoint_);
        checkpoint_ = nullptr;
    }
    if (failures_ > 0) {
        warn("%zu of %zu sweep points quarantined (see the report's "
             "\"failures\" block)",
             failures_, globalIndex_);
    }
    if (!jsonPath_.empty()) {
        if (!json::writeFile(jsonPath_, doc_))
            fatal("cannot write JSON results to %s", jsonPath_.c_str());
        inform("wrote %zu results to %s", doc_["results"].size(),
               jsonPath_.c_str());
    }
    return failures_ == 0 || allowFailures_ ? 0 : 1;
}

} // namespace mixtlb::bench
