#include "bench_common.hh"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "perf/energy_model.hh"

namespace mixtlb::bench
{

namespace
{

/**
 * The process lifecycle counters a record reports, under their stat
 * names: THS superpage requests that fell back to 4KB pages,
 * superpage demotions, frames freed by reclaim, demoted regions
 * re-promoted, and the OOM-path observability counters. Each is
 * summed over every process and over the whole run including warmup
 * (warmup is where allocation happens, and the stat reset at
 * startMeasurement() would otherwise discard it). The fault and
 * pressure soaks assert these go nonzero under injection.
 */
constexpr std::array<const char *, 7> LifecycleStats = {
    "thp_fallbacks", "demotions", "reclaims", "repromotions",
    "oom_retries", "demote_rescues", "compaction_rescues"};

using LifecycleCounts = std::array<double, LifecycleStats.size()>;

/** Add every process's lifecycle counters into @p counts. */
void
addLifecycle(sim::MachineCore &machine, LifecycleCounts &counts)
{
    for (unsigned i = 0; i < machine.numProcesses(); i++) {
        const stats::StatGroup &group = machine.process(i).statGroup();
        for (std::size_t s = 0; s < LifecycleStats.size(); s++)
            counts[s] += group.value(LifecycleStats[s]);
    }
}

/** Start the measured window; returns the warmup's lifecycle counts. */
LifecycleCounts
startMeasurement(sim::MachineCore &machine)
{
    LifecycleCounts warmup{};
    addLifecycle(machine, warmup);
    machine.startMeasurement();
    return warmup;
}

/** The one record every machine kind's run produces. */
RunResult
summarize(sim::MachineCore &machine, LifecycleCounts lifecycle)
{
    addLifecycle(machine, lifecycle);
    const perf::RunMetrics run = machine.metrics();
    const perf::EnergyInputs inputs = machine.energyInputs();
    const os::PageSizeDistribution dist = machine.distribution();
    double accesses = 0, l1_hits = 0, walks = 0, walk_accesses = 0;
    for (unsigned i = 0; i < machine.numHierarchies(); i++) {
        const tlb::TlbHierarchy &hier = machine.hierarchy(i);
        accesses += hier.accessCount();
        l1_hits += hier.l1HitCount();
        walks += hier.walkCount();
        walk_accesses += hier.walkAccessCount();
    }
    const double l1_miss_rate = 1.0 - l1_hits / accesses;

    auto out = json::Value::object();
    auto &metrics = out["metrics"];
    metrics["refs"] = run.refs;
    metrics["translation_cycles"] = run.translationCycles;
    metrics["base_cycles"] = run.baseCycles;
    metrics["overhead_cycles"] = run.overheadCycles;
    metrics["total_cycles"] = run.totalCycles;
    metrics["overhead_fraction"] = run.overheadFraction();
    metrics["l1_hit_rate"] = 1.0 - l1_miss_rate;
    metrics["l1_miss_rate"] = l1_miss_rate;
    metrics["walks_per_kref"] = 1000.0 * walks / accesses;
    metrics["accesses_per_walk"] =
        walks > 0 ? walk_accesses / walks : 0.0;
    metrics["superpage_fraction"] = dist.superpageFraction();
    for (std::size_t s = 0; s < LifecycleStats.size(); s++)
        metrics[LifecycleStats[s]] = lifecycle[s];

    auto &energy = out["energy"];
    energy["l1_ways_read"] = inputs.l1WaysRead;
    energy["l2_ways_read"] = inputs.l2WaysRead;
    energy["l1_entries"] = inputs.l1Entries;
    energy["l2_entries"] = inputs.l2Entries;
    energy["l1_fills"] = inputs.l1Fills;
    energy["l2_fills"] = inputs.l2Fills;
    energy["fill_burst_factor"] = inputs.fillBurstFactor;
    energy["walk_accesses"] = inputs.walkAccesses;
    energy["walk_dram_accesses"] = inputs.walkDramAccesses;
    energy["dirty_ops"] = inputs.dirtyOps;
    energy["invalidations"] = inputs.invalidations;
    energy["predictor_lookups"] = inputs.predictorLookups;
    energy["skew_timestamps"] = inputs.skewTimestamps;
    energy["total_cycles"] = inputs.totalCycles;
    const auto breakdown = perf::EnergyModel{}.compute(inputs);
    energy["lookup_pj"] = breakdown.lookup;
    energy["walk_pj"] = breakdown.walk;
    energy["fill_pj"] = breakdown.fill;
    energy["other_pj"] = breakdown.other;
    energy["leakage_pj"] = breakdown.leakage;
    energy["total_pj"] = breakdown.total();
    energy["pj_per_access"] =
        run.refs ? breakdown.total() / static_cast<double>(run.refs)
                 : 0.0;

    auto &distribution = out["distribution"];
    distribution["bytes_4k"] = dist.bytes4k;
    distribution["bytes_2m"] = dist.bytes2m;
    distribution["bytes_1g"] = dist.bytes1g;
    return out;
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
    const LifecycleCounts warmup = startMeasurement(machine);
    auto gen = workload::makeGenerator(config.workload, base,
                                       config.footprintBytes,
                                       config.seed);
    machine.run(*gen, config.refs);
    return summarize(machine, warmup);
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
    const LifecycleCounts warmup = startMeasurement(machine);
    for (unsigned vm = 0; vm < config.numVms; vm++) {
        auto gen = workload::makeGenerator(config.workload, bases[vm],
                                           footprint,
                                           config.seed + vm);
        machine.run(vm, *gen, config.refsPerVm);
    }
    return summarize(machine, warmup);
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
    const LifecycleCounts warmup = startMeasurement(machine);
    for (unsigned core = 0; core < config.cores; core++) {
        machine.attachWorkload(
            core, workload::makeGenerator(config.kernel, base,
                                          config.footprintBytes,
                                          config.seed + core));
    }
    machine.run(config.refs);
    return summarize(machine, warmup);
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
    const LifecycleCounts warmup = startMeasurement(machine);
    for (unsigned i = 0; i < config.numProcs; i++) {
        machine.attachWorkload(
            i, workload::makeGenerator(
                   workloads[i % workloads.size()], bases[i],
                   config.footprintPerProc,
                   sim::sweepPointSeed(config.seed, i)));
    }
    machine.run(config.refsPerProc);
    RunResult result = summarize(machine, warmup);
    auto &multi = result["multi"];
    multi["context_switches"] = machine.contextSwitches();
    multi["full_flushes"] = machine.fullFlushes();
    auto rates = json::Value::array();
    for (unsigned i = 0; i < config.numProcs; i++)
        rates.push(machine.procL1MissRate(i));
    multi["proc_l1_miss_rates"] = std::move(rates);
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

double
valueAt(const RunResult &result, const std::string &path)
{
    const json::Value *status = result.find("status");
    if (status && status->str() == "failed")
        return 0.0;
    const json::Value *value = &result;
    for (std::size_t pos = 0; value && pos <= path.size();) {
        const std::size_t dot = std::min(path.find('.', pos), path.size());
        value = value->find(path.substr(pos, dot - pos));
        pos = dot + 1;
    }
    panic_if(!value || !value->isNumber(),
             "run result has no number at '%s'", path.c_str());
    return value->number();
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
        for (const auto &[block, values] : result.members())
            record[block] = values;
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

    std::vector<RunResult> records(jobs.size());
    std::vector<sim::PointStatus> statuses;
    // Wall-clock per point (the final attempt when retried). Kept out
    // of the modeled statistics: it annotates the report only, and
    // `--no-timing` drops it for byte-stable golden comparisons.
    std::vector<double> wallSeconds(jobs.size(), 0.0);
    runner_.runChecked<RunResult>(
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
                        ? valueAt(result, "metrics.refs")
                              / wallSeconds[i]
                        : 0.0;
            }
            appendCheckpoint(base + i, records[i]);
        });

    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (!statuses[i].ran) {
            // Restored from the checkpoint: the stored record is
            // reused verbatim, as the report's entry and as the
            // point's result, so a resumed run is bit-identical to an
            // uninterrupted one — but first prove the journal belongs
            // to *this* sweep.
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
    return records;
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
