#include "generator.hh"

#include "common/logging.hh"

namespace mixtlb::workload
{

GupsGen::GupsGen(VAddr base, std::uint64_t bytes, std::uint64_t seed)
    : base_(base), bytes_(bytes), rng_(seed)
{
    fatal_if(bytes == 0, "empty gups footprint");
}

MemRef
GupsGen::next()
{
    MemRef ref;
    nextBatch(&ref, 1);
    return ref;
}

// mixcheck: hot
void
GupsGen::nextBatch(MemRef *out, std::size_t n)
{
    std::size_t i = 0;
    if (i < n && havePending_) {
        havePending_ = false;
        out[i] = pending_;
        out[i].type = AccessType::Write;
        i++;
    }
    while (i < n) {
        MemRef ref;
        ref.vaddr = base_ + (rng_.nextBounded(bytes_ / 8) * 8);
        ref.type = AccessType::Read;
        out[i++] = ref;
        if (i < n) {
            out[i] = ref;
            out[i].type = AccessType::Write;
            i++;
        } else {
            // The write half of the pair lands in the next batch.
            pending_ = ref;
            havePending_ = true;
        }
    }
}

StreamGen::StreamGen(VAddr base, std::uint64_t bytes, std::uint64_t seed,
                     unsigned stride, double write_ratio)
    : base_(base), bytes_(bytes), stride_(stride),
      writeRatio_(write_ratio), rng_(seed)
{
    fatal_if(bytes == 0 || stride == 0, "bad stream parameters");
}

MemRef
StreamGen::next()
{
    MemRef ref;
    nextBatch(&ref, 1);
    return ref;
}

// mixcheck: hot
void
StreamGen::nextBatch(MemRef *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        out[i].vaddr = base_ + cursor_;
        out[i].type = rng_.chance(writeRatio_) ? AccessType::Write
                                               : AccessType::Read;
        cursor_ += stride_;
        if (cursor_ >= bytes_)
            cursor_ = 0;
    }
}

PointerChaseGen::PointerChaseGen(VAddr base, std::uint64_t bytes,
                                 std::uint64_t seed,
                                 std::uint64_t window_bytes,
                                 double drift_prob)
    : base_(base), bytes_(bytes),
      windowBytes_(window_bytes > bytes ? bytes : window_bytes),
      driftProb_(drift_prob), rng_(seed)
{
    fatal_if(bytes == 0, "empty chase footprint");
}

MemRef
PointerChaseGen::next()
{
    if (rng_.chance(driftProb_)) {
        // Working set drifts to a new region of the footprint.
        if (bytes_ > windowBytes_)
            windowBase_ = rng_.nextBounded(bytes_ - windowBytes_);
    }
    MemRef ref;
    ref.vaddr = base_ + windowBase_
                + (rng_.nextBounded(windowBytes_ / 8) * 8);
    ref.type = AccessType::Read;
    return ref;
}

GraphWalkGen::GraphWalkGen(VAddr base, std::uint64_t bytes,
                           std::uint64_t seed, unsigned avg_run,
                           double zipf_theta)
    : base_(base), bytes_(bytes), avgRun_(avg_run), rng_(seed),
      zipf_(bytes / 64, zipf_theta, seed ^ 0xabcdef)
{
    fatal_if(bytes < 64, "graph footprint too small");
}

MemRef
GraphWalkGen::next()
{
    MemRef ref;
    if (remainingRun_ == 0) {
        // Jump to a Zipf-popular vertex's edge list.
        cursor_ = zipf_.sample() * 64;
        remainingRun_ = 1 + static_cast<unsigned>(
            rng_.nextBounded(2 * avgRun_));
    }
    ref.vaddr = base_ + (cursor_ % bytes_);
    ref.type = AccessType::Read;
    cursor_ += 8;
    remainingRun_--;
    return ref;
}

KeyValueGen::KeyValueGen(VAddr base, std::uint64_t bytes,
                         std::uint64_t seed, std::uint64_t num_keys,
                         unsigned value_bytes, double zipf_theta,
                         double write_ratio)
    : base_(base), bytes_(bytes), numKeys_(num_keys),
      valueBytes_(value_bytes), writeRatio_(write_ratio), rng_(seed),
      zipf_(num_keys, zipf_theta, seed ^ 0x55aa55)
{
    fatal_if(bytes == 0 || num_keys == 0, "bad key-value parameters");
}

MemRef
KeyValueGen::next()
{
    return produce();
}

// mixcheck: hot
void
KeyValueGen::nextBatch(MemRef *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        out[i] = produce();
}

MemRef
KeyValueGen::produce()
{
    MemRef ref;
    if (objRemaining_ > 0) {
        ref.vaddr = base_ + (objCursor_ % bytes_);
        ref.type = objWrite_ ? AccessType::Write : AccessType::Read;
        objCursor_ += 64;
        objRemaining_--;
        return ref;
    }
    // New operation: probe the hash-bucket array — a *contiguous*
    // structure of 8 bytes per key at the start of the arena, like a
    // real store's table — then read the value.
    std::uint64_t key = zipf_.sample();
    std::uint64_t bucket_bytes = numKeys_ * 8;
    if (bucket_bytes > bytes_ / 4)
        bucket_bytes = bytes_ / 4;
    std::uint64_t bucket_hash = key * 0x9e3779b97f4a7c15ULL;
    ref.vaddr = base_ + (bucket_hash % bucket_bytes / 8 * 8);
    ref.type = AccessType::Read;

    // Objects live in slabs. Popular items are long-lived and were
    // allocated early, so object position correlates with popularity
    // rank — hot data clusters in the early slabs (dense rank-order
    // packing) rather than scattering across the footprint.
    std::uint64_t slab_base = bucket_bytes;
    std::uint64_t slab_bytes = bytes_ - slab_base - valueBytes_;
    objCursor_ = slab_base
                 + (key * static_cast<std::uint64_t>(valueBytes_))
                       % slab_bytes;
    objRemaining_ = valueBytes_ / 64;
    objWrite_ = rng_.chance(writeRatio_);
    return ref;
}

SpecLikeGen::SpecLikeGen(VAddr base, std::uint64_t bytes,
                         std::uint64_t seed, unsigned num_arrays,
                         double chase_ratio)
    : chaseRatio_(chase_ratio), rng_(seed)
{
    fatal_if(num_arrays == 0 || bytes / (num_arrays + 1) == 0,
             "bad spec-like parameters");
    // Half the footprint is strided arrays, half is a chase arena.
    std::uint64_t array_bytes = bytes / 2 / num_arrays;
    for (unsigned i = 0; i < num_arrays; i++) {
        ArrayState st;
        st.base = base + i * array_bytes;
        st.bytes = array_bytes;
        st.cursor = 0;
        static constexpr unsigned Strides[3] = {8, 32, 128}; // bytes
        st.stride = Strides[i % 3];
        arrays_.push_back(st);
    }
    chaseBase_ = base + bytes / 2;
    chaseBytes_ = bytes - bytes / 2;
}

MemRef
SpecLikeGen::next()
{
    MemRef ref;
    if (rng_.chance(chaseRatio_)) {
        ref.vaddr = chaseBase_ + (rng_.nextBounded(chaseBytes_ / 8) * 8);
        ref.type = AccessType::Read;
        return ref;
    }
    auto &arr = arrays_[rng_.nextBounded(arrays_.size())];
    ref.vaddr = arr.base + arr.cursor;
    ref.type = rng_.chance(0.2) ? AccessType::Write : AccessType::Read;
    arr.cursor += arr.stride;
    if (arr.cursor >= arr.bytes)
        arr.cursor = 0;
    return ref;
}

const std::vector<WorkloadSpec> &
cpuWorkloads()
{
    static const std::vector<WorkloadSpec> workloads = {
        {"mcf",           WorkloadClass::SpecParsec},
        {"omnetpp",       WorkloadClass::SpecParsec},
        {"xalancbmk",     WorkloadClass::SpecParsec},
        {"milc",          WorkloadClass::SpecParsec},
        {"canneal",       WorkloadClass::SpecParsec},
        {"streamcluster", WorkloadClass::SpecParsec},
        {"gups",          WorkloadClass::BigMemory},
        {"graph500",      WorkloadClass::BigMemory},
        {"memcached",     WorkloadClass::BigMemory},
        {"dataserving",   WorkloadClass::BigMemory},
        {"btree",         WorkloadClass::BigMemory},
    };
    return workloads;
}

const std::vector<WorkloadSpec> &
gpuWorkloads()
{
    static const std::vector<WorkloadSpec> workloads = {
        {"bfs",        WorkloadClass::Gpu},
        {"backprop",   WorkloadClass::Gpu},
        {"kmeans",     WorkloadClass::Gpu},
        {"pathfinder", WorkloadClass::Gpu},
        {"hotspot",    WorkloadClass::Gpu},
        {"srad",       WorkloadClass::Gpu},
    };
    return workloads;
}

std::unique_ptr<TraceGenerator>
makeGenerator(const std::string &name, VAddr base, std::uint64_t bytes,
              std::uint64_t seed)
{
    // CPU workloads.
    if (name == "mcf") {
        return std::make_unique<PointerChaseGen>(base, bytes, seed,
                                                 bytes / 4, 3e-5);
    }
    if (name == "omnetpp") {
        return std::make_unique<SpecLikeGen>(base, bytes, seed, 6, 0.35);
    }
    if (name == "xalancbmk") {
        return std::make_unique<SpecLikeGen>(base, bytes, seed, 4, 0.25);
    }
    if (name == "milc") {
        return std::make_unique<StreamGen>(base, bytes, seed, 128, 0.4);
    }
    if (name == "canneal") {
        return std::make_unique<PointerChaseGen>(base, bytes, seed,
                                                 bytes / 2, 1e-4);
    }
    if (name == "streamcluster") {
        return std::make_unique<StreamGen>(base, bytes, seed, 64, 0.1);
    }
    if (name == "gups") {
        return std::make_unique<GupsGen>(base, bytes, seed);
    }
    if (name == "btree") {
        // Index-structure lookups: a small hot set of interleaved
        // pages (the upper tree levels, ~384KB) probed dependently —
        // the access shape that punishes superpage-index-bit TLBs
        // (Sec. 3): ~96 hot pages share one 2MB region's set.
        return std::make_unique<PointerChaseGen>(base, bytes, seed,
                                                 384 * 1024, 1e-5);
    }
    if (name == "graph500") {
        return std::make_unique<GraphWalkGen>(base, bytes, seed, 16, 0.8);
    }
    if (name == "memcached") {
        return std::make_unique<KeyValueGen>(base, bytes, seed);
    }
    if (name == "dataserving") {
        return std::make_unique<KeyValueGen>(base, bytes, seed,
                                             pow2(22),
                                             1024, 0.9, 0.25);
    }

    // GPU workloads (per-core streams are seeded differently by the
    // GPU module; patterns mirror Rodinia kernels).
    if (name == "bfs") {
        return std::make_unique<GraphWalkGen>(base, bytes, seed, 8, 0.9);
    }
    if (name == "backprop") {
        return std::make_unique<StreamGen>(base, bytes, seed, 256, 0.3);
    }
    if (name == "kmeans") {
        return std::make_unique<SpecLikeGen>(base, bytes, seed, 3, 0.1);
    }
    if (name == "pathfinder") {
        return std::make_unique<StreamGen>(base, bytes, seed, 64, 0.2);
    }
    if (name == "hotspot") {
        return std::make_unique<SpecLikeGen>(base, bytes, seed, 5, 0.05);
    }
    if (name == "srad") {
        return std::make_unique<StreamGen>(base, bytes, seed, 128, 0.35);
    }

    fatal("unknown workload '%s'", name.c_str());
}

} // namespace mixtlb::workload
