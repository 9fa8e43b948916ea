/**
 * @file
 * Tests for the synthetic workload generators: all references stay in
 * bounds, are deterministic per seed, and exhibit the locality
 * character their family claims.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hh"
#include "common/fault.hh"
#include "workload/generator.hh"
#include "workload/trace_file.hh"

using namespace mixtlb;
using namespace mixtlb::workload;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr VAddr Base = 1ULL << 32;

/** Count distinct 4KB pages touched in n references. */
std::uint64_t
pagesTouched(TraceGenerator &gen, int n)
{
    std::set<Vpn> pages;
    for (int i = 0; i < n; i++)
        pages.insert(vpn4kOf(gen.next().vaddr));
    return pages.size();
}

} // anonymous namespace

TEST(Workload, AllGeneratorsStayInBounds)
{
    const std::uint64_t bytes = 64 * MiB;
    for (const auto &spec : cpuWorkloads()) {
        auto gen = makeGenerator(spec.name, Base, bytes, 42);
        for (int i = 0; i < 20000; i++) {
            MemRef ref = gen->next();
            ASSERT_GE(ref.vaddr, Base) << spec.name;
            ASSERT_LT(ref.vaddr, Base + bytes) << spec.name;
        }
    }
    for (const auto &spec : gpuWorkloads()) {
        auto gen = makeGenerator(spec.name, Base, bytes, 42);
        for (int i = 0; i < 20000; i++) {
            MemRef ref = gen->next();
            ASSERT_GE(ref.vaddr, Base) << spec.name;
            ASSERT_LT(ref.vaddr, Base + bytes) << spec.name;
        }
    }
}

TEST(Workload, DeterministicPerSeed)
{
    auto a = makeGenerator("graph500", Base, 64 * MiB, 7);
    auto b = makeGenerator("graph500", Base, 64 * MiB, 7);
    auto c = makeGenerator("graph500", Base, 64 * MiB, 8);
    bool differs = false;
    for (int i = 0; i < 1000; i++) {
        auto ra = a->next(), rb = b->next(), rc = c->next();
        ASSERT_EQ(ra.vaddr, rb.vaddr);
        ASSERT_EQ(static_cast<int>(ra.type), static_cast<int>(rb.type));
        differs |= ra.vaddr != rc.vaddr;
    }
    EXPECT_TRUE(differs);
}

TEST(Workload, GupsHasNoLocality)
{
    GupsGen gups(Base, 256 * MiB, 3);
    // Random accesses over 64K pages: nearly every access is a new page.
    EXPECT_GT(pagesTouched(gups, 20000), 7000u);
}

TEST(Workload, GupsPairsReadsWithWrites)
{
    GupsGen gups(Base, 1 * MiB, 3);
    for (int i = 0; i < 100; i++) {
        MemRef read = gups.next();
        MemRef write = gups.next();
        EXPECT_EQ(static_cast<int>(read.type),
                  static_cast<int>(AccessType::Read));
        EXPECT_EQ(static_cast<int>(write.type),
                  static_cast<int>(AccessType::Write));
        EXPECT_EQ(read.vaddr, write.vaddr);
    }
}

TEST(Workload, StreamIsSequential)
{
    StreamGen stream(Base, 1 * MiB, 3, 64, 0.0);
    VAddr prev = stream.next().vaddr;
    for (int i = 0; i < 1000; i++) {
        VAddr cur = stream.next().vaddr;
        ASSERT_EQ(cur, prev + 64);
        prev = cur;
    }
}

TEST(Workload, StreamTouchesFewPagesPerReference)
{
    StreamGen stream(Base, 256 * MiB, 3, 64, 0.3);
    // 20000 sequential 64B refs cover 20000*64/4096 ~ 313 pages.
    auto pages = pagesTouched(stream, 20000);
    EXPECT_LE(pages, 320u);
    EXPECT_GE(pages, 300u);
}

TEST(Workload, ChaseStaysInWindowUntilDrift)
{
    PointerChaseGen chase(Base, 256 * MiB, 3, 1 * MiB, 0.0);
    for (int i = 0; i < 10000; i++) {
        VAddr va = chase.next().vaddr;
        ASSERT_LT(va, Base + 256 * MiB);
        // drift_prob = 0: stays in the initial window forever.
        ASSERT_LT(va - Base, 1 * MiB);
    }
}

TEST(Workload, GraphMixesRunsAndJumps)
{
    GraphWalkGen graph(Base, 256 * MiB, 3, 16, 0.8);
    // Sequential runs mean consecutive refs are often 8B apart.
    unsigned sequential = 0;
    VAddr prev = graph.next().vaddr;
    for (int i = 0; i < 10000; i++) {
        VAddr cur = graph.next().vaddr;
        sequential += (cur == prev + 8) ? 1 : 0;
        prev = cur;
    }
    EXPECT_GT(sequential, 5000u); // mostly runs...
    EXPECT_LT(sequential, 9990u); // ...but with jumps
}

TEST(Workload, KeyValueSkewsTowardHotObjects)
{
    KeyValueGen kv(Base, 256 * MiB, 3, 1 << 16, 512, 0.99, 0.1);
    // Zipf-popular keys mean far fewer distinct pages than gups.
    auto kv_pages = pagesTouched(kv, 20000);
    GupsGen gups(Base, 256 * MiB, 3);
    auto gups_pages = pagesTouched(gups, 20000);
    EXPECT_LT(kv_pages, gups_pages / 2);
}

TEST(Workload, RegistryNamesResolve)
{
    EXPECT_EQ(cpuWorkloads().size(), 11u);
    EXPECT_EQ(gpuWorkloads().size(), 6u);
    for (const auto &spec : cpuWorkloads())
        EXPECT_NE(makeGenerator(spec.name, Base, 8 * MiB, 1), nullptr);
}

TEST(WorkloadDeathTest, UnknownNameFails)
{
    EXPECT_DEATH(
        { makeGenerator("no-such-workload", Base, 8 * MiB, 1); },
        "unknown workload");
}

// ---------------------------------------------------------------------
// Trace-file validation: damaged traces raise recoverable SimErrors
// (kind "trace-corrupt") so a sweep quarantines the replaying point.

namespace
{

/** Record a small valid trace and return its path. */
std::string
recordedTrace(const char *name)
{
    std::string path = std::string("/tmp/") + name;
    auto gen = makeGenerator("gups", Base, 8 * MiB, 6);
    recordTrace(*gen, 64, path);
    return path;
}

/** Expect constructing a TraceFileGen for @p path to raise. */
void
expectCorrupt(const std::string &path, const char *fragment)
{
    try {
        TraceFileGen bad(path);
        FAIL() << "damaged trace accepted (" << fragment << ")";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "trace-corrupt");
        EXPECT_NE(std::string(error.what()).find(fragment),
                  std::string::npos)
            << error.what();
    }
}

/** Overwrite @p size bytes at @p offset in the file at @p path. */
void
patchFile(const std::string &path, long offset, const void *bytes,
          std::size_t size)
{
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, offset, SEEK_SET);
    ASSERT_EQ(std::fwrite(bytes, 1, size, file), size);
    std::fclose(file);
}

constexpr long HeaderBytes = 16; ///< magic + version + count
constexpr long RecordBytes = 9;  ///< packed vaddr + type

} // anonymous namespace

TEST(TraceValidation, MissingFileRaisesIoError)
{
    try {
        TraceFileGen gone("/tmp/mixtlb_no_such_trace.bin");
        FAIL() << "missing trace accepted";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "io");
    }
}

TEST(TraceValidation, TruncatedPayloadIsRejected)
{
    auto path = recordedTrace("mixtlb_test_trace_trunc.bin");
    ASSERT_EQ(std::filesystem::file_size(path),
              static_cast<std::uintmax_t>(HeaderBytes
                                          + 64 * RecordBytes));
    std::filesystem::resize_file(path,
                                 HeaderBytes + 64 * RecordBytes - 1);
    expectCorrupt(path, "size does not match");
    std::remove(path.c_str());
}

TEST(TraceValidation, TruncatedHeaderIsRejected)
{
    auto path = recordedTrace("mixtlb_test_trace_hdr.bin");
    std::filesystem::resize_file(path, HeaderBytes - 4);
    expectCorrupt(path, "truncated header");
    std::remove(path.c_str());
}

TEST(TraceValidation, UnsupportedVersionIsRejected)
{
    auto path = recordedTrace("mixtlb_test_trace_ver.bin");
    std::uint32_t version = 99;
    patchFile(path, 4, &version, sizeof(version));
    expectCorrupt(path, "unsupported version");
    std::remove(path.c_str());
}

TEST(TraceValidation, EmptyTraceIsRejected)
{
    const std::string path = "/tmp/mixtlb_test_trace_empty.bin";
    auto gen = makeGenerator("gups", Base, 8 * MiB, 6);
    recordTrace(*gen, 0, path); // header only, count = 0
    expectCorrupt(path, "empty trace");
    std::remove(path.c_str());
}

TEST(TraceValidation, InvalidRecordTypeIsRejectedAtRead)
{
    auto path = recordedTrace("mixtlb_test_trace_type.bin");
    std::uint8_t bad_type = 0x7f;
    patchFile(path, HeaderBytes + 5 * RecordBytes + 8, &bad_type,
              sizeof(bad_type));
    TraceFileGen replay(path);
    for (int i = 0; i < 5; i++)
        replay.next();
    try {
        replay.next();
        FAIL() << "invalid access type accepted";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "trace-corrupt");
        EXPECT_NE(std::string(error.what()).find("invalid access type"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceValidation, OutOfRangeAddressIsRejectedAtRead)
{
    auto path = recordedTrace("mixtlb_test_trace_vaddr.bin");
    std::uint64_t bad_vaddr = 1ULL << 52;
    patchFile(path, HeaderBytes, &bad_vaddr, sizeof(bad_vaddr));
    TraceFileGen replay(path);
    try {
        replay.next();
        FAIL() << "out-of-range address accepted";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "trace-corrupt");
        EXPECT_NE(std::string(error.what()).find("48-bit"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(TraceValidation, InjectedCorruptionTripsTheSameValidation)
{
    auto path = recordedTrace("mixtlb_test_trace_inject.bin");
    TraceFileGen replay(path);
    auto faults = fault::FaultConfig::parse("trace-corrupt=1.0");
    fault::FaultScope scope(faults, 31, 0);
    try {
        replay.next();
        FAIL() << "injected corruption not detected";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), "trace-corrupt");
    }
    EXPECT_EQ(scope.fired(fault::Site::TraceCorrupt), 1u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// nextBatch parity: for every generator family, nextBatch() must emit
// exactly the stream next() would — including across batch boundaries
// that split gups' read/write pairs — or batched run loops would
// silently change every modeled statistic.

namespace
{

/** Drain @p gen through nextBatch using a mixed chunk schedule. */
std::vector<MemRef>
drainBatched(TraceGenerator &gen, std::size_t total)
{
    // Chunk sizes deliberately mix odd, one, and large: every gups
    // pair alignment and every internal-state carry gets exercised.
    static constexpr std::size_t Chunks[] = {1, 3, 7, 64, 2, 129, 5};
    std::vector<MemRef> out(total);
    std::size_t done = 0, turn = 0;
    while (done < total) {
        std::size_t n = std::min(Chunks[turn++ % std::size(Chunks)],
                                 total - done);
        gen.nextBatch(out.data() + done, n);
        done += n;
    }
    return out;
}

} // anonymous namespace

TEST(Workload, NextBatchMatchesNextForEveryFamily)
{
    std::vector<std::string> names;
    for (const auto &spec : cpuWorkloads())
        names.push_back(spec.name);
    for (const auto &spec : gpuWorkloads())
        names.push_back(spec.name);
    for (const auto &name : names) {
        SCOPED_TRACE(name);
        auto serial = makeGenerator(name, Base, 64 * MiB, 42);
        auto batched = makeGenerator(name, Base, 64 * MiB, 42);
        auto refs = drainBatched(*batched, 5000);
        for (std::size_t i = 0; i < refs.size(); i++) {
            MemRef want = serial->next();
            ASSERT_EQ(refs[i].vaddr, want.vaddr) << "ref " << i;
            ASSERT_EQ(static_cast<int>(refs[i].type),
                      static_cast<int>(want.type))
                << "ref " << i;
        }
    }
}

namespace
{

/** One pinned reference: its index in the stream and its value. */
struct PinnedRef
{
    std::size_t index;
    std::uint64_t offset; ///< vaddr - Base
    AccessType type;
};

/** A family's pinned stream: a digest of its first refs, and a few. */
struct PinnedStream
{
    std::string name;
    std::uint64_t digest; ///< streamDigest of the first 5000 refs
    std::vector<PinnedRef> refs;
};

/** FNV-1a over each reference's (vaddr - Base, type). */
std::uint64_t
streamDigest(const std::vector<MemRef> &refs)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const MemRef &ref : refs) {
        hash = (hash ^ (ref.vaddr - Base)) * 0x100000001b3ULL;
        hash = (hash ^ static_cast<std::uint64_t>(ref.type))
               * 0x100000001b3ULL;
    }
    return hash;
}

} // anonymous namespace

TEST(Workload, StreamsMatchPinnedReferences)
{
    // Values recorded from every family at seed 42 over 64 MiB. The
    // parity tests above compare a generator with itself, so only
    // these catch a change to a stream: a gups or stream edit, or a
    // different Zipf normaliser under graph500, bfs, memcached and
    // dataserving. Zipf ranks move little with the normaliser, so the
    // digest of the whole 5000-ref prefix is what catches most such
    // changes; the single refs name where a stream went wrong.
    constexpr AccessType R = AccessType::Read;
    constexpr AccessType W = AccessType::Write;
    const std::vector<PinnedStream> pinned = {
        {"mcf", 0x7ada87182185b8e5,
         {{0, 0x6104d8, R}, {1, 0xecb8a8, R}, {2, 0xc50da0, R},
          {3, 0xd99a20, R}, {1000, 0x94a0e0, R}, {4999, 0xeed630, R}}},
        {"omnetpp", 0xba4feb502e464e3b,
         {{0, 0x2c209b0, R}, {1, 0x1aaaaa9, R}, {2, 0x1555554, R},
          {3, 0xffffff, R}, {1000, 0x10003a7, R}, {4999, 0x5596b5, R}}},
        {"xalancbmk", 0xd9b8f977a16a22d5,
         {{0, 0x2c209b0, R}, {1, 0x1800000, R}, {2, 0x1000000, R},
          {3, 0x1000080, R}, {1000, 0x3622fb0, R}, {4999, 0x1d48, R}}},
        {"milc", 0x09509efe41baae35,
         {{0, 0x0, W}, {1, 0x80, W}, {2, 0x100, R},
          {3, 0x180, R}, {1000, 0x1f400, W}, {4999, 0x9c380, W}}},
        {"canneal", 0xe39cc2f922b64ef5,
         {{0, 0xc209b0, R}, {1, 0x1d97158, R}, {2, 0x18a1b48, R},
          {3, 0x1b33448, R}, {1000, 0x12941c0, R}, {4999, 0x16cc1b8, R}}},
        {"streamcluster", 0x072331a54ecee522,
         {{0, 0x0, W}, {1, 0x40, R}, {2, 0x80, R},
          {3, 0xc0, R}, {1000, 0xfa00, W}, {4999, 0x4e1c0, R}}},
        {"gups", 0xf0e3e5c4ef2b0895,
         {{0, 0x55e028, R}, {1, 0x55e028, W}, {2, 0x1841360, R},
          {3, 0x1841360, W}, {1000, 0xe59240, R}, {4999, 0x6ef98, W}}},
        {"graph500", 0xa0f716861fa741bd,
         {{0, 0x1d4d240, R}, {1, 0x1d4d248, R}, {2, 0x1d4d250, R},
          {3, 0xa80, R}, {1000, 0x70, R}, {4999, 0x33c1200, R}}},
        {"memcached", 0x88e0e09fcf5dcc15,
         {{0, 0x7eccf8, R}, {1, 0x2cb2400, W}, {2, 0x2cb2440, W},
          {3, 0x2cb2480, W}, {1000, 0x806800, R}, {4999, 0x802ac0, R}}},
        {"dataserving", 0x2ea8a87252cf8b55,
         {{0, 0xf7db0, R}, {1, 0x20cc400, W}, {2, 0x20cc440, W},
          {3, 0x20cc480, W}, {1000, 0x1000340, R}, {4999, 0x1569400, R}}},
        {"btree", 0x4cabb170adc86345,
         {{0, 0x24618, R}, {1, 0x58c50, R}, {2, 0x49e50, R},
          {3, 0x51998, R}, {1000, 0x37bc0, R}, {4999, 0x59900, R}}},
        {"bfs", 0x7218651a6466a485,
         {{0, 0x124ff40, R}, {1, 0x124ff48, R}, {2, 0x140, R},
          {3, 0x148, R}, {1000, 0x22c8, R}, {4999, 0x418, R}}},
        {"backprop", 0x27f1bd37d98f804a,
         {{0, 0x0, W}, {1, 0x100, R}, {2, 0x200, R},
          {3, 0x300, R}, {1000, 0x3e800, W}, {4999, 0x138700, W}}},
        {"kmeans", 0xf8e388eba94d041b,
         {{0, 0x2c209b0, R}, {1, 0x1555554, R}, {2, 0x15555d4, R},
          {3, 0xaaaaaa, R}, {1000, 0x155efd4, R}, {4999, 0xab60ea, R}}},
        {"pathfinder", 0x0dcbb4db978f02bd,
         {{0, 0x0, W}, {1, 0x40, R}, {2, 0x80, R},
          {3, 0xc0, R}, {1000, 0xfa00, W}, {4999, 0x4e1c0, R}}},
        {"hotspot", 0x4bd12b81963038eb,
         {{0, 0x666666, R}, {1, 0x1999998, R}, {2, 0x19999b8, R},
          {3, 0x1333332, R}, {1000, 0x1333a0a, R}, {4999, 0x19a0d38, W}}},
        {"srad", 0x2a446128e186992d,
         {{0, 0x0, W}, {1, 0x80, R}, {2, 0x100, R},
          {3, 0x180, R}, {1000, 0x1f400, W}, {4999, 0x9c380, W}}},
    };
    std::size_t families = cpuWorkloads().size() + gpuWorkloads().size();
    EXPECT_EQ(pinned.size(), families) << "pin every family";
    for (const PinnedStream &family : pinned) {
        SCOPED_TRACE(family.name);
        auto gen = makeGenerator(family.name, Base, 64 * MiB, 42);
        std::vector<MemRef> stream(5000);
        gen->nextBatch(stream.data(), stream.size());
        EXPECT_EQ(streamDigest(stream), family.digest);
        for (const PinnedRef &pin : family.refs) {
            EXPECT_EQ(stream[pin.index].vaddr, Base + pin.offset)
                << "ref " << pin.index;
            EXPECT_EQ(static_cast<int>(stream[pin.index].type),
                      static_cast<int>(pin.type))
                << "ref " << pin.index;
        }
    }
}

TEST(Workload, NextBatchCarriesGupsPairsAcrossBatchBoundaries)
{
    GupsGen serial(Base, 8 * MiB, 9);
    GupsGen batched(Base, 8 * MiB, 9);
    // Odd batch size: every batch ends mid-pair, so the write half
    // must carry over as pending state.
    std::vector<MemRef> refs(9);
    for (int round = 0; round < 50; round++) {
        batched.nextBatch(refs.data(), refs.size());
        for (const MemRef &ref : refs) {
            MemRef want = serial.next();
            ASSERT_EQ(ref.vaddr, want.vaddr);
            ASSERT_EQ(static_cast<int>(ref.type),
                      static_cast<int>(want.type));
        }
    }
}

TEST(Workload, NextBatchInterleavesWithNext)
{
    // Mixing the two entry points must still be one coherent stream.
    auto a = makeGenerator("gups", Base, 8 * MiB, 21);
    auto b = makeGenerator("gups", Base, 8 * MiB, 21);
    std::vector<MemRef> got;
    MemRef buffer[5];
    a->nextBatch(buffer, 5);
    got.insert(got.end(), buffer, buffer + 5);
    got.push_back(a->next());
    a->nextBatch(buffer, 4);
    got.insert(got.end(), buffer, buffer + 4);
    for (const MemRef &ref : got) {
        MemRef want = b->next();
        ASSERT_EQ(ref.vaddr, want.vaddr);
        ASSERT_EQ(static_cast<int>(ref.type),
                  static_cast<int>(want.type));
    }
}
