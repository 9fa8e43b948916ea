/**
 * @file
 * Unit tests for src/common: types, intmath, RNG, and statistics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/inline_vec.hh"
#include "common/intmath.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"

using namespace mixtlb;

TEST(Types, PageGeometry)
{
    EXPECT_EQ(pageShift(PageSize::Size4K), 12u);
    EXPECT_EQ(pageShift(PageSize::Size2M), 21u);
    EXPECT_EQ(pageShift(PageSize::Size1G), 30u);

    EXPECT_EQ(pageBytes(PageSize::Size4K), 4096u);
    EXPECT_EQ(pageBytes(PageSize::Size2M), 2u * 1024 * 1024);
    EXPECT_EQ(pageBytes(PageSize::Size1G), 1024u * 1024 * 1024);

    EXPECT_EQ(framesPerPage(PageSize::Size4K), 1u);
    EXPECT_EQ(framesPerPage(PageSize::Size2M), 512u);
    EXPECT_EQ(framesPerPage(PageSize::Size1G), 262144u);
}

TEST(Types, PaperRunningExample)
{
    // Superpage B from Figure 2 sits at virtual 0x00400000.
    VAddr b = 0x00400000;
    EXPECT_EQ(vpnOf(b, PageSize::Size2M), 0x2u);
    EXPECT_EQ(vpn4kOf(b), 0x400u);
    EXPECT_EQ(pageBase(b + 0x1234, PageSize::Size2M), b);
    EXPECT_EQ(pageOffset(b + 0x1234, PageSize::Size2M), 0x1234u);
}

TEST(Types, VpnRoundTrip)
{
    for (VAddr va : {0x0ULL, 0xfffULL, 0x1000ULL, 0x3fffffffULL,
                     0x40000000ULL, 0x7fffffffffffULL}) {
        for (auto size : {PageSize::Size4K, PageSize::Size2M,
                          PageSize::Size1G}) {
            EXPECT_EQ(pageBase(va, size) + pageOffset(va, size), va);
        }
    }
}

TEST(IntMath, PowersAndLogs)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));

    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(ceilLog2(1), 0u);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1234, 0x1000), 0x2000u);
    EXPECT_EQ(alignUp(0x1000, 0x1000), 0x1000u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(IntMath, BitsExtractInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 0), 0xbeefu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
    EXPECT_EQ(insertBits(0, 15, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffff, 7, 0, 0), 0xff00u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    bool all_equal_c = true;
    for (int i = 0; i < 100; i++) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            all_equal_c = false;
    }
    EXPECT_FALSE(all_equal_c);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        auto v = rng.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        auto d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, UniformityRoughly)
{
    Rng rng(11);
    std::array<int, 10> hist{};
    const int n = 100000;
    for (int i = 0; i < n; i++)
        hist[rng.nextBounded(10)]++;
    for (int count : hist) {
        EXPECT_GT(count, n / 10 * 0.9);
        EXPECT_LT(count, n / 10 * 1.1);
    }
}

TEST(Zipf, RanksSkewTowardZero)
{
    ZipfSampler zipf(1000, 0.99, 3);
    std::map<std::uint64_t, int> hist;
    const int n = 50000;
    for (int i = 0; i < n; i++) {
        auto rank = zipf.sample();
        ASSERT_LT(rank, 1000u);
        hist[rank]++;
    }
    // Rank 0 must be (much) more popular than rank 500.
    EXPECT_GT(hist[0], 10 * (hist.count(500) ? hist[500] : 0) + 10);
    // And the head should dominate: top-10 ranks > 25% of samples.
    int head = 0;
    for (std::uint64_t r = 0; r < 10; r++)
        head += hist.count(r) ? hist[r] : 0;
    EXPECT_GT(head, n / 4);
}

TEST(Zipf, ConcurrentSamplersMatchSerial)
{
    // Each thread builds a sampler over one (n, theta) every thread
    // shares and one of its own. No other test uses these pairs, so
    // the threads race to fill the process-wide normaliser table; the
    // ranks must still match samplers built afterwards on one thread.
    constexpr unsigned Threads = 8;
    constexpr std::uint64_t SharedN = 300'007;
    constexpr double SharedTheta = 0.91;
    auto ownN = [](unsigned t) { return 100'003 + 1'000 * t; };
    auto ownTheta = [](unsigned t) { return 0.5 + 0.05 * t; };
    auto draw = [](std::uint64_t n, double theta, std::uint64_t seed) {
        ZipfSampler zipf(n, theta, seed);
        std::vector<std::uint64_t> ranks(256);
        for (auto &rank : ranks)
            rank = zipf.sample();
        return ranks;
    };

    std::vector<std::vector<std::uint64_t>> shared(Threads), own(Threads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < Threads; t++) {
        threads.emplace_back([&, t] {
            shared[t] = draw(SharedN, SharedTheta, t + 1);
            own[t] = draw(ownN(t), ownTheta(t), t + 1);
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (unsigned t = 0; t < Threads; t++) {
        EXPECT_EQ(shared[t], draw(SharedN, SharedTheta, t + 1)) << t;
        EXPECT_EQ(own[t], draw(ownN(t), ownTheta(t), t + 1)) << t;
    }
}

TEST(Stats, ScalarBasics)
{
    stats::StatGroup root("root");
    auto &s = root.addScalar("hits", "hit count");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    EXPECT_DOUBLE_EQ(root.scalar("hits").value(), 3.5);
    root.resetStats();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    stats::StatGroup root("root");
    auto &hits = root.addScalar("hits", "");
    auto &misses = root.addScalar("misses", "");
    root.addFormula("hit_rate", "hits / accesses", [&] {
        double total = hits.value() + misses.value();
        return total > 0 ? hits.value() / total : 0.0;
    });
    hits += 3;
    misses += 1;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("hit_rate"), std::string::npos);
    EXPECT_NE(os.str().find("0.75"), std::string::npos);
}

TEST(Stats, NestedGroupPaths)
{
    stats::StatGroup root("system");
    stats::StatGroup child("l1", &root);
    child.addScalar("hits", "") += 7;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("system.l1.hits"), std::string::npos);
}

TEST(StatsDeathTest, DuplicateNamePanics)
{
    stats::StatGroup root("root");
    root.addScalar("x", "");
    EXPECT_DEATH(root.addScalar("x", ""), "duplicate");
}

TEST(Json, ScalarsAndEscaping)
{
    using json::Value;
    EXPECT_EQ(Value{}.dump(0), "null");
    EXPECT_EQ(Value{true}.dump(0), "true");
    EXPECT_EQ(Value{std::uint64_t{42}}.dump(0), "42");
    EXPECT_EQ(Value{1.5}.dump(0), "1.5");
    EXPECT_EQ(Value{"plain"}.dump(0), "\"plain\"");
    EXPECT_EQ(Value{"q\"b\\s\nnl\tt"}.dump(0),
              "\"q\\\"b\\\\s\\nnl\\tt\"");
    EXPECT_EQ(Value{std::string(1, '\x01')}.dump(0), "\"\\u0001\"");
    // Large counters stay integral; non-finite values become null.
    EXPECT_EQ(Value{1e12}.dump(0), "1000000000000");
    EXPECT_EQ(Value{std::nan("")}.dump(0), "null");
}

TEST(Json, ObjectsAndArraysKeepInsertionOrder)
{
    auto doc = json::Value::object();
    doc["benchmark"] = "fig14";
    doc["jobs"] = 8u;
    auto &results = doc["results"];
    auto row = json::Value::object();
    row["label"] = "mcf/THS/mix";
    row["improvement"] = 12.25;
    results.push(std::move(row));
    results.push(json::Value::object());
    EXPECT_TRUE(doc.isObject());
    EXPECT_TRUE(doc["results"].isArray());
    EXPECT_EQ(doc["results"].size(), 2u);
    EXPECT_EQ(doc.dump(0),
              "{\"benchmark\":\"fig14\",\"jobs\":8,\"results\":"
              "[{\"label\":\"mcf/THS/mix\",\"improvement\":12.25},"
              "{}]}");
    // Pretty-printing only changes whitespace.
    std::string pretty = doc.dump(2);
    std::string stripped;
    bool in_string = false;
    for (std::size_t i = 0; i < pretty.size(); i++) {
        char c = pretty[i];
        if (c == '"' && (i == 0 || pretty[i - 1] != '\\'))
            in_string = !in_string;
        if (in_string || (c != ' ' && c != '\n'))
            stripped += c;
    }
    EXPECT_EQ(stripped, doc.dump(0));
}

TEST(Json, ParseRoundTripsItsOwnOutput)
{
    auto doc = json::Value::object();
    doc["benchmark"] = "fig14";
    doc["jobs"] = 8u;
    doc["rate"] = 0.1; // not exactly representable: needs %.17g
    doc["big"] = 1e12;
    doc["negative"] = -42;
    doc["flag"] = true;
    doc["nothing"] = json::Value{};
    doc["text"] = "q\"b\\s\nnl\tt";
    auto &results = doc["results"];
    auto row = json::Value::object();
    row["label"] = "mcf/THS/mix";
    row["improvement"] = 12.25;
    results.push(std::move(row));
    results.push(json::Value::object());

    for (int indent : {0, 2}) {
        auto parsed = json::Value::parse(doc.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << indent;
        // Insertion order, numbers, and escapes all survive, so the
        // re-dump is byte-identical (the checkpoint/resume contract).
        EXPECT_EQ(parsed->dump(0), doc.dump(0)) << indent;
    }

    auto parsed = json::Value::parse(doc.dump(0));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->find("rate")->number(), 0.1);
    EXPECT_TRUE(parsed->find("flag")->boolean());
    EXPECT_TRUE(parsed->find("nothing")->isNull());
    EXPECT_EQ(parsed->find("text")->str(), "q\"b\\s\nnl\tt");
    EXPECT_EQ(parsed->find("results")->size(), 2u);
    EXPECT_EQ(parsed->find("absent"), nullptr);
}

TEST(Json, ParseHandlesUnicodeEscapes)
{
    auto parsed = json::Value::parse("\"a\\u00e9\\u4e2d\"");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->str(), "a\xc3\xa9\xe4\xb8\xad");
    // A surrogate pair encodes one astral-plane code point.
    auto pair = json::Value::parse("\"\\ud83d\\ude00\"");
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(pair->str(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParseRejectsMalformedDocuments)
{
    using json::Value;
    EXPECT_FALSE(Value::parse("").has_value());
    EXPECT_FALSE(Value::parse("{").has_value());
    EXPECT_FALSE(Value::parse("{\"a\": 1,}").has_value());
    EXPECT_FALSE(Value::parse("[1, 2").has_value());
    EXPECT_FALSE(Value::parse("\"unterminated").has_value());
    EXPECT_FALSE(Value::parse("\"bad\\escape\"").has_value());
    EXPECT_FALSE(Value::parse("nul").has_value());
    EXPECT_FALSE(Value::parse("1 trailing").has_value());
    EXPECT_FALSE(Value::parse("{} {}").has_value());
    // A truncated checkpoint line is malformed, never misparsed.
    EXPECT_FALSE(Value::parse("{\"i\": 3, \"record\": {\"la")
                     .has_value());
}

TEST(Json, WriteFileIsAtomicAndCleansUp)
{
    const std::string path = "/tmp/mixtlb_test_json_atomic.json";
    auto doc = json::Value::object();
    doc["value"] = 1;
    ASSERT_TRUE(json::writeFile(path, doc));
    // The temp file was renamed into place, not left behind.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);

    // Overwrite: readers see the old or the new doc, never a torn one.
    doc["value"] = 2;
    ASSERT_TRUE(json::writeFile(path, doc));
    std::FILE *file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::string content(4096, '\0');
    content.resize(std::fread(content.data(), 1, content.size(), file));
    std::fclose(file);
    auto parsed = json::Value::parse(content);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("value")->number(), 2.0);
    std::remove(path.c_str());

    // Unwritable destination: failure is reported, no tmp litter.
    EXPECT_FALSE(json::writeFile("/nonexistent-dir/out.json", doc));
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    std::vector<int> counts(257, 0);
    {
        ThreadPool pool(8);
        for (std::size_t i = 0; i < counts.size(); i++)
            pool.submit([&counts, i] { counts[i]++; });
        pool.wait();
        for (int count : counts)
            EXPECT_EQ(count, 1);
        // The pool must be reusable after a wait().
        pool.submit([&counts] { counts[0]++; });
        pool.wait();
        EXPECT_EQ(counts[0], 2);
    }
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(4);
    for (int i = 0; i < 16; i++) {
        pool.submit([i] {
            if (i == 7)
                throw std::runtime_error("task 7 failed");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, FailedTaskDoesNotCancelOthers)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    for (int i = 0; i < 64; i++) {
        pool.submit([&completed, i] {
            if (i == 3)
                throw std::runtime_error("one bad task");
            completed++;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Every other task still ran to completion: the pool quarantines
    // the exception, it does not cancel the batch.
    EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, RemainsUsableAfterARethrow)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("first batch"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error slot was cleared: the next batch runs cleanly.
    std::atomic<int> completed{0};
    for (int i = 0; i < 8; i++)
        pool.submit([&completed] { completed++; });
    pool.wait();
    EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, UnretrievedExceptionIsSafeAtDestruction)
{
    // A caller that never calls wait() must still get a clean join,
    // not a std::terminate from an in-flight exception.
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never retrieved"); });
}

// ---------------------------------------------------------------------
// InlineVec: the fixed-capacity vector backing the walk hot path.

TEST(InlineVec, PushIndexIterateClear)
{
    InlineVec<int, 8> vec;
    EXPECT_TRUE(vec.empty());
    EXPECT_EQ(vec.capacity(), 8u);
    for (int i = 0; i < 5; i++)
        vec.push_back(i * 10);
    EXPECT_EQ(vec.size(), 5u);
    EXPECT_EQ(vec[0], 0);
    EXPECT_EQ(vec[4], 40);
    int sum = 0;
    for (int value : vec)
        sum += value;
    EXPECT_EQ(sum, 100);
    vec.clear();
    EXPECT_TRUE(vec.empty());
    EXPECT_EQ(vec.begin(), vec.end());
}

TEST(InlineVec, CopyTakesOnlyLiveElements)
{
    InlineVec<int, 4> vec;
    vec.push_back(7);
    vec.push_back(9);
    InlineVec<int, 4> copy(vec);
    EXPECT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy[0], 7);
    EXPECT_EQ(copy[1], 9);
    copy.push_back(11); // independent storage
    EXPECT_EQ(vec.size(), 2u);
    InlineVec<int, 4> assigned;
    assigned.push_back(1);
    assigned = vec;
    EXPECT_EQ(assigned.size(), 2u);
    EXPECT_EQ(assigned[1], 9);
}

TEST(InlineVec, AssignAndAppend)
{
    InlineVec<int, 8> vec;
    vec.assign(3, 42);
    ASSERT_EQ(vec.size(), 3u);
    EXPECT_EQ(vec[2], 42);
    const int more[] = {1, 2, 3};
    vec.append(more, more + 3);
    ASSERT_EQ(vec.size(), 6u);
    EXPECT_EQ(vec[3], 1);
    EXPECT_EQ(vec[5], 3);
    vec.assign(2, 5); // assign replaces, not appends
    ASSERT_EQ(vec.size(), 2u);
    EXPECT_EQ(vec[1], 5);
}

TEST(InlineVecDeathTest, OverflowTrapsOnTheArchitecturalBound)
{
    InlineVec<int, 2> vec;
    vec.push_back(1);
    vec.push_back(2);
    EXPECT_DEATH(vec.push_back(3), "InlineVec overflow");
    InlineVec<int, 2> assigned;
    EXPECT_DEATH(assigned.assign(3, 0), "InlineVec overflow");
    const int more[] = {1, 2, 3};
    InlineVec<int, 2> appended;
    EXPECT_DEATH(appended.append(more, more + 3), "InlineVec overflow");
}

// ---------------------------------------------------------------------
// stats::Counter: integer-precision hot counters beside Scalars.

TEST(Stats, CountersAccumulateExactlyAndPrint)
{
    stats::StatGroup root("root");
    auto &walks = root.addCounter("walks", "walk count");
    ++walks;
    walks += 41;
    EXPECT_EQ(walks.value(), 42u);
    EXPECT_DOUBLE_EQ(root.value("walks"), 42.0);
    std::ostringstream out;
    root.dump(out);
    EXPECT_NE(out.str().find("walks"), std::string::npos);
    root.resetStats();
    EXPECT_EQ(walks.value(), 0u);
}

TEST(Stats, ValueReadsCountersAndScalarsThroughOnePath)
{
    stats::StatGroup root("root");
    stats::StatGroup child("child", &root);
    child.addCounter("hits", "") += 7;
    child.addScalar("ratio", "") += 0.5;
    EXPECT_DOUBLE_EQ(root.value("child.hits"), 7.0);
    EXPECT_DOUBLE_EQ(root.value("child.ratio"), 0.5);
}

TEST(StatsDeathTest, CounterScalarNameCollisionPanics)
{
    stats::StatGroup root("root");
    root.addCounter("x", "");
    EXPECT_DEATH(root.addScalar("x", ""), "duplicate");
    stats::StatGroup other("other");
    other.addScalar("y", "");
    EXPECT_DEATH(other.addCounter("y", ""), "duplicate");
}

TEST(StatsDeathTest, UnknownValueNamePanics)
{
    stats::StatGroup root("root");
    EXPECT_DEATH(root.value("nope"), "unknown stat");
}
