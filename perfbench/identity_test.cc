/**
 * @file
 * The benchmark's identity test: for every workload and design, at a
 * reduced reference count, the sliced untraced run, the traced stack
 * built from public parts, an unsliced run (one run() call per chunk)
 * and a repeat of the sliced run must all end with identical modeled
 * counters.
 */

#include <gtest/gtest.h>

#include "runner.hh"

using namespace perfbench;

namespace
{

class Identity : public ::testing::TestWithParam<std::string>
{};

constexpr std::uint64_t Seed = 5;

TEST_P(Identity, SlicedTracedUnslicedAgree)
{
    const WorkloadSpec &spec = *findWorkload(GetParam());
    Plan plan = makePlan(spec, 1.0);
    plan.chunks = 3;
    plan.chunkSlices = 2;

    RunOptions sliced;
    RunOptions traced;
    traced.traced = true;
    RunOptions unsliced;
    unsliced.sliced = false;

    const auto a = runWorkload(spec, Seed, plan, sliced);
    const auto b = runWorkload(spec, Seed, plan, traced);
    const auto c = runWorkload(spec, Seed, plan, unsliced);
    const auto again = runWorkload(spec, Seed, plan, sliced);
    for (std::size_t d = 0; d < designs().size(); d++) {
        SCOPED_TRACE(sim::designName(designs()[d]));
        for (const auto *run : {&a, &b, &c, &again}) {
            const PointResult &r = (*run)[d];
            ASSERT_TRUE(r.ok) << r.error;
            EXPECT_EQ(r.completed, r.attempted);
        }
        ASSERT_GT(sumCounter(a[d].counters, "tlb", "accesses"), 0.0);
        EXPECT_EQ(a[d].counters, b[d].counters) << "traced != sliced";
        EXPECT_EQ(a[d].counters, c[d].counters) << "unsliced != sliced";
        EXPECT_EQ(a[d].counters, again[d].counters) << "repeat differs";
        EXPECT_EQ(b[d].layers.refs, a[d].timedRefs);
    }
}

std::vector<std::string>
names()
{
    std::vector<std::string> all;
    for (const auto &spec : workloads())
        all.push_back(spec.name);
    return all;
}

INSTANTIATE_TEST_SUITE_P(Perfbench, Identity, ::testing::ValuesIn(names()),
                         [](const auto &info) {
                             std::string label = info.param;
                             for (char &c : label) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return label;
                         });

} // anonymous namespace
