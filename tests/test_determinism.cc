/**
 * @file
 * Regression tests for audit-report determinism: the structural
 * auditors' reports must be byte-identical no matter what order the
 * audited state was built in. PageTable::audit collects reachable
 * frames in a hash set (libstdc++ iterates its hash tables in reverse
 * insertion order) and reports them sorted; Process::audit walks its
 * region records in address order. Building the same logical state
 * through two different operation orders checks both.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/contracts.hh"
#include "mem/phys_mem.hh"
#include "os/memory_manager.hh"
#include "os/process.hh"
#include "pt/page_table.hh"
#include "pt/pte.hh"

using namespace mixtlb;
using namespace mixtlb::os;

namespace
{

constexpr std::uint64_t MiB = 1024 * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

std::string
reportText(const contracts::AuditReport &report)
{
    std::string out;
    for (const auto &violation : report.violations()) {
        out += violation;
        out += '\n';
    }
    return out;
}

/**
 * Audit a table whose root points at two foreign (never-allocated-by-
 * this-table) page-table frames. @p swap_slots controls which foreign
 * root lands in which radix slot, flipping the DFS insertion order of
 * the two frames into the audit's `reachable` hash set without
 * changing its final contents.
 */
std::string
foreignFrameReport(bool swap_slots, std::size_t &num_violations)
{
    mem::PhysMem pm(64 * MiB);
    pt::PageTable table(pm);
    table.map(0x1000, 0x1000, PageSize::Size4K);
    table.map(0x200000, 0x200000, PageSize::Size2M);

    // Foreign tables on the same PhysMem: their root frames carry the
    // PageTable tag, so only the ownership invariant trips.
    pt::PageTable foreign_a(pm);
    pt::PageTable foreign_b(pm);
    const PAddr first = swap_slots ? foreign_b.root() : foreign_a.root();
    const PAddr second = swap_slots ? foreign_a.root() : foreign_b.root();
    pm.write64(table.root() + 8 * 400, pt::pte::make(first, {}, false));
    pm.write64(table.root() + 8 * 401, pt::pte::make(second, {}, false));

    contracts::AuditReport report;
    table.audit(report);
    num_violations = report.numViolations();
    return reportText(report);
}

/**
 * Build a Process whose fallback 4KB counts disagree with the tree
 * for several 2MB regions, touching the regions in ascending or
 * descending order. The corruption (an extra 4KB leaf mapped behind
 * the process's back) is identical either way; only the order in which
 * the regions were recorded differs.
 */
std::string
processAuditReport(bool descending, std::size_t &num_violations)
{
    mem::PhysMem pm(1 * GiB);
    stats::StatGroup root("test");
    MemoryManager mm(pm, &root);
    ProcessParams params;
    params.policy = PagePolicy::Thp;
    Process proc(mm, params, &root);

    // Four 1MB VMAs: half a 2MB region each, so every THS touch falls
    // back to 4KB pages and counts them in its region's record.
    std::vector<VAddr> bases;
    for (int i = 0; i < 4; i++)
        bases.push_back(proc.mmap(1 * MiB));
    if (descending)
        std::reverse(bases.begin(), bases.end());
    for (VAddr base : bases) {
        EXPECT_EQ(proc.touch(base), TouchResult::Faulted);
        EXPECT_EQ(proc.touch(base + PageBytes4K), TouchResult::Faulted);
    }
    for (VAddr base : bases)
        proc.pageTable().map(base + 2 * PageBytes4K, 0,
                             PageSize::Size4K);

    contracts::AuditReport report;
    proc.audit(report);
    num_violations = report.numViolations();
    return reportText(report);
}

TEST(AuditDeterminism, PageTableReportIsSlotOrderInvariant)
{
    std::size_t violations_a = 0;
    std::size_t violations_b = 0;
    const std::string a = foreignFrameReport(false, violations_a);
    const std::string b = foreignFrameReport(true, violations_b);
    // Both foreign frames must be flagged, in the same (sorted) order.
    EXPECT_EQ(violations_a, 2u) << a;
    EXPECT_EQ(violations_b, 2u) << b;
    EXPECT_EQ(a, b);
}

TEST(AuditDeterminism, ProcessReportIsTouchOrderInvariant)
{
    std::size_t violations_a = 0;
    std::size_t violations_b = 0;
    const std::string a = processAuditReport(false, violations_a);
    const std::string b = processAuditReport(true, violations_b);
    // Four per-region count mismatches plus the 4KB residency-byte
    // mismatch, at minimum; the exact set must not depend on order.
    EXPECT_GE(violations_a, 5u) << a;
    EXPECT_EQ(violations_a, violations_b);
    EXPECT_EQ(a, b);
}

} // namespace
