/**
 * @file
 * The hypothetical ideal TLB of Figures 1 and 15: it hits on every
 * mapped translation with no capacity, conflict, or page-size
 * constraints. Unrealizable in hardware; used as the upper bound.
 */

#ifndef MIXTLB_TLB_IDEAL_HH
#define MIXTLB_TLB_IDEAL_HH

#include <utility>
#include <vector>

#include "pt/page_table.hh"
#include "tlb/base.hh"

namespace mixtlb::tlb
{

class IdealTlb : public BaseTlb
{
  public:
    IdealTlb(const std::string &name, stats::StatGroup *parent,
             const pt::PageTable &table)
        : BaseTlb(name, parent)
    {
        tables_.emplace_back(Asid{0}, &table);
    }

    /**
     * Make @p table the oracle for lookups performed under @p asid
     * (multiprogrammed machines register one table per process).
     */
    void
    registerTable(Asid asid, const pt::PageTable &table)
    {
        for (auto &[registered, ptr] : tables_) {
            if (registered == asid) {
                ptr = &table;
                return;
            }
        }
        tables_.emplace_back(asid, &table);
    }

    using BaseTlb::invalidate;

    // mixcheck: hot
    TlbLookup
    lookup(VAddr vaddr, bool is_store) override
    {
        (void)is_store;
        TlbLookup result;
        result.waysRead = 1;
        if (const pt::PageTable *table = tableFor(asid_)) {
            auto xlate = table->translate(vaddr);
            if (xlate) {
                result.hit = true;
                result.xlate = *xlate;
                // The PTE's own bit: a store to a clean page still
                // issues the dirty micro-op that sets it.
                result.entryDirty = xlate->dirty;
            }
        }
        recordLookup(result);
        return result;
    }

    void fill(const FillInfo &) override {}
    void invalidate(VAddr, PageSize, Asid) override { ++invalidations_; }
    void invalidateAll() override { ++invalidations_; }
    void invalidateAsid(Asid) override { ++invalidations_; }
    void markDirty(VAddr) override {}

    bool supports(PageSize) const override { return true; }
    std::uint64_t numEntries() const override { return 0; }
    unsigned numWays() const override { return 1; }

  private:
    const pt::PageTable *
    tableFor(Asid asid) const
    {
        for (const auto &[registered, table] : tables_) {
            if (registered == asid)
                return table;
        }
        return nullptr;
    }

    /** (asid, page table) pairs; single-process machines hold one. */
    std::vector<std::pair<Asid, const pt::PageTable *>> tables_;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_IDEAL_HH
