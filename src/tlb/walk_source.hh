/**
 * @file
 * The native (non-virtualized) WalkSource: a hardware walker shared by
 * one or more processes, each with its own page table and fault
 * handler (the OS's Process::touch in practice). A single-process
 * machine (native or GPU) holds one; a multiprogrammed machine holds
 * several and context-switches between them.
 */

#ifndef MIXTLB_TLB_WALK_SOURCE_HH
#define MIXTLB_TLB_WALK_SOURCE_HH

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "pt/page_table.hh"
#include "pt/walker.hh"
#include "tlb/hierarchy.hh"

namespace mixtlb::tlb
{

/**
 * A WalkSource multiplexing one hardware walker (and its ASID-tagged
 * PWC) across several processes — the MMU of a multiprogrammed
 * machine. switchTo() is the CR3 write of a context switch: it
 * retargets the walker and sets the PWC's active ASID without flushing
 * anything; callers modelling an untagged baseline flush explicitly via
 * flushTranslationCaches().
 */
class MultiWalkSource : public WalkSource
{
  public:
    /** Fault handler returns false when the fault cannot be serviced. */
    using FaultHandler = std::function<bool(VAddr, bool)>;

    MultiWalkSource(stats::StatGroup *parent, unsigned scan_lines = 1,
                    pt::PwcParams pwc = {})
        : parent_(parent), scanLines_(scan_lines), pwcParams_(pwc)
    {}

    /** Register a process; returns its index for switchTo(). */
    unsigned
    addProcess(pt::PageTable &table, FaultHandler fault_handler)
    {
        procs_.push_back({&table, std::move(fault_handler)});
        if (!walker_)
            walker_.emplace(table, parent_, scanLines_, pwcParams_);
        return static_cast<unsigned>(procs_.size() - 1);
    }

    /** Context-switch the walker to process @p idx under @p asid. */
    void
    switchTo(unsigned idx, Asid asid)
    {
        panic_if(idx >= procs_.size(), "switch to unknown process %u",
                 idx);
        current_ = idx;
        walker_->retarget(*procs_[idx].table);
        walker_->pwc().setAsid(asid);
    }

    /** Flush the PWC (the untagged full-flush switch policy). */
    void flushTranslationCaches() { walker_->pwc().invalidateAll(); }

    pt::WalkResult
    walk(VAddr vaddr, bool is_store) override
    {
        return walker_->walk(vaddr, is_store);
    }

    bool
    fault(VAddr vaddr, bool is_store) override
    {
        const auto &handler = procs_[current_].faultHandler;
        return handler && handler(vaddr, is_store);
    }

    std::optional<PAddr>
    leafPteAddr(VAddr vaddr) override
    {
        return procs_[current_].table->leafPteAddr(vaddr);
    }

    void
    setDirty(VAddr vaddr) override
    {
        procs_[current_].table->setDirty(vaddr);
    }

    void
    invalidate(VAddr vbase, PageSize size) override
    {
        // Conservative across ASIDs: PWC entries carry no per-page
        // reach, so a shootdown drops every overlapping prefix.
        walker_->pwc().invalidate(vbase, size);
    }

    void
    invalidateAsid(Asid asid) override
    {
        walker_->pwc().invalidateAsid(asid);
    }

    bool hasRefTranslate() const override { return true; }

    std::optional<pt::Translation>
    refLeaf(VAddr vaddr) override
    {
        return procs_[current_].table->translate(vaddr);
    }

  private:
    struct Proc
    {
        pt::PageTable *table;
        FaultHandler faultHandler;
    };

    stats::StatGroup *parent_;
    unsigned scanLines_;
    pt::PwcParams pwcParams_;
    std::vector<Proc> procs_;
    /** Built by the first addProcess(); held inline, so a walk chases
     * no pointer to reach it. */
    std::optional<pt::Walker> walker_;
    unsigned current_ = 0;
};

/** The walk source of a single-process (native or GPU) machine. */
class NativeWalkSource : public MultiWalkSource
{
  public:
    NativeWalkSource(pt::PageTable &table, stats::StatGroup *parent,
                     FaultHandler fault_handler, unsigned scan_lines = 1,
                     pt::PwcParams pwc = {})
        : MultiWalkSource(parent, scan_lines, pwc)
    {
        addProcess(table, std::move(fault_handler));
    }
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_WALK_SOURCE_HH
