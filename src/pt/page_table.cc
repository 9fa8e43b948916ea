#include "page_table.hh"

#include <algorithm>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::pt
{

PageTable::PageTable(mem::PhysMem &mem) : mem_(mem)
{
    root_ = allocTable();
}

PageTable::~PageTable()
{
    for (Pfn pfn : tableFrames_)
        mem_.freeFrames(pfn, 0);
}

PAddr
PageTable::allocTable()
{
    auto pfn = mem_.allocFrames(0, mem::FrameUse::PageTable);
    fatal_if(!pfn, "out of physical memory allocating a page table");
    tableFrames_.push_back(*pfn);
    return *pfn << PageShift4K;
}

namespace
{

/** Physical address of entry @p index in the table at @p table. */
PAddr
entryAddr(PAddr table, unsigned index)
{
    return table + 8ULL * index;
}

} // anonymous namespace

std::optional<PAddr>
PageTable::walkToLevel(VAddr vaddr, unsigned target_level, bool create,
                       unsigned *leaf_level_out) const
{
    PAddr table = root_;
    for (unsigned level = NumLevels - 1; level > target_level; level--) {
        PAddr pte_addr = entryAddr(table, levelIndex(vaddr, level));
        std::uint64_t raw = mem_.read64(pte_addr);
        if (pte::present(raw) && pte::pageSizeBit(raw)) {
            // Hit a superpage leaf above the target level.
            if (leaf_level_out)
                *leaf_level_out = level;
            return pte_addr;
        }
        if (!pte::present(raw)) {
            if (!create)
                return std::nullopt;
            // Creating intermediate levels mutates the backing store but
            // not this object's logical constness guarantees; only the
            // non-const map() path passes create = true.
            PAddr next = const_cast<PageTable *>(this)->allocTable();
            mem_.write64(pte_addr, pte::make(next, Perms{}, false));
            table = next;
        } else {
            table = pte::frame(raw);
        }
    }
    if (leaf_level_out)
        *leaf_level_out = target_level;
    return entryAddr(table, levelIndex(vaddr, target_level));
}

void
PageTable::map(VAddr vaddr, PAddr paddr, PageSize size, Perms perms)
{
    const std::uint64_t bytes = pageBytes(size);
    panic_if(vaddr & (bytes - 1), "map: vaddr misaligned for %s page",
             pageSizeName(size));
    panic_if(paddr & (bytes - 1), "map: paddr misaligned for %s page",
             pageSizeName(size));

    unsigned level = leafLevel(size);
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, level, true, &found_level);
    panic_if(!pte_addr, "walkToLevel(create) failed");
    panic_if(found_level != level,
             "map: conflicting superpage leaf at level %u", found_level);
    std::uint64_t old = mem_.read64(*pte_addr);
    panic_if(pte::present(old), "map: vaddr 0x%llx already mapped",
             (unsigned long long)vaddr);
    mem_.write64(*pte_addr, pte::make(paddr, perms, level > 0));
    numMappings_++;
}

bool
PageTable::unmap(VAddr vaddr)
{
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, 0, false, &found_level);
    if (!pte_addr)
        return false;
    std::uint64_t raw = mem_.read64(*pte_addr);
    if (!pte::present(raw))
        return false;
    mem_.write64(*pte_addr, 0);
    numMappings_--;
    return true;
}

void
PageTable::remap(VAddr vaddr, PAddr new_paddr)
{
    auto pte_addr = leafPteAddr(vaddr);
    panic_if(!pte_addr, "remap of unmapped vaddr 0x%llx",
             (unsigned long long)vaddr);
    std::uint64_t raw = mem_.read64(*pte_addr);
    mem_.write64(*pte_addr,
                 (raw & ~pte::FrameMask) | (new_paddr & pte::FrameMask));
}

void
PageTable::clearLevelEntry(VAddr vaddr, unsigned level)
{
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, level, false, &found_level);
    panic_if(!pte_addr || found_level != level,
             "clearLevelEntry: no entry at level %u", level);
    std::uint64_t raw = mem_.read64(*pte_addr);
    if (pte::present(raw) && !pte::pageSizeBit(raw) && level > 0)
        retireSubtree(pte::frame(raw), level - 1);
    mem_.write64(*pte_addr, 0);
}

bool
PageTable::splitLeaf(VAddr vaddr)
{
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, 0, false, &found_level);
    if (!pte_addr || found_level == 0)
        return false;
    std::uint64_t raw = mem_.read64(*pte_addr);
    if (!pte::present(raw) || !pte::pageSizeBit(raw))
        return false;

    // Demotion runs when allocation is already failing, so the child
    // table frame must be allocated non-fatally (allocTable aborts).
    auto pfn = mem_.allocFrames(0, mem::FrameUse::PageTable);
    if (!pfn)
        return false;
    tableFrames_.push_back(*pfn);
    const PAddr child = static_cast<PAddr>(*pfn) << PageShift4K;

    const unsigned child_level = found_level - 1;
    const std::uint64_t child_bytes = 1ULL << levelShift(child_level);
    const PAddr pbase = pte::frame(raw);
    const Perms perms = pte::perms(raw);
    std::uint64_t ad_bits = 0;
    if (pte::accessed(raw))
        ad_bits |= pte::A;
    if (pte::dirty(raw))
        ad_bits |= pte::A | pte::D;
    for (unsigned idx = 0; idx < 512; idx++) {
        std::uint64_t child_raw =
            pte::make(pbase + idx * child_bytes, perms, child_level > 0)
            | ad_bits;
        mem_.write64(entryAddr(child, idx), child_raw);
    }
    mem_.write64(*pte_addr, pte::make(child, Perms{}, false));
    numMappings_ += 511;
    return true;
}

std::size_t
PageTable::reclaimRetiredFrames()
{
    if (retiredFrames_.empty())
        return 0;
    // Sorted release so the buddy free lists end up byte-identical no
    // matter what order the hash set iterates in.
    std::vector<Pfn> retired(retiredFrames_.begin(),
                             retiredFrames_.end());
    std::sort(retired.begin(), retired.end());
    for (Pfn pfn : retired)
        mem_.freeFrames(pfn, 0);
    std::erase_if(tableFrames_, [this](Pfn pfn) {
        return retiredFrames_.count(pfn) > 0;
    });
    const std::size_t released = retiredFrames_.size();
    retiredFrames_.clear();
    return released;
}

void
PageTable::retireSubtree(PAddr table, unsigned level)
{
    retiredFrames_.insert(table >> PageShift4K);
    if (level == 0)
        return;
    for (unsigned idx = 0; idx < 512; idx++) {
        std::uint64_t raw = mem_.read64(entryAddr(table, idx));
        if (pte::present(raw) && !pte::pageSizeBit(raw))
            retireSubtree(pte::frame(raw), level - 1);
    }
}

std::optional<Translation>
PageTable::translate(VAddr vaddr) const
{
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, 0, false, &found_level);
    if (!pte_addr)
        return std::nullopt;
    std::uint64_t raw = mem_.read64(*pte_addr);
    if (!pte::present(raw))
        return std::nullopt;

    const PageSize size = levelPageSize(found_level);
    return pte::decodeLeaf(raw, pageBase(vaddr, size), size);
}

std::optional<PAddr>
PageTable::leafPteAddr(VAddr vaddr) const
{
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, 0, false, &found_level);
    if (!pte_addr)
        return std::nullopt;
    if (!pte::present(mem_.read64(*pte_addr)))
        return std::nullopt;
    return pte_addr;
}

std::optional<PAddr>
PageTable::leafTable(VAddr vaddr) const
{
    unsigned found_level = 0;
    auto pte_addr = walkToLevel(vaddr, 1, false, &found_level);
    if (!pte_addr || found_level != 1)
        return std::nullopt;
    const std::uint64_t raw = mem_.read64(*pte_addr);
    if (!pte::present(raw) || pte::pageSizeBit(raw))
        return std::nullopt;
    return pte::frame(raw);
}

void
PageTable::setAccessed(VAddr vaddr)
{
    auto pte_addr = leafPteAddr(vaddr);
    panic_if(!pte_addr, "setAccessed on unmapped vaddr");
    mem_.write64(*pte_addr, mem_.read64(*pte_addr) | pte::A);
}

void
PageTable::setDirty(VAddr vaddr)
{
    auto pte_addr = leafPteAddr(vaddr);
    panic_if(!pte_addr, "setDirty on unmapped vaddr");
    mem_.write64(*pte_addr, mem_.read64(*pte_addr) | pte::A | pte::D);
}

void
PageTable::forEachLeaf(
    const std::function<void(const Translation &)> &fn) const
{
    forEachLeafRec(root_, NumLevels - 1, 0, fn);
}

void
PageTable::forEachLeafRec(
    PAddr table, unsigned level, VAddr vbase,
    const std::function<void(const Translation &)> &fn) const
{
    for (unsigned idx = 0; idx < 512; idx++) {
        std::uint64_t raw = mem_.read64(entryAddr(table, idx));
        if (!pte::present(raw))
            continue;
        VAddr entry_vbase = vbase + (static_cast<VAddr>(idx)
                                     << levelShift(level));
        if (level == 0 || pte::pageSizeBit(raw)) {
            fn(pte::decodeLeaf(raw, entry_vbase, levelPageSize(level)));
        } else {
            forEachLeafRec(pte::frame(raw), level - 1, entry_vbase, fn);
        }
    }
}

void
PageTable::auditTable(PAddr table, unsigned level,
                      std::unordered_set<Pfn> &reachable,
                      std::uint64_t &leaves,
                      contracts::AuditReport &report) const
{
    const Pfn pfn = table >> PageShift4K;
    if (!reachable.insert(pfn).second) {
        MIX_AUDIT_CHECK(report, false,
                        "table frame 0x%llx reachable twice from the "
                        "root (aliased subtree)",
                        (unsigned long long)pfn);
        return; // don't recurse into the alias and double-count leaves
    }
    MIX_AUDIT_CHECK(report,
                    mem_.frameUse(pfn) == mem::FrameUse::PageTable,
                    "reachable table frame 0x%llx is not tagged "
                    "PageTable",
                    (unsigned long long)pfn);

    for (unsigned idx = 0; idx < 512; idx++) {
        std::uint64_t raw = mem_.read64(entryAddr(table, idx));
        if (!pte::present(raw))
            continue;
        if (level == 0 || pte::pageSizeBit(raw)) {
            MIX_AUDIT_CHECK(report, level <= 2,
                            "superpage leaf at radix level %u", level);
            const PageSize size = levelPageSize(level);
            MIX_AUDIT_CHECK(report,
                            (pte::frame(raw) & (pageBytes(size) - 1))
                                == 0,
                            "leaf PTE points at 0x%llx, misaligned "
                            "for a %s page",
                            (unsigned long long)pte::frame(raw),
                            pageSizeName(size));
            leaves++;
        } else {
            auditTable(pte::frame(raw), level - 1, reachable, leaves,
                       report);
        }
    }
}

void
PageTable::audit(contracts::AuditReport &report) const
{
    std::unordered_set<Pfn> reachable;
    std::uint64_t leaves = 0;
    auditTable(root_, NumLevels - 1, reachable, leaves, report);

    MIX_AUDIT_CHECK(report, leaves == numMappings_,
                    "tree holds %llu leaf PTEs but numMappings() "
                    "says %llu",
                    (unsigned long long)leaves,
                    (unsigned long long)numMappings_);

    // Every frame we ever allocated must be reachable from the root or
    // on the retired list (orphaned by a superpage promotion), and
    // nothing reachable may be a frame we never allocated.
    std::unordered_set<Pfn> owned(tableFrames_.begin(),
                                  tableFrames_.end());
    std::uint64_t orphans = 0;
    for (Pfn pfn : tableFrames_) {
        if (reachable.count(pfn) > 0 || retiredFrames_.count(pfn) > 0)
            continue;
        if (orphans++ < 8) {
            MIX_AUDIT_CHECK(report, false,
                            "allocated table frame 0x%llx is neither "
                            "reachable from the root nor retired",
                            (unsigned long long)pfn);
        }
    }
    MIX_AUDIT_CHECK(report, orphans <= 8,
                    "%llu further orphaned table frames",
                    (unsigned long long)(orphans - 8));
    // Sort the reachable set so the report text is byte-identical no
    // matter what order the hash table happens to iterate in.
    std::vector<Pfn> reached(reachable.begin(), reachable.end());
    std::sort(reached.begin(), reached.end());
    for (Pfn pfn : reached) {
        MIX_AUDIT_CHECK(report, owned.count(pfn) > 0,
                        "reachable table frame 0x%llx was never "
                        "allocated by this page table",
                        (unsigned long long)pfn);
    }
}

} // namespace mixtlb::pt
