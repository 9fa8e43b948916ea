#include "walker.hh"

#include "common/contracts.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::pt
{

Walker::Walker(const PageTable &table, stats::StatGroup *parent,
               unsigned scan_lines, PwcParams pwc)
    : table_(&table), scanLines_(scan_lines), stats_("walker", parent),
      pwc_(pwc, &stats_),
      walks_(stats_.addCounter("walks", "page table walks performed")),
      pageFaults_(stats_.addCounter("page_faults",
                                    "walks that found no mapping")),
      memAccesses_(stats_.addCounter("mem_accesses",
                                     "memory accesses issued by walks")),
      dirtyUpdates_(stats_.addCounter("dirty_updates",
                                      "dirty-bit update micro-ops"))
{
    MIX_EXPECT(scan_lines >= 1 && scan_lines <= MaxLineSlots
                                                    / PtesPerCacheLine,
               "walker scan_lines %u outside [1, %zu]", scan_lines,
               MaxLineSlots / PtesPerCacheLine);
}

// mixcheck: hot
std::optional<Walker::LeafPte>
Walker::walkPtes(VAddr vaddr, bool is_store,
                 InlineVec<PAddr, MaxWalkAccesses> &accesses)
{
    ++walks_;
    auto &mem = table_->mem();

    PAddr table = table_->root();
    unsigned start_level = NumLevels - 1;
    if (auto shortcut = pwc_.probe(vaddr)) {
        start_level = shortcut->first;
        table = shortcut->second;
    }
    for (unsigned level = start_level + 1; level-- > 0;) {
        PAddr pte_addr = table + 8ULL * levelIndex(vaddr, level);
        accesses.push_back(alignDown(pte_addr, CacheLineBytes));
        ++memAccesses_;
        std::uint64_t raw = mem.read64(pte_addr);
        if (!pte::present(raw)) {
            ++pageFaults_;
            return std::nullopt;
        }
        if (level == 0 || pte::pageSizeBit(raw)) {
            // Leaf: apply the A/D protocol.
            std::uint64_t updated = raw | pte::A;
            if (is_store) {
                updated |= pte::D;
                if (!pte::dirty(raw))
                    ++dirtyUpdates_;
            }
            if (updated != raw)
                mem.write64(pte_addr, updated);
            return LeafPte{pte_addr, level, updated};
        }
        table = pte::frame(raw);
        // Remember this intermediate table for future walks.
        pwc_.insert(level - 1, vaddr, table);
    }
    panic("walk fell off the radix tree");
}

// mixcheck: hot
WalkResult
Walker::walk(VAddr vaddr, bool is_store)
{
    WalkResult result;
    if (auto leaf = walkPtes(vaddr, is_store, result.accesses))
        fillLine(vaddr, leaf->addr, leaf->level, result);
    return result;
}

// mixcheck: hot
std::optional<Translation>
Walker::walkLeaf(VAddr vaddr, bool is_store,
                 InlineVec<PAddr, MaxWalkAccesses> &accesses)
{
    auto leaf = walkPtes(vaddr, is_store, accesses);
    if (!leaf)
        return std::nullopt;
    // The scan lines fillLine would charge, without reading them.
    memAccesses_ += scanLines(leaf->level) - 1;
    const PageSize size = levelPageSize(leaf->level);
    return pte::decodeLeaf(leaf->raw, pageBase(vaddr, size), size);
}

void
Walker::fillLine(VAddr vaddr, PAddr pte_addr, unsigned level,
                 WalkResult &result)
{
    auto &mem = table_->mem();
    const unsigned lines = scanLines(level);
    const unsigned slots = lines * PtesPerCacheLine;
    const PAddr scan_base =
        alignDown(pte_addr, lines * CacheLineBytes);
    const auto slot =
        static_cast<unsigned>((pte_addr - scan_base) / 8);
    result.leafSlot = slot;
    result.lineGranularity = levelPageSize(level);
    result.line.assign(slots, LinePte{});

    // The extra cache lines are read by the (off-critical-path)
    // coalescing logic; the leaf's own line was already charged by the
    // walk itself.
    const PAddr leaf_line = alignDown(pte_addr, CacheLineBytes);
    for (unsigned l = 0; l < lines; l++) {
        PAddr line_addr = scan_base + static_cast<PAddr>(l)
                                          * CacheLineBytes;
        if (line_addr != leaf_line) {
            result.fillAccesses.push_back(line_addr);
            ++memAccesses_;
        }
    }

    // Virtual base covered by slot 0 of the scan group: the entries
    // span an aligned group of `slots` pages at this level's
    // granularity.
    const std::uint64_t entry_span = 1ULL << levelShift(level);
    const VAddr group_base = alignDown(vaddr, entry_span * slots);

    for (unsigned i = 0; i < slots; i++) {
        std::uint64_t raw = mem.read64(scan_base + 8ULL * i);
        // An entry only describes a leaf at this granularity if it is
        // present and is a page (not a pointer to a lower-level table).
        bool is_leaf = pte::present(raw)
                       && (level == 0 || pte::pageSizeBit(raw));
        if (!is_leaf)
            continue;
        result.line[i] = {true,
                          pte::decodeLeaf(raw, group_base + i * entry_span,
                                          result.lineGranularity)};
    }

    result.leaf = result.line[slot].xlate;
}

} // namespace mixtlb::pt
