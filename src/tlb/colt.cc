#include "colt.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::tlb
{

ColtTlb::ColtTlb(const std::string &name, stats::StatGroup *parent,
                 std::uint64_t entries, unsigned assoc, PageSize size,
                 unsigned group)
    : BaseTlb(name, parent), entries_(entries), assoc_(assoc),
      size_(size), group_(group), referenceScan_(referenceScanEnabled())
{
    fatal_if(assoc == 0 || entries == 0 || entries % assoc != 0,
             "COLT TLB geometry does not divide evenly");
    fatal_if(group == 0 || group > 32 || !isPowerOf2(group),
             "COLT group must be a power of two <= 32");
    numSets_ = entries / assoc;
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.reserve(assoc_ + 1);
}

// mixcheck: hot
TlbLookup
ColtTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.waysRead = assoc_;
    const std::uint64_t page = pageBytes(size_);
    VAddr wbase = windowBase(pageBase(vaddr, size_));
    auto slot = static_cast<unsigned>((pageBase(vaddr, size_) - wbase)
                                      / page);
    auto &set = sets_[setOf(vaddr)];
    const auto confirm = [&](const Entry &e) {
        return e.wbase == wbase && e.asid == asid_ &&
               ((e.bitmap >> (slot & 31)) & 1);
    };
    std::size_t i = referenceScan_
                        ? set.findIf(confirm)
                        : set.findTag(tagOf(wbase, asid_), confirm);
    if (i != TagLaneSet<Entry>::npos) {
        set.rotateToFront(i); // move to MRU
        const Entry &entry = set.payload(0);
        result.hit = true;
        result.xlate.size = size_;
        result.xlate.vbase = pageBase(vaddr, size_);
        result.xlate.pbase =
            entry.wpbase + (result.xlate.vbase - entry.wbase);
        result.xlate.perms = entry.perms;
        result.xlate.accessed = true;
        result.xlate.dirty = entry.dirty;
        result.entryDirty = entry.dirty;
        // Synthesize the contiguous run around the slot for lower fills.
        unsigned lo = slot, hi = slot;
        while (lo > 0 && ((entry.bitmap >> ((lo - 1) & 31)) & 1))
            lo--;
        while (hi + 1 < group_ && ((entry.bitmap >> ((hi + 1) & 31)) & 1))
            hi++;
        BundleInfo bundle;
        bundle.vbase = entry.wbase + static_cast<std::uint64_t>(lo) * page;
        bundle.pbase = entry.wpbase + static_cast<std::uint64_t>(lo) * page;
        bundle.size = size_;
        bundle.count = hi - lo + 1;
        bundle.perms = entry.perms;
        bundle.dirty = entry.dirty;
        result.bundle = bundle;
    }
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
ColtTlb::fill(const FillInfo &fill)
{
    panic_if(fill.leaf.size != size_,
             "filling a %s translation into a %s COLT TLB",
             pageSizeName(fill.leaf.size), pageSizeName(size_));
    const std::uint64_t page = pageBytes(size_);
    const pt::Translation &leaf = fill.leaf;

    Entry entry{};
    entry.wbase = windowBase(leaf.vbase);
    entry.asid = asid_;
    auto leaf_slot =
        static_cast<unsigned>((leaf.vbase - entry.wbase) / page);
    entry.wpbase = leaf.pbase
                   - static_cast<std::uint64_t>(leaf_slot) * page;
    entry.perms = leaf.perms;
    entry.bitmap = 1u << (leaf_slot & 31);
    bool all_dirty = leaf.dirty;

    if (fill.walk && !fill.walk->pageFault() &&
        fill.walk->lineGranularity == size_) {
        for (const auto &slot : fill.walk->line) {
            const pt::Translation &xlate = slot.xlate;
            if (!slot.present || !xlate.accessed ||
                xlate.perms != leaf.perms || xlate.vbase < entry.wbase) {
                continue;
            }
            const std::uint64_t s = (xlate.vbase - entry.wbase) / page;
            if (s >= group_ || xlate.pbase != entry.wpbase + s * page)
                continue;
            entry.bitmap |= 1u << (static_cast<unsigned>(s) & 31);
            all_dirty = all_dirty && xlate.dirty;
        }
    }
    if (fill.bundle) {
        const std::uint64_t slots =
            bundleSlots(*fill.bundle, size_, entry.wbase, entry.wpbase,
                        leaf.perms, group_);
        entry.bitmap |= static_cast<std::uint32_t>(slots);
        if (slots != 0 && !fill.bundle->dirty)
            all_dirty = false;
    }
    entry.dirty = all_dirty;

    auto &set = sets_[setOf(leaf.vbase)];
    const auto confirm = [&](const Entry &e) {
        return e.wbase == entry.wbase && e.wpbase == entry.wpbase &&
               e.asid == entry.asid && e.perms == entry.perms;
    };
    const std::uint64_t tag = tagOf(entry.wbase, entry.asid);
    std::size_t i = referenceScan_ ? set.findIf(confirm)
                                   : set.findTag(tag, confirm);
    if (i != TagLaneSet<Entry>::npos) {
        Entry &e = set.payload(i);
        e.bitmap |= entry.bitmap;
        e.dirty = e.dirty && entry.dirty;
        set.rotateToFront(i); // move to MRU
        ++coalesces_;
        return;
    }
    set.insertFront(tag, entry);
    if (set.size() > assoc_)
        set.popBack();
    ++fills_;
}

void
ColtTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    const std::uint64_t page = pageBytes(size_);
    if (size == size_) {
        VAddr wbase = windowBase(vbase);
        auto slot = static_cast<unsigned>((vbase - wbase) / page);
        auto &set = sets_[setOf(vbase)];
        set.eraseIf([&](Entry &e) {
            if (e.wbase != wbase || e.asid != asid)
                return false;
            e.bitmap &= ~(1u << (slot & 31));
            return e.bitmap == 0;
        });
        return;
    }
    // Cross-size shootdown (superpage demotion/re-promotion): drop
    // every coalesced slot whose page overlaps [vbase, vbase + bytes).
    // The window can straddle group windows — and therefore sets — so
    // a coalesced run partially inside the window is trimmed, not
    // dropped whole, and every set must be scanned.
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    for (auto &set : sets_) {
        set.eraseIf([&](Entry &e) {
            const std::uint64_t span =
                static_cast<std::uint64_t>(group_) * page;
            if (e.asid != asid || e.wbase >= hi || e.wbase + span <= lo)
                return false;
            for (unsigned slot = 0; slot < group_; slot++) {
                VAddr sbase =
                    e.wbase + static_cast<std::uint64_t>(slot) * page;
                if (sbase < hi && sbase + page > lo)
                    e.bitmap &= ~(1u << (slot & 31));
            }
            return e.bitmap == 0;
        });
    }
}

void
ColtTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &set : sets_)
        set.clear();
}

void
ColtTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &set : sets_)
        set.eraseIf([&](const Entry &e) { return e.asid == asid; });
}

void
ColtTlb::markDirty(VAddr vaddr)
{
    VAddr wbase = windowBase(pageBase(vaddr, size_));
    auto &set = sets_[setOf(vaddr)];
    for (std::size_t i = 0; i < set.size(); ++i) {
        Entry &entry = set.payload(i);
        if (entry.wbase != wbase || entry.asid != asid_)
            continue;
        if (std::popcount(entry.bitmap) == 1)
            entry.dirty = true;
    }
}

} // namespace mixtlb::tlb
