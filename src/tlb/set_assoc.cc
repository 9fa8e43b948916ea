#include "set_assoc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mixtlb::tlb
{

SetAssocTlb::SetAssocTlb(const std::string &name, stats::StatGroup *parent,
                         std::uint64_t entries, unsigned assoc,
                         PageSize size)
    : BaseTlb(name, parent), entries_(entries), assoc_(assoc), size_(size),
      referenceScan_(referenceScanEnabled())
{
    fatal_if(assoc == 0 || entries == 0 || entries % assoc != 0,
             "TLB geometry does not divide evenly");
    numSets_ = entries / assoc;
    setMask_ = (numSets_ & (numSets_ - 1)) == 0 ? numSets_ - 1 : 0;
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.reserve(assoc_ + 1);
}

std::size_t
SetAssocTlb::find(TagLaneSet<Entry> &set, std::uint64_t vpn) const
{
    const auto confirm = [&](const Entry &e) {
        return e.vpn == vpn && e.asid == asid_;
    };
    if (referenceScan_)
        return set.findIf(confirm);
    return set.findTag(tagOf(vpn, asid_), confirm);
}

// mixcheck: hot
TlbLookup
SetAssocTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.waysRead = assoc_;
    std::uint64_t vpn = vpnOf(vaddr, size_);
    auto &set = sets_[setOf(vpn)];
    std::size_t i = find(set, vpn);
    if (i != TagLaneSet<Entry>::npos) {
        const Entry &e = set.payload(i);
        result.hit = true;
        result.xlate = e.xlate;
        result.entryDirty = e.dirty;
        set.rotateToFront(i); // move to MRU
    }
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
SetAssocTlb::fill(const FillInfo &fill)
{
    panic_if(fill.leaf.size != size_,
             "filling a %s translation into a %s-only TLB",
             pageSizeName(fill.leaf.size), pageSizeName(size_));
    std::uint64_t vpn = fill.leaf.vpn();
    auto &set = sets_[setOf(vpn)];
    std::size_t i = find(set, vpn);
    if (i != TagLaneSet<Entry>::npos) {
        Entry &e = set.payload(i);
        e.xlate = fill.leaf;
        e.dirty = fill.leaf.dirty;
        set.rotateToFront(i);
        return;
    }
    set.insertFront(tagOf(vpn, asid_),
                    Entry{vpn, asid_, fill.leaf, fill.leaf.dirty});
    if (set.size() > assoc_)
        set.popBack();
    ++fills_;
}

void
SetAssocTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    if (size == size_) {
        std::uint64_t vpn = vpnOf(vbase, size_);
        auto &set = sets_[setOf(vpn)];
        set.eraseIf([&](const Entry &e) {
            return e.vpn == vpn && e.asid == asid;
        });
        return;
    }
    // Cross-size shootdown (superpage demotion/re-promotion): drop any
    // entry whose page overlaps [vbase, vbase + bytes). A superpage
    // window covers many of this size's VPNs — and therefore many
    // sets — so scan them all; this is never on the hot lookup path.
    const std::uint64_t page = pageBytes(size_);
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    for (auto &set : sets_) {
        set.eraseIf([&](const Entry &e) {
            const VAddr ebase = e.vpn * page;
            return e.asid == asid && ebase < hi && ebase + page > lo;
        });
    }
}

void
SetAssocTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &set : sets_)
        set.clear();
}

void
SetAssocTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &set : sets_)
        set.eraseIf([&](const Entry &e) { return e.asid == asid; });
}

void
SetAssocTlb::markDirty(VAddr vaddr)
{
    std::uint64_t vpn = vpnOf(vaddr, size_);
    auto &set = sets_[setOf(vpn)];
    for (std::size_t i = 0; i < set.size(); ++i) {
        Entry &entry = set.payload(i);
        if (entry.vpn == vpn && entry.asid == asid_)
            entry.dirty = true;
    }
}

FullyAssocTlb::FullyAssocTlb(const std::string &name,
                             stats::StatGroup *parent,
                             std::uint64_t entries,
                             std::initializer_list<PageSize> sizes)
    : BaseTlb(name, parent), entries_(entries),
      referenceScan_(referenceScanEnabled())
{
    fatal_if(entries == 0, "empty fully-associative TLB");
    lru_.reserve(entries_ + 1);
    for (PageSize size : sizes)
        sizeMask_[static_cast<unsigned>(size)] = true;
}

bool
FullyAssocTlb::supports(PageSize size) const
{
    return sizeMask_[static_cast<unsigned>(size)];
}

// mixcheck: hot
TlbLookup
FullyAssocTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    result.waysRead = static_cast<unsigned>(entries_);
    const auto confirm = [&](const Entry &e) {
        return e.xlate.covers(vaddr) && e.asid == asid_;
    };
    std::size_t i;
    if (referenceScan_) {
        i = lru_.findIf(confirm);
    } else {
        // One candidate tag per supported page size: a covering entry
        // of size s is based at pageBase(vaddr, s), so its tag must
        // equal that size's candidate.
        std::uint64_t cands[NumPageSizes] = {};
        unsigned ncands = 0;
        for (unsigned s = 0; s < NumPageSizes; ++s) {
            if (sizeMask_[s]) {
                const auto size = static_cast<PageSize>(s);
                cands[ncands++] =
                    tagOf(pageBase(vaddr, size), size, asid_);
            }
        }
        i = lru_.findTagAny(cands, ncands, confirm);
    }
    if (i != TagLaneSet<Entry>::npos) {
        const Entry &e = lru_.payload(i);
        result.hit = true;
        result.xlate = e.xlate;
        result.entryDirty = e.dirty;
        lru_.rotateToFront(i); // move to MRU
    }
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
FullyAssocTlb::fill(const FillInfo &fill)
{
    panic_if(!supports(fill.leaf.size),
             "filling unsupported page size %s",
             pageSizeName(fill.leaf.size));
    const auto confirm = [&](const Entry &e) {
        return e.xlate.vbase == fill.leaf.vbase &&
               e.xlate.size == fill.leaf.size && e.asid == asid_;
    };
    const std::uint64_t tag =
        tagOf(fill.leaf.vbase, fill.leaf.size, asid_);
    std::size_t i = referenceScan_ ? lru_.findIf(confirm)
                                   : lru_.findTag(tag, confirm);
    if (i != TagLaneSet<Entry>::npos) {
        Entry &e = lru_.payload(i);
        e.xlate = fill.leaf;
        e.dirty = fill.leaf.dirty;
        lru_.rotateToFront(i);
        return;
    }
    lru_.insertFront(tag, Entry{asid_, fill.leaf, fill.leaf.dirty});
    if (lru_.size() > entries_)
        lru_.popBack();
    ++fills_;
}

void
FullyAssocTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    // Range semantics: any entry overlapping [vbase, vbase + bytes)
    // is stale, whatever its own page size (a demoted superpage's
    // entry must die on a 4K shootdown inside it, and vice versa).
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    lru_.eraseIf([&](const Entry &e) {
        const VAddr ebase = e.xlate.vbase;
        return e.asid == asid && ebase < hi &&
               ebase + pageBytes(e.xlate.size) > lo;
    });
}

void
FullyAssocTlb::invalidateAll()
{
    ++invalidations_;
    lru_.clear();
}

void
FullyAssocTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    lru_.eraseIf([&](const Entry &e) { return e.asid == asid; });
}

void
FullyAssocTlb::markDirty(VAddr vaddr)
{
    for (std::size_t i = 0; i < lru_.size(); ++i) {
        Entry &entry = lru_.payload(i);
        if (entry.xlate.covers(vaddr) && entry.asid == asid_)
            entry.dirty = true;
    }
}

} // namespace mixtlb::tlb
