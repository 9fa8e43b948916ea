#include "set_assoc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mixtlb::tlb
{

SetAssocTlb::SetAssocTlb(const std::string &name, stats::StatGroup *parent,
                         const SetAssocParams &params)
    : BaseTlb(name, parent), entries_(params.entries),
      assoc_(params.assoc), referenceScan_(referenceScanEnabled())
{
    fatal_if(assoc_ == 0 || entries_ == 0 || entries_ % assoc_ != 0,
             "TLB geometry does not divide evenly");
    fatal_if(params.sizes.empty(), "TLB with no page sizes");
    for (PageSize size : params.sizes) {
        bool &cached = cached_[static_cast<unsigned>(size)];
        fatal_if(cached, "TLB lists %s pages twice", pageSizeName(size));
        cached = true;
        sizes_[numSizes_++] = size;
    }
    numSets_ = entries_ / assoc_;
    maskSets_ = (numSets_ & (numSets_ - 1)) == 0;
    setMask_ = numSets_ - 1;
    sets_ = TagLaneStore<Entry>(numSets_, assoc_);
    if (params.usePredictor) {
        predictor_ = std::make_unique<SizePredictor>(
            "predictor", &stats_, params.predictorEntries);
    }
}

std::size_t
SetAssocTlb::find(TagLaneSet<Entry> set, std::uint64_t vpn,
                  PageSize size) const
{
    if (referenceScan_) {
        return set.findIf([&](const Entry &e) {
            return e.vpn == vpn && e.xlate.size == size && e.asid == asid_;
        });
    }
    // Equal tags carry equal sizes and ASIDs (see tagOf).
    return set.findTag(tagOf(vpn, size, asid_),
                       [&](const Entry &e) { return e.vpn == vpn; });
}

const PageSize *
SetAssocTlb::predictedOrder(VAddr vaddr)
{
    probeOrder_ = sizes_;
    const auto end = probeOrder_.begin() + numSizes_;
    const auto it =
        std::find(probeOrder_.begin(), end, predictor_->predict(vaddr));
    if (it != end)
        std::rotate(probeOrder_.begin(), it, it + 1);
    return probeOrder_.data();
}

// mixcheck: hot
TlbLookup
SetAssocTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    TlbLookup result;
    const PageSize *order =
        predictor_ ? predictedOrder(vaddr) : sizes_.data();
    const Entry *entry = nullptr;
    unsigned probes = 0;
    while (!entry && probes < numSizes_) {
        const PageSize size = order[probes++];
        const std::uint64_t vpn = vpnOf(vaddr, size);
        auto set = setOf(vpn);
        const std::size_t i = find(set, vpn, size);
        if (i != TagLaneSet<Entry>::npos) {
            set.rotateToFront(i); // move to MRU
            entry = &set.payload(0);
        }
    }
    result.probes = probes;
    result.waysRead = probes * assoc_;
    if (entry) {
        result.hit = true;
        result.xlate = entry->xlate;
        result.entryDirty = entry->dirty;
        if (predictor_) {
            predictor_->recordOutcome(result.probes == 1);
            predictor_->update(vaddr, entry->xlate.size);
        }
    }
    // A miss after exhausting all sizes resolves only via the walker;
    // the predictor trains in fill().
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
SetAssocTlb::fill(const FillInfo &fill)
{
    const PageSize size = fill.leaf.size;
    panic_if(!supports(size), "TLB does not cache %s pages",
             pageSizeName(size));
    const std::uint64_t vpn = fill.leaf.vpn();
    auto set = setOf(vpn);
    std::size_t i = find(set, vpn, size);
    if (i != TagLaneSet<Entry>::npos) {
        Entry &e = set.payload(i);
        e.xlate = fill.leaf;
        e.dirty = fill.leaf.dirty;
        set.rotateToFront(i); // move to MRU
    } else {
        // A full set evicts its LRU way.
        set.insertFront(tagOf(vpn, size, asid_),
                        Entry{vpn, asid_, fill.leaf, fill.leaf.dirty});
        ++fills_;
    }
    if (predictor_) {
        // Train on the demanded address (predictor is 2MB-region
        // indexed; a superpage base can hash to a different slot).
        predictor_->update(fill.vaddr ? fill.vaddr : fill.leaf.vbase,
                           size);
    }
}

void
SetAssocTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    if (supports(size)) {
        // An entry of the shot-down size indexes one known set.
        const std::uint64_t vpn = vpnOf(vbase, size);
        setOf(vpn).eraseIf([&](const Entry &e) {
            return e.vpn == vpn && e.xlate.size == size &&
                   e.asid == asid;
        });
        if (numSizes_ == 1)
            return;
    }
    // Entries of *other* sizes overlapping [vbase, vbase + bytes) —
    // 4K children of a demoted superpage, or a stale superpage over a
    // 4K shootdown — index unpredictable sets, so scan them all
    // (shootdowns are off the hot lookup path).
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        sets_[s].eraseIf([&](const Entry &e) {
            const VAddr ebase = e.xlate.vbase;
            return e.xlate.size != size && e.asid == asid && ebase < hi &&
                   ebase + pageBytes(e.xlate.size) > lo;
        });
    }
}

void
SetAssocTlb::invalidateAll()
{
    ++invalidations_;
    sets_.clear();
}

void
SetAssocTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (std::uint64_t s = 0; s < numSets_; ++s)
        sets_[s].eraseIf([&](const Entry &e) { return e.asid == asid; });
}

void
SetAssocTlb::markDirty(VAddr vaddr)
{
    for (unsigned s = 0; s < numSizes_; ++s) {
        const PageSize size = sizes_[s];
        const std::uint64_t vpn = vpnOf(vaddr, size);
        const auto set = setOf(vpn);
        for (std::size_t i = 0; i < set.size(); ++i) {
            Entry &entry = set.payload(i);
            if (entry.vpn == vpn && entry.xlate.size == size &&
                entry.asid == asid_)
                entry.dirty = true;
        }
    }
}

} // namespace mixtlb::tlb
