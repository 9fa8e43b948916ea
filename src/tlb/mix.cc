#include "mix.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::tlb
{

namespace
{

/**
 * The run of set slots of @p map next to @p slot, as [lo, hi]: lo
 * walks down and hi walks up while the neighbouring slot is set, hi
 * staying below @p limit (> slot). Slots past bit 63 read as clear;
 * @p slot itself is not tested.
 */
std::pair<unsigned, unsigned>
runAround(std::uint64_t map, unsigned slot, unsigned limit)
{
    unsigned below = 0;
    if (slot >= 1 && slot <= 64) {
        below = static_cast<unsigned>(
            std::countl_one(shiftLeft(map, 64 - slot)));
    }
    unsigned above = 0;
    if (slot + 1 < 64) {
        above = std::min(static_cast<unsigned>(std::countr_one(
                             shiftRight(map, slot + 1))),
                         limit - 1 - slot);
    }
    return {slot - below, slot + above};
}

} // anonymous namespace

MixTlbParams
coltParams(std::uint64_t entries, unsigned assoc, PageSize size,
           unsigned window)
{
    MixTlbParams params;
    params.entries = entries;
    params.assoc = assoc;
    params.mode = CoalesceMode::Bitmap;
    params.sizes = {size};
    (size == PageSize::Size4K ? params.colt4k : params.maxCoalesce) =
        window;
    return params;
}

MixTlb::MixTlb(const std::string &name, stats::StatGroup *parent,
               const MixTlbParams &params)
    : BaseTlb(name, parent), params_(params),
      referenceScan_(referenceScanEnabled() || !params.alignmentRestricted),
      mirrorWrites_(stats_.addCounter("mirror_writes",
          "superpage mirror copies written on fills")),
      duplicatesRemoved_(stats_.addCounter("duplicates_removed",
          "duplicate mirrors collapsed on probe (Sec. 4.3)")),
      extensions_(stats_.addCounter("extensions",
          "existing bundles extended by later fills (Sec. 4.2)"))
{
    MIX_EXPECT(params.assoc > 0 && params.entries > 0 &&
               params.entries % params.assoc == 0,
               "MIX TLB geometry does not divide evenly");
    MIX_EXPECT(params.colt4k != 0 && isPowerOf2(params.colt4k),
               "colt4k must be a nonzero power of two");
    // Small-page entries always track membership with the 64-bit
    // bitmap; a wider window would shift past it (undefined behaviour
    // in buildEntry/invalidate).
    MIX_EXPECT(params.colt4k <= 64,
               "colt4k exceeds the 64-slot bitmap (got %u)",
               params.colt4k);
    numSets_ = static_cast<unsigned>(params.entries / params.assoc);
    maxCoalesce_ = params.maxCoalesce ? params.maxCoalesce : numSets_;
    if (params.mode == CoalesceMode::Bitmap && maxCoalesce_ > 64)
        maxCoalesce_ = 64; // a 64-bit map is the storage ceiling
    setMask_ = (numSets_ & (numSets_ - 1)) == 0 ? numSets_ - 1 : 0;
    MIX_EXPECT(!params.sizes.empty(), "MIX TLB with no page sizes");
    for (PageSize size : params.sizes) {
        bool &held = held_[static_cast<unsigned>(size)];
        MIX_EXPECT(!held, "MIX TLB lists %s pages twice",
                   pageSizeName(size));
        held = true;
    }
    unsigned count = 0;
    for (PageSize size : AllPageSizes) {
        const auto s = static_cast<unsigned>(size);
        group_[s] = size == PageSize::Size4K ? params.colt4k : maxCoalesce_;
        span_[s] = std::uint64_t(group_[s]) << pageShift(size);
        spanMask_[s] = isPowerOf2(span_[s]) ? ~(span_[s] - 1) : 0;
        if (held_[s])
            sizes_[count++] = size;
    }
    std::fill(sizes_ + count, std::end(sizes_), sizes_[count - 1]);
    // One index granule holds a whole window of the smallest held size.
    const PageSize smallest = sizes_[0];
    MIX_EXPECT(isPowerOf2(groupSlots(smallest)),
               "the %s window must be a power of two (got %u)",
               pageSizeName(smallest), groupSlots(smallest));
    indexShift_ = params.superpageIndexBits
                      ? PageShift2M
                      : pageShift(smallest) +
                            static_cast<unsigned>(
                                std::countr_zero(groupSlots(smallest)));
    for (unsigned s = 0; s < NumPageSizes; s++)
        mirrored_[s] = pageShift(static_cast<PageSize>(s)) > indexShift_;
    sets_ = TagLaneStore<Entry>(numSets_, params_.assoc);
}

bool
MixTlb::Entry::slotPresent(unsigned slot, CoalesceMode mode) const
{
    if (size == PageSize::Size4K || mode == CoalesceMode::Bitmap)
        return (bitmap >> (slot & 63)) & 1; // bitmap windows have <= 64 slots
    return slot >= runStart && slot < runStart + length;
}

unsigned
MixTlb::indexOf(VAddr vaddr) const
{
    const std::uint64_t index = vaddr >> (indexShift_ & 63);
    if (setMask_)
        return static_cast<unsigned>(index & setMask_);
    return static_cast<unsigned>(index % numSets_);
}

VAddr
MixTlb::windowBase(VAddr vbase, PageSize size) const
{
    // Power-of-two spans mask; the 68-slot L2 windows take the modulo.
    const auto s = static_cast<unsigned>(size);
    return spanMask_[s] ? vbase & spanMask_[s] : vbase - vbase % span_[s];
}

bool
MixTlb::entryCovers(const Entry &entry, VAddr vaddr) const
{
    if (entry.asid != asid_ || vaddr < entry.wbase)
        return false;
    const std::uint64_t slot =
        (vaddr - entry.wbase) >> pageShift(entry.size);
    if (slot >= groupSlots(entry.size))
        return false;
    return entry.slotPresent(static_cast<unsigned>(slot), params_.mode);
}

unsigned
MixTlb::population(const Entry &entry) const
{
    if (entry.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        return static_cast<unsigned>(std::popcount(entry.bitmap));
    }
    return entry.length;
}

bool
MixTlb::compatible(const Entry &a, const Entry &b) const
{
    if (a.size != b.size || a.asid != b.asid || a.wbase != b.wbase ||
        a.wpbase != b.wpbase || !(a.perms == b.perms)) {
        return false;
    }
    if (a.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        return true; // bitmaps always union
    }
    // Length mode: only runs that overlap or touch can share an entry;
    // disjoint runs of the same window coexist as separate entries.
    std::uint32_t a1 = a.runStart, a2 = a1 + a.length;
    std::uint32_t b1 = b.runStart, b2 = b1 + b.length;
    return b1 <= a2 && a1 <= b2;
}

void
MixTlb::merge(Entry &existing, const Entry &incoming)
{
    if (existing.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        existing.bitmap |= incoming.bitmap;
    } else {
        std::uint32_t a1 = existing.runStart;
        std::uint32_t a2 = a1 + existing.length;
        std::uint32_t b1 = incoming.runStart;
        std::uint32_t b2 = b1 + incoming.length;
        existing.runStart = std::min(a1, b1);
        existing.length = std::max(a2, b2) - existing.runStart;
    }
    existing.dirty = existing.dirty && incoming.dirty;
}

void
MixTlb::bundleAround(const Entry &entry, VAddr vaddr,
                     BundleInfo &bundle) const
{
    const std::uint64_t page = pageBytes(entry.size);
    const auto slot = static_cast<unsigned>((vaddr - entry.wbase)
                                            >> pageShift(entry.size));
    unsigned lo, hi;
    if (entry.size == PageSize::Size4K ||
        params_.mode == CoalesceMode::Bitmap) {
        std::tie(lo, hi) =
            runAround(entry.bitmap, slot, groupSlots(entry.size));
    } else {
        lo = entry.runStart;
        hi = entry.runStart + entry.length - 1;
    }
    bundle.vbase = entry.wbase + static_cast<std::uint64_t>(lo) * page;
    bundle.pbase = entry.wpbase + static_cast<std::uint64_t>(lo) * page;
    bundle.size = entry.size;
    // Fits 32 bits: a bundle is at most one window, and a window is
    // at most 68 slots in every evaluated geometry (group_ is 32-bit).
    bundle.count = hi - lo + 1;
    bundle.perms = entry.perms;
    bundle.dirty = entry.dirty;
}

// mixcheck: hot
TlbLookup
MixTlb::lookup(VAddr vaddr, bool is_store)
{
    (void)is_store;
    lastLookupMerged_ = false;
    TlbLookup result;
    result.waysRead = params_.assoc;
    auto set = sets_[indexOf(vaddr)];

    const auto covers = [&](const Entry &e) {
        return entryCovers(e, vaddr);
    };
    std::size_t hit;
    if (referenceScan_) {
        hit = set.findIf(covers);
    } else {
        // Windows are aligned, so a covering entry of size s anchors
        // at that size's window around vaddr: one candidate per size.
        std::uint64_t cands[NumPageSizes];
        for (unsigned i = 0; i < NumPageSizes; ++i) {
            const PageSize size = sizes_[i];
            cands[i] = tagOf(windowBase(vaddr, size), size, asid_);
        }
        hit = set.findTagAny(cands, NumPageSizes, covers);
    }
    if (hit != TagLaneSet<Entry>::npos) {
        // Sec. 4.3: the probe tag-compares the whole set, so duplicate
        // mirrors of the matched bundle are visible; collapse them.
        // merge() never touches (wbase, size, asid), so the survivor's
        // lane tag stays valid. compatible() requires an equal (wbase,
        // size, asid), so every duplicate carries the hit's tag: the
        // lane filters candidates and compatible() confirms them. The
        // reference scan confirms every payload.
        const std::uint64_t hit_tag = set.tag(hit);
        for (std::size_t i = 0; i < set.size();) {
            if (i != hit &&
                (referenceScan_ || set.tag(i) == hit_tag) &&
                compatible(set.payload(hit), set.payload(i))) {
                merge(set.payload(hit), set.payload(i));
                set.eraseAt(i);
                if (i < hit)
                    hit--;
                ++duplicatesRemoved_;
                lastLookupMerged_ = true;
            } else {
                i++;
            }
        }
        set.rotateToFront(hit); // move to MRU
        const Entry &entry = set.payload(0);
        result.hit = true;
        result.xlate.size = entry.size;
        result.xlate.vbase = pageBase(vaddr, entry.size);
        result.xlate.pbase =
            entry.wpbase + (result.xlate.vbase - entry.wbase);
        result.xlate.perms = entry.perms;
        result.xlate.accessed = true;
        result.xlate.dirty = entry.dirty;
        result.entryDirty = entry.dirty;
        bundleAround(entry, vaddr, result.bundle.emplace());
    }
    recordLookup(result);
    return result;
}

MixTlb::Entry
MixTlb::buildEntry(const FillInfo &fill) const
{
    const pt::Translation &leaf = fill.leaf;
    const unsigned group = groupSlots(leaf.size);
    const unsigned shift = pageShift(leaf.size);

    Entry entry{};
    entry.size = leaf.size;
    entry.asid = asid_;
    entry.perms = leaf.perms;
    entry.wbase = params_.alignmentRestricted
                      ? windowBase(leaf.vbase, leaf.size)
                      : leaf.vbase; // floating anchor (ablation)
    const auto leaf_slot =
        static_cast<unsigned>(shiftRight(leaf.vbase - entry.wbase, shift));
    entry.wpbase = leaf.pbase - shiftLeft(leaf_slot, shift);

    // Candidate membership per window slot, from the walk line and/or
    // an upper-level bundle. Slot 'leaf_slot' is always present.
    // The scratchpad is a 64-bit map: in length mode a window can hold
    // more than 64 slots, and anything past the map simply cannot be
    // coalesced by this fill (shifting past it used to be undefined).
    // The leaf is a member of every entry it builds, tracked or not,
    // so its own dirty bit is ANDed in at the end; all_dirty only
    // clears the slots of clean coalesced members.
    const unsigned scratch = std::min(group, 64u);
    std::uint64_t present = leaf_slot < 64 ? pow2(leaf_slot) : 0;
    std::uint64_t all_dirty = ~0ULL;

    if (fill.walk && !fill.walk->pageFault() &&
        fill.walk->lineGranularity == leaf.size) {
        for (const auto &slot : fill.walk->line) {
            // Sec. 4.4: only translations with the accessed bit set and
            // the leaf's permissions may be coalesced at fill time.
            const pt::Translation &xlate = slot.xlate;
            if (!slot.present || !xlate.accessed ||
                xlate.perms != leaf.perms || xlate.vbase < entry.wbase) {
                continue;
            }
            const std::uint64_t s =
                shiftRight(xlate.vbase - entry.wbase, shift);
            // Outside the window or past the scratchpad; else the PA
            // must sit exactly where window-affine contiguity demands.
            if (s >= scratch ||
                xlate.pbase != entry.wpbase + shiftLeft(s, shift)) {
                continue;
            }
            present |= pow2(static_cast<unsigned>(s));
            if (!xlate.dirty)
                all_dirty &= ~pow2(static_cast<unsigned>(s));
        }
    }
    if (fill.bundle) {
        const std::uint64_t mask =
            bundleSlots(*fill.bundle, leaf.size, entry.wbase,
                        entry.wpbase, leaf.perms, scratch);
        present |= mask;
        if (!fill.bundle->dirty)
            all_dirty &= ~mask;
    }

    if (leaf.size != PageSize::Size4K &&
        params_.mode == CoalesceMode::Length) {
        // Contiguous run through the leaf slot, holes excluded.
        const auto [lo, hi] = runAround(present, leaf_slot, group);
        entry.runStart = lo;
        entry.length = hi - lo + 1;
        // A run entirely past the scratchpad is the leaf alone.
        const std::uint64_t run_mask = lo < 64 ? slotRange(lo, hi + 1) : 0;
        entry.dirty = leaf.dirty && (all_dirty & run_mask) == run_mask;
        entry.bitmap = 0;
    } else {
        entry.bitmap = present;
        entry.dirty = leaf.dirty && (all_dirty & present) == present;
    }
    return entry;
}

void
MixTlb::insertIntoSet(unsigned set_idx, const Entry &entry)
{
    auto set = sets_[set_idx];
    // compatible() requires equal (wbase, size, asid), so a true match
    // shares the incoming entry's tag.
    const std::uint64_t tag = tagOf(entry.wbase, entry.size, entry.asid);
    const auto matches = [&](const Entry &e) {
        return compatible(e, entry);
    };
    std::size_t i = referenceScan_ ? set.findIf(matches)
                                   : set.findTag(tag, matches);
    if (i != TagLaneSet<Entry>::npos) {
        Entry &existing = set.payload(i);
        unsigned before = population(existing);
        merge(existing, entry);
        set.rotateToFront(i); // move to MRU
        if (population(set.payload(0)) > before)
            ++extensions_;
        ++coalesces_;
        return;
    }
    set.insertFront(tag, entry); // a full set evicts its LRU way
    ++fills_;
    if (mirrored(entry.size))
        ++mirrorWrites_;
}

void
MixTlb::blindInsert(unsigned set_idx, const Entry &entry)
{
    // Sec. 4.3: non-probed sets are filled without checking for an
    // existing copy (scanning every set on fill would cost too much
    // energy); duplicates this creates collapse on a later probe.
    sets_[set_idx].insertFront(tagOf(entry.wbase, entry.size, entry.asid),
                               entry);
    ++fills_;
    if (mirrored(entry.size))
        ++mirrorWrites_;
}

// mixcheck: hot
void
MixTlb::fill(const FillInfo &fill)
{
    MIX_EXPECT(supports(fill.leaf.size), "filling a %s translation into %s",
               pageSizeName(fill.leaf.size), stats_.name().c_str());
    Entry entry = buildEntry(fill);
    MIX_AUDIT(groupSlots(entry.size) >= 64 ||
              (entry.bitmap >> groupSlots(entry.size)) == 0,
              "fill built membership outside the %u-slot window",
              groupSlots(entry.size));
    const VAddr demanded = fill.vaddr ? fill.vaddr : fill.leaf.vbase;
    const unsigned probed = indexOf(demanded);

    if (!mirrored(entry.size)) {
        // The page fits one index granule, so it maps to exactly one
        // set: small pages (the window's pages share the index because
        // it drops log2(colt4k) bits), every page of a lone COLT size,
        // and 2MB pages under the superpage-index ablation (Sec. 3).
        insertIntoSet(probed, entry);
        return;
    }

    // A superpage spans many index values, so the bundle mirrors into
    // every set.
    //
    // L1 (bitmap) fills follow Sec. 4.3 exactly: only the probed set
    // merges into an existing bundle; the others are mirrored blindly
    // and duplicates collapse on later probes. L2 (length) fills
    // extend a matching bundle in every set — the "slightly more
    // complex hardware" Sec. 4 grants the L2 level, and what lets
    // coalescing grow to offset the full mirror count at L2 reach
    // (Sec. 4.2's extension of bundles across cache lines).
    const bool merge_everywhere = params_.mode == CoalesceMode::Length;
    for (unsigned s = 0; s < numSets_; s++) {
        if (s == probed || merge_everywhere)
            insertIntoSet(s, entry);
        else
            blindInsert(s, entry);
    }
}

void
MixTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    const VAddr lo = vbase;
    const VAddr hi = vbase + pageBytes(size);

    // Range semantics: an entry is stale when any present slot's page
    // overlaps [lo, hi), whatever the entry's own page size. A
    // demotion's superpage-sized shootdown must clear the 4K and
    // coalesced entries under its window, and a 4K shootdown inside a
    // stale superpage must kill that superpage's mirrors — which live
    // in *every* set and evolve independently under per-set LRU, so
    // all sets are swept (shootdowns are off the hot lookup path).
    for (unsigned s = 0; s < numSets_; s++) {
        sets_[s].eraseIf([&](Entry &entry) {
            const unsigned shift = pageShift(entry.size);
            const unsigned slots = groupSlots(entry.size);
            const std::uint64_t span = std::uint64_t(slots)
                                       << pageShift(entry.size);
            if (entry.asid != asid || entry.wbase >= hi ||
                entry.wbase + span <= lo) {
                return false;
            }
            // Slots [s0, s1] of the entry's window overlapped by
            // [lo, hi); the overlap test above makes s0 <= s1.
            const auto s0 = lo > entry.wbase
                ? static_cast<unsigned>(shiftRight(lo - entry.wbase, shift))
                : 0u;
            const auto s1 = static_cast<unsigned>(std::min<std::uint64_t>(
                slots - 1, shiftRight(hi - 1 - entry.wbase, shift)));
            if (entry.size == PageSize::Size4K ||
                params_.mode == CoalesceMode::Bitmap) {
                // Sec. 4.4: clear just the covered bits; neighbours
                // outside the window stay cached (partial trim).
                // Bitmap windows have at most 64 slots, so s1 < 64.
                entry.bitmap &= ~slotRange(s0, s1 + 1);
                return entry.bitmap == 0;
            }
            // Length mode: drop the whole bundle if any covered slot
            // is present (the paper's simple approach): the covered
            // slots [s0, s1] meet the run. A Length window may exceed
            // 64 slots, so the run is compared as an interval.
            return entry.length != 0 &&
                   s0 < entry.runStart + entry.length &&
                   entry.runStart <= s1;
        });
    }
}

void
MixTlb::invalidateAll()
{
    ++invalidations_;
    sets_.clear();
}

void
MixTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (unsigned s = 0; s < numSets_; s++)
        sets_[s].eraseIf([&](const Entry &e) { return e.asid == asid; });
}

void
MixTlb::markDirty(VAddr vaddr)
{
    // Sec. 4.4: the bundle dirty bit may only be set when every
    // member is dirty; hardware only knows that for singletons.
    bool mirror_covered = false;
    bool single_covered = false;
    auto mark = [&](TagLaneSet<Entry> set) {
        for (std::size_t i = 0; i < set.size(); ++i) {
            Entry &entry = set.payload(i);
            if (!entryCovers(entry, vaddr))
                continue;
            (mirrored(entry.size) ? mirror_covered : single_covered) = true;
            if (population(entry) == 1)
                entry.dirty = true;
        }
    };
    const unsigned probed = indexOf(vaddr);
    mark(sets_[probed]);

    // Superpage entries are mirrored into every set; the dirty update
    // rides the same burst-write path as the fill, so stale mirrors in
    // non-probed sets are updated too. Otherwise a later probe of the
    // same superpage through another set hits a clean mirror and
    // re-issues the dirty micro-op. Sizes that do not mirror live in
    // exactly one set, so a cover of such a size alone, or an array
    // that mirrors no size, stops at the probed set.
    const bool any_mirrored =
        std::any_of(std::begin(sizes_), std::end(sizes_),
                    [&](PageSize size) { return mirrored(size); });
    if (!any_mirrored || (single_covered && !mirror_covered))
        return;
    for (unsigned s = 0; s < numSets_; s++) {
        if (s != probed)
            mark(sets_[s]);
    }
}

void
MixTlb::auditSets(contracts::AuditReport &report) const
{
    // Mirror agreement (Sec. 4.3/4.4): every entry covering one
    // superpage, in whichever set it landed, must translate it to the
    // same physical page with the same permissions. Keyed per *slot*,
    // not per window: one window legally holds several coalesced runs
    // whose extrapolated anchors differ (the member pages are not
    // physically contiguous across runs). Singleton copies of one
    // superpage must also agree on the dirty bit (stale clean mirrors
    // re-issue dirty micro-ops — the PR 1 bug class).
    // Keys carry the ASID: identical windows of different address
    // spaces are distinct translations, not mirrors of each other.
    std::map<std::tuple<Asid, std::uint8_t, VAddr, unsigned>,
             std::pair<PAddr, pt::Perms>> covered;
    std::map<std::tuple<Asid, std::uint8_t, VAddr, unsigned>, bool>
        singletons;

    for (unsigned s = 0; s < numSets_; s++) {
        const auto set = sets_[s];
        MIX_AUDIT_CHECK(report, set.size() <= params_.assoc,
                        "set %u holds %zu entries but has %u ways", s,
                        set.size(), params_.assoc);
        for (std::size_t i = 0; i < set.size(); ++i) {
            const Entry &entry = set.payload(i);
            const unsigned group = groupSlots(entry.size);
            const std::uint64_t page = pageBytes(entry.size);
            const std::uint64_t span = group * page;
            const bool bitmap_mode =
                entry.size == PageSize::Size4K ||
                params_.mode == CoalesceMode::Bitmap;

            MIX_AUDIT_CHECK(report, population(entry) > 0,
                            "set %u: empty entry for window 0x%llx", s,
                            (unsigned long long)entry.wbase);
            if (bitmap_mode) {
                // Membership must stay inside the aligned window: for
                // 4K entries that is the colt4k slots of the 64-bit
                // bitmap (a bit past colt4k means an out-of-window
                // shift corrupted it), for superpages the maxCoalesce
                // window.
                MIX_AUDIT_CHECK(
                    report,
                    group >= 64 || (entry.bitmap >> group) == 0,
                    "set %u: %s window 0x%llx has membership bits "
                    "outside its %u slots (bitmap 0x%llx)",
                    s, pageSizeName(entry.size),
                    (unsigned long long)entry.wbase, group,
                    (unsigned long long)entry.bitmap);
            } else {
                MIX_AUDIT_CHECK(
                    report,
                    entry.length >= 1 &&
                        entry.runStart + entry.length <= group,
                    "set %u: run [%u, %u) exceeds the %u-slot window",
                    s, entry.runStart, entry.runStart + entry.length,
                    group);
            }
            if (params_.alignmentRestricted) {
                MIX_AUDIT_CHECK(
                    report, entry.wbase % span == 0,
                    "set %u: window base 0x%llx not aligned to 0x%llx",
                    s, (unsigned long long)entry.wbase,
                    (unsigned long long)span);
            }
            MIX_AUDIT_CHECK(report, entry.wpbase % page == 0,
                            "set %u: physical anchor 0x%llx not %s "
                            "page aligned",
                            s, (unsigned long long)entry.wpbase,
                            pageSizeName(entry.size));

            // A size that does not mirror sits in the one set its
            // demanded page indexes, so some present page indexes here.
            if (!mirrored(entry.size)) {
                bool indexed = false;
                for (unsigned slot = 0; slot < group && !indexed; slot++) {
                    indexed = entry.slotPresent(slot, params_.mode) &&
                              indexOf(entry.wbase + slot * page) == s;
                }
                MIX_AUDIT_CHECK(report, indexed,
                                "set %u: %s window 0x%llx indexed to "
                                "another set",
                                s, pageSizeName(entry.size),
                                (unsigned long long)entry.wbase);
                continue;
            }

            for (unsigned slot = 0; slot < group; slot++) {
                if (!entry.slotPresent(slot, params_.mode))
                    continue;
                const PAddr slot_pa =
                    entry.wpbase
                    + static_cast<std::uint64_t>(slot) * page;
                auto key = std::make_tuple(
                    entry.asid, static_cast<std::uint8_t>(entry.size),
                    entry.wbase, slot);
                auto [it, inserted] = covered.emplace(
                    key, std::make_pair(slot_pa, entry.perms));
                if (inserted)
                    continue;
                MIX_AUDIT_CHECK(
                    report, it->second.first == slot_pa,
                    "mirror disagreement: %s page 0x%llx maps to "
                    "PA 0x%llx in one set, 0x%llx in set %u",
                    pageSizeName(entry.size),
                    (unsigned long long)(entry.wbase + slot * page),
                    (unsigned long long)it->second.first,
                    (unsigned long long)slot_pa, s);
                MIX_AUDIT_CHECK(
                    report, it->second.second == entry.perms,
                    "mirror disagreement: %s page 0x%llx carries "
                    "different permissions in set %u",
                    pageSizeName(entry.size),
                    (unsigned long long)(entry.wbase + slot * page),
                    s);
            }

            if (population(entry) == 1) {
                unsigned slot = 0;
                if (bitmap_mode) {
                    slot = static_cast<unsigned>(
                        std::countr_zero(entry.bitmap));
                } else {
                    slot = entry.runStart;
                }
                auto dirty_key = std::make_tuple(
                    entry.asid, static_cast<std::uint8_t>(entry.size),
                    entry.wbase, slot);
                auto [dit, dinserted] =
                    singletons.emplace(dirty_key, entry.dirty);
                if (!dinserted) {
                    MIX_AUDIT_CHECK(
                        report, dit->second == entry.dirty,
                        "stale dirty mirror: singleton %s page "
                        "0x%llx is dirty in one set, clean in set %u "
                        "(Sec. 4.4 protocol)",
                        pageSizeName(entry.size),
                        (unsigned long long)(entry.wbase + slot * page),
                        s);
                }
            }
        }
    }
}

} // namespace mixtlb::tlb
