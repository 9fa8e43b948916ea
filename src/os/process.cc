#include "process.hh"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::os
{

const char *
pagePolicyName(PagePolicy policy)
{
    switch (policy) {
      case PagePolicy::SmallOnly: return "4K";
      case PagePolicy::Huge2M: return "2M";
      case PagePolicy::Huge1G: return "1G";
      case PagePolicy::Thp: return "THS";
      case PagePolicy::Reservation: return "reservation";
    }
    return "?";
}

Process::Process(MemoryManager &mm, const ProcessParams &params,
                 stats::StatGroup *parent)
    : mm_(mm), params_(params), pageTable_(mm.phys()),
      nextMmap_(alignUp(params.mmapBase, PageBytes1G)),
      regionBase_(nextMmap_),
      stats_(params.name, parent),
      faults4k_(stats_.addScalar("faults_4k", "4KB page faults")),
      faults2m_(stats_.addScalar("faults_2m", "2MB page faults")),
      faults1g_(stats_.addScalar("faults_1g", "1GB page faults")),
      thpFallbacks_(stats_.addScalar("thp_fallbacks",
          "THS faults that fell back to 4KB pages")),
      migrations_(stats_.addScalar("migrations",
          "pages migrated away by compaction")),
      demotions_(stats_.addCounter("demotions",
          "superpages demoted to the next smaller page size")),
      reclaims_(stats_.addCounter("reclaims",
          "frames freed by reclaim under memory pressure")),
      repromotions_(stats_.addCounter("repromotions",
          "demoted regions rebuilt into superpages")),
      oomRetries_(stats_.addCounter("oom_retries",
          "4KB fault allocation retries after a failed attempt")),
      demoteRescues_(stats_.addCounter("demote_rescues",
          "4KB faults saved from OOM by demotion/reclaim")),
      compactionRescues_(stats_.addCounter("compaction_rescues",
          "superpage faults satisfied only after compaction"))
{
    reservePools();
    mm_.addReclaimer(this, [this](std::uint64_t want) {
        return reclaimMemory(want);
    });
}

Process::~Process()
{
    mm_.removeReclaimer(this);
    // Free every owned frame; unregister movable small pages first.
    for (auto [pfn, order] : ownedFrames_) {
        if (order == 0 &&
            mm_.phys().frameUse(pfn) == mem::FrameUse::AppSmall) {
            mm_.unregisterMovable(pfn);
        }
        mm_.phys().freeFrames(pfn, order);
    }
    for (Pfn pfn : pool2m_)
        mm_.phys().freeFrames(pfn, mem::Order2M);
    for (Pfn pfn : pool1g_)
        mm_.phys().freeFrames(pfn, mem::Order1G);
}

void
Process::reservePools()
{
    // libhugetlbfs reserves its pool up front; superpages come from the
    // pool at fault time and the pool's blocks are not movable.
    for (std::uint64_t i = 0; i < params_.pool2mPages; i++) {
        auto pfn = mm_.allocContiguous(mem::Order2M,
                                       mem::FrameUse::AppHuge, true);
        if (!pfn)
            break;
        pool2m_.push_back(*pfn);
    }
    for (std::uint64_t i = 0; i < params_.pool1gPages; i++) {
        auto pfn = mm_.allocContiguous(mem::Order1G,
                                       mem::FrameUse::AppHuge, true);
        if (!pfn)
            break;
        pool1g_.push_back(*pfn);
    }
}

VAddr
Process::mmap(std::uint64_t bytes)
{
    fatal_if(bytes == 0, "mmap of zero bytes");
    VAddr base = nextMmap_;
    std::uint64_t span = alignUp(bytes, PageBytes1G);
    nextMmap_ += span;
    vmas_.push_back(Vma{base, bytes});
    // Spans are whole 1GB regions, so the 2MB-indexed sizes divide
    // evenly.
    const std::size_t regions = regionIndex(nextMmap_);
    regions_.resize(regions);
    regions1g_.resize(regions / Frames2M);
    for (RegionBits *bits : {&reserved_, &super2m_, &demoted_})
        bits->words.resize(regions / 64);
    super1g_.words.resize((regions1g_.size() + 63) / 64);
    return base;
}

std::size_t
Process::RegionBits::next(std::size_t from) const
{
    std::uint64_t mask = ~0ULL << (from & 63);
    for (std::size_t w = from / 64; w < words.size(); w++, mask = ~0ULL) {
        if (words[w] & mask)
            return w * 64 + std::countr_zero(words[w] & mask);
    }
    return None;
}

bool
Process::inVma(VAddr vaddr) const
{
    for (const auto &vma : vmas_) {
        if (vaddr >= vma.base && vaddr < vma.base + vma.bytes)
            return true;
    }
    return false;
}

void
Process::addInvalidateListener(
    std::function<void(VAddr, PageSize)> listener)
{
    invalidateListeners_.push_back(std::move(listener));
}

void
Process::fireInvalidate(VAddr vbase, PageSize size)
{
    for (const auto &listener : invalidateListeners_)
        listener(vbase, size);
}

std::uint64_t
Process::residentBytes(PageSize size) const
{
    // Derived from the region records, which account for every leaf.
    std::uint64_t pages = 0;
    switch (size) {
      case PageSize::Size4K:
        for (std::size_t i = 0; i < regions_.size(); i++)
            pages += regions_[i].small
                     + (reserved_.has(i) ? regions_[i].touched : 0);
        break;
      case PageSize::Size2M:
        pages = super2m_.count;
        break;
      case PageSize::Size1G:
        pages = super1g_.count;
        break;
    }
    return pages * pageBytes(size);
}

TouchResult
Process::touch(VAddr vaddr, bool is_store)
{
    (void)is_store; // A/D bits are the walker's job (Sec. 4.4)
    if (pageTable_.translate(vaddr))
        return TouchResult::Mapped;
    panic_if(!inVma(vaddr), "touch outside any VMA: 0x%llx",
             (unsigned long long)vaddr);

    switch (params_.policy) {
      case PagePolicy::SmallOnly:
        return faultSmall(vaddr);
      case PagePolicy::Thp:
        return faultThp(vaddr);
      case PagePolicy::Huge2M:
        return faultPool2m(vaddr);
      case PagePolicy::Huge1G:
        return faultPool1g(vaddr);
      case PagePolicy::Reservation:
        return faultReservation(vaddr);
    }
    panic("unreachable");
}

/** Free frames map() may need for page tables after a data-frame grab. */
constexpr std::uint64_t HeadroomFrames = 8;

TouchResult
Process::faultSmall(VAddr vaddr)
{
    std::optional<Pfn> pfn;
    bool rescued = false;
    for (unsigned round = 0; round < 2 && !pfn; round++) {
        if (round == 1) {
            // Out of memory (or out of headroom): demote superpages
            // and reclaim cold pages — possibly from other processes
            // sharing this memory manager — before conceding OOM.
            if (mm_.reclaim(4 * HeadroomFrames) == 0)
                break;
            rescued = true;
        }
        // Keep headroom for the page-table frames map() may allocate,
        // so a data-frame success is never followed by a fatal
        // PT-frame OOM.
        if (mm_.phys().buddy().freeFrames() < HeadroomFrames)
            continue;
        // Injected allocation failures here are transient (a loaded
        // kernel retries reclaim), so take a few attempts before
        // escalating; a rate-1.0 injection still starves the fault
        // deterministically — reclaim frees frames but every retry
        // must still win its fault draw.
        for (unsigned attempt = 0; attempt < 3 && !pfn; attempt++) {
            if (attempt > 0)
                ++oomRetries_;
            if (fault::fire(fault::Site::BuddyAlloc))
                continue;
            pfn = mm_.phys().allocFrames(0, mem::FrameUse::AppSmall);
        }
    }
    if (!pfn)
        return TouchResult::OutOfMemory;
    if (rescued)
        ++demoteRescues_;
    VAddr vbase = pageBase(vaddr, PageSize::Size4K);
    mm_.registerMovable(*pfn, this, vbase);
    ownedFrames_.emplace(*pfn, 0);
    pageTable_.map(vbase, *pfn << PageShift4K, PageSize::Size4K);
    ++faults4k_;
    Region2m &rec = region2m(vbase);
    rec.small++;
    rec.hasSmall = true;
    return TouchResult::Faulted;
}

TouchResult
Process::faultThp(VAddr vaddr)
{
    // THS maps whole 2MB regions on first touch when the region is
    // fully inside the VMA and no 4KB page in it is already mapped.
    VAddr region = pageBase(vaddr, PageSize::Size2M);
    bool eligible = inVma(region) && inVma(region + PageBytes2M - 1)
                    && !region2m(region).hasSmall;
    if (eligible) {
        const std::uint64_t compactions = mm_.compactionSuccessCount();
        auto pfn = mm_.allocContiguous(mem::Order2M,
                                       mem::FrameUse::AppHuge,
                                       params_.thpDefrag);
        if (pfn) {
            if (mm_.compactionSuccessCount() > compactions)
                ++compactionRescues_;
            ownedFrames_.emplace(*pfn, mem::Order2M);
            pageTable_.map(region, *pfn << PageShift4K, PageSize::Size2M);
            ++faults2m_;
            super2m_.set(regionIndex(region));
            return TouchResult::Faulted;
        }
        ++thpFallbacks_;
    }
    return faultSmall(vaddr);
}

TouchResult
Process::faultPool2m(VAddr vaddr)
{
    VAddr region = pageBase(vaddr, PageSize::Size2M);
    bool eligible = inVma(region) && inVma(region + PageBytes2M - 1)
                    && !region2m(region).hasSmall;
    if (eligible && !pool2m_.empty()) {
        Pfn pfn = pool2m_.front();
        pool2m_.pop_front();
        ownedFrames_.emplace(pfn, mem::Order2M);
        pageTable_.map(region, pfn << PageShift4K, PageSize::Size2M);
        ++faults2m_;
        super2m_.set(regionIndex(region));
        return TouchResult::Faulted;
    }
    return faultSmall(vaddr);
}

TouchResult
Process::faultPool1g(VAddr vaddr)
{
    VAddr region = pageBase(vaddr, PageSize::Size1G);
    Region1g &rec = region1g(region);
    bool eligible = inVma(region) && inVma(region + PageBytes1G - 1)
                    && !rec.hasSub;
    if (eligible && !pool1g_.empty()) {
        Pfn pfn = pool1g_.front();
        pool1g_.pop_front();
        ownedFrames_.emplace(pfn, mem::Order1G);
        pageTable_.map(region, pfn << PageShift4K, PageSize::Size1G);
        ++faults1g_;
        super1g_.set(regionIndex(region) / Frames2M);
        return TouchResult::Faulted;
    }
    auto result = faultSmall(vaddr);
    if (result == TouchResult::Faulted)
        rec = {.sub = rec.sub + 1, .hasSub = true};
    return result;
}

TouchResult
Process::faultReservation(VAddr vaddr)
{
    // FreeBSD-style reservations (Navarro et al., OSDI 2002): the
    // first touch of a 2MB region reserves a whole 2MB frame block,
    // 4KB pages are backed from their natural slot within it, and the
    // region is promoted to a superpage once every slot is mapped.
    VAddr region = pageBase(vaddr, PageSize::Size2M);
    VAddr vbase = pageBase(vaddr, PageSize::Size4K);
    const std::size_t index = regionIndex(region);
    Region2m &rec = regions_[index];
    if (!reserved_.has(index)) {
        if (!inVma(region) || !inVma(region + PageBytes2M - 1)
            || rec.hasSmall) {
            return faultSmall(vaddr);
        }
        const std::uint64_t compactions = mm_.compactionSuccessCount();
        auto block = mm_.allocContiguous(
            mem::Order2M, mem::FrameUse::AppHuge, params_.thpDefrag);
        if (!block)
            return faultSmall(vaddr);
        if (mm_.compactionSuccessCount() > compactions)
            ++compactionRescues_;
        ownedFrames_.emplace(*block, mem::Order2M);
        rec = {.block = *block};
        reserved_.set(index);
    }

    auto slot = (vbase - region) >> PageShift4K;
    pageTable_.map(vbase, (rec.block + slot) << PageShift4K,
                   PageSize::Size4K);
    ++faults4k_;
    rec.touched++;
    if (rec.touched == Frames2M) {
        promoteReservation(region, rec.block);
        reserved_.set(index, false);
    }
    return TouchResult::Faulted;
}

void
Process::promoteReservation(VAddr region, Pfn block)
{
    // Swap 512 4KB PTEs for one 2MB PTE. The 4KB translations change
    // (size-wise), so each must be shot down from the TLBs.
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        VAddr vbase = region + i * PageBytes4K;
        bool removed = pageTable_.unmap(vbase);
        panic_if(!removed, "promotion found an unmapped slot");
        fireInvalidate(vbase, PageSize::Size4K);
    }
    // Retire the (now empty) PT so the PD slot can hold the leaf.
    pageTable_.clearLevelEntry(region, pt::leafLevel(PageSize::Size2M));
    pageTable_.map(region, block << PageShift4K, PageSize::Size2M);
    faults4k_ += -static_cast<double>(Frames2M);
    ++faults2m_;
    super2m_.set(regionIndex(region));
}

bool
Process::demote2m(VAddr region)
{
    auto xlate = pageTable_.translate(region);
    if (!xlate || xlate->size != PageSize::Size2M)
        return false;
    if (!pageTable_.splitLeaf(region))
        return false; // no frame left for the child table
    const Pfn base = static_cast<Pfn>(xlate->pbase >> PageShift4K);
    // The one order-9 block becomes 512 individually owned, movable
    // 4KB frames: cold reclaim and compaction now work per frame.
    auto own = ownedFrames_.find(base);
    panic_if(own == ownedFrames_.end() || own->second != mem::Order2M,
             "demoting a 2MB leaf whose block we do not own");
    ownedFrames_.erase(own);
    mm_.phys().retagFrames(base, mem::Order2M, mem::FrameUse::AppSmall);
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        ownedFrames_.emplace(base + i, 0);
        mm_.registerMovable(base + i, this, region + i * PageBytes4K);
    }
    // One superpage-sized shootdown drops the stale 2MB entry from
    // every TLB level (mirror copies, coalesced runs straddling the
    // window) and the PWC paths through the region.
    fireInvalidate(region, PageSize::Size2M);
    // The region now holds 4KB mappings; its fallback entry also keeps
    // superpage re-faults from colliding with the new mid-level table,
    // so it must outlive the demotion even at count zero.
    region2m(region) = {.small = Frames2M, .hasSmall = true};
    Region1g &rec1g = region1g(region);
    if (rec1g.hasSub)
        rec1g.sub += Frames2M - 1; // one 2MB leaf became 512 4KB ones
    super2m_.set(regionIndex(region), false);
    demoted_.set(regionIndex(region));
    ++demotions_;
    return true;
}

bool
Process::demote1g(VAddr region)
{
    auto xlate = pageTable_.translate(region);
    if (!xlate || xlate->size != PageSize::Size1G)
        return false;
    if (!pageTable_.splitLeaf(region))
        return false;
    const Pfn base = static_cast<Pfn>(xlate->pbase >> PageShift4K);
    auto own = ownedFrames_.find(base);
    panic_if(own == ownedFrames_.end() || own->second != mem::Order1G,
             "demoting a 1GB leaf whose block we do not own");
    ownedFrames_.erase(own);
    for (std::uint64_t i = 0; i < Frames2M; i++)
        ownedFrames_.emplace(base + i * Frames2M, mem::Order2M);
    fireInvalidate(region, PageSize::Size1G);
    // 512 2MB leaves now live under the region (their frames stay
    // AppHuge); the sub-1GB entry blocks a 1GB re-fault over the new
    // mid-level table.
    region1g(region) = {.sub = Frames2M, .hasSub = true};
    super1g_.set(regionIndex(region) / Frames2M, false);
    for (std::uint64_t i = 0; i < Frames2M; i++)
        super2m_.set(regionIndex(region + i * PageBytes2M));
    ++demotions_;
    return true;
}

bool
Process::demoteOne()
{
    // Prefer a 2MB leaf: its 4KB children are immediately reclaimable,
    // while a 1GB demotion only yields more 2MB leaves.
    if (super2m_.count > 0)
        return demote2m(regionAddr(super2m_.next(0)));
    if (super1g_.count > 0)
        return demote1g(regionAddr(super1g_.next(0) * Frames2M));
    return false;
}

std::uint64_t
Process::demoteStorm(std::uint64_t max)
{
    std::uint64_t done = 0;
    while (done < max && demoteOne())
        done++;
    if (done > 0) {
        // Freshly demoted regions should not bounce straight back.
        if (repromoteDeferShift_ < 6)
            repromoteDeferShift_++;
        repromoteDefer_ = 1ULL << (repromoteDeferShift_ & 63);
    }
    return done;
}

void
Process::dropSmallPage(VAddr vbase, Pfn pfn)
{
    bool removed = pageTable_.unmap(vbase);
    panic_if(!removed, "reclaim of an unmapped page");
    fireInvalidate(vbase, PageSize::Size4K);
    mm_.unregisterMovable(pfn);
    auto erased = ownedFrames_.erase(pfn);
    panic_if(erased == 0, "reclaim of a frame we do not own");
    mm_.phys().freeFrames(pfn, 0);
    Region2m &rec = region2m(vbase);
    panic_if(!rec.hasSmall || rec.small == 0,
             "reclaimed page missing from the 4KB side table");
    rec.small--; // entry stays, even at zero: see demote2m()
    Region1g &rec1g = region1g(vbase);
    if (rec1g.hasSub)
        rec1g.sub--;
    ++reclaims_;
}

void
Process::releaseEmptyRegion(VAddr region)
{
    Region2m &rec = region2m(region);
    panic_if(!rec.hasSmall || rec.small != 0,
             "releasing a region that still has mapped pages");
    pageTable_.clearLevelEntry(region, pt::leafLevel(PageSize::Size2M));
    // The PWC may hold the just-retired leaf table; shoot it down
    // before reclaimRetiredFrames() can free the frame.
    fireInvalidate(region, PageSize::Size2M);
    rec.hasSmall = false;
    demoted_.set(regionIndex(region), false);
}

std::uint64_t
Process::reclaimColdPages(std::uint64_t want)
{
    std::uint64_t freed = 0;
    const mem::PhysMem &phys = mm_.phys();
    // Three escalating passes, like reclaim advancing from the
    // inactive list to the active list: not-accessed pages first, then
    // clean ones, then anything. No swap is modeled, so dropping a hot
    // page is degradation (it will refault), never data loss. Reclaim
    // demotes nothing, so each ascending pass sees the demoted regions
    // of the call's start, minus those drained and released since.
    for (int pass = 0; pass < 3 && freed < want; pass++) {
        for (std::size_t index = demoted_.next(0);
             index != RegionBits::None && freed < want;
             index = demoted_.next(index + 1)) {
            const VAddr region = regionAddr(index);
            // A demoted region keeps its leaf table until released, and
            // dropping a page only clears that page's slot in it.
            const auto table = pageTable_.leafTable(region);
            panic_if(!table, "demoted region 0x%llx has no leaf table",
                     (unsigned long long)region);
            for (std::uint64_t slot = 0;
                 slot < Frames2M && freed < want; slot++) {
                const std::uint64_t raw = phys.read64(*table + 8 * slot);
                if (!pt::pte::present(raw))
                    continue;
                if (pass == 0 && pt::pte::accessed(raw))
                    continue;
                if (pass == 1 && pt::pte::dirty(raw))
                    continue;
                dropSmallPage(region + slot * PageBytes4K,
                              pt::pte::frame(raw) >> PageShift4K);
                freed++;
            }
            if (regions_[index].small == 0)
                releaseEmptyRegion(region);
        }
    }
    return freed;
}

std::uint64_t
Process::abandonReservation(VAddr region)
{
    const std::size_t index = regionIndex(region);
    panic_if(!reserved_.has(index),
             "abandoning a region with no reservation");
    Region2m &rec = regions_[index];
    auto erased = ownedFrames_.erase(rec.block);
    panic_if(erased == 0, "reservation block we do not own");
    const auto table = pageTable_.leafTable(region);
    std::uint64_t freed = 0;
    for (std::uint64_t slot = 0; slot < Frames2M; slot++) {
        const VAddr vbase = region + slot * PageBytes4K;
        const Pfn pfn = rec.block + slot;
        if (table
            && pt::pte::present(mm_.phys().read64(*table + 8 * slot))) {
            // A touched slot keeps its frame and its exact translation
            // (so no shootdown); it just becomes an ordinary movable
            // 4KB page.
            mm_.phys().retagFrames(pfn, 0, mem::FrameUse::AppSmall);
            mm_.registerMovable(pfn, this, vbase);
            ownedFrames_.emplace(pfn, 0);
        } else {
            mm_.phys().freeFrames(pfn, 0);
            freed++;
        }
    }
    panic_if(freed != Frames2M - rec.touched,
             "reservation slack disagrees with its touched count");
    // The kept pages now count as fallback 4KB pages; the fallback
    // entry also blocks a fresh reservation from colliding with the
    // live mid-level table.
    rec = {.small = rec.touched, .hasSmall = true};
    reserved_.set(index, false);
    reclaims_ += freed;
    return freed;
}

std::uint64_t
Process::reclaimMemory(std::uint64_t want)
{
    if (want == 0)
        return 0;
    std::uint64_t freed = 0;
    // 1. Reservation slack: real memory freed without one shootdown.
    //    Abandon the reservation with the most untouched slots first.
    //    An ascending scan keeps the lowest address among ties.
    while (freed < want && reserved_.count > 0) {
        std::size_t victim = reserved_.next(0);
        for (std::size_t index = reserved_.next(victim + 1);
             index != RegionBits::None; index = reserved_.next(index + 1)) {
            if (regions_[index].touched < regions_[victim].touched)
                victim = index;
        }
        freed += abandonReservation(regionAddr(victim));
    }
    // 2. Cold pages from regions demoted earlier.
    if (freed < want)
        freed += reclaimColdPages(want - freed);
    // 3. Demote superpages to expose more reclaimable pages.
    while (freed < want && demoteOne())
        freed += reclaimColdPages(want - freed);
    // 4. Retired page-table frames (their translations were shot down
    //    when the tables were retired).
    if (freed < want) {
        const std::uint64_t released = pageTable_.reclaimRetiredFrames();
        reclaims_ += released;
        freed += released;
    }
    return freed;
}

/**
 * Free-memory fraction below which re-promotion is not attempted. The
 * pressure experiments run with ~12% steady free memory and transient
 * bursts that halve it, so the threshold sits between the two: burst
 * windows read as pressure, burst release reads as pressure fading.
 */
constexpr double RepromoteFreeFraction = 0.08;

/**
 * Minimum mapped slots for a collapse re-promotion — the analogue of
 * khugepaged's max_ptes_none: a region must be at least half populated
 * before it is worth spending a whole 2MB block on it.
 */
constexpr std::uint64_t MinMappedForCollapse = Frames2M / 2;

bool
Process::tryRepromote2m(VAddr region)
{
    // Survey the region: mapped slots must all still be 4KB leaves;
    // reclaimed holes are tolerated (they become backed by the new
    // superpage, as khugepaged's max_ptes_none allows).
    const auto table = pageTable_.leafTable(region);
    if (!table)
        return false;
    const mem::PhysMem &phys = mm_.phys();
    Pfn base = 0;
    bool contiguous = true;
    std::uint64_t mapped = 0;
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        const std::uint64_t raw = phys.read64(*table + 8 * i);
        if (!pt::pte::present(raw)) {
            contiguous = false;
            continue;
        }
        const Pfn pfn = pt::pte::frame(raw) >> PageShift4K;
        if (mapped == 0 && i == 0) {
            base = pfn;
            contiguous = (base & (Frames2M - 1)) == 0;
        } else if (pfn != base + i) {
            contiguous = false;
        }
        mapped++;
    }
    if (mapped < MinMappedForCollapse)
        return false;
    Pfn dest = base;
    if (!contiguous) {
        // khugepaged-style collapse: migrate the 512 pages into a
        // fresh block. Reclaim is disabled for this allocation so
        // rebuilding one superpage can never demote another.
        auto block = mm_.allocContiguous(mem::Order2M,
                                         mem::FrameUse::AppHuge,
                                         true, false);
        if (!block)
            return false;
        dest = *block;
    }
    for (std::uint64_t i = 0; i < Frames2M; i++) {
        const VAddr vbase = region + i * PageBytes4K;
        // Re-read: the collapse allocation may have compacted our own
        // movable frames to new homes. relocate() rewrites their PTEs
        // in place, and the leaf table itself (a PageTable frame) never
        // moves.
        const std::uint64_t raw = phys.read64(*table + 8 * i);
        if (!pt::pte::present(raw))
            continue; // hole: the new superpage will back it
        const Pfn pfn = pt::pte::frame(raw) >> PageShift4K;
        bool removed = pageTable_.unmap(vbase);
        panic_if(!removed, "re-promotion lost a mapped slot");
        mm_.unregisterMovable(pfn);
        auto erased = ownedFrames_.erase(pfn);
        panic_if(erased == 0, "re-promotion of a frame we do not own");
        if (!contiguous)
            mm_.phys().freeFrames(pfn, 0); // copied into the new block
    }
    pageTable_.clearLevelEntry(region, pt::leafLevel(PageSize::Size2M));
    pageTable_.map(region, static_cast<PAddr>(dest) << PageShift4K,
                   PageSize::Size2M);
    // One 2MB-sized shootdown drops every stale 4KB entry in the
    // window and the PWC path through the now-retired table.
    fireInvalidate(region, PageSize::Size2M);
    if (contiguous) {
        mm_.phys().retagFrames(dest, mem::Order2M,
                               mem::FrameUse::AppHuge);
    }
    ownedFrames_.emplace(dest, mem::Order2M);
    region2m(region) = {};
    Region1g &rec1g = region1g(region);
    if (rec1g.hasSub)
        rec1g.sub -= mapped - 1; // `mapped` 4KB leaves became one 2MB
    demoted_.set(regionIndex(region), false);
    super2m_.set(regionIndex(region));
    ++repromotions_;
    return true;
}

void
Process::maintain()
{
    if (demoted_.count == 0)
        return;
    if (repromoteDefer_ > 0) {
        repromoteDefer_--;
        return;
    }
    if (mm_.freeFraction() < RepromoteFreeFraction) {
        // Still under pressure: check again later, with backoff.
        if (repromoteDeferShift_ < 6)
            repromoteDeferShift_++;
        repromoteDefer_ = 1ULL << (repromoteDeferShift_ & 63);
        return;
    }
    // Bounded work per call: a few candidates, lowest address first.
    unsigned promoted = 0;
    unsigned examined = 0;
    for (std::size_t index = demoted_.next(0);
         index != RegionBits::None && examined < 4;
         index = demoted_.next(index + 1)) {
        examined++;
        if (tryRepromote2m(regionAddr(index)))
            promoted++;
    }
    if (promoted == 0) {
        if (repromoteDeferShift_ < 6)
            repromoteDeferShift_++;
        repromoteDefer_ = 1ULL << (repromoteDeferShift_ & 63);
    } else {
        repromoteDeferShift_ = 0;
        repromoteDefer_ = 0;
    }
}

void
Process::audit(contracts::AuditReport &report) const
{
    pageTable_.audit(report);

    // One leaf walk tallies what the tree maps per size and per region
    // record. A leaf outside the records is outside every VMA too, so
    // the stray-leaf check reports it.
    std::uint64_t bytes[NumPageSizes] = {};
    std::uint64_t super_leaves = 0;
    std::vector<std::uint32_t> small_in_2m(regions_.size());
    std::vector<std::uint32_t> sub_in_1g(regions1g_.size());
    /** The superpage leaf based at each 2MB region (Size4K: none). */
    std::vector<PageSize> super(regions_.size(), PageSize::Size4K);

    std::vector<std::pair<Pfn, std::uint64_t>> owned; // [base, end)
    owned.reserve(ownedFrames_.size());
    for (auto [pfn, order] : ownedFrames_)
        owned.emplace_back(pfn, pfn + pow2(order));
    std::sort(owned.begin(), owned.end());

    std::uint64_t stray_leaves = 0;
    pageTable_.forEachLeaf([&](const pt::Translation &xlate) {
        const std::uint64_t leaf_bytes = pageBytes(xlate.size);
        bytes[static_cast<unsigned>(xlate.size)] += leaf_bytes;
        super_leaves += xlate.size != PageSize::Size4K;
        const std::size_t index = regionIndex(xlate.vbase);
        if (xlate.vbase >= regionBase_ && index < regions_.size()) {
            if (xlate.size == PageSize::Size4K)
                small_in_2m[index]++;
            else
                super[index] = xlate.size;
            if (xlate.size != PageSize::Size1G)
                sub_in_1g[index / Frames2M]++;
        }

        const bool in_vma = inVma(xlate.vbase)
                            && inVma(xlate.vbase + leaf_bytes - 1);
        const Pfn first = xlate.pbase >> PageShift4K;
        const std::uint64_t frames = leaf_bytes >> PageShift4K;
        auto it = std::upper_bound(
            owned.begin(), owned.end(), first,
            [](Pfn v, const auto &iv) { return v < iv.first; });
        const bool backed = it != owned.begin()
                            && ((--it, first >= it->first
                                        && first + frames <= it->second));
        if ((!in_vma || !backed) && stray_leaves++ < 8) {
            MIX_AUDIT_CHECK(report, false,
                            "%s leaf at 0x%llx -> 0x%llx is %s%s%s",
                            pageSizeName(xlate.size),
                            (unsigned long long)xlate.vbase,
                            (unsigned long long)xlate.pbase,
                            in_vma ? "" : "outside every VMA",
                            !in_vma && !backed ? " and " : "",
                            backed ? ""
                                   : "backed by frames this process "
                                     "does not own");
        }
    });
    MIX_AUDIT_CHECK(report, stray_leaves <= 8,
                    "%llu further stray leaves",
                    (unsigned long long)(stray_leaves - 8));

    for (PageSize size :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        const std::uint64_t tree = bytes[static_cast<unsigned>(size)];
        MIX_AUDIT_CHECK(report, tree == residentBytes(size),
                        "tree holds %llu %sB-mapped bytes but the "
                        "residency counters say %llu",
                        (unsigned long long)tree, pageSizeName(size),
                        (unsigned long long)residentBytes(size));
    }

    // The records against the tree, both ways. A fallback count is
    // exactly the 4KB pages mapped outside a reservation, and every 4KB
    // leaf is one or the other. A demoted region really is split: no
    // leaf at the region, a live fallback entry, and no reservation
    // squatting on the same mid-level table.
    const std::uint64_t recorded_super = super2m_.count + super1g_.count;
    for (std::size_t index = 0; index < regions_.size(); index++) {
        const Region2m &rec = regions_[index];
        const VAddr region = regionAddr(index);
        const std::uint32_t actual = small_in_2m[index];
        const bool reserved = reserved_.has(index);
        const std::size_t g = index / Frames2M;
        if (index % Frames2M == 0 && regions1g_[g].hasSub) {
            MIX_AUDIT_CHECK(report, sub_in_1g[g] == regions1g_[g].sub,
                            "1GB region 0x%llx claims %u sub-1GB pages "
                            "but the tree holds %u",
                            (unsigned long long)region,
                            regions1g_[g].sub, sub_in_1g[g]);
        }
        if (index % Frames2M == 0 && super1g_.has(g)) {
            MIX_AUDIT_CHECK(report, super[index] == PageSize::Size1G,
                            "registry claims a %s leaf at 0x%llx but the "
                            "tree disagrees",
                            pageSizeName(PageSize::Size1G),
                            (unsigned long long)region);
        }
        if (rec.hasSmall) {
            MIX_AUDIT_CHECK(report, actual == rec.small,
                            "2MB region 0x%llx claims %u fallback 4KB "
                            "pages but the tree holds %u",
                            (unsigned long long)region, rec.small,
                            actual);
            MIX_AUDIT_CHECK(report, !reserved,
                            "2MB region 0x%llx has both fallback 4KB "
                            "pages and an active reservation",
                            (unsigned long long)region);
        }
        MIX_AUDIT_CHECK(report, actual == 0 || rec.hasSmall || reserved,
                        "2MB region 0x%llx holds %u 4KB pages but has "
                        "neither a fallback entry nor a reservation",
                        (unsigned long long)region, actual);
        if (reserved) {
            MIX_AUDIT_CHECK(report, rec.touched < Frames2M,
                            "reservation at 0x%llx is fully built (%u "
                            "slots) but was never promoted",
                            (unsigned long long)region, rec.touched);
            MIX_AUDIT_CHECK(report, actual == rec.touched,
                            "reservation at 0x%llx touched %u slots but "
                            "the tree holds %u 4KB pages there",
                            (unsigned long long)region, rec.touched,
                            actual);
            auto own = ownedFrames_.find(rec.block);
            MIX_AUDIT_CHECK(report,
                            own != ownedFrames_.end()
                                && own->second == mem::Order2M,
                            "reserved block 0x%llx is not owned as an "
                            "order-%u allocation",
                            (unsigned long long)rec.block, mem::Order2M);
        }
        if (super2m_.has(index)) {
            MIX_AUDIT_CHECK(report, super[index] == PageSize::Size2M,
                            "registry claims a %s leaf at 0x%llx but the "
                            "tree disagrees",
                            pageSizeName(PageSize::Size2M),
                            (unsigned long long)region);
        }
        if (demoted_.has(index)) {
            MIX_AUDIT_CHECK(report, rec.hasSmall,
                            "demoted region 0x%llx missing from the 4KB "
                            "side table",
                            (unsigned long long)region);
            MIX_AUDIT_CHECK(report, !reserved,
                            "demoted region 0x%llx still has a "
                            "reservation",
                            (unsigned long long)region);
            MIX_AUDIT_CHECK(report, super[index] == PageSize::Size4K,
                            "demoted region 0x%llx still has a superpage "
                            "leaf",
                            (unsigned long long)region);
        }
    }
    MIX_AUDIT_CHECK(report, super_leaves == recorded_super,
                    "tree holds %llu superpage leaves but the registry "
                    "tracks %llu",
                    (unsigned long long)super_leaves,
                    (unsigned long long)recorded_super);
}

void
Process::relocate(std::uint64_t tag, Pfn from, Pfn to)
{
    VAddr vbase = tag;
    pageTable_.remap(vbase, to << PageShift4K);
    auto erased = ownedFrames_.erase(from);
    panic_if(erased == 0, "relocate of frame we do not own");
    ownedFrames_.emplace(to, 0);
    ++migrations_;
    fireInvalidate(vbase, PageSize::Size4K);
}

} // namespace mixtlb::os
