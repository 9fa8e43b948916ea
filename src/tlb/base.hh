/**
 * @file
 * The common TLB interface shared by every design the paper evaluates:
 * classic split set-associative TLBs, MIX TLBs, hash-rehash and
 * skew-associative multi-indexing TLBs, COLT variants, and the
 * never-miss ideal TLB.
 */

#ifndef MIXTLB_TLB_BASE_HH
#define MIXTLB_TLB_BASE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

#include "common/contracts.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "pt/pte.hh"
#include "pt/walker.hh"

namespace mixtlb::tlb
{

/**
 * A run of coalesced, contiguous translations, as carried by a MIX or
 * COLT entry. Lower TLB levels can fill from a bundle directly when an
 * upper level hits, preserving coalescing without a page-table walk.
 */
struct BundleInfo
{
    VAddr vbase = 0;  ///< base of the first page in the run
    PAddr pbase = 0;  ///< physical base of the first page
    PageSize size = PageSize::Size4K;
    /** Contiguous pages in the run: at most one coalescing window. */
    std::uint32_t count = 1;
    pt::Perms perms{};
    bool dirty = false;

    bool
    covers(VAddr vaddr) const
    {
        return vaddr >= vbase && vaddr < vbase + count * pageBytes(size);
    }

    PAddr translate(VAddr vaddr) const { return pbase + (vaddr - vbase); }
};

/**
 * The slots of a coalescing window that the pages of @p bundle fill,
 * as a mask over the window's first @p slots (<= 64) slots. The window
 * holds @p size pages from @p wbase, and its slot s must map to
 * @p wpbase + s pages with @p perms. A bundle is one VA- and
 * PA-contiguous run of page-aligned pages with one perms value and one
 * dirty bit, so its pages either all pass those per-page checks or
 * none does: they share the window's page size, perms and PA-VA
 * offset, or they do not. Those that pass are exactly the bundle's
 * pages inside the window, one contiguous slot range (0 when empty).
 */
std::uint64_t bundleSlots(const BundleInfo &bundle, PageSize size,
                          VAddr wbase, PAddr wpbase, pt::Perms perms,
                          unsigned slots);

/** Bits [lo, hi) of a 64-bit slot map; needs lo < hi <= 64. */
std::uint64_t slotRange(unsigned lo, unsigned hi);

/**
 * Outcome of a TLB lookup: the outcome and its counts first, then the
 * translation and the bundle.
 */
struct TlbLookup
{
    bool hit = false;
    /** Dirty bit of the hit entry/bundle (drives the store micro-op). */
    bool entryDirty = false;
    /** Sequential probe rounds performed (1 for single-index designs). */
    unsigned probes = 1;
    /** Entries read across all probes (dynamic lookup energy). */
    unsigned waysRead = 0;
    /** Synthesized translation for the probed address (valid on hit). */
    pt::Translation xlate{};
    /** Coalescing info of the hit entry, for lower-level fills. */
    std::optional<BundleInfo> bundle;
};

// Every lookup returns one by value: above 80 bytes GCC zero-fills a
// default-constructed result with `rep stos` instead of a few stores.
static_assert(std::is_trivially_copyable_v<TlbLookup> &&
                  sizeof(TlbLookup) <= 80,
              "TlbLookup must stay a few plain stores to construct");

/** Everything a fill might use. */
struct FillInfo
{
    /** The demanded leaf translation. */
    pt::Translation leaf{};
    /**
     * The address whose miss triggered this fill (0 = use leaf.vbase).
     * MIX TLBs merge into existing bundles only in the set this address
     * probes; other sets are blindly mirrored (Sec. 4.3).
     */
    VAddr vaddr = 0;
    /**
     * The walker result (leaf PTE cache line) when the fill follows a
     * walk; nullptr when filling from an upper-level TLB hit.
     */
    const pt::WalkResult *walk = nullptr;
    /** Bundle from an upper-level coalesced hit. */
    std::optional<BundleInfo> bundle;
};

/**
 * Process-wide switch selecting the reference full-predicate entry
 * scan instead of the SoA tag-lane scan in the designs that support
 * both. Latched by each TLB at construction (a ctor flag, not a
 * per-lookup branch); the two scans are bit-exact by construction, so
 * this exists for the differential property tests and debugging only.
 * Flip it before building the machine under test.
 */
void setReferenceScanEnabled(bool enabled);
bool referenceScanEnabled();

/** Abstract TLB. */
class BaseTlb
{
  public:
    BaseTlb(const std::string &name, stats::StatGroup *parent);
    virtual ~BaseTlb() = default;

    BaseTlb(const BaseTlb &) = delete;
    BaseTlb &operator=(const BaseTlb &) = delete;

    /** Probe for @p vaddr. Never fills. */
    virtual TlbLookup lookup(VAddr vaddr, bool is_store) = 0;

    /** Install (and possibly coalesce) a translation. */
    virtual void fill(const FillInfo &fill) = 0;

    /**
     * Invalidate any entry of @p asid covering the page at @p vbase.
     * Shootdowns broadcast from another process carry that process's
     * ASID, which need not be the one currently active here.
     */
    virtual void invalidate(VAddr vbase, PageSize size, Asid asid) = 0;

    /** Invalidate the page for the currently active ASID. */
    void invalidate(VAddr vbase, PageSize size)
    {
        invalidate(vbase, size, asid_);
    }

    /** Invalidate everything (context switch / full shootdown). */
    virtual void invalidateAll() = 0;

    /** Invalidate every entry tagged @p asid, leaving others resident. */
    virtual void invalidateAsid(Asid asid) = 0;

    /**
     * Switch the active address space: subsequent lookups, fills and
     * markDirty calls match/tag entries with @p asid. Entries of other
     * ASIDs stay resident and keep competing for capacity.
     */
    virtual void setAsid(Asid asid) { asid_ = asid; }

    /** The currently active ASID. */
    Asid asid() const { return asid_; }

    /**
     * A store hit a clean entry and the dirty micro-op completed: set
     * the entry's dirty bit where the design allows it (Sec. 4.4).
     */
    virtual void markDirty(VAddr vaddr) = 0;

    /**
     * Replay contract for the hierarchy's L0 MRU translation filter.
     * Must be called immediately after lookup() returned @p result for
     * @p vaddr, before any other operation on this structure. A true
     * return promises that — absent intervening mutation (fill /
     * invalidate / invalidateAll / invalidateAsid / setAsid /
     * markDirty / another lookup) — repeating the lookup with ANY
     * address in the 4KB page containing @p vaddr would (a) return a
     * TlbLookup identical in every field except the translated offset
     * and (b) leave the structure bit-identical: on a hit the matched
     * entry is already at the MRU front, so the LRU rotate is a no-op,
     * and on a miss nothing moves. Designs whose lookups mutate state
     * beyond the MRU rotation (skew clocks/timestamps, size-predictor
     * training, duplicate-mirror collapse) must return false for the
     * affected outcomes. The default is conservatively ineligible.
     */
    virtual bool
    replayable(const TlbLookup &result, VAddr vaddr) const
    {
        (void)result;
        (void)vaddr;
        return false;
    }

    /**
     * Account @p n replayed lookups of @p result without probing: the
     * exact stat evolution n repeat lookup() calls would have had,
     * with no array scan and no state change. Composite structures
     * override this to replay their components' sub-lookups too.
     */
    virtual void
    replayLookup(const TlbLookup &result, std::uint64_t n = 1)
    {
        if (result.hit)
            hits_ += n;
        else
            misses_ += n;
        probesTotal_ += result.probes * n;
        waysReadTotal_ += result.waysRead * n;
    }

    /** Can this structure hold pages of @p size? */
    virtual bool supports(PageSize size) const = 0;

    /** Total entry capacity (area/energy model input). */
    virtual std::uint64_t numEntries() const = 0;

    /** Ways read by one parallel probe (lookup energy model input). */
    virtual unsigned numWays() const = 0;

    /**
     * Append violations of this design's structural invariants to
     * @p report (see src/common/contracts.hh). Run under --paranoia;
     * the default has nothing to check.
     */
    virtual void audit(contracts::AuditReport &report) const
    {
        (void)report;
    }

    stats::StatGroup &statGroup() { return stats_; }

    double hits() const { return double(hits_.value()); }
    double misses() const { return double(misses_.value()); }
    double fillCount() const { return double(fills_.value()); }
    double coalesceCount() const { return double(coalesces_.value()); }
    double
    invalidationCount() const
    {
        return double(invalidations_.value());
    }
    double probeCount() const { return double(probesTotal_.value()); }
    double
    waysReadCount() const
    {
        return double(waysReadTotal_.value());
    }

  protected:
    stats::StatGroup stats_;
    Asid asid_ = 0; ///< active address space; entries are tagged at fill
    stats::Counter &hits_;
    stats::Counter &misses_;
    stats::Counter &fills_;       ///< entry writes, incl. every mirror
    stats::Counter &coalesces_;   ///< fills merged into existing entries
    stats::Counter &invalidations_;
    stats::Counter &probesTotal_; ///< probe rounds summed over lookups
    stats::Counter &waysReadTotal_;///< entries read summed over lookups

    void
    recordLookup(const TlbLookup &result)
    {
        if (result.hit)
            ++hits_;
        else
            ++misses_;
        probesTotal_ += result.probes;
        waysReadTotal_ += result.waysRead;
    }
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_BASE_HH
