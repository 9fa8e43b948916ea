/**
 * @file
 * A two-level TLB hierarchy in front of a page-table walker and the
 * cache hierarchy — the structure of the paper's functional simulator
 * (Sec. 6.2). Handles lookup, fill (propagating coalescing bundles
 * from L2 hits into L1 fills), page faults via the OS, the x86 dirty-
 * bit micro-op protocol, and TLB shootdowns.
 */

#ifndef MIXTLB_TLB_HIERARCHY_HH
#define MIXTLB_TLB_HIERARCHY_HH

#include <functional>
#include <memory>
#include <span>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/base.hh"

namespace mixtlb::tlb
{

/**
 * Where walks come from. Native systems wrap a Walker + Process; the
 * virtualization module provides a nested (2-D) implementation.
 */
class WalkSource
{
  public:
    virtual ~WalkSource() = default;

    /** Full hardware walk (memory accesses in the result). */
    virtual pt::WalkResult walk(VAddr vaddr, bool is_store) = 0;

    /**
     * Service a page fault for @p vaddr (OS/hypervisor work).
     * @retval false the fault cannot be serviced (OOM / bad address).
     */
    virtual bool fault(VAddr vaddr, bool is_store) = 0;

    /** Physical address of the leaf PTE (dirty micro-op target). */
    virtual std::optional<PAddr> leafPteAddr(VAddr vaddr) = 0;

    /** Set the leaf PTE's dirty (and accessed) bits. */
    virtual void setDirty(VAddr vaddr) = 0;

    /** A shootdown hit @p vbase: flush any walker-side caches. */
    virtual void invalidate(VAddr vbase, PageSize size)
    {
        (void)vbase;
        (void)size;
    }

    /** Drop walker-side cache state tagged @p asid (process exit). */
    virtual void invalidateAsid(Asid asid) { (void)asid; }

    /** True when refLeaf() is implemented (oracle available). */
    virtual bool hasRefTranslate() const { return false; }

    /**
     * Reference leaf for the differential oracle: a functional,
     * side-effect-free map walk that bypasses every TLB and walker
     * cache, returning the end-to-end translation — its physical base,
     * permissions and dirty bit. At paranoia >= 2 the hierarchy
     * cross-checks each successful access() against it: a hit must
     * carry exactly these permissions, and a dirty entry must stand for
     * a dirty PTE. nullopt: unmapped, or not implemented.
     */
    virtual std::optional<pt::Translation> refLeaf(VAddr vaddr)
    {
        (void)vaddr;
        return std::nullopt;
    }

    /**
     * The reference physical byte address of @p vaddr (refLeaf()'s
     * translation), or nullopt if unmapped.
     */
    virtual std::optional<PAddr>
    refTranslate(VAddr vaddr)
    {
        auto leaf = refLeaf(vaddr);
        if (!leaf)
            return std::nullopt;
        return leaf->translate(vaddr);
    }
};

/** Hit latencies of the two TLB levels, in cycles. */
constexpr Cycles L1HitLatency = 1;
constexpr Cycles L2HitLatency = 7;

/**
 * Process-wide switch for the L0 MRU translation filter (on by
 * default). The filter is semantically lossless — every modeled
 * statistic and all TLB state evolve bit-identically with it on or
 * off — so the switch exists only for the differential tests that
 * prove exactly that, and for debugging.
 */
void setL0FilterEnabled(bool enabled);
bool l0FilterEnabled();

class TlbHierarchy
{
  public:
    /**
     * @param l2 may be shared between hierarchies (GPU shader cores
     *           share an L2 TLB).
     */
    TlbHierarchy(const std::string &name, stats::StatGroup *parent,
                 std::unique_ptr<BaseTlb> l1, std::shared_ptr<BaseTlb> l2,
                 WalkSource &source, cache::CacheHierarchy &caches);

    struct AccessResult
    {
        bool ok = true;       ///< false on unserviceable fault
        PAddr paddr = 0;
        Cycles cycles = 0;    ///< total address-translation cycles
        bool l1Hit = false;
        bool l2Hit = false;
        bool walked = false;
        bool faulted = false;
    };

    /** Translate one reference, modelling all side effects. */
    AccessResult access(VAddr vaddr, bool is_store);

    /** Outcome of translateBatch(). */
    struct BatchResult
    {
        /** References fully processed (== refs.size() unless !ok). */
        std::size_t done = 0;
        /** False: the ref at index `done` hit an unserviceable fault. */
        bool ok = true;
        /** Translation cycles of all processed refs (incl. a failed
         *  ref's walk cycles, matching access()). */
        Cycles cycles = 0;
        /** Data-side cache cycles (only when @p charge_data). */
        Cycles dataCycles = 0;
    };

    /**
     * Translate a batch of references — the fused hot loop of every
     * run loop. Bit-identical to calling access() per reference (and
     * caches_.access(paddr, is_store) per reference when
     * @p charge_data): the per-reference paranoia and fault-site
     * checks are hoisted to the batch boundary (legal because
     * contracts::paranoia() and FaultScope arming are fixed while a
     * run is in flight), and consecutive L0-filter replays batch
     * their stat updates into one bulk flush per run of repeats.
     */
    BatchResult translateBatch(std::span<const MemRef> refs,
                               bool charge_data);

    /**
     * Drop the L0 MRU translation filter. The hierarchy invalidates
     * it on every fill, invalidation, ASID operation, and dirty
     * micro-op it performs itself; callers that mutate l1()/l2()
     * directly (tests, mostly) must call this before the next
     * access() or the filter may replay stale state.
     */
    void invalidateFilter() { filter_.valid = false; }

    /** Shoot down a page (wire to Process::addInvalidateListener). */
    void invalidatePage(VAddr vbase, PageSize size);

    /**
     * Shoot down a page of a specific address space. Multiprogrammed
     * machines broadcast each process's shootdowns with its ASID so
     * only that process's entries are dropped.
     */
    void invalidatePage(VAddr vbase, PageSize size, Asid asid);

    /** Full flush. */
    void invalidateAll();

    /** Drop both levels' entries for one ASID (others stay resident). */
    void invalidateAsid(Asid asid);

    /**
     * Switch the active address space at both TLB levels. The walk
     * source is not switched here — a shared-walker source (e.g.
     * MultiWalkSource) retargets its walker/PWC itself.
     */
    void setAsid(Asid asid);

    BaseTlb &l1() { return *l1_; }
    BaseTlb &l2() { return *l2_; }
    const BaseTlb &l1() const { return *l1_; }
    const BaseTlb &l2() const { return *l2_; }

    double accessCount() const { return double(accesses_.value()); }
    double l1HitCount() const { return double(l1Hits_.value()); }
    double l2HitCount() const { return double(l2Hits_.value()); }
    double walkCount() const { return double(walks_.value()); }
    double walkCycleCount() const { return double(walkCycles_.value()); }
    double translationCycleCount() const
    {
        return double(translationCycles_.value());
    }
    double
    walkAccessCount() const
    {
        return double(walkAccesses_.value());
    }
    double walkDramAccessCount() const
    {
        return double(walkDramAccesses_.value());
    }
    double
    dirtyMicroOpCount() const
    {
        return double(dirtyMicroOps_.value());
    }
    double
    oracleCheckCount() const
    {
        return double(oracleChecks_.value());
    }

    stats::StatGroup &statGroup() { return stats_; }

  private:
    stats::StatGroup stats_;
    std::unique_ptr<BaseTlb> l1_;
    std::shared_ptr<BaseTlb> l2_;
    WalkSource &source_;
    cache::CacheHierarchy &caches_;

    /**
     * The L0 MRU translation filter: a one-entry cache of the last
     * hit's 4KB page and replay state. While armed, a repeat
     * reference to the same page short-circuits the TLB probes — the
     * hit design promised (via BaseTlb::replayable) that replaying
     * the lookup is a no-op on its state, so the filter only bumps
     * the same counters the full path would have and re-translates
     * through the cached entry. Invalidated on every fill,
     * invalidation, ASID switch, and dirty micro-op.
     */
    struct L0Filter
    {
        bool valid = false;
        /** Replays an L1-miss + L2-hit (else an L1 hit). */
        bool l2Path = false;
        VAddr lo = 0;      ///< 4KB page base the filter covers
        Cycles cycles = 0; ///< translation latency per replay
        TlbLookup l1Result;
        TlbLookup l2Result;
    };
    L0Filter filter_;

    /** Hot-path state cached at batch/call boundaries. */
    int paranoia_ = 0;
    bool walkSpikeArmed_ = false;
    bool filterOn_ = true;

    /** Refresh paranoia_/walkSpikeArmed_/filterOn_ (cheap, cold). */
    void refreshHotState();

    /** access() body, relying on refreshHotState() having run. */
    AccessResult accessImpl(VAddr vaddr, bool is_store);

    stats::Counter &accesses_;
    stats::Counter &l1Hits_;
    stats::Counter &l2Hits_;
    stats::Counter &walks_;
    stats::Counter &walkCycles_;
    stats::Counter &walkAccesses_;
    stats::Counter &walkDramAccesses_;
    stats::Counter &pageFaults_;
    stats::Counter &dirtyMicroOps_;
    stats::Counter &translationCycles_;
    stats::Counter &oracleChecks_;

    /** Charge a walk's memory accesses through the caches. */
    Cycles chargeWalk(const pt::WalkResult &walk);

    /**
     * Push one access list through the caches. Critical-path accesses
     * (@p charge_latency) add each hit level's latency to the returned
     * cycles; off-path fill scans cost bandwidth/energy only.
     */
    Cycles chargeAccesses(std::span<const PAddr> accesses,
                          bool charge_latency);

    /** Issue the dirty-bit micro-op for a store to a clean entry. */
    Cycles dirtyMicroOp(VAddr vaddr);

    /**
     * Differential oracle: compare @p paddr against refTranslate(),
     * and a TLB @p hit's permissions and entry dirty bit against one
     * refLeaf().
     */
    void oracleCheck(VAddr vaddr, PAddr paddr,
                     const TlbLookup *hit = nullptr);
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_HIERARCHY_HH
