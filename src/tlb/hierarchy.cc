#include "hierarchy.hh"

#include <atomic>

#include "common/fault.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace mixtlb::tlb
{

namespace
{
std::atomic<bool> g_l0_filter_enabled{true};
} // namespace

void
setL0FilterEnabled(bool enabled)
{
    g_l0_filter_enabled.store(enabled, std::memory_order_relaxed);
}

bool
l0FilterEnabled()
{
    return g_l0_filter_enabled.load(std::memory_order_relaxed);
}

/**
 * Injected walk-latency spike (fault::Site::WalkLatency): the extra
 * cycles a walk pays when its PTE fetches collide with DRAM traffic —
 * roughly two additional memory round trips.
 */
constexpr Cycles WalkLatencySpikeCycles = 200;

TlbHierarchy::TlbHierarchy(const std::string &name,
                           stats::StatGroup *parent,
                           std::unique_ptr<BaseTlb> l1,
                           std::shared_ptr<BaseTlb> l2,
                           WalkSource &source,
                           cache::CacheHierarchy &caches)
    : stats_(name, parent), l1_(std::move(l1)), l2_(std::move(l2)),
      source_(source), caches_(caches),
      accesses_(stats_.addCounter("accesses", "translated references")),
      l1Hits_(stats_.addCounter("l1_hits", "L1 TLB hits")),
      l2Hits_(stats_.addCounter("l2_hits", "L2 TLB hits")),
      walks_(stats_.addCounter("walks", "page table walks")),
      walkCycles_(stats_.addCounter("walk_cycles",
                                    "cycles spent in walks")),
      walkAccesses_(stats_.addCounter("walk_accesses",
          "memory references issued by walks")),
      walkDramAccesses_(stats_.addCounter("walk_dram_accesses",
          "walk references that reached DRAM")),
      pageFaults_(stats_.addCounter("page_faults",
                                    "demand page faults")),
      dirtyMicroOps_(stats_.addCounter("dirty_micro_ops",
          "dirty-bit update micro-ops injected")),
      translationCycles_(stats_.addCounter("translation_cycles",
          "total address translation cycles")),
      oracleChecks_(stats_.addCounter("oracle_checks",
          "translations cross-checked against the reference walk"))
{
    stats_.addFormula("l1_miss_rate", "L1 TLB miss fraction", [this] {
        double total = double(accesses_.value());
        return total > 0 ? 1.0 - double(l1Hits_.value()) / total : 0.0;
    });
}

Cycles
TlbHierarchy::chargeAccesses(std::span<const PAddr> accesses,
                             bool charge_latency)
{
    Cycles cycles = 0;
    for (PAddr paddr : accesses) {
        auto level = caches_.accessLevel(paddr, false);
        if (charge_latency)
            cycles += caches_.levelLatency(level);
        ++walkAccesses_;
        if (level == cache::HitLevel::Memory)
            ++walkDramAccesses_;
    }
    return cycles;
}

Cycles
TlbHierarchy::chargeWalk(const pt::WalkResult &walk)
{
    Cycles cycles = chargeAccesses(
        {walk.accesses.data(), walk.accesses.size()}, true);
    // Fill-logic accesses (wide PTE scans) run off the critical path:
    // they perturb the caches and cost energy but add no latency.
    chargeAccesses({walk.fillAccesses.data(), walk.fillAccesses.size()},
                   false);
    return cycles;
}

Cycles
TlbHierarchy::dirtyMicroOp(VAddr vaddr)
{
    ++dirtyMicroOps_;
    Cycles cycles = 0;
    if (auto pte_addr = source_.leafPteAddr(vaddr)) {
        cycles += caches_.access(alignDown(*pte_addr, CacheLineBytes),
                                 true);
    }
    source_.setDirty(vaddr);
    l1_->markDirty(vaddr);
    l2_->markDirty(vaddr);
    return cycles;
}

void
TlbHierarchy::oracleCheck(VAddr vaddr, PAddr paddr)
{
    if (!source_.hasRefTranslate())
        return;
    auto ref = source_.refTranslate(vaddr);
    ++oracleChecks_;
    MIX_EXPECT(ref && *ref == paddr,
               "differential oracle: TLB translated 0x%llx to 0x%llx "
               "but the reference walk says %s0x%llx",
               (unsigned long long)vaddr, (unsigned long long)paddr,
               ref ? "" : "unmapped ",
               (unsigned long long)(ref ? *ref : 0));
}

void
TlbHierarchy::refreshHotState()
{
    paranoia_ = contracts::paranoia();
    walkSpikeArmed_ = fault::armed(fault::Site::WalkLatency);
    filterOn_ = l0FilterEnabled();
    if (!filterOn_)
        filter_.valid = false;
}

TlbHierarchy::AccessResult
TlbHierarchy::access(VAddr vaddr, bool is_store)
{
    refreshHotState();
    return accessImpl(vaddr, is_store);
}

// mixcheck: hot
TlbHierarchy::AccessResult
TlbHierarchy::accessImpl(VAddr vaddr, bool is_store)
{
    // L0 MRU filter: a repeat reference into the armed 4KB page
    // replays the cached hit. The hit design certified (replayable())
    // that the same lookup repeats bit-identically with a no-op MRU
    // rotate, so only the counters the full path would bump are
    // bumped. Stores require the cached entry to already be dirty —
    // a clean entry means the full path would inject a dirty micro-op,
    // which mutates TLB and cache state and must really run.
    if (filter_.valid && vaddr - filter_.lo < PageBytes4K) {
        const TlbLookup &hit =
            filter_.l2Path ? filter_.l2Result : filter_.l1Result;
        if (!is_store || hit.entryDirty) {
            ++accesses_;
            AccessResult result;
            result.paddr = hit.xlate.translate(vaddr);
            result.cycles = filter_.cycles;
            l1_->replayLookup(filter_.l1Result);
            if (filter_.l2Path) {
                l2_->replayLookup(filter_.l2Result);
                ++l2Hits_;
                result.l2Hit = true;
            } else {
                ++l1Hits_;
                result.l1Hit = true;
            }
            if (paranoia_ >= 2)
                oracleCheck(vaddr, result.paddr);
            translationCycles_ += result.cycles;
            return result;
        }
    }
    filter_.valid = false;

    ++accesses_;
    AccessResult result;

    TlbLookup l1_result = l1_->lookup(vaddr, is_store);
    if (l1_result.hit) {
        ++l1Hits_;
        result.l1Hit = true;
        result.paddr = l1_result.xlate.translate(vaddr);
        result.cycles = L1HitLatency;
        const bool micro_op = is_store && !l1_result.entryDirty;
        if (micro_op)
            result.cycles += dirtyMicroOp(vaddr);
        if (paranoia_ >= 2)
            oracleCheck(vaddr, result.paddr);
        translationCycles_ += result.cycles;
        if (filterOn_ && !micro_op &&
            l1_->replayable(l1_result, vaddr)) {
            filter_.valid = true;
            filter_.l2Path = false;
            filter_.lo = pageBase(vaddr, PageSize::Size4K);
            filter_.cycles = result.cycles;
            filter_.l1Result = l1_result;
        }
        return result;
    }

    TlbLookup l2_result = l2_->lookup(vaddr, is_store);
    if (l2_result.hit) {
        ++l2Hits_;
        result.l2Hit = true;
        result.paddr = l2_result.xlate.translate(vaddr);
        result.cycles = L1HitLatency + L2HitLatency;
        // Refill L1, handing any L2 coalescing bundle down so an L2 MIX
        // hit preserves L1 MIX coalescing without a walk.
        FillInfo refill;
        refill.leaf = l2_result.xlate;
        refill.vaddr = vaddr;
        refill.bundle = l2_result.bundle;
        const bool refilled = l1_->supports(refill.leaf.size);
        if (refilled)
            l1_->fill(refill);
        const bool micro_op = is_store && !l2_result.entryDirty;
        if (micro_op)
            result.cycles += dirtyMicroOp(vaddr);
        if (paranoia_ >= 2)
            oracleCheck(vaddr, result.paddr);
        translationCycles_ += result.cycles;
        // Arm only when a replay would repeat both levels exactly: no
        // L1 refill (it mutated L1), no micro-op, and an L2 exclusive
        // to this hierarchy (GPU cores share the L2; another core's
        // traffic would move its LRU under the filter).
        if (filterOn_ && !refilled && !micro_op &&
            l2_.use_count() == 1 &&
            l1_->replayable(l1_result, vaddr) &&
            l2_->replayable(l2_result, vaddr)) {
            filter_.valid = true;
            filter_.l2Path = true;
            filter_.lo = pageBase(vaddr, PageSize::Size4K);
            filter_.cycles = result.cycles;
            filter_.l1Result = l1_result;
            filter_.l2Result = l2_result;
        }
        return result;
    }

    // Full miss: walk, servicing at most one page fault.
    result.walked = true;
    result.cycles = L1HitLatency + L2HitLatency;
    ++walks_;
    pt::WalkResult walk = source_.walk(vaddr, is_store);
    result.cycles += chargeWalk(walk);
    if (walkSpikeArmed_ && fault::fire(fault::Site::WalkLatency))
        result.cycles += WalkLatencySpikeCycles;
    if (walk.pageFault()) {
        ++pageFaults_;
        result.faulted = true;
        if (!source_.fault(vaddr, is_store)) {
            result.ok = false;
            translationCycles_ += result.cycles;
            return result;
        }
        ++walks_;
        walk = source_.walk(vaddr, is_store);
        result.cycles += chargeWalk(walk);
        panic_if(walk.pageFault(), "walk faulted after fault service");
    }
    walkCycles_ += result.cycles;

    FillInfo fill;
    fill.leaf = *walk.leaf;
    fill.vaddr = vaddr;
    fill.walk = &walk;
    if (l2_->supports(fill.leaf.size))
        l2_->fill(fill);
    if (l1_->supports(fill.leaf.size))
        l1_->fill(fill);

    result.paddr = walk.leaf->translate(vaddr);
    // The walker set the dirty bit on a store (x86 protocol), so no
    // separate micro-op is needed on this path.
    if (contracts::paranoia() >= 2)
        oracleCheck(vaddr, result.paddr);
    translationCycles_ += result.cycles;
    return result;
}

// mixcheck: hot
TlbHierarchy::BatchResult
TlbHierarchy::translateBatch(std::span<const MemRef> refs,
                             bool charge_data)
{
    refreshHotState();
    BatchResult out;
    out.done = refs.size();

    // Consecutive L0-filter replays accumulate here and flush as one
    // bulk replayLookup(n) — the designs' counters advance by the same
    // totals as n individual replays. The flush must precede any full
    // accessImpl (its lookups overwrite per-component replay state,
    // e.g. SplitTlb::lastSub_) and the batch's return (callers read
    // stats between batches).
    std::uint64_t pending = 0;
    Cycles fast_cycles = 0;
    const auto flush = [&] {
        if (!pending)
            return;
        accesses_ += pending;
        l1_->replayLookup(filter_.l1Result, pending);
        if (filter_.l2Path) {
            l2_->replayLookup(filter_.l2Result, pending);
            l2Hits_ += pending;
        } else {
            l1Hits_ += pending;
        }
        translationCycles_ += fast_cycles;
        out.cycles += fast_cycles;
        pending = 0;
        fast_cycles = 0;
    };

    for (std::size_t i = 0; i < refs.size(); ++i) {
        if (filter_.valid) {
            // Wide run-scan: count the leading refs the armed filter
            // replays (in-page, and loads-only unless the cached entry
            // is dirty) in one go instead of re-testing the filter per
            // reference. The run is charged in bulk; per-ref work
            // survives only where it has side effects (oracle checks,
            // data-cache charging) and runs in the original order.
            const TlbLookup &hit =
                filter_.l2Path ? filter_.l2Result : filter_.l1Result;
            const std::size_t run_end = simd::l0RunLength(
                refs.data() + i, refs.size() - i, filter_.lo,
                hit.entryDirty) + i;
            if (run_end != i) {
                if (charge_data || paranoia_ >= 2) {
                    for (std::size_t j = i; j < run_end; ++j) {
                        const VAddr vaddr = refs[j].vaddr;
                        const PAddr paddr = hit.xlate.translate(vaddr);
                        if (paranoia_ >= 2)
                            oracleCheck(vaddr, paddr);
                        if (charge_data) {
                            const bool is_store =
                                refs[j].type == AccessType::Write;
                            out.dataCycles +=
                                caches_.access(paddr, is_store);
                        }
                    }
                }
                pending += run_end - i;
                fast_cycles += (run_end - i) * filter_.cycles;
                if (run_end == refs.size())
                    break;
                i = run_end;
            }
        }
        const VAddr vaddr = refs[i].vaddr;
        const bool is_store = refs[i].type == AccessType::Write;
        flush();
        AccessResult result = accessImpl(vaddr, is_store);
        out.cycles += result.cycles;
        if (!result.ok) {
            out.ok = false;
            out.done = i;
            return out;
        }
        if (charge_data)
            out.dataCycles += caches_.access(result.paddr, is_store);
    }
    flush();
    return out;
}

void
TlbHierarchy::invalidatePage(VAddr vbase, PageSize size)
{
    filter_.valid = false;
    l1_->invalidate(vbase, size);
    l2_->invalidate(vbase, size);
    source_.invalidate(vbase, size);
}

void
TlbHierarchy::invalidatePage(VAddr vbase, PageSize size, Asid asid)
{
    filter_.valid = false;
    l1_->invalidate(vbase, size, asid);
    l2_->invalidate(vbase, size, asid);
    source_.invalidate(vbase, size);
}

void
TlbHierarchy::invalidateAll()
{
    filter_.valid = false;
    l1_->invalidateAll();
    l2_->invalidateAll();
}

void
TlbHierarchy::invalidateAsid(Asid asid)
{
    filter_.valid = false;
    l1_->invalidateAsid(asid);
    l2_->invalidateAsid(asid);
    source_.invalidateAsid(asid);
}

void
TlbHierarchy::setAsid(Asid asid)
{
    filter_.valid = false;
    l1_->setAsid(asid);
    l2_->setAsid(asid);
}

} // namespace mixtlb::tlb
