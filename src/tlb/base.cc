#include "base.hh"

#include <atomic>

#include "common/intmath.hh"

namespace mixtlb::tlb
{

namespace
{
std::atomic<bool> g_reference_scan{false};
} // namespace

void
setReferenceScanEnabled(bool enabled)
{
    g_reference_scan.store(enabled, std::memory_order_relaxed);
}

bool
referenceScanEnabled()
{
    return g_reference_scan.load(std::memory_order_relaxed);
}

std::uint64_t
bundleSlots(const BundleInfo &bundle, PageSize size, VAddr wbase,
            PAddr wpbase, pt::Perms perms, unsigned slots)
{
    if (bundle.size != size)
        return 0;
    MIX_AUDIT(pageOffset(bundle.vbase, size) == 0 &&
              pageOffset(bundle.pbase, size) == 0,
              "bundle 0x%llx->0x%llx is not page aligned",
              (unsigned long long)bundle.vbase,
              (unsigned long long)bundle.pbase);
    if (bundle.perms != perms ||
        bundle.pbase - bundle.vbase != wpbase - wbase) {
        return 0;
    }
    // Slot range [s0, s1) of the bundle within the window, counted
    // without forming addresses that could wrap.
    const unsigned shift = pageShift(size);
    std::uint64_t s0 = 0;
    std::uint64_t count = bundle.count;
    if (bundle.vbase >= wbase) {
        s0 = shiftRight(bundle.vbase - wbase, shift);
    } else {
        const std::uint64_t before = shiftRight(wbase - bundle.vbase, shift);
        count = count > before ? count - before : 0;
    }
    if (s0 >= slots || count == 0)
        return 0;
    const std::uint64_t s1 = count >= slots - s0 ? slots : s0 + count;
    return slotRange(static_cast<unsigned>(s0), static_cast<unsigned>(s1));
}

std::uint64_t
slotRange(unsigned lo, unsigned hi)
{
    const unsigned width = hi - lo;
    return width >= 64 ? ~0ULL : shiftLeft(pow2(width) - 1, lo);
}

BaseTlb::BaseTlb(const std::string &name, stats::StatGroup *parent)
    : stats_(name, parent),
      hits_(stats_.addCounter("hits", "TLB hits")),
      misses_(stats_.addCounter("misses", "TLB misses")),
      fills_(stats_.addCounter("fills",
                               "entry writes including mirror copies")),
      coalesces_(stats_.addCounter(
          "coalesces", "fills merged into existing entries")),
      invalidations_(stats_.addCounter("invalidations",
                                       "invalidation operations")),
      probesTotal_(stats_.addCounter("probes",
                                     "probe rounds over all lookups")),
      waysReadTotal_(stats_.addCounter("ways_read",
                                       "entries read over all lookups"))
{
    stats_.addFormula("miss_rate", "miss fraction", [this] {
        double total = double(hits_.value() + misses_.value());
        return total > 0 ? double(misses_.value()) / total : 0.0;
    });
}

} // namespace mixtlb::tlb
