/**
 * @file
 * Probe scans for the hot loops, plus prefetch hints.
 *
 * Every TLB/cache probe is a linear scan over a packed `std::uint64_t`
 * tag lane; the L0 filter's replay is a scan over a batch of refs for
 * the first one that leaves the filtered page. These loops live here
 * so the designs, the cache and the batch translator share one
 * definition of "first match" (the lowest index wins).
 *
 * `firstEqual`/`firstEqualAny` take a start offset so callers that
 * re-confirm tag hits against a full predicate (TagLaneSet) can resume
 * the scan mid-lane past a confirm-rejected collision.
 *
 * The scans are plain loops on purpose: explicit SIMD kernels showed no
 * gain on the gated host-throughput workloads (DESIGN.md section 13),
 * and mixcheck rule `simd` keeps raw intrinsics out of the tree.
 */

#ifndef MIXTLB_COMMON_SIMD_HH
#define MIXTLB_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/types.hh"

namespace mixtlb::simd
{

/** "No match"; TagLaneSet::npos is this same value. */
inline constexpr std::size_t npos =
    std::numeric_limits<std::size_t>::max();

/** Name of the probe kernel, for reports. */
constexpr const char *
activeKernelName()
{
    return "scalar";
}

/** Hint loads/stores of the line holding @p p (no-op off GNU/Clang). */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
}

inline void
prefetchWrite(void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 1, 3);
#else
    (void)p;
#endif
}

/**
 * Lowest index in [start, n) with lane[i] == tag, else npos.
 */
// mixcheck: hot
inline std::size_t
firstEqual(const std::uint64_t *lane, std::size_t n, std::uint64_t tag,
           std::size_t start = 0)
{
    for (std::size_t i = start; i < n; ++i) {
        if (lane[i] == tag)
            return i;
    }
    return npos;
}

/**
 * Lowest index in [start, n) with lane[i] equal to *any* of the
 * @p ncands candidate tags, else npos. The candidate values are
 * hoisted into locals and the comparison short-circuits.
 */
// mixcheck: hot
inline std::size_t
firstEqualAny(const std::uint64_t *lane, std::size_t n,
              const std::uint64_t *cands, unsigned ncands,
              std::size_t start = 0)
{
    switch (ncands) {
      case 0:
        return npos;
      case 1:
        return firstEqual(lane, n, cands[0], start);
      case 2: {
        const std::uint64_t c0 = cands[0], c1 = cands[1];
        for (std::size_t i = start; i < n; ++i) {
            const std::uint64_t t = lane[i];
            if (t == c0 || t == c1)
                return i;
        }
        return npos;
      }
      case 3: {
        const std::uint64_t c0 = cands[0], c1 = cands[1];
        const std::uint64_t c2 = cands[2];
        for (std::size_t i = start; i < n; ++i) {
            const std::uint64_t t = lane[i];
            if (t == c0 || t == c1 || t == c2)
                return i;
        }
        return npos;
      }
      default:
        for (std::size_t i = start; i < n; ++i) {
            const std::uint64_t t = lane[i];
            for (unsigned c = 0; c < ncands; ++c) {
                if (t == cands[c])
                    return i;
            }
        }
        return npos;
    }
}

/**
 * Number of leading refs in [0, n) the armed L0 filter can replay:
 * vaddr in [lo, lo + 4KB) and (stores_ok || a load). Returns the index
 * of the first ref that breaks the run (n if none does).
 */
// mixcheck: hot
inline std::size_t
l0RunLength(const MemRef *refs, std::size_t n, VAddr lo, bool stores_ok)
{
    std::size_t i = 0;
    for (; i < n; ++i) {
        if (refs[i].vaddr - lo >= PageBytes4K)
            break;
        if (!stores_ok && refs[i].type != AccessType::Read)
            break;
    }
    return i;
}

} // namespace mixtlb::simd

#endif // MIXTLB_COMMON_SIMD_HH
