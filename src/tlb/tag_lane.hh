/**
 * @file
 * The set store of every set-associative TLB: packed 64-bit tag lanes
 * scanned on lookup, kept in MRU order, with the full entry payloads
 * in a separate array that never moves once written.
 *
 * A TagLaneStore holds four flat arrays for sets × ways entries:
 *  - tags, in MRU order within each set (position 0 = MRU);
 *  - slot order, one byte per position: the payload slot that
 *    position uses; the set's free slots sit after its live count;
 *  - a live count per set;
 *  - payloads, one slot per way, written in place.
 * A TagLaneSet is a pointer view of one set. A hit, a fill or an erase
 * shifts only the 8-byte tags and the 1-byte slot indices; a fill into
 * a full set reuses the LRU entry's slot. Recency is position, as in a
 * vector kept in MRU order, so every scan below visits entries in the
 * order a `std::find_if` over that vector would.
 *
 * Exactness contract: the tag is a pure function of the fields the
 * design's match predicate reads, so a true match always has equal
 * tags (no false negatives). Tags may collide (packing wraps), so
 * every tag hit is re-checked with the design's full predicate and
 * the scan continues past failed confirms — the first confirmed index
 * is therefore identical to the first `std::find_if` match, and all
 * mutators move a position's tag and slot together, making the layout
 * bit-exact with the reference scan.
 */

#ifndef MIXTLB_TLB_TAG_LANE_HH
#define MIXTLB_TLB_TAG_LANE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"

namespace mixtlb::tlb
{

template <typename Payload>
class TagLaneStore;

/** One set of a TagLaneStore: a view, cheap to copy. */
template <typename Payload>
class TagLaneSet
{
  public:
    static constexpr std::size_t npos = simd::npos;

    std::size_t size() const { return *count_; }
    bool empty() const { return *count_ == 0; }

    std::uint64_t tag(std::size_t i) const { return tags_[i]; }
    Payload &payload(std::size_t i) const { return payloads_[order_[i]]; }

    /**
     * First index whose tag equals @p tag and whose payload passes
     * @p confirm; scans on past tag collisions that fail confirm.
     *
     * The lane scan (simd::firstEqual) returns the *lowest* matching
     * index and resumes from i + 1 after a failed confirm, so the
     * first confirmed index is the one a full-predicate scan returns.
     */
    // mixcheck: soa-scan
    template <typename Confirm>
    std::size_t
    findTag(std::uint64_t tag, Confirm &&confirm) const
    {
        const std::size_t n = size();
        simd::prefetchRead(payloads_ + order_[0]);
        for (std::size_t i = simd::firstEqual(tags_, n, tag); i != npos;
             i = simd::firstEqual(tags_, n, tag, i + 1)) {
            if (confirm(payload(i)))
                return i;
        }
        return npos;
    }

    /**
     * findTag against @p ncands candidate tags at once (designs whose
     * probe can match one window per page size). First index in MRU
     * order matching *any* candidate and confirming wins — the same
     * order a full-predicate scan yields.
     */
    // mixcheck: soa-scan
    template <typename Confirm>
    std::size_t
    findTagAny(const std::uint64_t *cands, unsigned ncands,
               Confirm &&confirm) const
    {
        const std::size_t n = size();
        simd::prefetchRead(payloads_ + order_[0]);
        for (std::size_t i = simd::firstEqualAny(tags_, n, cands, ncands);
             i != npos;
             i = simd::firstEqualAny(tags_, n, cands, ncands, i + 1)) {
            if (confirm(payload(i)))
                return i;
        }
        return npos;
    }

    /** Reference scan: first index whose payload satisfies @p pred. */
    template <typename Pred>
    std::size_t
    findIf(Pred &&pred) const
    {
        for (std::size_t i = 0; i < size(); ++i) {
            if (pred(payload(i)))
                return i;
        }
        return npos;
    }

    /** Move entry @p i to MRU; the entries above it age by one. */
    void
    rotateToFront(std::size_t i)
    {
        const std::uint64_t tag = tags_[i];
        const std::uint8_t slot = order_[i];
        for (; i > 0; --i) {
            tags_[i] = tags_[i - 1];
            order_[i] = order_[i - 1];
        }
        tags_[0] = tag;
        order_[0] = slot;
    }

    /**
     * Insert @p payload as MRU. A full set evicts its LRU entry and
     * reuses that entry's payload slot; otherwise the first free slot.
     */
    void
    insertFront(std::uint64_t tag, const Payload &payload)
    {
        std::size_t last = *count_;
        if (last < ways_)
            ++*count_;
        else
            --last;
        const std::uint8_t slot = order_[last];
        for (std::size_t i = last; i > 0; --i) {
            tags_[i] = tags_[i - 1];
            order_[i] = order_[i - 1];
        }
        tags_[0] = tag;
        order_[0] = slot;
        payloads_[slot] = payload;
    }

    /** Drop entry @p i; its slot becomes the first free one. */
    void
    eraseAt(std::size_t i)
    {
        const std::uint8_t slot = order_[i];
        const std::size_t last = --*count_;
        for (; i < last; ++i) {
            tags_[i] = tags_[i + 1];
            order_[i] = order_[i + 1];
        }
        order_[last] = slot;
    }

    /**
     * Stable `std::erase_if` on payloads: the kept entries keep their
     * relative recency. Returns entries removed.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        const std::size_t n = size();
        std::size_t out = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!pred(payload(i))) {
                // Positions [out, i) hold the removed entries' slots;
                // the swap moves one of them to position i.
                if (out != i) {
                    tags_[out] = tags_[i];
                    std::swap(order_[out], order_[i]);
                }
                ++out;
            }
        }
        *count_ = static_cast<std::uint8_t>(out);
        return n - out;
    }

    void clear() { *count_ = 0; }

  private:
    friend class TagLaneStore<Payload>;

    TagLaneSet(std::uint64_t *tags, std::uint8_t *order,
               std::uint8_t *count, Payload *payloads, unsigned ways)
        : tags_(tags), order_(order), count_(count), payloads_(payloads),
          ways_(ways)
    {}

    std::uint64_t *tags_;
    std::uint8_t *order_;
    std::uint8_t *count_;
    Payload *payloads_;
    unsigned ways_;
};

/** Every set of one TLB array, in four flat arrays (see file comment). */
template <typename Payload>
class TagLaneStore
{
  public:
    /** Slot indices and live counts are bytes. */
    static constexpr unsigned MaxWays = 255;

    TagLaneStore() = default;

    TagLaneStore(std::size_t sets, unsigned ways)
        : ways_(ways), tags_(sets * ways), order_(sets * ways),
          counts_(sets), payloads_(sets * ways)
    {
        fatal_if(ways == 0 || ways > MaxWays,
                 "a TLB set holds 1 to %u ways (got %u)", MaxWays, ways);
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = static_cast<std::uint8_t>(i % ways);
    }

    TagLaneSet<Payload>
    operator[](std::size_t s)
    {
        const std::size_t base = s * ways_;
        return {tags_.data() + base, order_.data() + base, &counts_[s],
                payloads_.data() + base, ways_};
    }

    /** A view for read-only callers (audits); views carry no const. */
    TagLaneSet<Payload>
    operator[](std::size_t s) const
    {
        return const_cast<TagLaneStore &>(*this)[s];
    }

    /** Empty every set. */
    void clear() { std::fill(counts_.begin(), counts_.end(), 0); }

  private:
    unsigned ways_ = 0;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> order_;
    std::vector<std::uint8_t> counts_;
    std::vector<Payload> payloads_;
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TLB_TAG_LANE_HH
