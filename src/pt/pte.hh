/**
 * @file
 * x86-64-style page-table entry encoding and the Translation struct that
 * is the common currency between the page-table walker and the TLBs.
 */

#ifndef MIXTLB_PT_PTE_HH
#define MIXTLB_PT_PTE_HH

#include <cstdint>

#include "common/types.hh"

namespace mixtlb::pt
{

/** Access permission / attribute flags carried by a translation. */
struct Perms
{
    bool writable = true;
    bool user = true;
    bool noExec = false;

    bool operator==(const Perms &) const = default;
};

/**
 * A decoded leaf translation. @c vbase / @c pbase are the page-aligned
 * virtual/physical base addresses.
 */
struct Translation
{
    VAddr vbase = 0;
    PAddr pbase = 0;
    PageSize size = PageSize::Size4K;
    Perms perms{};
    bool accessed = false;
    bool dirty = false;

    /** 4KB-granularity physical frame number of the page base. */
    Pfn pfn4k() const { return pbase >> PageShift4K; }

    /** Page number in this page size's own units. */
    std::uint64_t vpn() const { return vbase >> pageShift(size); }
    std::uint64_t ppn() const { return pbase >> pageShift(size); }

    /** Translate an address inside this page. */
    PAddr
    translate(VAddr vaddr) const
    {
        return pbase | (vaddr & (pageBytes(size) - 1));
    }

    /** True if @p vaddr lies inside this page. */
    bool
    covers(VAddr vaddr) const
    {
        return (vaddr & ~(pageBytes(size) - 1)) == vbase;
    }
};

/**
 * Raw 64-bit PTE encode/decode. Bit layout follows the Intel SDM:
 * P(0) W(1) U(2) A(5) D(6) PS(7) frame(47:12) NX(63).
 */
namespace pte
{

constexpr std::uint64_t P = 1ULL << 0;
constexpr std::uint64_t W = 1ULL << 1;
constexpr std::uint64_t U = 1ULL << 2;
constexpr std::uint64_t A = 1ULL << 5;
constexpr std::uint64_t D = 1ULL << 6;
constexpr std::uint64_t PS = 1ULL << 7;
constexpr std::uint64_t NX = 1ULL << 63;
constexpr std::uint64_t FrameMask = ((1ULL << 48) - 1) & ~(PageBytes4K - 1);

/** Encode a leaf or intermediate entry pointing at @p pbase. */
constexpr std::uint64_t
make(PAddr pbase, Perms perms, bool page_size_bit,
     bool accessed = false, bool dirty = false)
{
    std::uint64_t raw = P | (pbase & FrameMask);
    if (perms.writable)
        raw |= W;
    if (perms.user)
        raw |= U;
    if (perms.noExec)
        raw |= NX;
    if (page_size_bit)
        raw |= PS;
    if (accessed)
        raw |= A;
    if (dirty)
        raw |= D;
    return raw;
}

constexpr bool present(std::uint64_t raw) { return raw & P; }
constexpr bool pageSizeBit(std::uint64_t raw) { return raw & PS; }
constexpr bool accessed(std::uint64_t raw) { return raw & A; }
constexpr bool dirty(std::uint64_t raw) { return raw & D; }
constexpr PAddr frame(std::uint64_t raw) { return raw & FrameMask; }

constexpr Perms
perms(std::uint64_t raw)
{
    return Perms{(raw & W) != 0, (raw & U) != 0, (raw & NX) != 0};
}

/** Decode the leaf entry @p raw, which maps the @p size page at @p vbase. */
inline Translation
decodeLeaf(std::uint64_t raw, VAddr vbase, PageSize size)
{
    Translation xlate;
    xlate.vbase = vbase;
    xlate.pbase = frame(raw);
    xlate.size = size;
    xlate.perms = perms(raw);
    xlate.accessed = accessed(raw);
    xlate.dirty = dirty(raw);
    return xlate;
}

} // namespace pte

} // namespace mixtlb::pt

#endif // MIXTLB_PT_PTE_HH
