/**
 * @file
 * Fundamental address and page-size types for the mixtlb simulator.
 *
 * All addresses model an x86-64 machine with 48-bit virtual and 48-bit
 * physical addresses and the three architectural page sizes (4KB, 2MB,
 * 1GB). Full 52-bit physical addresses extend identically (Sec. 4.1 of
 * the paper).
 */

#ifndef MIXTLB_COMMON_TYPES_HH
#define MIXTLB_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace mixtlb
{

/** A virtual address (byte granularity). */
using VAddr = std::uint64_t;

/** A physical address (byte granularity). */
using PAddr = std::uint64_t;

/** A virtual page number in 4KB-frame units. */
using Vpn = std::uint64_t;

/** A physical frame number in 4KB-frame units. */
using Pfn = std::uint64_t;

/** Simulation cycle / tick count. */
using Cycles = std::uint64_t;

/**
 * An address-space identifier tagging TLB/PWC entries so translations
 * from different processes can coexist (x86 PCID / ARM ASID). ASID 0 is
 * the single-process default every structure starts in.
 */
using Asid = std::uint16_t;

/** Number of bits in a 4KB page offset. */
constexpr unsigned PageShift4K = 12;
/** Number of bits in a 2MB page offset. */
constexpr unsigned PageShift2M = 21;
/** Number of bits in a 1GB page offset. */
constexpr unsigned PageShift1G = 30;

constexpr std::uint64_t PageBytes4K = 1ULL << PageShift4K;
constexpr std::uint64_t PageBytes2M = 1ULL << PageShift2M;
constexpr std::uint64_t PageBytes1G = 1ULL << PageShift1G;

/** 4KB frames per 2MB superpage. */
constexpr std::uint64_t Frames2M = 1ULL << (PageShift2M - PageShift4K);
/** 4KB frames per 1GB superpage. */
constexpr std::uint64_t Frames1G = 1ULL << (PageShift1G - PageShift4K);

/** Bytes per cache line; a line holds 8 PTEs of 8 bytes each. */
constexpr unsigned CacheLineBytes = 64;
/** Page-table entries that fit in one cache line. */
constexpr unsigned PtesPerCacheLine = 8;

/**
 * The architectural page sizes. The 2-bit encoding matches the page-size
 * field a MIX TLB entry stores (Figure 5 of the paper).
 */
enum class PageSize : std::uint8_t
{
    Size4K = 0,
    Size2M = 1,
    Size1G = 2,
};

/** Number of distinct architectural page sizes. */
constexpr unsigned NumPageSizes = 3;

/** Every page size, smallest first. */
inline constexpr PageSize AllPageSizes[NumPageSizes] = {
    PageSize::Size4K, PageSize::Size2M, PageSize::Size1G};

/** Page-offset bit count for a given page size. */
constexpr unsigned
pageShift(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return PageShift4K;
      case PageSize::Size2M: return PageShift2M;
      case PageSize::Size1G: return PageShift1G;
    }
    return PageShift4K;
}

/** Page size in bytes. */
constexpr std::uint64_t
pageBytes(PageSize size)
{
    return 1ULL << pageShift(size);
}

/** Number of constituent 4KB frames ("N" in Sec. 3 of the paper). */
constexpr std::uint64_t
framesPerPage(PageSize size)
{
    return pageBytes(size) >> PageShift4K;
}

/** Human-readable name ("4K", "2M", "1G"). */
inline const char *
pageSizeName(PageSize size)
{
    switch (size) {
      case PageSize::Size4K: return "4K";
      case PageSize::Size2M: return "2M";
      case PageSize::Size1G: return "1G";
    }
    return "?";
}

/** Virtual page number (in that page size's units) of an address. */
constexpr std::uint64_t
vpnOf(VAddr vaddr, PageSize size)
{
    return vaddr >> pageShift(size);
}

/** 4KB-granularity virtual page number of an address. */
constexpr Vpn
vpn4kOf(VAddr vaddr)
{
    return vaddr >> PageShift4K;
}

/** Base virtual address of the page containing @p vaddr. */
constexpr VAddr
pageBase(VAddr vaddr, PageSize size)
{
    return vaddr & ~(pageBytes(size) - 1);
}

/** Offset of @p vaddr within its page. */
constexpr std::uint64_t
pageOffset(VAddr vaddr, PageSize size)
{
    return vaddr & (pageBytes(size) - 1);
}

/** Memory access kinds carried by workload traces. */
enum class AccessType : std::uint8_t
{
    Read = 0,
    Write = 1,
};

/** A single memory reference produced by a workload generator. */
struct MemRef
{
    VAddr vaddr = 0;
    AccessType type = AccessType::Read;
};

} // namespace mixtlb

#endif // MIXTLB_COMMON_TYPES_HH
