/**
 * @file
 * Test-only backdoor into MixTlb's private state, shared by the MIX
 * tests: corrupt one set's front entry for the audit tests, or build
 * the entry a fill would insert without inserting it.
 */

#ifndef MIXTLB_TESTS_MIX_TEST_ACCESS_HH
#define MIXTLB_TESTS_MIX_TEST_ACCESS_HH

#include "tlb/mix.hh"

namespace mixtlb::tlb
{

struct MixTlbTestAccess
{
    using Entry = MixTlb::Entry;

    /** The MRU entry of set @p set. */
    static Entry &
    front(MixTlb &tlb, unsigned set)
    {
        panic_if(set >= tlb.numSets() || tlb.sets_[set].empty(),
                 "no front entry in set %u", set);
        return tlb.sets_[set].payload(0);
    }

    static void
    shiftAnchor(MixTlb &tlb, unsigned set, std::uint64_t delta)
    {
        front(tlb, set).wpbase += delta;
    }

    static void
    setBitmap(MixTlb &tlb, unsigned set, std::uint64_t bitmap)
    {
        front(tlb, set).bitmap = bitmap;
    }

    static void
    setDirtyFlag(MixTlb &tlb, unsigned set, bool dirty)
    {
        front(tlb, set).dirty = dirty;
    }

    /** The entry MixTlb::fill would build for @p fill. */
    static Entry
    buildEntry(const MixTlb &tlb, const FillInfo &fill)
    {
        return tlb.buildEntry(fill);
    }
};

} // namespace mixtlb::tlb

#endif // MIXTLB_TESTS_MIX_TEST_ACCESS_HH
