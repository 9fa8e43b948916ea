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

    static void
    shiftAnchor(MixTlb &tlb, unsigned set, std::uint64_t delta)
    {
        tlb.sets_.at(set).payload(0).wpbase += delta;
    }

    static void
    setBitmap(MixTlb &tlb, unsigned set, std::uint64_t bitmap)
    {
        tlb.sets_.at(set).payload(0).bitmap = bitmap;
    }

    static void
    setDirtyFlag(MixTlb &tlb, unsigned set, bool dirty)
    {
        tlb.sets_.at(set).payload(0).dirty = dirty;
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
