#include "phys_mem.hh"

#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::mem
{

PhysMem::PhysMem(std::uint64_t bytes)
    : bytes_(bytes), buddy_(bytes >> PageShift4K),
      frameUse_(bytes >> PageShift4K, FrameUse::Free),
      slot_(bytes >> PageShift4K, 0)
{
    fatal_if(bytes == 0 || (bytes & (PageBytes4K - 1)) != 0,
             "physical memory size must be a nonzero multiple of 4KB");
}

std::optional<Pfn>
PhysMem::allocFrames(unsigned order, FrameUse use)
{
    auto pfn = buddy_.alloc(order);
    if (pfn)
        tagFrames(*pfn, order, use);
    return pfn;
}

bool
PhysMem::allocFramesAt(Pfn pfn, unsigned order, FrameUse use)
{
    if (!buddy_.allocRegion(pfn, order))
        return false;
    tagFrames(pfn, order, use);
    return true;
}

void
PhysMem::freeFrames(Pfn pfn, unsigned order)
{
    tagFrames(pfn, order, FrameUse::Free);
    for (std::uint64_t i = 0; i < pow2(order); i++) {
        if (slot_[pfn + i] != 0)
            spare_.push_back(std::exchange(slot_[pfn + i], 0));
    }
    buddy_.free(pfn, order);
}

void
PhysMem::retagFrames(Pfn pfn, unsigned order, FrameUse use)
{
    for (std::uint64_t i = 0; i < pow2(order); i++) {
        panic_if(frameUse_[pfn + i] == FrameUse::Free,
                 "retagFrames over a free frame");
    }
    tagFrames(pfn, order, use);
}

void
PhysMem::tagFrames(Pfn pfn, unsigned order, FrameUse use)
{
    panic_if(pfn + pow2(order) > frameUse_.size(),
             "frame range out of bounds");
    for (std::uint64_t i = 0; i < pow2(order); i++)
        frameUse_[pfn + i] = use;
}

FrameUse
PhysMem::frameUse(Pfn pfn) const
{
    panic_if(pfn >= frameUse_.size(), "pfn out of bounds");
    return frameUse_[pfn];
}

void
PhysMem::audit(contracts::AuditReport &report) const
{
    buddy_.audit(report);

    // Cross-check the usage tags against the free lists: every frame
    // inside a free block must be tagged Free, and the Free tags must
    // cover exactly the free frames (no frame both handed out and on
    // a free list, none leaked as allocated-but-untracked).
    std::vector<bool> in_free_list(frameUse_.size(), false);
    buddy_.forEachFreeBlock([&](Pfn base, unsigned order) {
        for (std::uint64_t i = 0; i < pow2(order); i++) {
            if (base + i < in_free_list.size())
                in_free_list[base + i] = true;
        }
    });
    std::uint64_t mismatches = 0;
    std::uint64_t stale_buffers = 0;
    for (Pfn pfn = 0; pfn < frameUse_.size(); pfn++) {
        const bool tagged_free = frameUse_[pfn] == FrameUse::Free;
        if (tagged_free && slot_[pfn] != 0)
            stale_buffers++;
        if (tagged_free == in_free_list[pfn])
            continue;
        if (mismatches++ < 8) { // a systematic drift floods the report
            MIX_AUDIT_CHECK(report, false,
                            "frame 0x%llx is %s in the buddy but "
                            "tagged %s",
                            (unsigned long long)pfn,
                            in_free_list[pfn] ? "free" : "allocated",
                            tagged_free ? "Free" : "in use");
        }
    }
    MIX_AUDIT_CHECK(report, mismatches <= 8,
                    "%llu further frame tag / free list mismatches",
                    (unsigned long long)(mismatches - 8));
    MIX_AUDIT_CHECK(report, stale_buffers == 0,
                    "%llu free frames still hold a word buffer",
                    (unsigned long long)stale_buffers);
}

std::uint32_t
PhysMem::takeSlot()
{
    if (!spare_.empty()) {
        const std::uint32_t slot = spare_.back();
        spare_.pop_back();
        buffers_[slot - 1]->fill(0);
        return slot;
    }
    panic_if(buffers_.size() >= UINT32_MAX, "frame buffer slots exhausted");
    buffers_.push_back(std::make_unique<FrameData>());
    buffers_.back()->fill(0);
    return static_cast<std::uint32_t>(buffers_.size());
}

} // namespace mixtlb::mem
