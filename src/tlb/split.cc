#include "split.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mixtlb::tlb
{

SplitTlb::SplitTlb(const std::string &name, stats::StatGroup *parent)
    : BaseTlb(name, parent)
{
}

BaseTlb &
SplitTlb::addComponent(std::unique_ptr<BaseTlb> component)
{
    components_.push_back(std::move(component));
    components_.back()->setAsid(asid_);
    lastSub_.resize(components_.size());
    return *components_.back();
}

// mixcheck: hot
TlbLookup
SplitTlb::lookup(VAddr vaddr, bool is_store)
{
    // All components are probed in parallel; at most one can hit (a
    // page is cached only in the component owning its size).
    TlbLookup result;
    result.probes = 0;
    result.waysRead = 0;
    for (std::size_t c = 0; c < components_.size(); ++c) {
        TlbLookup sub = components_[c]->lookup(vaddr, is_store);
        lastSub_[c] = sub;
        result.probes = std::max(result.probes, sub.probes);
        result.waysRead += sub.waysRead;
        if (sub.hit) {
            result.hit = true;
            result.xlate = sub.xlate;
            result.entryDirty = sub.entryDirty;
            result.bundle = sub.bundle;
        }
    }
    if (result.probes == 0)
        result.probes = 1;
    recordLookup(result);
    return result;
}

// mixcheck: hot
void
SplitTlb::fill(const FillInfo &fill)
{
    for (auto &component : components_) {
        if (component->supports(fill.leaf.size)) {
            component->fill(fill);
            ++fills_;
            return;
        }
    }
    panic("no split component supports %s pages",
          pageSizeName(fill.leaf.size));
}

void
SplitTlb::invalidate(VAddr vbase, PageSize size, Asid asid)
{
    ++invalidations_;
    for (auto &component : components_)
        component->invalidate(vbase, size, asid);
}

void
SplitTlb::invalidateAll()
{
    ++invalidations_;
    for (auto &component : components_)
        component->invalidateAll();
}

void
SplitTlb::invalidateAsid(Asid asid)
{
    ++invalidations_;
    for (auto &component : components_)
        component->invalidateAsid(asid);
}

void
SplitTlb::setAsid(Asid asid)
{
    BaseTlb::setAsid(asid);
    for (auto &component : components_)
        component->setAsid(asid);
}

void
SplitTlb::markDirty(VAddr vaddr)
{
    for (auto &component : components_)
        component->markDirty(vaddr);
}

bool
SplitTlb::replayable(const TlbLookup &result, VAddr vaddr) const
{
    (void)result;
    for (std::size_t c = 0; c < components_.size(); ++c)
        if (!components_[c]->replayable(lastSub_[c], vaddr))
            return false;
    return true;
}

void
SplitTlb::replayLookup(const TlbLookup &result, std::uint64_t n)
{
    for (std::size_t c = 0; c < components_.size(); ++c)
        components_[c]->replayLookup(lastSub_[c], n);
    BaseTlb::replayLookup(result, n);
}

void
SplitTlb::audit(contracts::AuditReport &report) const
{
    for (const auto &component : components_)
        component->audit(report);
}

bool
SplitTlb::supports(PageSize size) const
{
    return std::any_of(components_.begin(), components_.end(),
                       [&](const auto &c) { return c->supports(size); });
}

std::uint64_t
SplitTlb::numEntries() const
{
    std::uint64_t total = 0;
    for (const auto &component : components_)
        total += component->numEntries();
    return total;
}

unsigned
SplitTlb::numWays() const
{
    unsigned total = 0;
    for (const auto &component : components_)
        total += component->numWays();
    return total;
}

} // namespace mixtlb::tlb
