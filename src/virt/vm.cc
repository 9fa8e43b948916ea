#include "vm.hh"

#include "common/logging.hh"

namespace mixtlb::virt
{

Vm::Vm(os::MemoryManager &host_mm, const VmParams &params,
       stats::StatGroup *parent)
    : params_(params), stats_(params.name, parent),
      eptFaults_(stats_.addScalar("ept_faults",
                                  "EPT violations serviced"))
{
    guestPhys_ = std::make_unique<mem::PhysMem>(params.guestMemBytes);
    guestMm_ = std::make_unique<os::MemoryManager>(*guestPhys_, &stats_);

    os::ProcessParams ept_params;
    ept_params.name = "ept";
    ept_params.policy = params.hostPolicy;
    ept_params.thpDefrag = params.hostDefrag;
    eptProc_ = std::make_unique<os::Process>(host_mm, ept_params, &stats_);
    eptBase_ = eptProc_->mmap(params.guestMemBytes);
}

std::optional<PAddr>
Vm::hostPhys(PAddr gpa, bool is_write)
{
    auto leaf = hostLeaf(gpa, is_write);
    if (!leaf)
        return std::nullopt;
    return leaf->translate(eptBase_ + gpa);
}

std::optional<PAddr>
Vm::hostPhysIfMapped(PAddr gpa) const
{
    auto leaf = eptProc_->pageTable().translate(eptBase_ + gpa);
    if (!leaf)
        return std::nullopt;
    return leaf->translate(eptBase_ + gpa);
}

std::optional<pt::Translation>
Vm::hostLeaf(PAddr gpa, bool is_write)
{
    panic_if(gpa >= params_.guestMemBytes,
             "guest-physical address beyond guest memory");
    VAddr hva = eptBase_ + gpa;
    auto leaf = eptProc_->pageTable().translate(hva);
    if (!leaf) {
        ++eptFaults_;
        if (eptProc_->touch(hva, is_write) == os::TouchResult::OutOfMemory)
            return std::nullopt;
        leaf = eptProc_->pageTable().translate(hva);
        panic_if(!leaf, "EPT still unmapped after fault service");
    }
    return leaf;
}

void
Vm::audit(contracts::AuditReport &report) const
{
    guestPhys_->audit(report);
    guestMm_->audit(report);
    eptProc_->audit(report);
}

} // namespace mixtlb::virt
