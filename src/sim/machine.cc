#include "machine.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "virt/nested_walk.hh"

namespace mixtlb::sim
{

Machine::Machine(const MachineParams &params)
    : MachineCore(params.name, params.memBytes,
                  seededCompaction(params.seed), params.caches,
                  params.design, true, true)
{
    os::Memhog &hog = addMemhog(mm_, params.memhogFraction, params.seed);
    os::Process &proc = addProcess(mm_, params.proc);
    tlb::WalkSource &source = addNativeSource(proc, params.pwcEntries);
    const pt::PageTable *table = &proc.pageTable();
    tlb::TlbHierarchy &hier = addHierarchy(
        "tlb", &root_,
        makeCpuL1(params.design, &root_, table, params.scale),
        makeCpuL2(params.design, &root_, table, params.scale), source);
    addLane(hier, proc, hog);
}

void
Machine::touchSequential(VAddr base, std::uint64_t bytes,
                         std::uint64_t step)
{
    std::uint64_t steps = 0;
    for (std::uint64_t off = 0; off < bytes; off += step, steps++) {
        if (process().touch(base + off) == os::TouchResult::OutOfMemory) {
            MIX_RAISE("oom",
                      "machine %s: touchSequential ran out of memory "
                      "at offset %llu of %llu bytes",
                      root_.name().c_str(), (unsigned long long)off,
                      (unsigned long long)bytes);
        }
        if ((steps & (CheckPeriod - 1)) == CheckPeriod - 1 &&
            fault::deadlineExpired()) {
            MIX_RAISE("deadline",
                      "machine %s exceeded per-point deadline during "
                      "touchSequential",
                      root_.name().c_str());
        }
    }
}

VirtMachine::VirtMachine(const VirtMachineParams &params)
    : MachineCore(params.name, params.hostMemBytes, {}, params.caches,
                  params.design, true, false)
{
    fatal_if(params.numVms == 0, "virtual machine count is zero");
    // IdealTlb translates from the page table it is built over; here
    // that is the guest's, so it would return guest-physical addresses.
    fatal_if(params.design == TlbDesign::Ideal,
             "the ideal TLB cannot run in a virtual machine");
    std::uint64_t vm_bytes = params.vmMemBytes
                                 ? params.vmMemBytes
                                 : params.hostMemBytes / params.numVms;

    for (unsigned i = 0; i < params.numVms; i++) {
        virt::VmParams vm_params;
        vm_params.name = "vm" + std::to_string(i);
        vm_params.guestMemBytes = vm_bytes;
        vm_params.hostPolicy = params.hostPolicy;
        vms_.push_back(std::make_unique<virt::Vm>(mm_, vm_params, &root_));
        virt::Vm &vm = *vms_[i];

        os::Memhog &hog = addMemhog(vm.guestMm(), params.guestMemhogFraction,
                                    params.seed + 100 + i);
        os::ProcessParams proc_params = params.guestProc;
        proc_params.name = "guest" + std::to_string(i);
        os::Process &proc = addProcess(vm.guestMm(), proc_params);
        auto &source = addSource(std::make_unique<virt::NestedWalkSource>(
            vm, proc, &vm.statGroup(), walkerScanLines(params.design)));

        const pt::PageTable *table = &proc.pageTable();
        tlb::TlbHierarchy &hier = addHierarchy(
            "tlb" + std::to_string(i), &root_,
            makeCpuL1(params.design, &vm.statGroup(), table, params.scale),
            makeCpuL2(params.design, &vm.statGroup(), table, params.scale),
            source);
        addLane(hier, proc, hog);
        // INVEPT single-context: any host-side change to this VM's EPT
        // (demote, reclaim, migrate) flushes its vCPU's TLBs.
        vm.eptProcess().addInvalidateListener(
            [&hier](VAddr, PageSize) { hier.invalidateAll(); });
    }
}

VirtMachine::~VirtMachine()
{
    // Guest processes and memhogs use their VM's memory manager, and
    // the vCPU TLBs' statistics live in its stat group: destroy the
    // dependents before the VMs.
    teardown();
}

void
VirtMachine::auditOs(contracts::AuditReport &report) const
{
    for (const auto &vm : vms_)
        vm->audit(report);
}

std::vector<std::uint64_t>
VirtMachine::nestedContiguityRuns(unsigned vm, PageSize size) const
{
    // A nested run extends while guest VA and *system* PA both advance
    // by one superpage; the host must back each guest superpage with a
    // host page at least as large.
    std::vector<std::uint64_t> runs;
    const auto &vmref = *vms_.at(vm);
    bool have_prev = false;
    VAddr prev_vbase = 0;
    PAddr prev_spa = 0;
    std::uint64_t run = 0;

    process(vm).pageTable().forEachLeaf(
        [&](const pt::Translation &t) {
            if (t.size != size)
                return;
            auto spa = vmref.hostPhysIfMapped(t.pbase);
            bool backed = spa.has_value();
            if (backed) {
                auto host =
                    vmref.ept().translate(vmref.eptHva(t.pbase));
                backed = host &&
                         pageShift(host->size) >= pageShift(size);
            }
            if (!backed) {
                if (run > 0)
                    runs.push_back(run);
                run = 0;
                have_prev = false;
                return;
            }
            if (have_prev &&
                t.vbase == prev_vbase + pageBytes(size) &&
                *spa == prev_spa + pageBytes(size)) {
                run++;
            } else {
                if (run > 0)
                    runs.push_back(run);
                run = 1;
            }
            prev_vbase = t.vbase;
            prev_spa = *spa;
            have_prev = true;
        });
    if (run > 0)
        runs.push_back(run);
    return runs;
}

/**
 * The GPU schedule: one warp per core per turn, cores in round-robin
 * order, until the run's total is issued. A short turn (OOM) ends the
 * run.
 */
class GpuMachine::WarpInterleave final : public Schedule
{
  public:
    WarpInterleave(GpuMachine &machine, std::uint64_t total_refs)
        : machine_(machine), total_(total_refs)
    {}

    bool
    next(Turn &turn) override
    {
        if (stopped_ || issued_ >= total_)
            return false;
        turn = {core_, machine_.gens_[core_].get(),
                std::min(WarpRefs, total_ - issued_)};
        core_ = (core_ + 1) % machine_.numCores();
        return true;
    }

    void
    finish(const Turn &turn, std::uint64_t done) override
    {
        issued_ += done;
        stopped_ = done < turn.refs;
    }

  private:
    GpuMachine &machine_;
    std::uint64_t total_;
    std::uint64_t issued_ = 0;
    unsigned core_ = 0;
    bool stopped_ = false;
};

GpuMachine::GpuMachine(const GpuMachineParams &params)
    : MachineCore(params.name, params.memBytes, {}, params.caches,
                  params.design, false, false)
{
    fatal_if(params.numCores == 0, "GPU with zero shader cores");
    os::Memhog &hog = addMemhog(mm_, params.memhogFraction, params.seed);
    os::Process &proc = addProcess(mm_, os::ProcessParams{});
    tlb::WalkSource &source = addNativeSource(proc);
    const pt::PageTable *table = &proc.pageTable();
    auto l2 = makeGpuL2(params.design, &root_, table);
    for (unsigned core = 0; core < params.numCores; core++) {
        tlb::TlbHierarchy &hier = addHierarchy(
            "core" + std::to_string(core), &root_,
            makeGpuCoreL1(params.design, core, &root_, table), l2, source);
        addLane(hier, proc, hog);
    }
}

std::uint64_t
GpuMachine::run(std::uint64_t total_refs)
{
    for (unsigned core = 0; core < numCores(); core++) {
        fatal_if(!gens_[core], "GPU core %u has no workload attached",
                 core);
    }
    WarpInterleave schedule(*this, total_refs);
    return drive(schedule);
}

void
GpuMachine::invalidatePage(VAddr vbase, PageSize size)
{
    for (unsigned core = 0; core < numCores(); core++)
        hierarchy(core).invalidatePage(vbase, size);
}

} // namespace mixtlb::sim
