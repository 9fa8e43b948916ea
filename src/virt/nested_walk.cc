#include "nested_walk.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mixtlb::virt
{

NestedWalkSource::NestedWalkSource(Vm &vm, os::Process &guest_proc,
                                   stats::StatGroup *parent,
                                   unsigned scan_lines)
    : vm_(vm), guestProc_(guest_proc), scanLines_(scan_lines),
      stats_("nested", parent),
      eptWalker_(vm.ept(), &stats_),
      nestedWalks_(stats_.addCounter("walks", "nested 2-D walks")),
      guestFaultsSeen_(stats_.addCounter("guest_faults",
                                         "guest page faults observed"))
{
}

std::optional<pt::Translation>
NestedWalkSource::hostWalk(PAddr gpa, bool is_write,
                           InlineVec<PAddr, pt::MaxWalkAccesses> &accesses)
{
    VAddr hva = vm_.eptHva(gpa);
    if (auto leaf = eptWalker_.walkLeaf(hva, is_write, accesses))
        return leaf;
    // EPT violation: the hypervisor backs the page, then the hardware
    // re-walks. Both walks' accesses are paid.
    if (!vm_.hostLeaf(gpa, is_write))
        return std::nullopt; // host OOM
    auto leaf = eptWalker_.walkLeaf(hva, is_write, accesses);
    panic_if(!leaf, "EPT fault after backing");
    return leaf;
}

pt::Translation
NestedWalkSource::effectiveLeaf(VAddr gva, const pt::Translation &guest,
                                const pt::Translation &host,
                                VAddr ept_base)
{
    // The TLB-cacheable page size is the smaller of the two levels.
    PageSize eff = guest.size;
    if (pageShift(host.size) < pageShift(eff))
        eff = host.size;

    pt::Translation leaf;
    leaf.size = eff;
    leaf.vbase = pageBase(gva, eff);
    PAddr gpa_base = guest.translate(leaf.vbase);
    leaf.pbase = host.translate(ept_base + gpa_base);
    // End-to-end permissions: the intersection.
    leaf.perms.writable = guest.perms.writable && host.perms.writable;
    leaf.perms.user = guest.perms.user;
    leaf.perms.noExec = guest.perms.noExec || host.perms.noExec;
    leaf.accessed = guest.accessed;
    leaf.dirty = guest.dirty;
    return leaf;
}

pt::WalkResult
NestedWalkSource::walk(VAddr gva, bool is_store)
{
    ++nestedWalks_;
    pt::WalkResult result;
    auto &guest_mem = vm_.guestPhys();
    const pt::PageTable &guest_table = guestProc_.pageTable();

    PAddr table_gpa = guest_table.root();
    for (unsigned level = pt::NumLevels; level-- > 0;) {
        PAddr gpa_pte = table_gpa + 8ULL * pt::levelIndex(gva, level);

        // Host walk to locate the guest PTE in system memory.
        auto host_pte = hostWalk(gpa_pte, false, result.accesses);
        if (!host_pte) {
            ++guestFaultsSeen_;
            return result; // treated as unserviceable fault upstream
        }
        PAddr spa_pte = host_pte->translate(vm_.eptHva(gpa_pte));
        result.accesses.push_back(alignDown(spa_pte, CacheLineBytes));

        std::uint64_t raw = guest_mem.read64(gpa_pte);
        if (!pt::pte::present(raw)) {
            ++guestFaultsSeen_;
            return result; // guest page fault
        }
        if (level == 0 || pt::pte::pageSizeBit(raw)) {
            // Guest leaf: apply the A/D protocol in the guest PTE.
            std::uint64_t updated = raw | pt::pte::A;
            if (is_store)
                updated |= pt::pte::D;
            if (updated != raw)
                guest_mem.write64(gpa_pte, updated);
            raw = updated;

            const PageSize gsize = pt::levelPageSize(level);
            const pt::Translation guest_leaf =
                pt::pte::decodeLeaf(raw, pageBase(gva, gsize), gsize);

            // Final host walk for the data address.
            PAddr data_gpa = guest_leaf.translate(gva);
            auto host_leaf = hostWalk(data_gpa, is_store,
                                      result.accesses);
            if (!host_leaf) {
                ++guestFaultsSeen_;
                return result;
            }
            result.leaf = effectiveLeaf(gva, guest_leaf, *host_leaf,
                                        vm_.eptHva(0) - 0);

            // Build the guest-granularity line for MIX coalescing, but
            // only when no splintering shrank the effective size: a
            // splintered leaf cannot share an entry with its
            // guest-granularity neighbours anyway.
            result.lineGranularity = result.leaf->size;
            if (result.leaf->size == gsize) {
                // Wide scans stay within one guest PT page, so the
                // host translation of the PTE's page is reused and
                // only the extra guest line reads are charged.
                const unsigned lines = level > 0 ? scanLines_ : 1;
                const unsigned slots = lines * PtesPerCacheLine;
                const PAddr line_gpa =
                    alignDown(gpa_pte, lines * CacheLineBytes);
                const PAddr leaf_line_gpa =
                    alignDown(gpa_pte, CacheLineBytes);
                for (unsigned l = 0; l < lines; l++) {
                    PAddr extra_gpa = line_gpa
                                      + static_cast<PAddr>(l)
                                            * CacheLineBytes;
                    if (extra_gpa != leaf_line_gpa) {
                        result.fillAccesses.push_back(alignDown(
                            host_pte->translate(vm_.eptHva(extra_gpa)),
                            CacheLineBytes));
                    }
                }
                const auto slot =
                    static_cast<unsigned>((gpa_pte - line_gpa) / 8);
                result.leafSlot = slot;
                result.line.assign(slots, pt::LinePte{});
                const std::uint64_t span = 1ULL << pt::levelShift(level);
                const VAddr group_base = alignDown(gva, span * slots);
                // The host leaf of the last backed neighbour (seeded
                // with the data page's). Nothing faults during the
                // scan, so the EPT cannot change and any neighbour
                // inside this leaf would translate to it again. It
                // pays on 4 KB guest lines, whose neighbours usually
                // share a 2 MB host page; each 2 MB guest neighbour
                // needs a host leaf of its own.
                std::optional<pt::Translation> n_host = host_leaf;
                for (unsigned i = 0; i < slots; i++) {
                    std::uint64_t nraw = guest_mem.read64(line_gpa + 8 * i);
                    bool leaf_slot = pt::pte::present(nraw) &&
                                     (level == 0 ||
                                      pt::pte::pageSizeBit(nraw));
                    if (!leaf_slot)
                        continue;
                    VAddr n_vbase = group_base + i * span;
                    PAddr n_gpa = pt::pte::frame(nraw);
                    // The neighbour is usable only if a single host
                    // page of at least guest size backs it (already
                    // mapped; the coalescing logic never faults memory
                    // in for neighbours).
                    const VAddr n_hva = vm_.eptHva(n_gpa);
                    if (!n_host || !n_host->covers(n_hva))
                        n_host = vm_.ept().translate(n_hva);
                    if (!n_host ||
                        pageShift(n_host->size) < pageShift(gsize)) {
                        continue;
                    }
                    auto &entry = result.line[i];
                    entry.present = true;
                    entry.xlate.vbase = n_vbase;
                    entry.xlate.pbase = n_host->translate(n_hva);
                    entry.xlate.size = gsize;
                    entry.xlate.perms.writable =
                        pt::pte::perms(nraw).writable &&
                        n_host->perms.writable;
                    entry.xlate.perms.user = pt::pte::perms(nraw).user;
                    entry.xlate.perms.noExec =
                        pt::pte::perms(nraw).noExec || n_host->perms.noExec;
                    entry.xlate.accessed = pt::pte::accessed(nraw);
                    entry.xlate.dirty = pt::pte::dirty(nraw);
                }
                // The demanded slot reflects the effective leaf.
                result.line[slot].present = true;
                result.line[slot].xlate = *result.leaf;
            }
            return result;
        }
        table_gpa = pt::pte::frame(raw);
    }
    panic("nested walk fell off the guest radix tree");
}

bool
NestedWalkSource::fault(VAddr gva, bool is_store)
{
    return guestProc_.touch(gva, is_store)
           != os::TouchResult::OutOfMemory;
}

std::optional<PAddr>
NestedWalkSource::leafPteAddr(VAddr gva)
{
    auto gpa_pte = guestProc_.pageTable().leafPteAddr(gva);
    if (!gpa_pte)
        return std::nullopt;
    return vm_.hostPhysIfMapped(*gpa_pte);
}

void
NestedWalkSource::setDirty(VAddr gva)
{
    guestProc_.pageTable().setDirty(gva);
}

std::optional<pt::Translation>
NestedWalkSource::refLeaf(VAddr gva)
{
    auto guest = guestProc_.pageTable().translate(gva);
    if (!guest)
        return std::nullopt;
    auto host = vm_.ept().translate(vm_.eptHva(guest->translate(gva)));
    if (!host)
        return std::nullopt;
    return effectiveLeaf(gva, *guest, *host, vm_.eptHva(0));
}

} // namespace mixtlb::virt
