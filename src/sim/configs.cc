#include "configs.hh"

#include "common/logging.hh"
#include "tlb/ideal.hh"
#include "tlb/mix.hh"
#include "tlb/set_assoc.hh"
#include "tlb/skew.hh"
#include "tlb/split.hh"

namespace mixtlb::sim
{

using namespace tlb;

const char *
designName(TlbDesign design)
{
    switch (design) {
      case TlbDesign::Split: return "split";
      case TlbDesign::Mix: return "mix";
      case TlbDesign::MixColt: return "mix+colt";
      case TlbDesign::MixSuperIndex: return "mix-spidx";
      case TlbDesign::HashRehash: return "hash-rehash";
      case TlbDesign::HashRehashPred: return "hash-rehash+pred";
      case TlbDesign::Skew: return "skew";
      case TlbDesign::SkewPred: return "skew+pred";
      case TlbDesign::Colt: return "colt";
      case TlbDesign::ColtPlusPlus: return "colt++";
      case TlbDesign::Ideal: return "ideal";
    }
    return "?";
}

unsigned
walkerScanLines(TlbDesign design)
{
    switch (design) {
      case TlbDesign::Mix:
      case TlbDesign::MixColt:
      case TlbDesign::MixSuperIndex:
        return 8;
      default:
        return 1;
    }
}

namespace
{

/**
 * A split-TLB component caching @p size alone: a plain set-associative
 * array, or with @p colt a COLT one.
 */
std::unique_ptr<BaseTlb>
makeComponent(const std::string &name, stats::StatGroup *parent,
              std::uint64_t entries, unsigned assoc, PageSize size,
              bool colt)
{
    if (colt) {
        return std::make_unique<MixTlb>(name, parent,
                                        coltParams(entries, assoc, size));
    }
    return std::make_unique<SetAssocTlb>(
        name, parent, SetAssocParams{entries, assoc, {size}});
}

/**
 * The Haswell-style split L1: @p entries_4k 4-way 4KB entries, 32 ×
 * @p scale 4-way 2MB entries and 4 × @p scale fully-associative 1GB
 * entries. COLT variants coalesce in the 4KB (@p colt_4k) and 2MB
 * (@p colt_super) components.
 */
std::unique_ptr<BaseTlb>
makeSplitL1(const std::string &name, stats::StatGroup *parent,
            std::uint64_t entries_4k, unsigned scale, bool colt_4k,
            bool colt_super)
{
    auto split = std::make_unique<SplitTlb>(name, parent);
    auto *group = &split->statGroup();
    split->addComponent(makeComponent("t4k", group, entries_4k, 4,
                                      PageSize::Size4K, colt_4k));
    split->addComponent(makeComponent("t2m", group, 32 * scale, 4,
                                      PageSize::Size2M, colt_super));
    split->addComponent(makeComponent("t1g", group, 4 * scale, 4 * scale,
                                      PageSize::Size1G, false));
    return split;
}

std::shared_ptr<BaseTlb>
makeSplitL2(const std::string &name, stats::StatGroup *parent,
            unsigned scale, bool colt_4k, bool colt_super)
{
    auto split = std::make_shared<SplitTlb>(name, parent);
    auto *group = &split->statGroup();
    if (!colt_4k && !colt_super) {
        // The actual Haswell organisation: a hash-rehash structure for
        // 4KB+2MB plus a separate 1GB TLB.
        split->addComponent(std::make_unique<SetAssocTlb>(
            "t4k2m", group,
            SetAssocParams{512ULL * scale, 8,
                           {PageSize::Size4K, PageSize::Size2M}}));
        split->addComponent(makeComponent("t1g", group, 32 * scale, 4,
                                          PageSize::Size1G, false));
        return split;
    }
    // COLT variants need per-size components so each structure can
    // coalesce its own size. The Haswell L2 shares 512 entries between
    // 4KB and 2MB; the per-size stand-in splits that budget evenly so
    // neither size is starved relative to the baseline.
    split->addComponent(makeComponent("t4k", group, 256 * scale, 8,
                                      PageSize::Size4K, colt_4k));
    split->addComponent(makeComponent("t2m", group, 256 * scale, 8,
                                      PageSize::Size2M, colt_super));
    split->addComponent(makeComponent("t1g", group, 32 * scale, 4,
                                      PageSize::Size1G, colt_super));
    return split;
}

MixTlbParams
mixL1Params(unsigned scale, bool colt, bool super_index)
{
    MixTlbParams params;
    params.entries = 96ULL * scale; // area-equivalent to 100 split
    params.assoc = 6;
    params.mode = CoalesceMode::Bitmap;
    params.colt4k = colt ? 4 : 1;
    params.superpageIndexBits = super_index;
    return params;
}

MixTlbParams
mixL2Params(unsigned scale, bool colt, bool super_index)
{
    MixTlbParams params;
    params.entries = 544ULL * scale; // area-equivalent to 512 + 32
    params.assoc = 8;
    params.mode = CoalesceMode::Length;
    // Window matched to the walker's 8-line wide scan (64 PTEs), so a
    // single fill can rebuild a whole bundle.
    params.maxCoalesce = 64;
    params.colt4k = colt ? 4 : 1;
    params.superpageIndexBits = super_index;
    return params;
}

} // anonymous namespace

std::unique_ptr<BaseTlb>
makeCpuL1(TlbDesign design, stats::StatGroup *parent,
          const pt::PageTable *table, ConfigScale scale)
{
    const unsigned s = scale.scale;
    switch (design) {
      case TlbDesign::Split:
        return makeSplitL1("l1", parent, 64ULL * s, s, false, false);
      case TlbDesign::Colt:
        return makeSplitL1("l1", parent, 64ULL * s, s, true, false);
      case TlbDesign::ColtPlusPlus:
        return makeSplitL1("l1", parent, 64ULL * s, s, true, true);
      case TlbDesign::Mix:
        return std::make_unique<MixTlb>("l1", parent,
                                        mixL1Params(s, false, false));
      case TlbDesign::MixColt:
        return std::make_unique<MixTlb>("l1", parent,
                                        mixL1Params(s, true, false));
      case TlbDesign::MixSuperIndex:
        return std::make_unique<MixTlb>("l1", parent,
                                        mixL1Params(s, false, true));
      case TlbDesign::HashRehash:
      case TlbDesign::HashRehashPred: {
        SetAssocParams params;
        params.entries = 96ULL * s;
        params.assoc = 6;
        params.usePredictor = design == TlbDesign::HashRehashPred;
        return std::make_unique<SetAssocTlb>("l1", parent, params);
      }
      case TlbDesign::Skew:
      case TlbDesign::SkewPred: {
        SkewTlbParams params;
        // ~15% area docked for timestamp storage: 84 entries, 6 ways.
        params.setsPerWay = 14ULL * s;
        params.usePredictor = design == TlbDesign::SkewPred;
        return std::make_unique<SkewTlb>("l1", parent, params);
      }
      case TlbDesign::Ideal:
        fatal_if(!table, "ideal TLB needs a page table");
        return std::make_unique<IdealTlb>("l1", parent, *table);
    }
    panic("unreachable");
}

std::shared_ptr<BaseTlb>
makeCpuL2(TlbDesign design, stats::StatGroup *parent,
          const pt::PageTable *table, ConfigScale scale)
{
    const unsigned s = scale.scale;
    switch (design) {
      case TlbDesign::Split:
        return makeSplitL2("l2", parent, s, false, false);
      case TlbDesign::Colt:
        return makeSplitL2("l2", parent, s, true, false);
      case TlbDesign::ColtPlusPlus:
        return makeSplitL2("l2", parent, s, true, true);
      case TlbDesign::Mix:
        return std::make_shared<MixTlb>("l2", parent,
                                        mixL2Params(s, false, false));
      case TlbDesign::MixColt:
        return std::make_shared<MixTlb>("l2", parent,
                                        mixL2Params(s, true, false));
      case TlbDesign::MixSuperIndex:
        return std::make_shared<MixTlb>("l2", parent,
                                        mixL2Params(s, false, true));
      case TlbDesign::HashRehash:
      case TlbDesign::HashRehashPred: {
        SetAssocParams params;
        params.entries = 544ULL * s;
        params.assoc = 8;
        params.usePredictor = design == TlbDesign::HashRehashPred;
        return std::make_shared<SetAssocTlb>("l2", parent, params);
      }
      case TlbDesign::Skew:
      case TlbDesign::SkewPred: {
        SkewTlbParams params;
        params.setsPerWay = 76ULL * s; // 456 entries after the dock
        params.usePredictor = design == TlbDesign::SkewPred;
        return std::make_shared<SkewTlb>("l2", parent, params);
      }
      case TlbDesign::Ideal:
        fatal_if(!table, "ideal TLB needs a page table");
        return std::make_shared<IdealTlb>("l2", parent, *table);
    }
    panic("unreachable");
}

std::unique_ptr<BaseTlb>
makeGpuCoreL1(TlbDesign design, unsigned core, stats::StatGroup *parent,
              const pt::PageTable *table)
{
    const std::string name = "l1c" + std::to_string(core);
    switch (design) {
      case TlbDesign::Split:
      case TlbDesign::Colt:
      case TlbDesign::ColtPlusPlus:
        return makeSplitL1(name, parent, 128, 1,
                           design != TlbDesign::Split,
                           design == TlbDesign::ColtPlusPlus);
      case TlbDesign::Mix:
      case TlbDesign::MixColt:
      case TlbDesign::MixSuperIndex: {
        MixTlbParams params;
        params.entries = 160; // area-equivalent to 164
        params.assoc = 4;
        params.mode = CoalesceMode::Bitmap;
        params.colt4k = design == TlbDesign::MixColt ? 4 : 1;
        params.superpageIndexBits = design == TlbDesign::MixSuperIndex;
        return std::make_unique<MixTlb>(name, parent, params);
      }
      case TlbDesign::HashRehash:
      case TlbDesign::HashRehashPred: {
        SetAssocParams params;
        params.entries = 160;
        params.assoc = 4;
        params.usePredictor = design == TlbDesign::HashRehashPred;
        return std::make_unique<SetAssocTlb>(name, parent, params);
      }
      case TlbDesign::Skew:
      case TlbDesign::SkewPred: {
        SkewTlbParams params;
        params.setsPerWay = 23; // 138 entries after the dock
        params.usePredictor = design == TlbDesign::SkewPred;
        return std::make_unique<SkewTlb>(name, parent, params);
      }
      case TlbDesign::Ideal:
        fatal_if(!table, "ideal TLB needs a page table");
        return std::make_unique<IdealTlb>(name, parent, *table);
    }
    panic("unreachable");
}

std::shared_ptr<BaseTlb>
makeGpuL2(TlbDesign design, stats::StatGroup *parent,
          const pt::PageTable *table)
{
    // GPU L2 geometry mirrors the CPU's shared L2.
    return makeCpuL2(design, parent, table, ConfigScale{});
}

} // namespace mixtlb::sim
