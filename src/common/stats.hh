/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components own a StatGroup; they register named Scalars, Counters,
 * and Formulas (derived values computed at dump time).
 * Groups nest, so a TLB hierarchy dumps all its children with dotted
 * names (e.g. "l1.mix.hits").
 */

#ifndef MIXTLB_COMMON_STATS_HH
#define MIXTLB_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mixtlb::stats
{

/** A monotonically updated scalar statistic. */
class Scalar
{
  public:
    Scalar &operator++() { value_ += 1.0; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * An integer event counter. Unlike Scalar (double-backed, which
 * silently loses precision once a count passes 2^53), Counter
 * accumulates in a uint64_t and converts to double only at report
 * time — the right type for hot-path event counts like TLB probes
 * and walk accesses.
 */
class Counter
{
  public:
    Counter &operator++() { value_ += 1; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** A derived statistic evaluated lazily at dump time. */
using Formula = std::function<double()>;

/**
 * A named collection of statistics. Groups form a tree; dumping a group
 * prints every descendant statistic with a dotted path name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar under @p name; returns it for in-place use. */
    Scalar &addScalar(const std::string &name, const std::string &desc);

    /** Register an integer counter under @p name. */
    Counter &addCounter(const std::string &name, const std::string &desc);

    /** Register a derived statistic. */
    void addFormula(const std::string &name, const std::string &desc,
                    Formula formula);

    /** Look up a previously registered scalar; panics if missing. */
    const Scalar &scalar(const std::string &name) const;

    /** Look up a previously registered counter; panics if missing. */
    const Counter &counter(const std::string &name) const;

    /**
     * Value of the statistic at dotted path @p name — a Counter
     * (converted to double) or a Scalar. Panics if neither exists, so
     * call sites don't care which concrete type a stat migrated to.
     */
    double value(const std::string &name) const;

    /** Dotted path from the root group. */
    std::string path() const;

    const std::string &name() const { return name_; }

    /** Print all statistics (this group and descendants). */
    void dump(std::ostream &os) const;

    /** Zero all statistics (this group and descendants). */
    void resetStats();

  private:
    struct ScalarEntry { Scalar stat; std::string desc; };
    struct CounterEntry { Counter stat; std::string desc; };
    struct FormulaEntry { Formula formula; std::string desc; };

    std::string name_;
    StatGroup *parent_;
    std::vector<StatGroup *> children_;
    // std::map keeps dump output deterministically sorted.
    std::map<std::string, ScalarEntry> scalars_;
    std::map<std::string, CounterEntry> counters_;
    std::map<std::string, FormulaEntry> formulas_;
};

} // namespace mixtlb::stats

#endif // MIXTLB_COMMON_STATS_HH
