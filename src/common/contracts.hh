/**
 * @file
 * Checked contracts: the tiered invariant machinery the rest of the
 * simulator builds on.
 *
 * Tiers:
 *  - MIX_EXPECT(cond, fmt...) — an always-on, cheap precondition.
 *    Violations are programming/configuration errors: the message
 *    (with file/line and the failed expression) goes to stderr and the
 *    process exits with code 1, like fatal(). Use it where the old
 *    code reached for a raw assert() or an ad-hoc fatal_if().
 *  - MIX_AUDIT(cond, fmt...) — an expensive structural check. Only
 *    compiled in when the CMake option MIXTLB_AUDITS is ON, and only
 *    evaluated when the global runtime paranoia level is nonzero, so
 *    release builds pay nothing for it.
 *
 * Structural auditors (MixTlb::auditSets, BuddyAllocator::audit,
 * PageTable::audit, ...) are always compiled — they run off the hot
 * path, gated by the paranoia level — and accumulate findings into an
 * AuditReport so a single sweep reports *every* broken invariant, not
 * just the first. contracts::enforce() turns a non-empty report into a
 * fatal exit.
 *
 * Paranoia levels (the `--paranoia=N` bench flag):
 *  - 0: no checking beyond MIX_EXPECT (default).
 *  - 1: structural auditors run at simulation phase boundaries.
 *  - 2: additionally, every translation the TLB hierarchy returns is
 *    cross-checked against the map-based reference translator (the
 *    differential oracle).
 *  - 3: additionally, auditors also run periodically mid-run.
 */

#ifndef MIXTLB_COMMON_CONTRACTS_HH
#define MIXTLB_COMMON_CONTRACTS_HH

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace mixtlb
{

/**
 * The recoverable error tier: a failure of *one simulation point*, not
 * of the program. Raised with MIX_RAISE on per-point paths (warmup
 * OOM, trace corruption, deadline expiry, audit failure under a
 * resilient sweep) and caught by SweepRunner::runChecked, which
 * quarantines the point instead of killing the process. Contrast with
 * MIX_EXPECT / fatal(), which remain process-fatal for programming and
 * configuration errors.
 */
class SimError : public std::runtime_error
{
  public:
    SimError(std::string kind, std::string where, const std::string &msg)
        : std::runtime_error(where.empty() ? kind + ": " + msg
                                           : kind + ": " + where + ": " +
                                                 msg),
          kind_(std::move(kind)), where_(std::move(where))
    {}

    /** Stable machine-readable category ("oom", "deadline", ...). */
    const std::string &kind() const { return kind_; }

    /** Source location ("file.cc:123"), empty if not raised by macro. */
    const std::string &where() const { return where_; }

  private:
    std::string kind_;
    std::string where_;
};

} // namespace mixtlb

namespace mixtlb::contracts
{

/** Current global paranoia level (0 = contracts only, no audits). */
unsigned paranoia();

/** Set the global paranoia level (call before spawning sweep workers). */
void setParanoia(unsigned level);

/** Report a violated contract and exit(1). Used by the macros below. */
[[noreturn]] void violation(const char *file, int line, const char *expr,
                            const std::string &msg = {});

/**
 * Accumulates invariant violations found by one structural audit pass.
 * Auditors append through check()/fail(); callers decide whether a
 * non-empty report is fatal (enforce) or material for a test assertion.
 */
class AuditReport
{
  public:
    explicit AuditReport(std::string subject = "audit")
        : subject_(std::move(subject))
    {}

    /** Record one violation (prefer the MIX_AUDIT_CHECK macro). */
    void
    fail(const char *file, int line, const std::string &msg)
    {
        violations_.push_back(logging_detail::vformat(
            "%s:%d: %s", file, line, msg.c_str()));
    }

    bool ok() const { return violations_.empty(); }
    std::size_t numViolations() const { return violations_.size(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    const std::string &subject() const { return subject_; }

    /** True if any recorded violation message contains @p needle. */
    bool mentions(const std::string &needle) const;

    /** Human-readable digest (at most @p max_shown violations). */
    std::string summary(std::size_t max_shown = 8) const;

  private:
    std::string subject_;
    std::vector<std::string> violations_;
};

/** Exit fatally (code 1) if @p report recorded any violation. */
void enforce(const AuditReport &report);

/**
 * Recoverable sibling of enforce(): throw SimError("audit") if
 * @p report recorded any violation, so a resilient sweep can
 * quarantine the offending point while other points keep running.
 */
void require(const AuditReport &report);

} // namespace mixtlb::contracts

/**
 * Always-on cheap precondition. On failure, prints the failed
 * expression, location, and a printf-formatted context message (which
 * may be omitted), then exits with code 1.
 */
#define MIX_EXPECT(cond, ...)                                             \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::mixtlb::contracts::violation(                               \
                __FILE__, __LINE__, #cond __VA_OPT__(,                    \
                ::mixtlb::logging_detail::vformat("" __VA_ARGS__)));      \
        }                                                                 \
    } while (0)

/**
 * Raise a recoverable SimError of category @p kind (a short stable
 * string like "oom") with a printf-formatted message. Use on
 * per-point simulation paths where failure should quarantine the
 * point, not abort the process.
 */
#define MIX_RAISE(kind, ...)                                              \
    throw ::mixtlb::SimError(                                             \
        (kind),                                                           \
        ::mixtlb::logging_detail::vformat("%s:%d", __FILE__, __LINE__),   \
        ::mixtlb::logging_detail::vformat("" __VA_ARGS__))

/**
 * Record a failed structural invariant into an AuditReport without
 * aborting, so one audit pass surfaces every violation.
 */
#define MIX_AUDIT_CHECK(report, cond, ...)                                \
    do {                                                                  \
        if (!(cond)) {                                                    \
            (report).fail(__FILE__, __LINE__,                             \
                          ::mixtlb::logging_detail::vformat(              \
                              "" __VA_ARGS__));                           \
        }                                                                 \
    } while (0)

/**
 * Expensive inline structural check: compiled in only when the CMake
 * option MIXTLB_AUDITS is ON, evaluated only when paranoia > 0.
 */
#ifdef MIXTLB_AUDITS_ENABLED
#define MIX_AUDIT(cond, ...)                                              \
    do {                                                                  \
        if (::mixtlb::contracts::paranoia() > 0 && !(cond)) {             \
            ::mixtlb::contracts::violation(                               \
                __FILE__, __LINE__, #cond,                                \
                ::mixtlb::logging_detail::vformat("" __VA_ARGS__));       \
        }                                                                 \
    } while (0)
#else
#define MIX_AUDIT(cond, ...)                                              \
    do {                                                                  \
        (void)sizeof(!(cond));                                            \
    } while (0)
#endif // MIXTLB_AUDITS_ENABLED

#endif // MIXTLB_COMMON_CONTRACTS_HH
