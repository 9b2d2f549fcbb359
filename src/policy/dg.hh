/**
 * @file
 * DG and PDG (El-Moursy & Albonesi, HPCA 2003), from the paper's
 * related-work taxonomy (Section 2): front-end policies that
 * fetch-lock threads around data-cache misses.
 *
 *  - DG ("data gating") fetch-locks a thread when its number of
 *    in-flight data-cache misses exceeds a threshold.
 *  - PDG ("predictive data gating") uses a PC-indexed cache-miss
 *    predictor to gate fetch as soon as a predicted-miss load enters
 *    the pipeline, rather than waiting for the miss to be observed.
 */

#ifndef SMTHILL_POLICY_DG_HH
#define SMTHILL_POLICY_DG_HH

#include <array>
#include <vector>

#include "policy/policy.hh"

namespace smthill
{

/** DG: fetch-gate on outstanding-miss count. */
class DgPolicy final : public ResourcePolicy
{
  public:
    /** @param miss_threshold in-flight misses that trigger the gate */
    explicit DgPolicy(int miss_threshold = 1);

    std::string name() const override { return "DG"; }
    void attach(SmtCpu &cpu) override;
    void cycle(SmtCpu &cpu) override;
    /** The gate follows the in-flight miss count; only steps move it. */
    Cycle
    nextWake(const SmtCpu &) const override
    {
        return kNeverCycle;
    }
    std::unique_ptr<ResourcePolicy> clone() const override;

  private:
    int missThreshold;
    std::array<bool, kMaxThreads> locked{};
};

/**
 * PDG: DG plus a per-thread, PC-indexed 2-bit miss predictor trained
 * on observed DL1 misses; a thread is gated while it has an
 * in-flight load whose PC predicts a miss.
 */
class PdgPolicy final : public ResourcePolicy
{
  public:
    /**
     * @param table_entries miss-predictor entries per thread (power
     *        of two)
     */
    explicit PdgPolicy(std::size_t table_entries = 4096);

    std::string name() const override { return "PDG"; }
    void attach(SmtCpu &cpu) override;
    void cycle(SmtCpu &cpu) override;
    /** The earliest expiry of a stamped predicted-miss entry. */
    Cycle nextWake(const SmtCpu &cpu) const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** Train the predictor for a load at @p pc that hit or missed. */
    void train(ThreadId tid, Addr pc, bool missed);

    /** @return true if the predictor expects a miss at @p pc. */
    bool predictsMiss(ThreadId tid, Addr pc) const;

    /** Load dispatch/completion callback (wired by attach()). */
    void onLoadEvent(const LoadEvent &event);

  private:
    /** Cycles a predicted-miss entry lives without its completion. */
    static constexpr Cycle kPendingExpiry = 2000;

    /** A dispatched load the predictor expects to miss. */
    struct PendingLoad
    {
        InstSeq seq;
        Cycle stampedAt; ///< 0 until seen by cycle(); for expiry
    };

    std::size_t mask;
    std::vector<std::uint8_t> tables; ///< kMaxThreads * entries
    std::array<bool, kMaxThreads> locked{};
    std::array<std::vector<PendingLoad>, kMaxThreads> pendingPredicted;
};

} // namespace smthill

#endif // SMTHILL_POLICY_DG_HH
