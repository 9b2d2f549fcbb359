/**
 * @file
 * DCRA — Dynamically Controlled Resource Allocation (Cazorla et al.,
 * MICRO 2004). Threads are classified every cycle as "slow" (they
 * have a DL1 miss in flight) or "fast"; slow threads receive a larger
 * share of the partitioned resources so they can expose parallelism
 * past their stalled loads, while fast threads keep a guaranteed
 * share, containing resource clog. Shares are recomputed and
 * installed as partition limits every cycle.
 */

#ifndef SMTHILL_POLICY_DCRA_HH
#define SMTHILL_POLICY_DCRA_HH

#include "policy/policy.hh"

namespace smthill
{

/** The DCRA dynamic-partitioning baseline. */
class DcraPolicy final : public ResourcePolicy
{
  public:
    /**
     * @param sharing_factor how many fast-thread shares a slow
     *        thread receives (the paper's C parameter; 2 by default)
     */
    explicit DcraPolicy(int sharing_factor = 2);

    std::string name() const override { return "DCRA"; }
    void attach(SmtCpu &cpu) override;
    void cycle(SmtCpu &cpu) override;
    /** Shares follow the enabled and missing sets; only steps move them. */
    Cycle
    nextWake(const SmtCpu &) const override
    {
        return kNeverCycle;
    }
    std::unique_ptr<ResourcePolicy> clone() const override;

  private:
    /** Recompute shares from the current fast/slow classification. */
    void recompute(SmtCpu &cpu);

    int sharingFactor;
    std::uint32_t lastSlowMask = ~std::uint32_t{0};
    std::uint32_t lastActiveMask = ~std::uint32_t{0};
};

} // namespace smthill

#endif // SMTHILL_POLICY_DCRA_HH
