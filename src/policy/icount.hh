/**
 * @file
 * ICOUNT (Tullsen et al., ISCA 1996) as a standalone policy: fetch
 * priority by fewest front-end instructions with full resource
 * sharing. The priority logic itself lives in the core's fetch stage;
 * this policy simply runs the machine unpartitioned and unlocked.
 */

#ifndef SMTHILL_POLICY_ICOUNT_HH
#define SMTHILL_POLICY_ICOUNT_HH

#include "policy/policy.hh"

namespace smthill
{

/** The ICOUNT baseline. */
class IcountPolicy final : public ResourcePolicy
{
  public:
    std::string name() const override { return "ICOUNT"; }
    void attach(SmtCpu &cpu) override;
    Cycle
    nextWake(const SmtCpu &) const override
    {
        return kNeverCycle;
    }
    std::unique_ptr<ResourcePolicy> clone() const override;
};

} // namespace smthill

#endif // SMTHILL_POLICY_ICOUNT_HH
