/**
 * @file
 * STALL (Tullsen & Brown, MICRO 2001): fetch-lock a thread when it
 * has a load outstanding beyond a threshold number of cycles, and
 * unlock when the load returns. Unlike FLUSH, already-fetched
 * instructions stay in the pipeline, so resource clog can still
 * occur; the paper discusses STALL as the fetch-lock member of the
 * related-work family (Section 2).
 */

#ifndef SMTHILL_POLICY_STALL_HH
#define SMTHILL_POLICY_STALL_HH

#include <array>

#include "policy/policy.hh"

namespace smthill
{

/** The STALL fetch-lock policy. */
class StallPolicy final : public ResourcePolicy
{
  public:
    /** @param threshold cycles a load may be outstanding un-locked */
    explicit StallPolicy(Cycle threshold = 15);

    std::string name() const override { return "STALL"; }
    void attach(SmtCpu &cpu) override;
    void cycle(SmtCpu &cpu) override;
    /** The earliest miss to cross the stall threshold. */
    Cycle nextWake(const SmtCpu &cpu) const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

  private:
    Cycle threshold;
    std::array<bool, kMaxThreads> locked{};
};

} // namespace smthill

#endif // SMTHILL_POLICY_STALL_HH
