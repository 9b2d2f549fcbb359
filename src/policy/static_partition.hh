/**
 * @file
 * Static partitioning (Raasch & Reinhardt, PACT 2003 family): the
 * partitioned resources are split in fixed shares that never change.
 * The paper positions learning-based distribution between DCRA
 * (update every cycle) and static partitioning (never update).
 */

#ifndef SMTHILL_POLICY_STATIC_PARTITION_HH
#define SMTHILL_POLICY_STATIC_PARTITION_HH

#include "pipeline/resources.hh"
#include "policy/policy.hh"

namespace smthill
{

/** Fixed-share partitioning; equal shares by default. */
class StaticPartitionPolicy final : public ResourcePolicy
{
  public:
    /** Equal split across all threads. */
    StaticPartitionPolicy() = default;

    /** Fixed custom shares. */
    explicit StaticPartitionPolicy(Partition shares);

    std::string name() const override { return "STATIC"; }
    void attach(SmtCpu &cpu) override;
    Cycle
    nextWake(const SmtCpu &) const override
    {
        return kNeverCycle;
    }
    std::unique_ptr<ResourcePolicy> clone() const override;

  private:
    Partition fixed;
    bool haveCustom = false;
};

} // namespace smthill

#endif // SMTHILL_POLICY_STATIC_PARTITION_HH
