/**
 * @file
 * FLUSH (Tullsen & Brown, MICRO 2001): when a thread's load is
 * discovered to be headed to main memory, squash all of the thread's
 * instructions younger than the load and fetch-lock the thread until
 * the load returns. This frees the shared resources the stalled
 * thread would otherwise clog, at the price of re-fetching the
 * squashed instructions.
 */

#ifndef SMTHILL_POLICY_FLUSH_HH
#define SMTHILL_POLICY_FLUSH_HH

#include <array>

#include "policy/policy.hh"

namespace smthill
{

/** The FLUSH long-latency-load policy. */
class FlushPolicy final : public ResourcePolicy
{
  public:
    /**
     * @param trigger_cycles how long a DL1 miss must be outstanding
     *        before it is treated as a memory-bound load; the default
     *        matches the L2 hit latency (an access still outstanding
     *        past it must have missed the L2)
     */
    explicit FlushPolicy(Cycle trigger_cycles = 20);

    std::string name() const override { return "FLUSH"; }
    void attach(SmtCpu &cpu) override;
    void cycle(SmtCpu &cpu) override;
    /** The earliest memory-bound miss to cross the trigger age. */
    Cycle nextWake(const SmtCpu &cpu) const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** Total instructions this policy has flushed (wasted fetch). */
    std::uint64_t flushedInsts() const { return totalFlushed; }

  private:
    Cycle triggerCycles;
    std::array<bool, kMaxThreads> locked{};
    std::uint64_t totalFlushed = 0;
};

} // namespace smthill

#endif // SMTHILL_POLICY_FLUSH_HH
