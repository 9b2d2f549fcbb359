/**
 * @file
 * STALL-FLUSH hybrid (Tullsen & Brown, MICRO 2001), Section 2: a
 * memory-bound thread is first only fetch-locked (STALL), avoiding
 * FLUSH's wasted fetch bandwidth; it is flushed only if the shared
 * resources actually approach exhaustion while the load is pending —
 * "resorting to flushing only when resources are exhausted".
 */

#ifndef SMTHILL_POLICY_STALL_FLUSH_HH
#define SMTHILL_POLICY_STALL_FLUSH_HH

#include <array>

#include "policy/policy.hh"

namespace smthill
{

/** The STALL-FLUSH hybrid policy. */
class StallFlushPolicy final : public ResourcePolicy
{
  public:
    /**
     * @param trigger_cycles outstanding cycles that mark a load as
     *        memory-bound (defaults to the L2 hit latency)
     * @param pressure_frac fraction of a shared structure that must
     *        be occupied before flushing is allowed
     */
    explicit StallFlushPolicy(Cycle trigger_cycles = 20,
                              double pressure_frac = 0.9);

    std::string name() const override { return "STALL-FLUSH"; }
    void attach(SmtCpu &cpu) override;
    void cycle(SmtCpu &cpu) override;
    /** The earliest memory-bound miss to cross the trigger age. */
    Cycle nextWake(const SmtCpu &cpu) const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** Instructions flushed so far (should be far below FLUSH's). */
    std::uint64_t flushedInsts() const { return totalFlushed; }

  private:
    /** @return true when shared structures are nearly exhausted. */
    bool underPressure(const SmtCpu &cpu) const;

    Cycle triggerCycles;
    double pressureFrac;
    std::array<bool, kMaxThreads> locked{};
    std::array<bool, kMaxThreads> flushedThisStall{};
    std::uint64_t totalFlushed = 0;
};

} // namespace smthill

#endif // SMTHILL_POLICY_STALL_FLUSH_HH
