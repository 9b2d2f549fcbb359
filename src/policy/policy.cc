#include "policy/policy.hh"

#include <algorithm>

namespace smthill
{

void
ResourcePolicy::attach(SmtCpu &)
{
}

void
ResourcePolicy::cycle(SmtCpu &)
{
}

Cycle
ResourcePolicy::nextWake(const SmtCpu &cpu) const
{
    return cpu.now() + 1;
}

void
ResourcePolicy::epoch(SmtCpu &, std::uint64_t)
{
}

void
ResourcePolicy::threadAttached(SmtCpu &, ThreadId)
{
}

void
ResourcePolicy::threadDetached(SmtCpu &, ThreadId)
{
}

void
advanceToWake(SmtCpu &cpu, ResourcePolicy &policy, Cycle until,
              bool &probe)
{
    policy.cycle(cpu);
    if (probe) {
        Cycle now = cpu.now();
        Cycle wake = cpu.nextActiveCycle();
        if (wake > now) {
            // cycle() already ran at now, so now itself is always
            // skippable whatever nextWake() claims.
            Cycle target = std::min(
                {wake, std::max(policy.nextWake(cpu), now + 1), until});
            cpu.skipQuietTo(target);
            // Landing on the machine's own wake point means it is
            // active there; an earlier stop (policy or caller) may
            // still be quiet.
            probe = target < wake;
            return;
        }
    }
    probe = !cpu.step();
}

Cycle
nextMissAge(const SmtCpu &cpu, Cycle threshold, bool to_memory_only)
{
    Cycle wake = kNeverCycle;
    for (int i = 0; i < cpu.numThreads(); ++i) {
        for (const OutstandingMiss &m :
             cpu.outstandingMisses(static_cast<ThreadId>(i))) {
            Cycle at = m.issuedAt + threshold;
            if (at > cpu.now() && (m.toMemory || !to_memory_only))
                wake = std::min(wake, at);
        }
    }
    return wake;
}

} // namespace smthill
