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
