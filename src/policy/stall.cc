#include "policy/stall.hh"

namespace smthill
{

StallPolicy::StallPolicy(Cycle stall_threshold)
    : threshold(stall_threshold)
{
}

void
StallPolicy::attach(SmtCpu &cpu)
{
    cpu.clearPartition();
    locked.fill(false);
    for (int i = 0; i < cpu.numThreads(); ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
}

void
StallPolicy::cycle(SmtCpu &cpu)
{
    Cycle now = cpu.now();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        bool long_load = false;
        for (const OutstandingMiss &m : cpu.outstandingMisses(tid)) {
            if (now - m.issuedAt >= threshold) {
                long_load = true;
                break;
            }
        }
        if (long_load != locked[i]) {
            locked[i] = long_load;
            cpu.setFetchLocked(tid, long_load);
        }
    }
}

Cycle
StallPolicy::nextWake(const SmtCpu &cpu) const
{
    return nextMissAge(cpu, threshold, false);
}

std::unique_ptr<ResourcePolicy>
StallPolicy::clone() const
{
    return std::make_unique<StallPolicy>(*this);
}

} // namespace smthill
