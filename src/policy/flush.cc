#include "policy/flush.hh"

namespace smthill
{

FlushPolicy::FlushPolicy(Cycle trigger_cycles)
    : triggerCycles(trigger_cycles)
{
}

void
FlushPolicy::attach(SmtCpu &cpu)
{
    cpu.clearPartition();
    locked.fill(false);
    for (int i = 0; i < cpu.numThreads(); ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
}

void
FlushPolicy::cycle(SmtCpu &cpu)
{
    Cycle now = cpu.now();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        const auto &misses = cpu.outstandingMisses(tid);

        // Does the thread have a memory-bound load right now?
        bool has_mem_miss = false;
        InstSeq oldest_seq = 0;
        for (const OutstandingMiss &m : misses) {
            bool mem_bound =
                m.toMemory && now - m.issuedAt >= triggerCycles;
            if (mem_bound && (!has_mem_miss || m.seq < oldest_seq)) {
                has_mem_miss = true;
                oldest_seq = m.seq;
            }
        }

        if (locked[i]) {
            // Unlock once every memory-bound load has returned.
            bool any_mem = false;
            for (const OutstandingMiss &m : misses)
                any_mem = any_mem || m.toMemory;
            if (!any_mem) {
                locked[i] = false;
                cpu.setFetchLocked(tid, false);
            }
            continue;
        }

        if (has_mem_miss) {
            totalFlushed += static_cast<std::uint64_t>(
                cpu.flushThreadAfter(tid, oldest_seq));
            locked[i] = true;
            cpu.setFetchLocked(tid, true);
        }
    }
}

Cycle
FlushPolicy::nextWake(const SmtCpu &cpu) const
{
    // Unlocking waits for a miss to complete, which only a step does.
    return nextMissAge(cpu, triggerCycles, true);
}

std::unique_ptr<ResourcePolicy>
FlushPolicy::clone() const
{
    return std::make_unique<FlushPolicy>(*this);
}

} // namespace smthill
