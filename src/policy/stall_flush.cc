#include "policy/stall_flush.hh"

#include "common/log.hh"

namespace smthill
{

StallFlushPolicy::StallFlushPolicy(Cycle trigger_cycles,
                                   double pressure_frac)
    : triggerCycles(trigger_cycles), pressureFrac(pressure_frac)
{
    if (pressure_frac <= 0.0 || pressure_frac > 1.0)
        fatal("StallFlushPolicy: pressure fraction must be in (0, 1]");
}

void
StallFlushPolicy::attach(SmtCpu &cpu)
{
    cpu.clearPartition();
    locked.fill(false);
    flushedThisStall.fill(false);
    for (int i = 0; i < cpu.numThreads(); ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
}

bool
StallFlushPolicy::underPressure(const SmtCpu &cpu) const
{
    const SmtConfig &cfg = cpu.config();
    const Occupancy &o = cpu.occupancy();
    return o.totalIntRegs() >=
               static_cast<int>(pressureFrac * cfg.intRegs) ||
           o.totalRob() >= static_cast<int>(pressureFrac * cfg.robSize) ||
           o.totalIntIq() >=
               static_cast<int>(pressureFrac * cfg.intIqSize);
}

void
StallFlushPolicy::cycle(SmtCpu &cpu)
{
    Cycle now = cpu.now();
    bool pressure = underPressure(cpu);

    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        const auto &misses = cpu.outstandingMisses(tid);

        bool mem_bound = false;
        InstSeq oldest_seq = 0;
        for (const OutstandingMiss &m : misses) {
            if (m.toMemory && now - m.issuedAt >= triggerCycles) {
                if (!mem_bound || m.seq < oldest_seq)
                    oldest_seq = m.seq;
                mem_bound = true;
            }
        }

        if (!mem_bound) {
            if (locked[i]) {
                locked[i] = false;
                flushedThisStall[i] = false;
                cpu.setFetchLocked(tid, false);
            }
            continue;
        }

        // Phase 1: fetch-lock only.
        if (!locked[i]) {
            locked[i] = true;
            cpu.setFetchLocked(tid, true);
        }
        // Phase 2: flush only if the machine is actually starving.
        if (pressure && !flushedThisStall[i]) {
            totalFlushed += static_cast<std::uint64_t>(
                cpu.flushThreadAfter(tid, oldest_seq));
            flushedThisStall[i] = true;
        }
    }
}

Cycle
StallFlushPolicy::nextWake(const SmtCpu &cpu) const
{
    // Pressure is a function of occupancy, which only a step moves.
    return nextMissAge(cpu, triggerCycles, true);
}

std::unique_ptr<ResourcePolicy>
StallFlushPolicy::clone() const
{
    return std::make_unique<StallFlushPolicy>(*this);
}

} // namespace smthill
