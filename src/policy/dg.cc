#include "policy/dg.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

// --------------------------------------------------------------------
// DG
// --------------------------------------------------------------------

DgPolicy::DgPolicy(int miss_threshold) : missThreshold(miss_threshold)
{
    if (miss_threshold < 1)
        fatal("DgPolicy: threshold must be >= 1");
}

void
DgPolicy::attach(SmtCpu &cpu)
{
    cpu.clearPartition();
    locked.fill(false);
    for (int i = 0; i < cpu.numThreads(); ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
}

void
DgPolicy::cycle(SmtCpu &cpu)
{
    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        bool gate = cpu.dl1MissesInFlight(tid) >= missThreshold;
        if (gate != locked[i]) {
            locked[i] = gate;
            cpu.setFetchLocked(tid, gate);
        }
    }
}

std::unique_ptr<ResourcePolicy>
DgPolicy::clone() const
{
    return std::make_unique<DgPolicy>(*this);
}

// --------------------------------------------------------------------
// PDG
// --------------------------------------------------------------------

PdgPolicy::PdgPolicy(std::size_t table_entries)
    : mask(table_entries - 1),
      tables(static_cast<std::size_t>(kMaxThreads) * table_entries, 1)
{
    if (table_entries == 0 || (table_entries & (table_entries - 1)) != 0)
        fatal("PdgPolicy: table entries must be a power of two");
}

void
PdgPolicy::train(ThreadId tid, Addr pc, bool missed)
{
    std::uint8_t &ctr =
        tables[static_cast<std::size_t>(tid) * (mask + 1) +
               ((pc >> 2) & mask)];
    if (missed) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

bool
PdgPolicy::predictsMiss(ThreadId tid, Addr pc) const
{
    return tables[static_cast<std::size_t>(tid) * (mask + 1) +
                  ((pc >> 2) & mask)] >= 2;
}

void
PdgPolicy::onLoadEvent(const LoadEvent &ev)
{
    if (ev.completed) {
        train(ev.tid, ev.pc, ev.missedDl1);
        auto &pend = pendingPredicted[ev.tid];
        std::erase_if(pend, [&ev](const PendingLoad &p) {
            return p.seq == ev.seq;
        });
    } else if (predictsMiss(ev.tid, ev.pc)) {
        // Gate from dispatch, before the miss is even observed —
        // PDG's advantage over DG.
        pendingPredicted[ev.tid].push_back(PendingLoad{ev.seq, 0});
    }
}

void
PdgPolicy::attach(SmtCpu &cpu)
{
    cpu.clearPartition();
    locked.fill(false);
    for (auto &pend : pendingPredicted)
        pend.clear();
    for (int i = 0; i < cpu.numThreads(); ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
    cpu.setLoadObserver(
        [](void *ctx, const LoadEvent &ev) {
            static_cast<PdgPolicy *>(ctx)->onLoadEvent(ev);
        },
        this);
}

void
PdgPolicy::cycle(SmtCpu &cpu)
{
    Cycle now = cpu.now();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        auto &pend = pendingPredicted[tid];
        // Stamp entries added by the observer since the last cycle,
        // and expire stale ones (their loads were squashed and will
        // never complete).
        for (PendingLoad &p : pend)
            if (p.stampedAt == 0)
                p.stampedAt = now;
        std::erase_if(pend, [now](const PendingLoad &p) {
            return p.stampedAt != 0 && now - p.stampedAt > kPendingExpiry;
        });

        bool gate = !pend.empty() ||
                    cpu.dl1MissesInFlight(tid) > 0;
        if (gate != locked[i]) {
            locked[i] = gate;
            cpu.setFetchLocked(tid, gate);
        }
    }
}

Cycle
PdgPolicy::nextWake(const SmtCpu &cpu) const
{
    Cycle wake = kNeverCycle;
    for (int i = 0; i < cpu.numThreads(); ++i) {
        for (const PendingLoad &p : pendingPredicted[i]) {
            // An unstamped entry (cycle() ran at cycle 0) is stamped
            // by the next call.
            if (p.stampedAt == 0)
                return cpu.now() + 1;
            wake = std::min(wake, p.stampedAt + kPendingExpiry + 1);
        }
    }
    return wake;
}

std::unique_ptr<ResourcePolicy>
PdgPolicy::clone() const
{
    return std::make_unique<PdgPolicy>(*this);
}

} // namespace smthill
