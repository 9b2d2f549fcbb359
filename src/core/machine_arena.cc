#include "core/machine_arena.hh"

#include <utility>

#include "common/log.hh"

namespace smthill
{

MachineArena::MachineArena(int workers)
    : lanes(static_cast<std::size_t>(workers < 1 ? 1 : workers))
{
}

std::size_t
MachineArena::index(int worker) const
{
    if (worker < 0 || worker >= workers())
        fatal(msg("MachineArena: worker ", worker, " out of range [0, ",
                  workers(), ")"));
    return static_cast<std::size_t>(worker);
}

SmtCpu &
MachineArena::acquire(int worker, const SmtCpu &checkpoint)
{
    Lane &l = lanes[index(worker)];
    std::optional<SmtCpu> &m = l.slots[static_cast<std::size_t>(l.scratch)];
    if (!m) {
        // First-touch warm-up: one clone per slot for the arena's
        // lifetime; every later trial reuses it via restoreFrom.
        m.emplace(checkpoint);
        return *m;
    }
    // The machine stands in for a copy of the checkpoint, and a copy
    // starts with no observer links. restoreFrom keeps the target's
    // own links, so first re-seat the warm machine by move
    // construction: that drops any link a previous borrower attached
    // (OpenSystem::runOn attaches a policy's observers) and keeps
    // every allocation.
    SmtCpu warm = std::move(*m);
    m.reset();
    m = std::move(warm);
    m->restoreFrom(checkpoint);
    return *m;
}

void
MachineArena::keep(int worker, double metric)
{
    Lane &l = lanes[index(worker)];
    if (!(metric > l.bestMetric))
        return;
    l.bestMetric = metric;
    l.scratch = 1 - l.scratch;
}

const SmtCpu &
MachineArena::best(int worker) const
{
    const Lane &l = lanes[index(worker)];
    const std::optional<SmtCpu> &m =
        l.slots[static_cast<std::size_t>(1 - l.scratch)];
    if (l.bestMetric == -std::numeric_limits<double>::infinity() || !m)
        panic(msg("MachineArena: worker ", worker, " kept no trial"));
    return *m;
}

void
MachineArena::clearBests()
{
    for (Lane &l : lanes)
        l.bestMetric = -std::numeric_limits<double>::infinity();
}

} // namespace smthill
