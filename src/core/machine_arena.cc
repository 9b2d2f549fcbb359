#include "core/machine_arena.hh"

#include <utility>

#include "common/log.hh"

namespace smthill
{

MachineArena::MachineArena(int workers)
    : machines(static_cast<std::size_t>(workers < 1 ? 1 : workers))
{
}

SmtCpu &
MachineArena::acquire(int worker, const SmtCpu &checkpoint)
{
    if (worker < 0 || worker >= workers())
        fatal(msg("MachineArena: worker ", worker, " out of range [0, ",
                  workers(), ")"));
    std::optional<SmtCpu> &m = machines[static_cast<std::size_t>(worker)];
    if (!m) {
        // First-touch warm-up: one clone per worker for the arena's
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

} // namespace smthill
