/**
 * @file
 * Per-worker warm-machine arena for trial fan-outs.
 *
 * The OFF-LINE exhaustive sweep and RAND-HILL both evaluate many
 * one-epoch trials from the same checkpoint. Copy-constructing an
 * SmtCpu per trial pays a full set of allocations (instruction rings,
 * cycle-loop queues, cache arrays) on top of the state copy; the
 * arena instead keeps one preallocated machine per pool worker and
 * restores it with SmtCpu::restoreFrom, which reuses the warm
 * machine's storage: after a worker's first trial, acquire plus the
 * trial itself allocate nothing (tests/test_zero_alloc.cc). Each worker index owns exactly one machine,
 * so concurrent trials on different workers never share mutable
 * state — the checkpoint itself is only ever read.
 */

#ifndef SMTHILL_CORE_MACHINE_ARENA_HH
#define SMTHILL_CORE_MACHINE_ARENA_HH

#include <optional>
#include <vector>

#include "pipeline/cpu.hh"

namespace smthill
{

/** One preallocated trial machine per pool worker. */
class MachineArena
{
  public:
    /** @param workers worker slots (ThreadPool::jobs of the pool). */
    explicit MachineArena(int workers);

    MachineArena(const MachineArena &) = delete;
    MachineArena &operator=(const MachineArena &) = delete;

    /**
     * @return worker @p worker's machine, restored to @p checkpoint.
     * The first use on a worker clones the checkpoint (allocating);
     * every later use restores into the warm machine. Like the copy
     * it stands in for, the returned machine starts with no observer
     * links (a link a borrower attached does not survive the next
     * acquire), and it remains valid until the next acquire on the
     * same worker.
     */
    SmtCpu &acquire(int worker, const SmtCpu &checkpoint);

    /** @return configured worker slots. */
    int workers() const { return static_cast<int>(machines.size()); }

  private:
    std::vector<std::optional<SmtCpu>> machines;
};

} // namespace smthill

#endif // SMTHILL_CORE_MACHINE_ARENA_HH
