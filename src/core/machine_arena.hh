/**
 * @file
 * Per-worker warm-machine arena for trial fan-outs.
 *
 * The OFF-LINE exhaustive sweep and RAND-HILL both evaluate many
 * one-epoch trials from the same checkpoint. Copy-constructing an
 * SmtCpu per trial pays a full set of allocations (instruction rings,
 * cycle-loop queues, cache arrays) on top of the state copy; the
 * arena instead keeps preallocated machines per pool worker and
 * restores them with SmtCpu::restoreFrom, which reuses the warm
 * machine's storage: after a worker's first trials, acquire plus the
 * trial itself allocate nothing (tests/test_zero_alloc.cc). Each
 * worker index owns its own machines, so concurrent trials on
 * different workers never share mutable state — the checkpoint itself
 * is only ever read.
 *
 * Each worker has two slots: the scratch machine acquire() restores,
 * and the best trial the worker has run since clearBests(). keep()
 * swaps the two on a strict improvement, so a search commits its
 * winner by restoring from best(): the winner's end state is already
 * in hand, and an epoch re-run would cost as much as a trial.
 */

#ifndef SMTHILL_CORE_MACHINE_ARENA_HH
#define SMTHILL_CORE_MACHINE_ARENA_HH

#include <array>
#include <limits>
#include <optional>
#include <vector>

#include "pipeline/cpu.hh"

namespace smthill
{

/** Two preallocated trial machines per pool worker. */
class MachineArena
{
  public:
    /** @param workers worker slots (ThreadPool::jobs of the pool). */
    explicit MachineArena(int workers);

    MachineArena(const MachineArena &) = delete;
    MachineArena &operator=(const MachineArena &) = delete;

    /**
     * @return worker @p worker's scratch machine, restored to
     * @p checkpoint. The first use of a slot clones the checkpoint
     * (allocating); every later use restores into the warm machine.
     * Like the copy it stands in for, the returned machine starts
     * with no observer links (a link a borrower attached does not
     * survive the next acquire), and it remains valid until the next
     * acquire on the same worker.
     */
    SmtCpu &acquire(int worker, const SmtCpu &checkpoint);

    /**
     * Score the trial just run on @p worker's acquired machine. If
     * @p metric beats every metric the worker kept since clearBests()
     * (strictly; NaN never does), the machine becomes the worker's
     * best() and its previous best turns into the scratch slot.
     */
    void keep(int worker, double metric);

    /** @return worker @p worker's best kept trial machine. */
    const SmtCpu &best(int worker) const;

    /** Forget every worker's kept trial (the start of a search). */
    void clearBests();

    /** @return configured worker slots. */
    int workers() const { return static_cast<int>(lanes.size()); }

  private:
    /** One worker's machines. */
    struct Lane
    {
        std::array<std::optional<SmtCpu>, 2> slots;
        int scratch = 0; ///< the slot acquire() restores into
        double bestMetric = -std::numeric_limits<double>::infinity();
    };

    /** @return @p worker's lane index; out of range is fatal. */
    std::size_t index(int worker) const;

    std::vector<Lane> lanes;
};

} // namespace smthill

#endif // SMTHILL_CORE_MACHINE_ARENA_HH
