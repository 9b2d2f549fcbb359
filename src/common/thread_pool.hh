/**
 * @file
 * Fixed-size fork-join worker pool for trial-level parallelism.
 *
 * The simulator's expensive fan-outs — OFF-LINE exhaustive trial
 * epochs, RAND-HILL round trials, and workload x policy bench grids —
 * are embarrassingly parallel: every task is a pure function of a
 * machine checkpoint that nothing writes while they run. The pool
 * runs such index-addressed task sets across a fixed set of workers
 * while keeping results ordered by index, so callers can reduce them
 * in exactly the order the serial code would have produced.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly
 * once for every i in [0, n); the caller owns per-index output slots
 * and reduces them in index order afterwards, which makes results
 * bit-identical for any job count — including jobs == 1, which runs
 * every index inline on the calling thread with no workers involved
 * (the exact legacy serial execution).
 *
 * Fork-join contract: one fan-out runs at a time. The caller
 * publishes the body and the index count, wakes the workers, drains
 * indices as worker 0, and returns only once every worker has left
 * the fan-out. A body must not throw, and must not fan out on the
 * pool that runs it; failures go through fatal()/panic().
 */

#ifndef SMTHILL_COMMON_THREAD_POOL_HH
#define SMTHILL_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stat_registry.hh"

namespace smthill
{

/**
 * Fixed-size fork-join pool. Value semantics are deliberately absent:
 * the pool is a runtime resource, not machine state, so it is never
 * part of a checkpoint.
 */
class ThreadPool
{
  public:
    /**
     * @param jobs total concurrency including the calling thread;
     *        clamped to >= 1. jobs == 1 spawns no workers and makes
     *        every parallelFor run inline on the caller.
     */
    explicit ThreadPool(int jobs);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return configured concurrency (>= 1). */
    int jobs() const { return numJobs; }

    /**
     * Run body(i) for every i in [0, n), distributing indices across
     * the workers and the calling thread; blocks until every worker
     * has left the fan-out.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * parallelFor variant that also hands body the identity of the
     * executing lane: the calling thread is worker 0, pool threads
     * are workers 1..jobs()-1. A given worker id is never active on
     * two indices at once, and each worker draws its indices in
     * increasing order, so per-worker scratch (e.g. a MachineArena
     * machine) needs no synchronization.
     */
    void parallelForWorker(
        std::size_t n,
        const std::function<void(std::size_t, int)> &body);

    /**
     * Concurrency to use when the caller does not specify one:
     * std::thread::hardware_concurrency, clamped to >= 1.
     */
    static int defaultJobs();

  private:
    void workerLoop(int worker);
    /** Run indices of the current fan-out as @p worker until none are left. */
    void drain(int worker);

    int numJobs;
    std::vector<std::thread> workers;

    // The current fan-out. body, count and generation change only
    // under mutex while no worker is inside a fan-out; next is the
    // shared index dispenser.
    std::mutex mutex;
    std::condition_variable wakeCv; ///< workers wait for a new fan-out
    std::condition_variable doneCv; ///< the caller waits for them to leave
    const std::function<void(std::size_t, int)> *body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::uint64_t generation = 0; ///< fan-outs published so far
    int inside = 0;               ///< workers not yet out of this fan-out
    bool shuttingDown = false;

    // parallelFor indices (globalStats(); batched: one add(n) per
    // sweep, so the index-drain loop touches no stats at all).
    StatCounter &forIndicesStat;
};

} // namespace smthill

#endif // SMTHILL_COMMON_THREAD_POOL_HH
