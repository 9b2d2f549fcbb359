/**
 * @file
 * RAND-HILL (Section 4.3): the checkpoint-based multi-start
 * hill-climbing learner used as the ideal reference for 4-thread
 * workloads, where exhaustive search is intractable. Each epoch is
 * searched by repeated hill-climbing passes that restart from random
 * anchor partitions whenever a peak is reached; the search budget is
 * 128 trial epochs (outer-loop iterations) per committed epoch.
 */

#ifndef SMTHILL_CORE_RAND_HILL_HH
#define SMTHILL_CORE_RAND_HILL_HH

#include <memory>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/offline_exhaustive.hh"

namespace smthill
{

/** RAND-HILL configuration. */
struct RandHillConfig
{
    Cycle epochSize = 64 * 1024;
    int iterations = 128;  ///< trial epochs per committed epoch
    int delta = 4;
    int minShare = 4;
    PerfMetric metric = PerfMetric::WeightedIpc;
    std::array<double, kMaxThreads> singleIpc{};
    std::uint64_t seed = 12345;
    /**
     * Worker threads for each round's trial epochs; results are
     * bit-identical for every value (jobs == 1 is the exact serial
     * path). The climb itself stays sequential — each anchor move
     * and every restart draw depends on the previous round — so the
     * parallel grain is the round's numThreads independent trials.
     */
    int jobs = 1;
};

/** The RAND-HILL ideal learner. */
class RandHill
{
  public:
    explicit RandHill(RandHillConfig config = RandHillConfig{});

    /**
     * Search the current epoch's partition space by multi-start hill
     * climbing, then advance @p cpu to the end state of the best
     * trial found.
     */
    OfflineEpoch stepEpoch(SmtCpu &cpu);

    /** Run @p num_epochs epochs, advancing @p cpu along the way. */
    OfflineResult run(SmtCpu &cpu, int num_epochs);

    const RandHillConfig &config() const { return cfg; }

  private:
    /** @return a random partition with every share >= minShare. */
    Partition randomPartition(int threads, int total);

    RandHillConfig cfg;
    Rng rng;
    /** Round-trial pool, shared by copies of the learner. */
    std::shared_ptr<ThreadPool> pool;
    /** Warm per-worker scratch and best machines (see OfflineExhaustive). */
    std::shared_ptr<MachineArena> arena;
};

} // namespace smthill

#endif // SMTHILL_CORE_RAND_HILL_HH
