/**
 * @file
 * OFF-LINE exhaustive learning (Section 3.1): the ideal learner used
 * for the limit study. At each epoch boundary every enumerated
 * partitioning of the integer rename registers is tried for one epoch
 * from the machine's state; the machine then takes the best trial's
 * end state, and only that epoch is charged to execution time.
 *
 * Restricted to 2 hardware contexts, like the paper (the exhaustive
 * trial count is exponential in the thread count).
 */

#ifndef SMTHILL_CORE_OFFLINE_EXHAUSTIVE_HH
#define SMTHILL_CORE_OFFLINE_EXHAUSTIVE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "core/machine_arena.hh"
#include "core/metrics.hh"
#include "core/partitioning.hh"
#include "pipeline/cpu.hh"

namespace smthill
{

/**
 * Measure one epoch on an already-restored trial machine (typically a
 * MachineArena machine just restored to the checkpoint): install the
 * partition, run @p epoch_size cycles with no per-cycle policy
 * actions, and return per-thread IPCs. The machine is left in its
 * end-of-epoch state, which is what committing to the trial takes.
 */
IpcSample runTrialEpoch(SmtCpu &trial, const Partition &partition,
                        Cycle epoch_size);

/** OFF-LINE configuration. */
struct OfflineConfig
{
    Cycle epochSize = 64 * 1024;
    int stride = 2;  ///< enumeration step (2 = the paper's 127 trials)
    PerfMetric metric = PerfMetric::WeightedIpc;
    /** Stand-alone IPCs (known a priori in the off-line setting). */
    std::array<double, kMaxThreads> singleIpc{};
    bool keepCurves = false; ///< retain metric-vs-partition curves
    /**
     * Worker threads for the trial sweep; results are bit-identical
     * for every value (jobs == 1 is the exact serial path).
     */
    int jobs = 1;
};

/** Record of one committed epoch. */
struct OfflineEpoch
{
    Partition best;        ///< chosen (best) partitioning
    IpcSample ipc;         ///< per-thread IPCs of the committed epoch
    double metricValue = 0.0;
    /** share of thread 0 for each trial (when keepCurves). */
    std::vector<int> curveShares;
    /** metric of each trial (when keepCurves). */
    std::vector<double> curve;
};

/** Result of an OFF-LINE run. */
struct OfflineResult
{
    std::vector<OfflineEpoch> epochs;

    /** @return mean metric value across committed epochs. */
    double meanMetric() const;
};

/** The OFF-LINE exhaustive learner. */
class OfflineExhaustive
{
  public:
    explicit OfflineExhaustive(OfflineConfig config = OfflineConfig{});

    /**
     * Exhaustively evaluate one epoch from @p cpu, then advance
     * @p cpu to the best trial's end state (restoreFrom; @p cpu keeps
     * its own observer links).
     */
    OfflineEpoch stepEpoch(SmtCpu &cpu) const;

    /**
     * Exhaustively evaluate one epoch from @p cpu without advancing
     * it: the same record stepEpoch returns, with nothing committed.
     */
    OfflineEpoch mapEpoch(const SmtCpu &cpu) const;

    /** Run @p num_epochs epochs, advancing @p cpu along the way. */
    OfflineResult run(SmtCpu &cpu, int num_epochs) const;

    const OfflineConfig &config() const { return cfg; }

  private:
    /**
     * The trial sweep behind stepEpoch and mapEpoch.
     * @param[out] winner the worker whose arena best() is the best
     *             trial's machine
     */
    OfflineEpoch sweep(const SmtCpu &cpu, int &winner) const;

    OfflineConfig cfg;
    /** Trial-sweep pool, shared by copies of the learner. */
    std::shared_ptr<ThreadPool> pool;
    /**
     * Warm per-worker trial machines, two per worker (scratch and
     * best), shared by copies of the learner like the pool. A learner
     * (including its copies) must not run stepEpoch concurrently from
     * multiple threads — the pool runs one fan-out at a time, and the
     * arena's per-worker exclusivity holds within one sweep.
     */
    std::shared_ptr<MachineArena> arena;
};

} // namespace smthill

#endif // SMTHILL_CORE_OFFLINE_EXHAUSTIVE_HH
