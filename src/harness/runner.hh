/**
 * @file
 * Experiment runner: builds machines for workloads, drives a policy
 * epoch by epoch, gathers per-epoch and end-to-end performance, and
 * measures/caches stand-alone (solo) IPCs for the weighted metrics.
 */

#ifndef SMTHILL_HARNESS_RUNNER_HH
#define SMTHILL_HARNESS_RUNNER_HH

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/metrics.hh"
#include "harness/report.hh"
#include "pipeline/cpu.hh"
#include "policy/policy.hh"
#include "workload/workloads.hh"

namespace smthill
{

/** Shared experiment parameters. */
struct RunConfig
{
    Cycle epochSize = 64 * 1024;
    int epochs = 16;
    std::uint64_t seedSalt = 0;

    /**
     * Cycles run (unpartitioned, ICOUNT) before measurement begins,
     * so caches and predictors reach steady state. Plays the role of
     * the paper's SimPoint fast-forwarding. Low-IPC memory-bound
     * benchmarks need ~2M cycles before their L2-resident region is
     * warm; shorter warmups systematically understate solo IPCs and
     * inflate the weighted metrics.
     */
    Cycle warmupCycles = 2 * 1024 * 1024;

    /**
     * Concurrency for parallel sweeps (runGrid and the benches/CLI
     * built on it). jobs == 1 restores exact serial execution on the
     * calling thread; results are bit-identical either way because
     * every cell is an independent function of value-copied machine
     * state, reduced in index order.
     */
    int jobs = ThreadPool::defaultJobs();

    SmtConfig machine; ///< numThreads is overridden per workload
};

/** Per-epoch observation from a policy run. */
struct EpochRecord
{
    IpcSample ipc;
    Partition partition;     ///< partition during the epoch (if any)
    bool partitioned = false;
};

/** Result of running one policy on one workload. */
struct RunResult
{
    std::vector<EpochRecord> epochs;
    IpcSample overallIpc;    ///< committed / cycles over the full run
    CpuStats stats;
    MachineSnapshot startSnapshot; ///< at measurement start
    MachineSnapshot finalSnapshot; ///< at measurement end

    /** Derived per-thread rates over the measured interval. */
    MachineReport report(const std::vector<std::string> &labels = {}) const
    {
        return buildReport(startSnapshot, finalSnapshot, labels);
    }

    /** Evaluate an end-performance metric over the whole run. */
    double metric(PerfMetric m,
                  const std::array<double, kMaxThreads> &single_ipc) const
    {
        return evalMetric(m, overallIpc, single_ipc);
    }
};

/** Build a machine for @p workload using @p config's parameters. */
SmtCpu makeCpu(const Workload &workload, const RunConfig &config);

/**
 * Run @p policy on a fresh machine for @p workload.
 * The policy is attached, cycled at every wake point (advanceToWake),
 * and given an epoch() callback at every epoch boundary.
 */
RunResult runPolicy(const Workload &workload, ResourcePolicy &policy,
                    const RunConfig &config);

/**
 * Per-epoch observer for runPolicyOn: called after each epoch's
 * policy.epoch() hook with the epoch index and the machine. Host-side
 * telemetry only (progress); the run ignores anything the callback
 * does, so results are identical with or without one.
 */
using EpochObserver = std::function<void(int epoch, const SmtCpu &cpu)>;

/** Same, but starting from an existing machine state (moved in). */
RunResult runPolicyOn(SmtCpu cpu, ResourcePolicy &policy, int epochs,
                      Cycle epoch_size,
                      const EpochObserver &on_epoch = {});

/**
 * Advance @p cpu by exactly one epoch under @p policy (cycle hooks
 * only; no epoch() callback). @return per-thread IPCs of the epoch.
 */
IpcSample runOneEpoch(SmtCpu &cpu, ResourcePolicy &policy,
                      Cycle epoch_size);

/**
 * Stand-alone IPC of @p benchmark on a single-context version of the
 * machine, measured over @p cycles and cached process-wide.
 */
double soloIpc(const std::string &benchmark, const RunConfig &config,
               Cycle cycles);

/** Solo IPCs for every thread of a workload (cached). */
std::array<double, kMaxThreads> soloIpcs(const Workload &workload,
                                         const RunConfig &config,
                                         Cycle cycles);

/**
 * Parallel sweep entry point for bench grids and the CLI: run
 * @p cell(i) for every i in [0, cells) across @p jobs threads
 * (jobs <= 1 runs serially on the calling thread). Cells must be
 * independent: each writes only its own per-index output slot, which
 * the caller then reduces/prints in index order. Everything reachable
 * from a cell (makeCpu/soloIpc caches, workload tables, profiles) is
 * thread-safe; policies and machines must be created inside the cell.
 */
void runGrid(std::size_t cells, int jobs,
             const std::function<void(std::size_t)> &cell);

/**
 * runGrid variant that also hands the cell its executing lane id
 * (calling thread 0, pool threads 1..jobs-1; see
 * ThreadPool::parallelForWorker). A worker id is never active on two
 * cells at once, so cells can use per-worker scratch — notably a
 * MachineArena machine restored from a shared checkpoint — without
 * synchronization and without changing results versus runGrid.
 */
void runGridWorker(std::size_t cells, int jobs,
                   const std::function<void(std::size_t, int)> &cell);

/**
 * Read an unsigned decimal knob from the environment. Unset or empty
 * gives nullopt; so does anything but a plain run of digits that
 * fits in 64 bits (a sign, trailing characters, overflow), after a
 * warning naming the variable.
 */
std::optional<std::uint64_t> envKnob(const char *name);

/** envKnob(@p name), or @p def when the knob has no usable value. */
std::uint64_t envScale(const char *name, std::uint64_t def);

/**
 * Example-program RunConfig honoring SMTHILL_EPOCHS/EPOCH_SIZE/SEED;
 * fatal when SMTHILL_EPOCHS or SMTHILL_EPOCH_SIZE is 0.
 */
RunConfig benchRunConfig(int default_epochs);

} // namespace smthill

#endif // SMTHILL_HARNESS_RUNNER_HH
