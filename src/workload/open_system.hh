/**
 * @file
 * Open-system traffic scenario: jobs arrive on a seeded stochastic
 * process, attach to free hardware contexts, run a bounded
 * instruction stream, and depart — driving time-varying thread
 * counts through the pipeline and whichever resource policy is
 * attached. This is the serving-system regime the paper's closed
 * 2-4-thread mixes cannot exercise: learner reaction to thread
 * churn (SingleIPC re-bootstrap, partition re-feasibility, phase
 * model invalidation).
 *
 * Everything is deterministic: the whole arrival schedule (epoch
 * gaps via inverse-transform exponential draws, benchmark choices,
 * per-job instruction bounds, priorities, stream seeds) is
 * pre-generated from one Rng at construction, so the same
 * OpenSystemConfig always produces the same run, cycle for cycle —
 * which is what lets the differential fuzzer cross-check runs and
 * the bench demand bit-identical reruns.
 */

#ifndef SMTHILL_WORKLOAD_OPEN_SYSTEM_HH
#define SMTHILL_WORKLOAD_OPEN_SYSTEM_HH

#include <functional>
#include <string>
#include <vector>

#include "pipeline/cpu.hh"
#include "policy/policy.hh"

namespace smthill
{

/** Parameters of one open-system run. */
struct OpenSystemConfig
{
    std::uint64_t seed = 1;       ///< drives the whole schedule

    /**
     * Arrival rate lambda in jobs per cycle; inter-arrival gaps are
     * exponential with mean 1/lambda (clamped to >= 1 cycle).
     */
    double arrivalRate = 1.0 / 65536.0;

    int numJobs = 16;             ///< jobs in the schedule
    std::uint64_t minJobInstructions = 20'000;
    std::uint64_t maxJobInstructions = 80'000;
    Cycle epochSize = 64 * 1024;  ///< policy epoch() cadence

    /**
     * Hard cycle cap; 0 = run until every scheduled job departs.
     * Jobs still resident (or still queued) when the horizon hits
     * are closed out with completed = false.
     */
    Cycle horizon = 0;

    /**
     * Draw per-job priority/SLA weights in [1, 4] instead of all 1.
     * Weights scale nothing inside the engine; they feed the
     * weighted fairness/latency reporting on top.
     */
    bool slaWeights = false;

    /** Benchmarks jobs draw from; empty = all Table 2 benchmarks. */
    std::vector<std::string> benchmarkPool;

    bool operator==(const OpenSystemConfig &) const = default;
};

/** Per-context raw counters at one instant of one context's life. */
struct ContextSnapshot
{
    Cycle cycle = 0;
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t flushed = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t partitionLockCycles = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t l2Misses = 0;

    bool operator==(const ContextSnapshot &) const = default;
};

/** One job's full lifecycle record. */
struct JobRecord
{
    int jobId = -1;
    std::string benchmark;
    int priority = 1;               ///< SLA weight (1 unless enabled)
    std::uint64_t instructions = 0; ///< departure bound (committed)
    std::uint64_t streamSeed = 0;   ///< per-job generator entropy

    Cycle arriveCycle = 0;
    Cycle attachCycle = 0;
    Cycle departCycle = 0;
    int context = -1;               ///< hardware context it ran on
    bool attached = false;
    bool completed = false;         ///< reached its bound (vs horizon)

    /**
     * Raw counter snapshots bracketing the job's residency. Per-job
     * stats are the difference — NOT the context's cumulative
     * counters, which keep counting across job lifetimes when a
     * context is reused.
     */
    ContextSnapshot atAttach;
    ContextSnapshot atDepart;

    /** Committed instructions attributable to this job alone. */
    std::uint64_t committed() const
    {
        return atDepart.committed - atAttach.committed;
    }

    /** Resident cycles (attach to depart). */
    Cycle residency() const { return atDepart.cycle - atAttach.cycle; }

    /** Sojourn time (arrival to departure; includes queueing). */
    Cycle latency() const { return departCycle - arriveCycle; }

    /** IPC over the job's own residency window. */
    double ipc() const
    {
        Cycle r = residency();
        return r > 0 ? static_cast<double>(committed()) /
                           static_cast<double>(r)
                     : 0.0;
    }
};

/** Outcome of one open-system run. */
struct OpenSystemResult
{
    OpenSystemConfig config;
    std::string policyName;
    std::vector<JobRecord> jobs;   ///< in arrival order
    Cycle cycles = 0;              ///< total simulated cycles
    std::uint64_t committedTotal = 0;
    int completedJobs = 0;
    int horizonJobs = 0;           ///< closed out by the horizon
    int maxQueueDepth = 0;         ///< peak jobs waiting for a context
};

/** p50/p95/p99 over completed-job latencies. */
struct LatencyStats
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * The open-system engine. Construction pre-generates the arrival
 * schedule from config.seed; run() then drives a fresh machine and
 * the given policy through it.
 */
class OpenSystem
{
  public:
    /**
     * @param machine hardware shape; every context starts idle
     * @param config arrival process and job population parameters
     */
    OpenSystem(const SmtConfig &machine, const OpenSystemConfig &config);

    /** The pre-generated schedule, in arrival order. */
    const std::vector<JobRecord> &schedule() const { return jobs; }

    /**
     * Per-cycle observer (invariant sweeps in the fuzz harness);
     * invoked after every machine step. Not part of run results.
     */
    using CycleObserver = std::function<void(const SmtCpu &)>;
    void setCycleObserver(CycleObserver fn) { observer = std::move(fn); }

    /**
     * Run the scenario under @p policy on a fresh machine.
     * @param trace optional cycle-level event trace for the run's
     *        job.arrive / job.attach / job.depart markers and all
     *        machine/policy events
     * @param trace_pid trace-event process id when @p trace is set
     */
    OpenSystemResult run(ResourcePolicy &policy, EventTrace *trace = nullptr,
                         int trace_pid = 1);

    /**
     * The cold machine run() starts from: placeholder generators on
     * every context (replaced via resetContext before a context ever
     * runs), cycle 0, all counters zero. A pure function of the
     * machine shape and benchmark pool, so sweeps can build it once
     * and restore it per cell (MachineArena) instead of paying the
     * full construction per run.
     */
    SmtCpu makeMachine() const;

    /**
     * Run the scenario on @p cpu, which must be in the makeMachine()
     * state and unobserved (fresh, or from MachineArena::acquire);
     * runOn attaches the trace and the policy. run() is exactly
     * makeMachine() + runOn(); the two paths are bit-identical.
     */
    OpenSystemResult runOn(SmtCpu &cpu, ResourcePolicy &policy,
                           EventTrace *trace = nullptr, int trace_pid = 1);

  private:
    SmtConfig machineConfig;
    OpenSystemConfig cfg;
    std::vector<JobRecord> jobs;
    CycleObserver observer;
};

/** @return latency percentiles over completed jobs. */
LatencyStats jobLatencyStats(const OpenSystemResult &result);

/** @return completed jobs per million cycles. */
double jobThroughput(const OpenSystemResult &result);

/**
 * Jain's fairness index (Sigma x)^2 / (n * Sigma x^2) over arbitrary
 * shares; 1.0 = perfectly fair, 1/n = one job got everything.
 * Empty or all-zero input yields 0.
 */
double jainFairness(const std::vector<double> &shares);

/** Per-job IPC divided by priority weight, completed jobs only. */
std::vector<double> priorityWeightedJobIpcs(const OpenSystemResult &result);

} // namespace smthill

#endif // SMTHILL_WORKLOAD_OPEN_SYSTEM_HH
