/**
 * @file
 * The paper's contribution: on-line hill-climbing SMT resource
 * distribution (Section 4, Figure 8).
 *
 * Execution is divided into epochs (64K cycles). Learning proceeds in
 * rounds of T epochs: in epoch k of a round, the trial partition
 * shifts Delta unit resources to thread k from every other thread,
 * relative to the current anchor partition. At the end of a round the
 * anchor moves along the positive gradient — in favor of the thread
 * whose trial epoch performed best. The performance feedback metric
 * is configurable (average IPC, weighted IPC, or harmonic mean of
 * weighted IPC); the weighted metrics learn each thread's stand-alone
 * IPC on-line by periodically running the thread solo for one epoch
 * (Section 4.2); right after attach, every thread is sampled solo
 * once (the bootstrap) so the weighted metrics never run on empty
 * estimates. Every epoch boundary charges the software cost of
 * running the algorithm by stalling the machine (200 cycles), and
 * per-epoch IPCs are measured over the cycles the machine actually
 * executed, not the nominal epoch size.
 */

#ifndef SMTHILL_CORE_HILL_CLIMBING_HH
#define SMTHILL_CORE_HILL_CLIMBING_HH

#include <array>
#include <cstdint>

#include "core/epoch_trace.hh"
#include "core/metrics.hh"
#include "core/partitioning.hh"
#include "policy/policy.hh"

namespace smthill
{

/** Tunables of the hill-climbing learner (defaults = the paper's). */
struct HillConfig
{
    Cycle epochSize = 64 * 1024;  ///< cycles per epoch
    int delta = 4;                ///< registers shifted per sample
    PerfMetric metric = PerfMetric::WeightedIpc;
    Cycle softwareCost = 200;     ///< machine stall per epoch boundary
    int minShare = 4;             ///< floor on any thread's share

    /**
     * Epochs between SingleIPC samples; each thread is sampled once
     * every samplePeriod * T epochs (Section 4.2 uses 40).
     */
    int samplePeriod = 40;

    /** Disable solo sampling (only sane for the AvgIpc metric). */
    bool sampleSingleIpc = true;
};

/** The HILL resource-distribution policy. */
class HillClimbing : public ResourcePolicy
{
  public:
    explicit HillClimbing(HillConfig config = HillConfig{});

    std::string name() const override;
    void attach(SmtCpu &cpu) override;

    /**
     * Learners act only at epoch boundaries: no per-cycle hook, here
     * or in any subclass, so nextWake() can never be wrong.
     */
    void cycle(SmtCpu &) final {}
    Cycle
    nextWake(const SmtCpu &) const final
    {
        return kNeverCycle;
    }

    void epoch(SmtCpu &cpu, std::uint64_t epoch_id) override;
    void threadAttached(SmtCpu &cpu, ThreadId tid) override;
    void threadDetached(SmtCpu &cpu, ThreadId tid) override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    const HillConfig &config() const { return cfg; }

    /** @return the current best-known partition (the anchor). */
    const Partition &anchor() const { return anchorPartition; }

    /** @return current stand-alone IPC estimates. */
    const std::array<double, kMaxThreads> &singleIpc() const
    {
        return singleIpcEst;
    }

    /** @return true while a solo-sampling epoch is in flight. */
    bool samplingActive() const { return samplingThread >= 0; }

    /**
     * @return true while the initial SingleIPC bootstrap (one solo
     * epoch per thread, right after attach) is still running. Until
     * it completes no learning epoch has executed, so the weighted
     * metrics never see the degenerate all-zero estimate state.
     */
    bool bootstrapping() const { return bootstrapPending > 0; }

    /** @return true once every thread has a stand-alone IPC sample. */
    bool estimatesReady() const;

    /** @return true while context @p tid holds a job (open system). */
    bool threadActive(int tid) const { return activeMask[tid]; }

    /**
     * @return true while context @p tid waits for a solo re-bootstrap
     * sample (queued at threadAttached so a reused context never
     * learns on the previous occupant's stand-alone IPC).
     */
    bool soloResamplePending(int tid) const { return needsSolo[tid]; }

  protected:
    /**
     * Hook for extensions (Section 5 phase-based learning), invoked
     * after the normal hill step has chosen the next anchor; the
     * returned partition replaces it.
     */
    virtual Partition overrideAnchor(SmtCpu &, Partition next)
    {
        return next;
    }

    /**
     * Measure per-thread IPCs of the epoch that just ended, over the
     * cycles the machine actually executed since measurement resumed
     * (excluding the software-cost stall charged at the previous
     * boundary), not the nominal epoch size.
     */
    IpcSample measureEpoch(const SmtCpu &cpu);

    /** Install the trial partition for the upcoming epoch. */
    void installTrial(SmtCpu &cpu);

    /** Put @p tid solo on the machine for one sampling epoch. */
    void beginSample(SmtCpu &cpu, int tid);

    /** Charge the software cost and restart the measurement window. */
    void chargeBoundary(SmtCpu &cpu);

    /** @return true if the metric needs stand-alone IPC estimates. */
    bool needsSingleIpc() const
    {
        return cfg.metric != PerfMetric::AvgIpc;
    }

    /** @return number of active (job-holding) contexts. */
    int numActive(int nt) const;

    /** @return thread id of the @p k-th active context. */
    int activeAt(int k) const;

    /** @return lowest-index active context awaiting a solo sample. */
    int nextNeedsSolo() const;

    /** @return first active context at or cyclically after @p start. */
    int nextActiveFrom(int start, int nt) const;

    /**
     * Metric over the active subset only; in a closed system (no
     * churn ever observed) this is plain evalMetric, bit for bit.
     */
    double evalActiveMetric(const IpcSample &sample) const;

    /** Record this boundary's state into the attached tracer. */
    void traceEpoch(const SmtCpu &cpu, std::uint64_t epoch_id,
                    const IpcSample &sample, const Partition &trial,
                    bool was_partitioned, double metric_value,
                    int sampled_thread, int gradient_thread,
                    bool anchor_moved);

    HillConfig cfg;
    Partition anchorPartition;
    std::array<double, kMaxThreads> roundPerf{};
    std::array<double, kMaxThreads> singleIpcEst{};
    std::array<std::uint64_t, kMaxThreads> lastCommitted{};
    std::uint64_t algEpoch = 0;   ///< epochs consumed by learning
    Cycle lastEpochStart = 0;     ///< cycle measurement resumed at
    Cycle roundStart = 0;         ///< cycle the current round began at
    Cycle lastElapsed = 0;        ///< cycles covered by the last sample
    int epochsSinceSample = 0;
    int sampleRotation = 0;       ///< next thread to sample
    int samplingThread = -1;      ///< thread running solo, or -1
    int bootstrapPending = 0;     ///< attach-time solo samples left

    // --- Open-system churn state (time-varying active set). All of
    // --- it is inert in a closed system: activeMask is all-true,
    // --- openSystemMode stays false, and every churn branch below
    // --- reduces to the legacy behavior bit for bit.
    std::array<bool, kMaxThreads> activeMask{};  ///< contexts w/ jobs
    std::array<bool, kMaxThreads> needsSolo{};   ///< re-bootstrap due
    /** Start cycle of each context's current residency stint. */
    std::array<Cycle, kMaxThreads> residentFrom{};
    /** Resident cycles of finished stints inside this window. */
    std::array<Cycle, kMaxThreads> residentAccum{};
    int roundPos = 0;        ///< active-set index of installed trial
    bool roundDirty = false; ///< churn invalidated the running epoch
    bool openSystemMode = false; ///< any churn (or partial attach) seen
};

} // namespace smthill

#endif // SMTHILL_CORE_HILL_CLIMBING_HH
