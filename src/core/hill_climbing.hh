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
 * (Section 4.2). Every job without an estimate, at attach or when it
 * lands on a context, queues one solo epoch (the bootstrap) that runs
 * before learning resumes, so the weighted metrics never run on empty
 * estimates; a supplied estimate (HillConfig::singleIpc) spares it.
 * Every epoch boundary charges the software cost of running the
 * algorithm by stalling the machine (200 cycles), and per-epoch IPCs
 * are measured over the cycles the machine actually executed, not the
 * nominal epoch size.
 */

#ifndef SMTHILL_CORE_HILL_CLIMBING_HH
#define SMTHILL_CORE_HILL_CLIMBING_HH

#include <array>
#include <cstdint>
#include <vector>

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

    /**
     * Supplied stand-alone IPCs, seeded into the estimates at attach
     * and whenever a job attaches to a context. A positive entry
     * spares that context's bootstrap solo epoch; a zero entry is
     * bootstrapped by a solo sample where the learner samples, and
     * otherwise falls back to evalMetric's solo = 1.0. HILL's
     * periodic samples overwrite them; BANDIT and RL never sample,
     * so for them these are the only estimates.
     */
    std::array<double, kMaxThreads> singleIpc{};
};

/**
 * The HILL resource-distribution policy, and the skeleton every
 * epoch learner (PHASE-HILL, BANDIT, RL) builds on: attach's state
 * reset, the churn bookkeeping (residency, active mask, supplied
 * estimates, drained-anchor re-seed, admit/redistribute,
 * re-feasibility), epoch measurement and boundary charging live
 * here once. A subclass supplies its decision rule through epoch()
 * and the startLearning() / onChurn() / samplesSolo() hooks.
 *
 * There is one code path for closed and open systems: a closed
 * system is the case where every context holds a job for the whole
 * run, so the active mask stays all-true and the residency, masking
 * and trial-rotation bookkeeping reduce to the Figure 8 algorithm.
 */
class HillClimbing : public ResourcePolicy
{
  public:
    explicit HillClimbing(HillConfig config = HillConfig{});

    std::string name() const override;

    /** Reset the shared learner state, then startLearning(). */
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
    void threadAttached(SmtCpu &cpu, ThreadId tid) final;
    void threadDetached(SmtCpu &cpu, ThreadId tid) final;
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

    /** @return true while context @p tid holds a job. */
    bool threadActive(int tid) const { return activeMask[tid]; }

    /**
     * @return true while context @p tid waits for its bootstrap solo
     * sample (queued at attach and at threadAttached, so a reused
     * context never learns on the previous occupant's stand-alone
     * IPC).
     */
    bool soloResamplePending(int tid) const { return needsSolo[tid]; }

    /**
     * @return one record per epoch() call since the last attach(), in
     * order: the learner's own history, and the args of the `epoch`
     * events it emits when an event trace is attached.
     */
    const std::vector<EpochTraceRecord> &epochHistory() const
    {
        return history;
    }

  protected:
    /**
     * Install the first epoch's partition once attach() has reset
     * the shared state and fitted the anchor to the active set. HILL
     * starts its first bootstrap sample or its first trial; other
     * learners reset their own state here.
     */
    virtual void startLearning(SmtCpu &cpu);

    /**
     * Learner-specific reaction to a job that @p attached to (or
     * departed from) context @p tid. Runs after the shared churn
     * bookkeeping has updated the active set and the anchor, before
     * the anchor is installed and the churn event is emitted.
     */
    virtual void onChurn(SmtCpu &, ThreadId, bool /*attached*/) {}

    /** @return the id of the churn event for an attach or a detach. */
    virtual InstantEvent churnEvent(bool attached) const
    {
        if (attached)
            return EventId::HillChurnAttach;
        return EventId::HillChurnDetach;
    }

    /** Add learner args to a churn event, between thread and anchor. */
    virtual void churnArgs(Json &) const {}

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

    /**
     * @return true if this learner measures stand-alone IPCs by solo
     * sampling: HILL does whenever its metric uses them.
     */
    virtual bool samplesSolo() const
    {
        return cfg.metric != PerfMetric::AvgIpc;
    }

    /**
     * Queue context @p tid's bootstrap solo sample if the learner
     * samples, the context holds a job and its estimate is unknown.
     */
    void queueSolo(int tid);

    /** @return number of active (job-holding) contexts. */
    int numActive(int nt) const;

    /** @return thread id of the @p k-th active context. */
    int activeAt(int k) const;

    /**
     * @return lowest-index active context awaiting a bootstrap solo
     * sample, or -1 if none does or fewer than two jobs are resident
     * (a lone job's solo stretch samples it for free).
     */
    int nextNeedsSolo() const;

    /** @return first active context at or cyclically after @p start. */
    int nextActiveFrom(int start, int nt) const;

    /**
     * Metric over the active subset only; with every context active
     * this is plain evalMetric, bit for bit.
     */
    double evalActiveMetric(const IpcSample &sample) const
    {
        return evalMetricMasked(cfg.metric, sample, singleIpcEst,
                                activeMask);
    }

    /**
     * Append this boundary's record to epochHistory() and, with an
     * event trace attached, emit it as the `epoch` slice covering the
     * measured window. Runs after the boundary's decisions and before
     * chargeBoundary().
     */
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
    std::vector<EpochTraceRecord> history; ///< see epochHistory()

    // --- Churn state (time-varying active set). In a closed system
    // --- activeMask stays all-true and the residency windows equal
    // --- the measurement window.
    std::array<bool, kMaxThreads> activeMask{};  ///< contexts w/ jobs
    std::array<bool, kMaxThreads> needsSolo{};   ///< bootstrap due
    /** Start cycle of each context's current residency stint. */
    std::array<Cycle, kMaxThreads> residentFrom{};
    /** Resident cycles of finished stints inside this window. */
    std::array<Cycle, kMaxThreads> residentAccum{};
    int roundPos = 0;        ///< active-set index of installed trial
    bool roundDirty = false; ///< churn invalidated the running epoch

  private:
    /** Emit the churnEvent() instant for @p tid with churnArgs(). */
    void traceChurn(const SmtCpu &cpu, ThreadId tid, bool attached);
};

} // namespace smthill

#endif // SMTHILL_CORE_HILL_CLIMBING_HH
