/**
 * @file
 * Phase-based hill climbing (Section 5): hill climbing augmented
 * with BBV phase detection and an RLE Markov phase predictor. When
 * the predictor forecasts a previously seen phase for the next
 * epoch, the learner jumps its anchor to the partitioning it had
 * learned for that phase instead of re-learning it from scratch,
 * attacking the finite-learning-time (TL) limitation.
 */

#ifndef SMTHILL_PHASE_PHASE_HILL_HH
#define SMTHILL_PHASE_PHASE_HILL_HH

#include <map>

#include "core/hill_climbing.hh"
#include "phase/bbv.hh"
#include "phase/markov_predictor.hh"
#include "phase/phase_table.hh"

namespace smthill
{

/** Hill climbing with phase-indexed partition reuse. */
class PhaseHillClimbing : public HillClimbing
{
  public:
    explicit PhaseHillClimbing(HillConfig config = HillConfig{});
    PhaseHillClimbing(const PhaseHillClimbing &other);
    PhaseHillClimbing &operator=(const PhaseHillClimbing &) = delete;

    std::string name() const override;
    void attach(SmtCpu &cpu) override;
    void epoch(SmtCpu &cpu, std::uint64_t epoch_id) override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** @return distinct phases observed so far. */
    int phasesSeen() const { return table.size(); }

    /** @return phase-prediction accuracy so far. */
    double predictionAccuracy() const { return predictor.accuracy(); }

    /** @return how many epochs reused a stored partitioning. */
    std::uint64_t reuses() const { return reuseCount; }

    /**
     * @return the phase -> best-anchor map. Bounded by the phase
     * table's capacity: recycled phase IDs drop their stale entry.
     */
    const std::map<int, Partition> &learnedPartitions() const
    {
        return learned;
    }

    /**
     * Reuse hysteresis: a stored partitioning is only jumped to when
     * both the current and the predicted phase are *stable* — seen
     * for at least kReuseMinSeen epochs, with an average run length
     * of at least kReuseMinAvgRun epochs per occurrence. BBV noise
     * on nominally phase-free streams mints phantom phases that can
     * recur, but every occurrence lasts exactly one epoch (each
     * classification is also a transition), so their average run
     * length pins at 1 and the gate holds; genuine phases persist
     * for many epochs per visit and pass immediately. Without the
     * gate, a noise-predicted transition jumped the anchor to a
     * round-stale learned partitioning (the stage-F HILL vs
     * PHASE-HILL divergences, fuzz seeds 69/90/121).
     */
    static constexpr std::uint64_t kReuseMinSeen = 2;
    static constexpr std::uint64_t kReuseMinAvgRun = 2;

  protected:
    Partition overrideAnchor(SmtCpu &cpu, Partition next) override;

    /** Churn changes the job mix: resetPhaseState(). */
    void onChurn(SmtCpu &cpu, ThreadId, bool) override
    {
        resetPhaseState(cpu.numThreads());
    }

  private:
    static void branchTrampoline(void *ctx, const CommittedBranch &cb);

    /** @return true if @p phase has shown multi-epoch persistence. */
    bool phaseStable(int phase) const;

    /**
     * Forget everything phase-related. Called on open-system churn:
     * BBV signatures, the phase table, the Markov transition model,
     * and the learned partitionings all describe the *job mix* that
     * just changed — a learned partition for a departed set of jobs
     * is exactly the stale-anchor hazard the stability gate exists
     * to prevent, so the whole model restarts from scratch.
     */
    void resetPhaseState(int num_threads);

    BbvAccumulator bbv;
    PhaseTable table;
    MarkovPhasePredictor predictor;
    std::map<int, Partition> learned; ///< phase ID -> best anchor
    std::map<int, std::uint64_t> phaseEpochs; ///< epochs classified
    std::map<int, std::uint64_t> phaseRuns;   ///< maximal runs begun
    int currentPhase = -1;
    std::uint64_t reuseCount = 0;
};

} // namespace smthill

#endif // SMTHILL_PHASE_PHASE_HILL_HH
