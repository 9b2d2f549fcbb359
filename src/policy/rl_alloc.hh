/**
 * @file
 * Reinforcement-learning resource distribution (ROADMAP "learner
 * diversity", after Chasparis et al.'s RL-based dynamic pinning): a
 * tabular Q-learner over anchor moves. The state is which active
 * context currently holds the largest anchor share (lowest index on
 * ties); the actions are "move the anchor toward active context k"
 * (the Figure 8 moveAnchor step) or "stay". The reward is the
 * epoch's performance metric, selectable among the paper's three
 * (src/core/metrics.*). Action selection is epsilon-greedy with the
 * exploration draw taken from a seeded common/rng stream, so clones
 * replay bit-identically.
 *
 * Like the bandit, RlAllocator is a HillClimbing: attach's state
 * reset, the churn bookkeeping, epoch measurement, software-cost
 * charging and open-system residency accounting are the base's; the
 * learner adds its Q update in epoch() and resets its table in the
 * startLearning() / onChurn() hooks. It never runs solo-sampling
 * epochs (it overrides samplesSolo() to false): weighted rewards
 * normalize by HillConfig::singleIpc when the caller supplies solo
 * estimates, else run unnormalized via the evalMetric fallback.
 */

#ifndef SMTHILL_POLICY_RL_ALLOC_HH
#define SMTHILL_POLICY_RL_ALLOC_HH

#include <array>
#include <cstdint>

#include "common/rng.hh"
#include "core/hill_climbing.hh"

namespace smthill
{

/**
 * Tunables of the Q-learning allocator. The shared fields are
 * HillConfig's; delta is the registers one anchor move shifts.
 */
struct RlConfig : HillConfig
{
    /** The RL learner's defaults: 8-register moves, raw-IPC reward. */
    RlConfig()
    {
        delta = 8;
        metric = PerfMetric::AvgIpc;
    }

    /** Take every shared field from @p shared. */
    explicit RlConfig(const HillConfig &shared) : HillConfig(shared) {}

    double alpha = 0.2;          ///< learning rate
    double discount = 0.5;       ///< future-reward discount
    double epsilon = 0.1;        ///< exploration probability
    std::uint64_t seed = 1;      ///< exploration-draw stream
};

/** The RL resource-distribution policy (epsilon-greedy Q-learning). */
class RlAllocator : public HillClimbing
{
  public:
    /** Action index meaning "keep the anchor where it is". */
    static constexpr int kStay = kMaxThreads;

    explicit RlAllocator(RlConfig config = RlConfig{});
    RlAllocator(const RlAllocator &) = default;
    RlAllocator &operator=(const RlAllocator &) = delete;

    std::string name() const override;
    void epoch(SmtCpu &cpu, std::uint64_t epoch_id) override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** @return learned value of (@p state, @p action). */
    double qValue(int state, int action) const
    {
        return qTable[state][action];
    }

    /** @return epsilon-draw explorations taken so far. */
    std::uint64_t explorations() const { return exploreCount; }

    /** @return actions that actually moved the anchor. */
    std::uint64_t anchorMoves() const { return moveCount; }

  protected:
    /** Re-seed the exploration stream, zero the Q table. */
    void startLearning(SmtCpu &cpu) override;

    /**
     * The RL learner never solo-samples: weighted rewards normalize
     * by cfg.singleIpc, or run unnormalized via the evalMetric
     * fallback.
     */
    bool samplesSolo() const override { return false; }

    /**
     * Churn breaks the transition in flight; a fresh job in a reused
     * context also invalidates what was learned about that context.
     */
    void onChurn(SmtCpu &cpu, ThreadId tid, bool attached) override;

    InstantEvent churnEvent(bool attached) const override
    {
        if (attached)
            return EventId::RlChurnAttach;
        return EventId::RlChurnDetach;
    }

  private:
    /** @return the active context holding the largest anchor share. */
    int stateOf() const;

    /** @return max Q over the valid actions in @p state. */
    double bestValue(int state, int nt) const;

    /** @return epsilon-greedy action for @p state (consumes rng). */
    int selectAction(int state, int nt);

    RlConfig rcfg; ///< own fields; the shared ones are read from cfg
    Rng rng;
    /** Q[state][action]; action kStay is the last column. */
    std::array<std::array<double, kMaxThreads + 1>, kMaxThreads>
        qTable{};
    int lastState = -1;
    int lastAction = -1;
    std::uint64_t exploreCount = 0;
    std::uint64_t moveCount = 0;
};

} // namespace smthill

#endif // SMTHILL_POLICY_RL_ALLOC_HH
