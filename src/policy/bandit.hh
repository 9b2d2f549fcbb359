/**
 * @file
 * Multi-armed bandit resource distribution (ROADMAP "learner
 * diversity", after Glassner & Crammer's bandit cache allocation):
 * each epoch pulls one arm of a quantized partition lattice and the
 * epoch's performance metric is the arm's reward. Two classic index
 * policies are provided — UCB1 (deterministic optimism) and EXP3
 * (adversarial, samples arms from a weight distribution seeded from
 * common/rng) — behind the same ResourcePolicy surface as the
 * hill-climber. BanditAllocator is a HillClimbing: attach's state
 * reset, the churn bookkeeping, epoch measurement, software-cost
 * charging and the open-system residency accounting are the base's;
 * the bandit adds its index rule in epoch() and rebuilds the arm
 * lattice in the startLearning() / onChurn() hooks. The lattice, not
 * the gradient, does the exploring: with two active threads the arms
 * are exactly enumeratePartitions2(total, delta); with more, an
 * equal-split arm plus trialPartition spokes around it.
 *
 * Unlike HILL, the bandit never runs solo-sampling epochs (it
 * overrides samplesSolo() to false): weighted rewards (WIPC/HWIPC)
 * normalize by HillConfig::singleIpc when the caller supplies solo
 * estimates (harness soloIpcs), and otherwise fall back to the
 * evalMetric single-IPC <= 0 convention (solo = 1.0, i.e.
 * unnormalized) — rewards stay comparable across arms either way,
 * which is all a bandit needs.
 */

#ifndef SMTHILL_POLICY_BANDIT_HH
#define SMTHILL_POLICY_BANDIT_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "core/hill_climbing.hh"

namespace smthill
{

/** Which bandit index rule picks the next arm. */
enum class BanditAlgo
{
    Ucb1, ///< deterministic: mean + c * sqrt(ln t / n)
    Exp3  ///< stochastic: exponential weights, seeded draws
};

/**
 * Tunables of the bandit allocator. The shared fields are
 * HillConfig's; delta is the lattice quantization step.
 */
struct BanditConfig : HillConfig
{
    /** The bandit's defaults: a 16-register lattice, raw-IPC reward. */
    BanditConfig()
    {
        delta = 16;
        metric = PerfMetric::AvgIpc;
    }

    /** Take every shared field from @p shared. */
    explicit BanditConfig(const HillConfig &shared) : HillConfig(shared) {}

    BanditAlgo algo = BanditAlgo::Ucb1;
    double exploreCoeff = 1.0;   ///< UCB1 exploration coefficient c
    double gamma = 0.1;          ///< EXP3 exploration rate
    std::uint64_t seed = 1;      ///< EXP3 arm-draw stream
};

/** The BANDIT resource-distribution policy (UCB1 or EXP3). */
class BanditAllocator : public HillClimbing
{
  public:
    explicit BanditAllocator(BanditConfig config = BanditConfig{});
    BanditAllocator(const BanditAllocator &) = default;
    BanditAllocator &operator=(const BanditAllocator &) = delete;

    std::string name() const override;
    void epoch(SmtCpu &cpu, std::uint64_t epoch_id) override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** @return the current arm lattice (rebuilt on churn). */
    const std::vector<Partition> &arms() const { return armSet; }

    /** @return the arm installed for the running epoch, or -1. */
    int currentArm() const { return armInFlight; }

    /** @return pulls of @p arm since the last lattice (re)build. */
    std::uint64_t armPlays(int arm) const { return playCount[arm]; }

    /** @return running mean reward of @p arm (UCB1 statistic). */
    double armMean(int arm) const { return meanReward[arm]; }

    /** @return exponential weight of @p arm (EXP3 statistic). */
    double armWeight(int arm) const { return weight[arm]; }

    /** @return total pulls since the last lattice (re)build. */
    std::uint64_t pulls() const { return totalPlays; }

  protected:
    /** Re-seed the EXP3 stream, build the lattice, pull the first arm. */
    void startLearning(SmtCpu &cpu) override;

    /**
     * The bandit never solo-samples: weighted rewards normalize by
     * cfg.singleIpc (or run unnormalized where the caller left it
     * zero).
     */
    bool samplesSolo() const override { return false; }

    /** A changed active set invalidates every arm: rebuild them. */
    void onChurn(SmtCpu &cpu, ThreadId, bool) override
    {
        rebuildArms(cpu);
    }

    InstantEvent churnEvent(bool attached) const override
    {
        if (attached)
            return EventId::BanditChurnAttach;
        return EventId::BanditChurnDetach;
    }

    /** Churn events also carry the rebuilt lattice's size. */
    void churnArgs(Json &args) const override
    {
        args.set("arms", static_cast<std::uint64_t>(armSet.size()));
    }

  private:
    /**
     * Rebuild the arm lattice for the current active set and zero
     * every arm statistic. Called at attach and on churn: an arm is a
     * concrete share assignment to specific contexts, so a changed
     * active set changes what every arm means — carrying rewards
     * across would credit the wrong partitions.
     */
    void rebuildArms(const SmtCpu &cpu);

    /** @return next arm per the configured index rule. */
    int selectArm();

    /** Fold @p reward into @p arm's UCB1/EXP3 statistics. */
    void applyReward(int arm, double reward);

    /** Select, install, and audit the arm for the next epoch. */
    void pullArm(SmtCpu &cpu, int previous_arm, double reward);

    BanditConfig bcfg; ///< own fields; the shared ones are read from cfg
    Rng rng;
    std::vector<Partition> armSet;
    std::vector<std::uint64_t> playCount;
    std::vector<double> meanReward; ///< UCB1 running means
    std::vector<double> weight;     ///< EXP3 exponential weights
    std::vector<double> lastProb;   ///< EXP3 probs at last draw
    double rewardScale = 0.0; ///< running max reward (EXP3 normalizer)
    std::uint64_t totalPlays = 0;
    int armInFlight = -1;
};

} // namespace smthill

#endif // SMTHILL_POLICY_BANDIT_HH
