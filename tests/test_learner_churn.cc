/**
 * @file
 * One churn contract for every epoch learner. HILL, PHASE-HILL,
 * BANDIT-UCB and RL-Q share HillClimbing's attach reset and churn
 * path, so each must divide a mid-epoch arrival's IPC by its
 * residency, re-balance and stay feasible on a departure, re-seed a
 * drained anchor on refill, and restart a re-attached context from
 * the supplied stand-alone IPC.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/hill_climbing.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/rl_alloc.hh"
#include "trace/program_profile.hh"

namespace smthill
{
namespace
{

ProgramProfile
profileWith(double p_cold, int dep, const char *name)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 12;
    pp.avgBlockLen = 8;
    pp.pLoadCold = p_cold;
    pp.meanDepDist = dep;
    pp.serialFrac = 0.1;
    pp.burstProb = p_cold > 0 ? 0.6 : 0.0;
    pp.burstMax = 6;
    return buildProfile(pp);
}

/** A warm 2-thread machine: an MLP thread and a short-chain ILP one. */
SmtCpu
asymmetricCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mlp"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(100000);
    return cpu;
}

/** A warm 4-thread machine of identical light-miss threads. */
SmtCpu
fourThreadCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 4;
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < 4; ++i)
        gens.emplace_back(profileWith(0.01, 8, "t"), i);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(50000);
    return cpu;
}

/** The shared fields every learner under test runs with. */
HillConfig
sharedConfig()
{
    HillConfig hc;
    hc.epochSize = 16384;
    hc.metric = PerfMetric::AvgIpc;
    return hc;
}

struct Learner
{
    const char *name;
    std::unique_ptr<HillClimbing> (*make)(const HillConfig &shared);
};

void
PrintTo(const Learner &l, std::ostream *os)
{
    *os << l.name;
}

/** @return an @p L whose shared fields are @p shared. */
template <typename L, typename Config>
std::unique_ptr<HillClimbing>
make(const HillConfig &shared)
{
    return std::make_unique<L>(Config(shared));
}

/** Run @p n full epochs, each closed by the learner's boundary. */
void
runEpochs(SmtCpu &cpu, HillClimbing &learner, int n)
{
    for (int e = 0; e < n; ++e) {
        runOneEpoch(cpu, learner, learner.config().epochSize);
        learner.epoch(cpu, static_cast<std::uint64_t>(e));
    }
}

class LearnerChurn : public ::testing::TestWithParam<Learner>
{
};

/**
 * Regression: a thread that attached halfway through an epoch was
 * charged the full epoch as divisor, halving its measured IPC; under
 * WIPC/HWIPC that systematically penalized every arrival's first
 * epoch. The divisor must be the cycles the context actually held
 * the job.
 */
TEST_P(LearnerChurn, MidEpochAttachChargesPartialResidency)
{
    SmtCpu cpu = asymmetricCpu();
    cpu.idleContext(1); // open system: context 1 starts empty

    HillConfig hc = sharedConfig();
    std::unique_ptr<HillClimbing> learner = GetParam().make(hc);
    learner->attach(cpu);

    // Half an epoch with only thread 0 resident.
    runOneEpoch(cpu, *learner, hc.epochSize / 2);

    // A job arrives on context 1 mid-epoch.
    cpu.resetContext(1,
                     StreamGenerator(profileWith(0.0, 6, "arrival"), 3));
    learner->threadAttached(cpu, 1);
    std::uint64_t committed_at_attach = cpu.stats().committed[1];
    Cycle attach_cycle = cpu.now();

    // Second half of the epoch with both threads resident.
    runOneEpoch(cpu, *learner, hc.epochSize / 2);

    std::uint64_t delta = cpu.stats().committed[1] - committed_at_attach;
    Cycle resident = cpu.now() - attach_cycle;
    ASSERT_GT(delta, 0u);

    // The boundary's record holds the epoch's measured IPCs.
    learner->epoch(cpu, 0);
    ASSERT_EQ(learner->epochHistory().size(), 1u);
    EXPECT_DOUBLE_EQ(learner->epochHistory().back().ipc[1],
                     static_cast<double>(delta) /
                         static_cast<double>(resident))
        << "divisor must be the job's residency, not the full epoch";
}

/**
 * A mid-epoch departure redistributes the freed shares immediately
 * and keeps the installed partition feasible for the survivors.
 */
TEST_P(LearnerChurn, DetachRedistributesAndStaysFeasible)
{
    SmtCpu cpu = fourThreadCpu();
    HillConfig hc = sharedConfig();
    hc.minShare = 8;
    std::unique_ptr<HillClimbing> learner = GetParam().make(hc);
    learner->attach(cpu);
    runEpochs(cpu, *learner, 4);

    cpu.idleContext(2);
    learner->threadDetached(cpu, 2);

    const Partition &p = cpu.partition();
    EXPECT_TRUE(cpu.partitioningEnabled());
    EXPECT_EQ(p.total(), 256) << "freed shares redistributed";
    EXPECT_EQ(learner->anchor().share[2], 0)
        << "departed context holds no shares";
    for (int i = 0; i < 4; ++i) {
        if (i == 2)
            continue;
        EXPECT_GE(learner->anchor().share[i], 8)
            << "survivor " << i << " below the feasible floor";
    }

    // Down to one survivor: partitioning must drop out entirely.
    cpu.idleContext(1);
    learner->threadDetached(cpu, 1);
    cpu.idleContext(3);
    learner->threadDetached(cpu, 3);
    EXPECT_FALSE(cpu.partitioningEnabled());
}

/**
 * Regression (churn bug #2, found by the attach/detach property
 * sweep): when the last job departed, redistributeDetached freed
 * every share into the void and the anchor's total dropped to zero;
 * admitAttached conserves the total it is given, so the first
 * arrivals after a drain inherited — and installed — an all-zero
 * partition that starved every context until the horizon. The anchor
 * must be re-seeded with the full register file on refill.
 */
TEST_P(LearnerChurn, DrainToEmptyThenRefillReseedsAnchor)
{
    SmtCpu cpu = fourThreadCpu();
    HillConfig hc = sharedConfig();
    hc.minShare = 8;
    std::unique_ptr<HillClimbing> learner = GetParam().make(hc);
    learner->attach(cpu);
    runEpochs(cpu, *learner, 2);

    // Every job departs: the machine drains completely.
    for (int i = 0; i < 4; ++i) {
        cpu.idleContext(i);
        learner->threadDetached(cpu, i);
    }
    EXPECT_EQ(learner->anchor().total(), 0)
        << "drained anchor holds shares";
    EXPECT_FALSE(cpu.partitioningEnabled());

    // Two arrivals refill contexts 1 and 3.
    cpu.resetContext(1, StreamGenerator(profileWith(0.0, 6, "j1"), 11));
    learner->threadAttached(cpu, 1);
    cpu.resetContext(3, StreamGenerator(profileWith(0.0, 6, "j3"), 13));
    learner->threadAttached(cpu, 3);

    EXPECT_EQ(learner->anchor().total(), 256)
        << "refill after a drain lost the register file";
    EXPECT_GE(learner->anchor().share[1], 8);
    EXPECT_GE(learner->anchor().share[3], 8);
    EXPECT_TRUE(cpu.partitioningEnabled());
    EXPECT_EQ(cpu.partition().total(), 256)
        << "an all-zero partition was installed";
}

/**
 * A job attaching to a reused context starts from the supplied
 * stand-alone IPC of that context, or from zero when none is
 * supplied — never from the departed occupant's estimate. With none
 * supplied HILL and PHASE-HILL sample solo, so the occupant's
 * estimate is a measured one; BANDIT and RL never sample.
 */
TEST_P(LearnerChurn, ReattachRestartsFromSuppliedSingleIpc)
{
    std::array<double, kMaxThreads> supplied{};
    supplied[0] = 0.75;
    supplied[1] = 2.5;
    for (bool supply : {false, true}) {
        SCOPED_TRACE(supply ? "supplied" : "none supplied");
        SmtCpu cpu = asymmetricCpu();
        HillConfig hc = sharedConfig();
        hc.metric = PerfMetric::WeightedIpc;
        if (supply)
            hc.singleIpc = supplied;
        std::unique_ptr<HillClimbing> learner = GetParam().make(hc);
        learner->attach(cpu);
        EXPECT_EQ(learner->singleIpc(), hc.singleIpc)
            << "attach must seed the supplied estimates";
        runEpochs(cpu, *learner, 4);
        const double other = learner->singleIpc()[0];

        cpu.idleContext(1);
        learner->threadDetached(cpu, 1);
        cpu.resetContext(1,
                         StreamGenerator(profileWith(0.0, 4, "new"), 7));
        learner->threadAttached(cpu, 1);
        EXPECT_DOUBLE_EQ(learner->singleIpc()[1], hc.singleIpc[1])
            << "re-attach kept the departed job's estimate";
        EXPECT_DOUBLE_EQ(learner->singleIpc()[0], other)
            << "churn on context 1 touched context 0's estimate";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Learners, LearnerChurn,
    ::testing::Values(
        Learner{"HILL", make<HillClimbing, HillConfig>},
        Learner{"PHASE_HILL", make<PhaseHillClimbing, HillConfig>},
        Learner{"BANDIT_UCB", make<BanditAllocator, BanditConfig>},
        Learner{"RL_Q", make<RlAllocator, RlConfig>}),
    [](const ::testing::TestParamInfo<Learner> &p) {
        return std::string(p.param.name);
    });

} // namespace
} // namespace smthill
