/**
 * @file
 * Unit tests for the hill-climbing learner (Figure 8).
 */

#include <gtest/gtest.h>

#include "core/hill_climbing.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
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

SmtCpu
asymmetricCpu()
{
    // Thread 0 profits from a large window (bursty misses); thread 1
    // is a short-chain ILP thread that does not.
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mlp"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(100000); // warm
    return cpu;
}

HillConfig
fastConfig()
{
    HillConfig hc;
    hc.epochSize = 16384;
    hc.metric = PerfMetric::AvgIpc;
    return hc;
}

TEST(HillClimbing, AttachInstallsEqualAnchorTrial)
{
    SmtCpu cpu = asymmetricCpu();
    HillClimbing hill(fastConfig());
    hill.attach(cpu);
    EXPECT_TRUE(cpu.partitioningEnabled());
    EXPECT_EQ(hill.anchor().share[0], 128);
    // First trial favors thread 0 by Delta.
    EXPECT_EQ(cpu.partition().share[0], 132);
    EXPECT_EQ(cpu.partition().share[1], 124);
}

TEST(HillClimbing, RoundMovesAnchorAlongGradient)
{
    SmtCpu cpu = asymmetricCpu();
    HillClimbing hill(fastConfig());
    hill.attach(cpu);
    Partition before = hill.anchor();
    // Run one full round (N=2 epochs).
    for (int e = 0; e < 2; ++e) {
        runOneEpoch(cpu, hill, hill.config().epochSize);
        hill.epoch(cpu, e);
    }
    Partition after = hill.anchor();
    EXPECT_NE(before, after) << "the anchor must move every round";
    EXPECT_EQ(after.total(), 256);
    int moved = std::abs(after.share[0] - before.share[0]);
    EXPECT_EQ(moved, 4) << "one round moves exactly Delta";
}

TEST(HillClimbing, ChargesSoftwareCost)
{
    SmtCpu cpu = asymmetricCpu();
    HillConfig hc = fastConfig();
    hc.softwareCost = 200;
    HillClimbing hill(hc);
    hill.attach(cpu);
    runOneEpoch(cpu, hill, hc.epochSize);
    auto committed = cpu.stats().committedTotal();
    hill.epoch(cpu, 0);
    cpu.run(200);
    EXPECT_EQ(cpu.stats().committedTotal(), committed)
        << "the 200-cycle software stall freezes commit";
}

TEST(HillClimbing, ClimbsTowardMlpThread)
{
    // A steep, monotone hill: thread 0 converts every extra window
    // entry into overlapped misses, thread 1 is a serial chain that
    // needs almost none. On a small machine the climber must walk
    // decisively toward thread 0.
    SmtConfig cfg;
    cfg.numThreads = 2;
    cfg.intRegs = 64;
    cfg.robSize = 128;
    cfg.intIqSize = 40;
    cfg.lsqSize = 64;
    cfg.fpRegs = 64;

    ProfileParams win;
    win.name = "window";
    win.numBlocks = 12;
    win.avgBlockLen = 8;
    win.pLoadCold = 0.10;
    win.burstProb = 0.9;
    win.burstMax = 16;
    win.serialFrac = 0.0;
    win.meanDepDist = 64;

    ProfileParams chain;
    chain.name = "chain";
    chain.numBlocks = 12;
    chain.avgBlockLen = 8;
    chain.serialFrac = 0.9;
    chain.meanDepDist = 2;
    chain.pLoadWarm = 0.0;

    std::vector<StreamGenerator> gens;
    gens.emplace_back(buildProfile(win), 0);
    gens.emplace_back(buildProfile(chain), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(300000); // warm

    HillClimbing hill(fastConfig());
    hill.attach(cpu);
    double mean_share0 = 0.0;
    int counted = 0;
    for (int e = 0; e < 40; ++e) {
        runOneEpoch(cpu, hill, hill.config().epochSize);
        hill.epoch(cpu, e);
        if (e >= 20) {
            mean_share0 += hill.anchor().share[0];
            ++counted;
        }
    }
    EXPECT_GT(mean_share0 / counted, 40.0)
        << "anchor should spend its time well above the equal split "
           "(32) on the window-hungry side";
}

TEST(HillClimbing, SamplingEpochRunsThreadSolo)
{
    SmtCpu cpu = asymmetricCpu();
    HillConfig hc = fastConfig();
    hc.metric = PerfMetric::WeightedIpc;
    hc.samplePeriod = 3; // sample quickly for the test
    HillClimbing hill(hc);
    hill.attach(cpu);

    bool sampled = false;
    for (int e = 0; e < 12 && !sampled; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
        if (hill.samplingActive()) {
            sampled = true;
            // Exactly one thread is enabled during the sample epoch.
            int enabled = cpu.threadEnabled(0) + cpu.threadEnabled(1);
            EXPECT_EQ(enabled, 1);
            EXPECT_FALSE(cpu.partitioningEnabled());
        }
    }
    ASSERT_TRUE(sampled);

    // After the sampling epoch, estimates appear and execution
    // resumes multithreaded.
    runOneEpoch(cpu, hill, hc.epochSize);
    hill.epoch(cpu, 99);
    EXPECT_FALSE(hill.samplingActive());
    EXPECT_TRUE(cpu.threadEnabled(0));
    EXPECT_TRUE(cpu.threadEnabled(1));
    EXPECT_TRUE(cpu.partitioningEnabled());
    double est0 = hill.singleIpc()[0], est1 = hill.singleIpc()[1];
    EXPECT_GT(est0 + est1, 0.0);
}

TEST(HillClimbing, SingleIpcEstimatesConverge)
{
    SmtCpu cpu = asymmetricCpu();
    HillConfig hc = fastConfig();
    hc.metric = PerfMetric::WeightedIpc;
    hc.samplePeriod = 2;
    HillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 24; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
    }
    // Both threads must have been sampled by now.
    EXPECT_GT(hill.singleIpc()[0], 0.0);
    EXPECT_GT(hill.singleIpc()[1], 0.0);
    // The ILP thread is much faster solo than the MLP thread.
    EXPECT_GT(hill.singleIpc()[1], hill.singleIpc()[0]);
}

TEST(HillClimbing, NamesFollowMetric)
{
    HillConfig hc;
    hc.metric = PerfMetric::AvgIpc;
    EXPECT_EQ(HillClimbing(hc).name(), "HILL-IPC");
    hc.metric = PerfMetric::WeightedIpc;
    EXPECT_EQ(HillClimbing(hc).name(), "HILL-WIPC");
    hc.metric = PerfMetric::HarmonicWeightedIpc;
    EXPECT_EQ(HillClimbing(hc).name(), "HILL-HWIPC");
}

TEST(HillClimbing, CloneCopiesLearnedState)
{
    SmtCpu cpu = asymmetricCpu();
    HillClimbing hill(fastConfig());
    hill.attach(cpu);
    for (int e = 0; e < 10; ++e) {
        runOneEpoch(cpu, hill, hill.config().epochSize);
        hill.epoch(cpu, e);
    }
    auto clone = hill.clone();
    auto *hc = dynamic_cast<HillClimbing *>(clone.get());
    ASSERT_NE(hc, nullptr);
    EXPECT_EQ(hc->anchor(), hill.anchor());
}

TEST(HillClimbing, SharesNeverBelowFloor)
{
    SmtCpu cpu = asymmetricCpu();
    HillConfig hc = fastConfig();
    hc.minShare = 4;
    HillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 60; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
        ASSERT_GE(cpu.partition().share[0], 4);
        ASSERT_GE(cpu.partition().share[1], 4);
        ASSERT_EQ(cpu.partition().total(), 256);
    }
}

TEST(HillClimbing, FourThreadRoundsRotateTrials)
{
    SmtConfig cfg;
    cfg.numThreads = 4;
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < 4; ++i)
        gens.emplace_back(profileWith(0.02 * i, 10, "t"), i);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(50000);
    HillClimbing hill(fastConfig());
    hill.attach(cpu);
    // Epoch e's trial favors thread e % 4.
    for (int e = 0; e < 8; ++e) {
        const Partition &trial = cpu.partition();
        int favored = e % 4;
        for (int i = 0; i < 4; ++i) {
            if (i == favored)
                EXPECT_GT(trial.share[i], hill.anchor().share[i] - 1);
            else
                EXPECT_LE(trial.share[i], hill.anchor().share[i]);
        }
        runOneEpoch(cpu, hill, hill.config().epochSize);
        hill.epoch(cpu, e);
    }
}

/**
 * A learner on a one-context machine has nothing to learn: it runs
 * the lone job unpartitioned, never installs a trial, and takes the
 * job's unpartitioned epoch as its free solo sample.
 */
TEST(HillClimbing, LoneContextRunsUnpartitioned)
{
    SmtConfig cfg;
    cfg.numThreads = 1;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(50000);
    HillConfig hc = fastConfig();
    hc.metric = PerfMetric::WeightedIpc;
    HillClimbing hill(hc);
    hill.attach(cpu);
    EXPECT_FALSE(hill.samplingActive());
    EXPECT_FALSE(cpu.partitioningEnabled())
        << "a trial partition was installed on a lone thread";
    for (int e = 0; e < 4; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
        EXPECT_FALSE(cpu.partitioningEnabled());
    }
    EXPECT_EQ(hill.anchor(), Partition::equal(1, cfg.intRegs));
    ASSERT_EQ(hill.epochHistory().size(), 4u);
    for (const EpochTraceRecord &r : hill.epochHistory()) {
        EXPECT_FALSE(r.partitioned);
        EXPECT_EQ(r.gradientThread, -1);
    }
    EXPECT_EQ(hill.epochHistory()[0].samplingThread, 0);
    EXPECT_GT(hill.singleIpc()[0], 0.0);
    EXPECT_FALSE(hill.soloResamplePending(0));
}

TEST(HillClimbing, RejectsBadConfig)
{
    HillConfig hc;
    hc.delta = 0;
    EXPECT_DEATH(HillClimbing h(hc), "delta");
}

// --- Open-system churn (PR 7) ---------------------------------------

/** @return HILL or PHASE-HILL: the learners that sample solo. */
std::unique_ptr<HillClimbing>
makeSampler(bool phase, const HillConfig &hc)
{
    if (phase)
        return std::make_unique<PhaseHillClimbing>(hc);
    return std::make_unique<HillClimbing>(hc);
}

/** @return the `bootstrap` arg of the last sample.begin of @p tid. */
bool
lastSampleWasBootstrap(const EventTrace &trace, int tid)
{
    int found = -1;
    for (const SimEvent &ev : trace.events())
        if (ev.name == "sample.begin" &&
            ev.args.find("thread")->asInt() == tid)
            found = ev.args.find("bootstrap")->asBool();
    if (found < 0)
        ADD_FAILURE() << "no sample.begin event for thread " << tid;
    return found == 1;
}

/**
 * Regression: a context freed by one job and reused by the next kept
 * the previous occupant's stand-alone IPC estimate, so the weighted
 * metrics scored the new job against a solo speed it never had (and
 * the learner never re-sampled, since the slot already "had" an
 * estimate). A newly attached job must be sampled solo afresh, unless
 * the caller supplied the context's estimate.
 */
TEST(HillClimbingChurn, SingleIpcRebootstrapsOnContextReuse)
{
    HillConfig hc = fastConfig();
    hc.metric = PerfMetric::WeightedIpc;
    hc.samplePeriod = 2;
    for (bool phase : {false, true}) {
        SCOPED_TRACE(phase ? "PHASE-HILL" : "HILL");
        {
            SCOPED_TRACE("none supplied");
            SmtCpu cpu = asymmetricCpu();
            std::unique_ptr<HillClimbing> hill = makeSampler(phase, hc);
            EventTrace trace;
            hill->setEventTrace(&trace, 0);
            hill->attach(cpu);

            // Converge both estimates in the closed system.
            for (int e = 0; e < 16; ++e) {
                runOneEpoch(cpu, *hill, hc.epochSize);
                hill->epoch(cpu, e);
            }
            ASSERT_GT(hill->singleIpc()[1], 0.0);
            double old_est = hill->singleIpc()[1];

            // Job on context 1 departs; a different program arrives
            // on the same context.
            cpu.idleContext(1);
            hill->threadDetached(cpu, 1);
            EXPECT_FALSE(hill->threadActive(1));

            cpu.resetContext(
                1, StreamGenerator(profileWith(0.0, 4, "new-job"), 7));
            hill->threadAttached(cpu, 1);
            EXPECT_TRUE(hill->threadActive(1));

            // The stale estimate must be gone and a solo re-sample
            // queued.
            EXPECT_DOUBLE_EQ(hill->singleIpc()[1], 0.0)
                << "inherited the departed job's solo IPC";
            EXPECT_TRUE(hill->soloResamplePending(1));

            // Within a few epochs the learner samples the newcomer
            // solo and installs a fresh estimate.
            for (int e = 16; e < 28 && hill->soloResamplePending(1); ++e) {
                runOneEpoch(cpu, *hill, hc.epochSize);
                hill->epoch(cpu, e);
            }
            EXPECT_FALSE(hill->soloResamplePending(1));
            EXPECT_GT(hill->singleIpc()[1], 0.0);
            EXPECT_NE(hill->singleIpc()[1], old_est)
                << "estimate was measured, not inherited";
            EXPECT_TRUE(lastSampleWasBootstrap(trace, 1))
                << "the re-bootstrap sample filled a missing estimate";
        }
        {
            SCOPED_TRACE("supplied");
            HillConfig supplied = hc;
            supplied.singleIpc[0] = 0.75;
            supplied.singleIpc[1] = 2.5;
            SmtCpu cpu = asymmetricCpu();
            std::unique_ptr<HillClimbing> hill =
                makeSampler(phase, supplied);
            hill->attach(cpu);
            for (int e = 0; e < 4; ++e) {
                runOneEpoch(cpu, *hill, hc.epochSize);
                hill->epoch(cpu, e);
            }

            cpu.idleContext(1);
            hill->threadDetached(cpu, 1);
            cpu.resetContext(
                1, StreamGenerator(profileWith(0.0, 4, "new-job"), 7));
            hill->threadAttached(cpu, 1);
            EXPECT_DOUBLE_EQ(hill->singleIpc()[1], 2.5);
            EXPECT_FALSE(hill->soloResamplePending(1))
                << "a supplied estimate queued a solo sample";
        }
    }
}

} // namespace
} // namespace smthill
