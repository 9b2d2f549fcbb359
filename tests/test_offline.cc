/**
 * @file
 * Unit tests for OFF-LINE exhaustive learning (Section 3.1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/offline_exhaustive.hh"
#include "harness/runner.hh"
#include "policy/icount.hh"
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
testCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mlp"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(80000);
    return cpu;
}

OfflineConfig
fastConfig()
{
    OfflineConfig oc;
    oc.epochSize = 8192;
    oc.stride = 32; // 7 trials per epoch, fast for tests
    oc.metric = PerfMetric::AvgIpc;
    return oc;
}

TEST(Offline, StepAdvancesExactlyOneEpoch)
{
    SmtCpu cpu = testCpu();
    Cycle before = cpu.now();
    OfflineExhaustive off(fastConfig());
    off.stepEpoch(cpu);
    EXPECT_EQ(cpu.now(), before + 8192);
}

TEST(Offline, BestTrialIsMaxOfCurve)
{
    SmtCpu cpu = testCpu();
    OfflineConfig oc = fastConfig();
    oc.keepCurves = true;
    OfflineExhaustive off(oc);
    OfflineEpoch rec = off.stepEpoch(cpu);
    ASSERT_EQ(rec.curve.size(), 7u);
    double max_metric = *std::max_element(rec.curve.begin(),
                                          rec.curve.end());
    EXPECT_DOUBLE_EQ(rec.metricValue, max_metric);
    // The recorded best share appears in the curve at the max.
    auto it = std::find(rec.curve.begin(), rec.curve.end(), max_metric);
    std::size_t idx = static_cast<std::size_t>(it - rec.curve.begin());
    EXPECT_EQ(rec.curveShares[idx], rec.best.share[0]);
}

TEST(Offline, ChosenEpochMatchesBestTrialPerformance)
{
    // The machine takes the best trial's own end state, so the
    // committed IPCs are the best trial's.
    SmtCpu cpu = testCpu();
    OfflineConfig oc = fastConfig();
    oc.keepCurves = true;
    OfflineExhaustive off(oc);
    OfflineEpoch rec = off.stepEpoch(cpu);
    double m = evalMetric(oc.metric, rec.ipc, oc.singleIpc);
    EXPECT_DOUBLE_EQ(m, rec.metricValue);
}

TEST(Offline, NeverWorseThanEqualPartitionTrial)
{
    SmtCpu cpu = testCpu();
    SmtCpu equal = cpu.checkpoint();
    OfflineConfig oc = fastConfig();
    OfflineExhaustive off(oc);
    OfflineEpoch rec = off.stepEpoch(cpu);

    IpcSample equal_run =
        runTrialEpoch(equal, Partition::equal(2, 256), oc.epochSize);
    double equal_metric = evalMetric(oc.metric, equal_run, oc.singleIpc);
    EXPECT_GE(rec.metricValue, equal_metric - 1e-12);
}

TEST(Offline, BeatsIcountOverARun)
{
    // The limit result in miniature: OFF-LINE end performance must
    // be at least ICOUNT's on the same machine and window.
    SmtCpu cpu = testCpu();
    const SmtCpu start = cpu;
    OfflineConfig oc = fastConfig();
    OfflineExhaustive off(oc);
    OfflineResult res = off.run(cpu, 6);

    SmtCpu icount_cpu = start;
    IcountPolicy icount;
    icount.attach(icount_cpu);
    double icount_sum = 0.0;
    for (int e = 0; e < 6; ++e) {
        IpcSample s = runOneEpoch(icount_cpu, icount, oc.epochSize);
        icount_sum += evalMetric(oc.metric, s, oc.singleIpc);
    }
    EXPECT_GE(res.meanMetric() * 6, icount_sum * 0.98)
        << "OFF-LINE should not lose to ICOUNT";
}

TEST(Offline, RunReturnsRequestedEpochs)
{
    SmtCpu cpu = testCpu();
    OfflineExhaustive off(fastConfig());
    OfflineResult res = off.run(cpu, 4);
    EXPECT_EQ(res.epochs.size(), 4u);
    EXPECT_GT(res.meanMetric(), 0.0);
}

TEST(Offline, RequiresTwoThreads)
{
    SmtConfig cfg;
    cfg.numThreads = 1;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.0, 6, "solo"), 0);
    SmtCpu cpu(cfg, std::move(gens));
    OfflineExhaustive off(fastConfig());
    EXPECT_DEATH(off.stepEpoch(cpu), "2 hardware contexts");
}

TEST(Offline, FixedPartitionEpochDoesNotMutateCheckpoint)
{
    // A trial epoch on a checkpoint() leaves the source untouched.
    SmtCpu cpu = testCpu();
    auto committed = cpu.stats().committedTotal();
    Cycle now = cpu.now();
    SmtCpu trial = cpu.checkpoint();
    runTrialEpoch(trial, Partition::equal(2, 256), 4096);
    EXPECT_EQ(trial.now(), now + 4096);
    EXPECT_EQ(cpu.stats().committedTotal(), committed);
    EXPECT_EQ(cpu.now(), now);
}

TEST(Offline, MapEpochDoesNotAdvanceMachine)
{
    // mapEpoch returns stepEpoch's record and commits nothing.
    SmtCpu cpu = testCpu();
    auto committed = cpu.stats().committedTotal();
    Cycle now = cpu.now();
    OfflineConfig oc = fastConfig();
    oc.keepCurves = true;
    OfflineExhaustive off(oc);
    OfflineEpoch mapped = off.mapEpoch(cpu);
    EXPECT_EQ(cpu.stats().committedTotal(), committed);
    EXPECT_EQ(cpu.now(), now);

    OfflineEpoch stepped = off.stepEpoch(cpu);
    EXPECT_EQ(mapped.best, stepped.best);
    EXPECT_EQ(mapped.metricValue, stepped.metricValue);
    EXPECT_EQ(mapped.curve, stepped.curve);
    EXPECT_EQ(cpu.now(), now + oc.epochSize);
}

TEST(Offline, AdvancedOutputContinuesFromTrial)
{
    SmtCpu cpu = testCpu();
    SmtCpu advanced = cpu.checkpoint();
    IpcSample s =
        runTrialEpoch(advanced, Partition::equal(2, 256), 4096);
    EXPECT_EQ(advanced.now(), cpu.now() + 4096);
    double ipc_from_stats =
        static_cast<double>(advanced.stats().committedTotal() -
                            cpu.stats().committedTotal()) /
        4096.0;
    EXPECT_NEAR(s.ipc[0] + s.ipc[1], ipc_from_stats, 1e-9);
}

} // namespace
} // namespace smthill
