/**
 * @file
 * Unit tests for the RAND-HILL ideal learner (Section 4.3).
 */

#include <gtest/gtest.h>

#include "core/rand_hill.hh"
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
    return buildProfile(pp);
}

SmtCpu
fourThreadCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 4;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mem0"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp1"), 1);
    gens.emplace_back(profileWith(0.03, 14, "mix2"), 2);
    gens.emplace_back(profileWith(0.0, 10, "ilp3"), 3);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(80000);
    return cpu;
}

RandHillConfig
fastConfig()
{
    RandHillConfig rc;
    rc.epochSize = 4096;
    rc.iterations = 16;
    rc.metric = PerfMetric::AvgIpc;
    return rc;
}

TEST(RandHill, StepAdvancesOneEpoch)
{
    SmtCpu cpu = fourThreadCpu();
    Cycle before = cpu.now();
    RandHill rh(fastConfig());
    rh.stepEpoch(cpu);
    EXPECT_EQ(cpu.now(), before + 4096);
}

TEST(RandHill, WorksOnFourThreads)
{
    SmtCpu cpu = fourThreadCpu();
    RandHill rh(fastConfig());
    OfflineEpoch rec = rh.stepEpoch(cpu);
    EXPECT_EQ(rec.best.numThreads, 4);
    EXPECT_EQ(rec.best.total(), 256);
    EXPECT_GT(rec.metricValue, 0.0);
}

TEST(RandHill, BestBeatsEqualTrial)
{
    SmtCpu cpu = fourThreadCpu();
    SmtCpu equal = cpu.checkpoint();
    RandHillConfig rc = fastConfig();
    RandHill rh(rc);
    OfflineEpoch rec = rh.stepEpoch(cpu);

    IpcSample equal_run =
        runTrialEpoch(equal, Partition::equal(4, 256), rc.epochSize);
    double equal_metric = evalMetric(rc.metric, equal_run, rc.singleIpc);
    // The search includes near-equal trials in its first round, so it
    // can never end below them.
    EXPECT_GE(rec.metricValue, equal_metric - 0.05);
}

TEST(RandHill, DeterministicForSameSeed)
{
    RandHillConfig rc = fastConfig();
    rc.seed = 7;
    SmtCpu a = fourThreadCpu();
    SmtCpu b = fourThreadCpu();
    RandHill ra(rc), rb(rc);
    OfflineEpoch ea = ra.stepEpoch(a);
    OfflineEpoch eb = rb.stepEpoch(b);
    EXPECT_EQ(ea.best, eb.best);
    EXPECT_DOUBLE_EQ(ea.metricValue, eb.metricValue);
}

TEST(RandHill, MoreIterationsNeverHurt)
{
    SmtCpu base = fourThreadCpu();
    RandHillConfig small = fastConfig();
    small.iterations = 4;
    RandHillConfig big = fastConfig();
    big.iterations = 32;
    SmtCpu a = base, b = base;
    OfflineEpoch ea = RandHill(small).stepEpoch(a);
    OfflineEpoch eb = RandHill(big).stepEpoch(b);
    EXPECT_GE(eb.metricValue, ea.metricValue - 1e-9)
        << "a superset search cannot find a worse best";
}

TEST(RandHill, RunAdvancesAllEpochs)
{
    SmtCpu cpu = fourThreadCpu();
    Cycle start = cpu.now();
    RandHill rh(fastConfig());
    OfflineResult res = rh.run(cpu, 3);
    EXPECT_EQ(res.epochs.size(), 3u);
    EXPECT_EQ(cpu.now(), start + 3 * 4096);
}

TEST(RandHill, TwoThreadsAlsoSupported)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.05, 20, "a"), 0);
    gens.emplace_back(profileWith(0.0, 8, "b"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(50000);
    RandHill rh(fastConfig());
    OfflineEpoch rec = rh.stepEpoch(cpu);
    EXPECT_EQ(rec.best.total(), 256);
}

TEST(RandHill, RejectsBadConfig)
{
    RandHillConfig rc;
    rc.iterations = 0;
    EXPECT_DEATH(RandHill r(rc), "iteration");
}

} // namespace
} // namespace smthill
