/**
 * @file
 * Unit tests for the experiment runner, solo-IPC measurement, the
 * synchronized comparison machinery, and the table printer.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/runner.hh"
#include "harness/sync_runner.hh"
#include "harness/table.hh"
#include "policy/dcra.hh"
#include "policy/icount.hh"

namespace smthill
{
namespace
{

RunConfig
fastConfig()
{
    RunConfig rc;
    rc.epochSize = 8192;
    rc.epochs = 4;
    rc.warmupCycles = 32768;
    return rc;
}

TEST(Runner, MakeCpuSetsThreadCountAndWarms)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    EXPECT_EQ(cpu.numThreads(), 2);
    EXPECT_EQ(cpu.now(), rc.warmupCycles);
    EXPECT_GT(cpu.stats().committedTotal(), 0u);
}

TEST(Runner, RunPolicyProducesEpochRecords)
{
    RunConfig rc = fastConfig();
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("apsi-eon"), p, rc);
    ASSERT_EQ(res.epochs.size(), 4u);
    for (const auto &e : res.epochs) {
        EXPECT_FALSE(e.partitioned) << "ICOUNT runs unpartitioned";
        EXPECT_GT(e.ipc.ipc[0] + e.ipc.ipc[1], 0.0);
    }
    EXPECT_GT(res.overallIpc.ipc[0], 0.0);
}

TEST(Runner, OverallIpcConsistentWithEpochs)
{
    RunConfig rc = fastConfig();
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("apsi-eon"), p, rc);
    double epoch_mean = 0.0;
    for (const auto &e : res.epochs)
        epoch_mean += e.ipc.ipc[0];
    epoch_mean /= static_cast<double>(res.epochs.size());
    // ICOUNT neither stalls nor samples, so the end-to-end IPC is the
    // mean of the per-epoch IPCs.
    EXPECT_NEAR(res.overallIpc.ipc[0], epoch_mean, 1e-9);
}

TEST(Runner, RunOneEpochAdvancesExactly)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    IcountPolicy p;
    p.attach(cpu);
    Cycle before = cpu.now();
    runOneEpoch(cpu, p, 4096);
    EXPECT_EQ(cpu.now(), before + 4096);
}

TEST(Runner, SoloIpcCachedAndPositive)
{
    RunConfig rc = fastConfig();
    double a = soloIpc("bzip2", rc, 16384);
    double b = soloIpc("bzip2", rc, 16384);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Runner, SoloIpcsCoverWorkload)
{
    RunConfig rc = fastConfig();
    auto solo = soloIpcs(workloadByName("art-mcf"), rc, 16384);
    EXPECT_GT(solo[0], 0.0);
    EXPECT_GT(solo[1], 0.0);
    EXPECT_DOUBLE_EQ(solo[2], 0.0);
}

TEST(Runner, MetricUsesOverallIpc)
{
    RunConfig rc = fastConfig();
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("apsi-eon"), p, rc);
    std::array<double, kMaxThreads> solo{};
    solo[0] = res.overallIpc.ipc[0];
    solo[1] = res.overallIpc.ipc[1];
    EXPECT_NEAR(res.metric(PerfMetric::WeightedIpc, solo), 1.0, 1e-9);
}

TEST(Runner, EnvScaleParsesAndDefaults)
{
    ::unsetenv("SMTHILL_TEST_KNOB");
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    ::setenv("SMTHILL_TEST_KNOB", "123", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 123u);
    ::setenv("SMTHILL_TEST_KNOB", "bogus", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    // A sign would wrap through strtoull; trailing junk or overflow
    // must not be half-read.
    ::setenv("SMTHILL_TEST_KNOB", "-1", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    ::setenv("SMTHILL_TEST_KNOB", "2x", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    ::setenv("SMTHILL_TEST_KNOB", "99999999999999999999", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    ::unsetenv("SMTHILL_TEST_KNOB");
}

TEST(SyncRunner, ComparesPoliciesFromSharedCheckpoints)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);

    OfflineConfig oc;
    oc.epochSize = 8192;
    oc.stride = 64;
    oc.metric = PerfMetric::AvgIpc;
    OfflineExhaustive off(oc);

    IcountPolicy icount;
    DcraPolicy dcra;
    std::vector<ResourcePolicy *> policies{&icount, &dcra};
    SyncResult res = syncCompareOffline(cpu, off, policies, 3);

    ASSERT_EQ(res.offline.metric.size(), 3u);
    ASSERT_EQ(res.others.size(), 2u);
    ASSERT_EQ(res.others[0].metric.size(), 3u);
    EXPECT_EQ(res.others[0].name, "ICOUNT");
    EXPECT_EQ(res.others[1].name, "DCRA");

    // OFF-LINE picks the best fixed partition per epoch; it must beat
    // or match ICOUNT in virtually every epoch (Section 3.3).
    EXPECT_GE(res.offlineWinRate(0), 2.0 / 3.0);
}

TEST(SyncRunner, TraceHillVsOfflineProducesCurves)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    HillConfig hc;
    hc.epochSize = 8192;
    hc.metric = PerfMetric::AvgIpc;
    HillClimbing hill(hc);

    OfflineConfig oc;
    oc.stride = 64;
    oc.metric = PerfMetric::AvgIpc;

    auto trace = traceHillVsOffline(cpu, hill, oc, 3);
    ASSERT_EQ(trace.size(), 3u);
    for (const auto &e : trace) {
        EXPECT_GT(e.curve.size(), 0u);
        EXPECT_GE(e.hillShare0, 0);
        EXPECT_GT(e.offlineMetric, 0.0);
        // Hill can never beat the per-epoch exhaustive best by more
        // than noise.
        EXPECT_LE(e.hillMetric, e.offlineMetric * 1.10);
    }
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.beginRow();
    t.cell("alpha");
    t.cell(1.5, 2);
    t.beginRow();
    t.cell("b");
    t.cell(std::int64_t{42});
    EXPECT_EQ(t.numRows(), 2u);
    t.print();    // must not crash
    t.printCsv();
}

TEST(Table, IncompleteRowDies)
{
    Table t({"a", "b"});
    t.beginRow();
    t.cell("only-one");
    EXPECT_DEATH(t.beginRow(), "cells");
}

TEST(Table, CellOutsideRowDies)
{
    Table t({"a"});
    EXPECT_DEATH(t.cell("x"), "outside");
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 3), "2.000");
}

} // namespace
} // namespace smthill
