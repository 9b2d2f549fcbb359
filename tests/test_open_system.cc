/**
 * @file
 * Open-system traffic scenario tests: schedule/run determinism,
 * lifetime-correct per-job accounting, horizon close-out, fairness
 * helpers, and the churn regressions the differential fuzzer forced
 * (flow-counter identity across context resets, per-job report rows
 * on reused contexts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/hill_climbing.hh"
#include "core/machine_arena.hh"
#include "harness/report.hh"
#include "policy/bandit.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"
#include "trace/spec_profiles.hh"
#include "validate/invariants.hh"
#include "workload/open_system.hh"

namespace smthill
{
namespace
{

SmtConfig
smallMachine(int threads)
{
    SmtConfig cfg;
    cfg.numThreads = threads;
    return cfg;
}

/** Fast open-system config: short jobs, brisk arrivals, one pool. */
OpenSystemConfig
fastConfig(int jobs, std::uint64_t seed = 11)
{
    OpenSystemConfig oc;
    oc.seed = seed;
    oc.arrivalRate = 1.0 / 2048.0;
    oc.numJobs = jobs;
    oc.minJobInstructions = 2'000;
    oc.maxJobInstructions = 5'000;
    oc.epochSize = 4'096;
    oc.horizon = 2'000'000;
    return oc;
}

bool
sameRun(const OpenSystemResult &a, const OpenSystemResult &b)
{
    if (a.cycles != b.cycles || a.committedTotal != b.committedTotal ||
        a.completedJobs != b.completedJobs ||
        a.horizonJobs != b.horizonJobs ||
        a.maxQueueDepth != b.maxQueueDepth ||
        a.jobs.size() != b.jobs.size())
        return false;
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        const JobRecord &x = a.jobs[i];
        const JobRecord &y = b.jobs[i];
        if (x.arriveCycle != y.arriveCycle ||
            x.attachCycle != y.attachCycle ||
            x.departCycle != y.departCycle || x.context != y.context ||
            x.completed != y.completed ||
            !(x.atAttach == y.atAttach) || !(x.atDepart == y.atDepart))
            return false;
    }
    return true;
}

TEST(OpenSystemSchedule, DeterministicAndBounded)
{
    OpenSystemConfig oc = fastConfig(16);
    oc.slaWeights = true;
    OpenSystem a(smallMachine(2), oc);
    OpenSystem b(smallMachine(4), oc); // machine shape is irrelevant

    ASSERT_EQ(a.schedule().size(), 16u);
    Cycle prev = 0;
    for (std::size_t i = 0; i < a.schedule().size(); ++i) {
        const JobRecord &job = a.schedule()[i];
        const JobRecord &twin = b.schedule()[i];
        EXPECT_EQ(job.jobId, static_cast<int>(i));
        EXPECT_GE(job.arriveCycle, prev + 1) << "gaps clamp to >= 1";
        prev = job.arriveCycle;
        EXPECT_GE(job.instructions, oc.minJobInstructions);
        EXPECT_LE(job.instructions, oc.maxJobInstructions);
        EXPECT_GE(job.priority, 1);
        EXPECT_LE(job.priority, 4);
        EXPECT_TRUE(isSpecBenchmark(job.benchmark));

        EXPECT_EQ(job.arriveCycle, twin.arriveCycle);
        EXPECT_EQ(job.benchmark, twin.benchmark);
        EXPECT_EQ(job.instructions, twin.instructions);
        EXPECT_EQ(job.streamSeed, twin.streamSeed);
    }

    // Priorities are all 1 unless SLA weights are enabled.
    oc.slaWeights = false;
    OpenSystem plain(smallMachine(2), oc);
    for (const JobRecord &job : plain.schedule())
        EXPECT_EQ(job.priority, 1);

    // A different seed must produce a different schedule.
    OpenSystemConfig other = oc;
    other.seed = oc.seed + 1;
    OpenSystem c(smallMachine(2), other);
    bool any_diff = false;
    for (std::size_t i = 0; i < c.schedule().size(); ++i)
        any_diff |= c.schedule()[i].arriveCycle !=
                        plain.schedule()[i].arriveCycle ||
                    c.schedule()[i].benchmark !=
                        plain.schedule()[i].benchmark;
    EXPECT_TRUE(any_diff);
}

/**
 * Regression: the inter-arrival gap was converted to Cycle unclamped,
 * which is undefined once it passes the Cycle range (arrivalRate
 * below ~2e-18), and the running sum could wrap. A rate whose
 * schedule leaves the range is now a config error naming the rate.
 */
TEST(OpenSystemSchedule, RateTooLowForCycleRangeIsFatal)
{
    OpenSystemConfig oc = fastConfig(64);
    oc.arrivalRate = 1e-19;
    EXPECT_DEATH(OpenSystem(smallMachine(2), oc), "arrivalRate");
}

TEST(OpenSystemRun, SameConfigRunsAreBitIdentical)
{
    OpenSystemConfig oc = fastConfig(8);
    OpenSystem sys(smallMachine(2), oc);
    IcountPolicy p1;
    IcountPolicy p2;
    OpenSystemResult a = sys.run(p1);
    OpenSystemResult b = sys.run(p2);
    EXPECT_TRUE(sameRun(a, b));
    EXPECT_GT(a.completedJobs, 0);
}

TEST(OpenSystemRun, CommittedAttributionIsExactUnderHill)
{
    OpenSystemConfig oc = fastConfig(10);
    oc.slaWeights = true;
    OpenSystem sys(smallMachine(4), oc);
    HillConfig hc;
    hc.epochSize = oc.epochSize;
    HillClimbing hill(hc);
    OpenSystemResult res = sys.run(hill);

    // Idle contexts are parked, so every committed instruction
    // belongs to exactly one job's residency window.
    std::uint64_t job_committed = 0;
    for (const JobRecord &job : res.jobs)
        job_committed += job.committed();
    EXPECT_EQ(job_committed, res.committedTotal);

    // A completed job stops within one commit group of its bound.
    SmtConfig machine = smallMachine(4);
    for (const JobRecord &job : res.jobs) {
        if (!job.completed)
            continue;
        EXPECT_GE(job.committed(), job.instructions);
        EXPECT_LT(job.committed(),
                  job.instructions +
                      static_cast<std::uint64_t>(machine.commitWidth));
    }
}

/**
 * Regression (satellite 1): a hardware context's cumulative counters
 * keep counting across job lifetimes, so a per-context report merges
 * every job that reused the context into one row. Two sequential jobs
 * on a one-context machine must come out as two rows, each sized by
 * its own attach/depart snapshot difference.
 */
TEST(OpenSystemReport, SequentialJobsOnOneContextGetSeparateRows)
{
    OpenSystemConfig oc = fastConfig(2);
    oc.arrivalRate = 1.0 / 64.0; // both arrive early -> 2nd queues
    OpenSystem sys(smallMachine(1), oc);
    IcountPolicy icount;
    OpenSystemResult res = sys.run(icount);

    ASSERT_EQ(res.completedJobs, 2);
    EXPECT_EQ(res.jobs[0].context, 0);
    EXPECT_EQ(res.jobs[1].context, 0) << "context must be reused";
    EXPECT_GE(res.jobs[1].attachCycle, res.jobs[0].departCycle);
    EXPECT_EQ(res.maxQueueDepth, 1);

    MachineReport rep = buildJobReport(res);
    ASSERT_EQ(rep.threads.size(), 2u)
        << "reused context merged two jobs into one row";
    for (std::size_t i = 0; i < 2; ++i) {
        const JobRecord &job = res.jobs[i];
        EXPECT_EQ(rep.threads[i].committed, job.committed())
            << "row " << i << " charged with its predecessor's work";
        EXPECT_DOUBLE_EQ(rep.threads[i].ipc, job.ipc());
        EXPECT_NE(rep.threads[i].label.find(job.benchmark),
                  std::string::npos);
    }
    EXPECT_NE(rep.threads[0].label, rep.threads[1].label);
}

/**
 * Regression (churn bug #1, found by fuzz stage G): resetContext and
 * idleContext squash whatever is in flight, and those squashed
 * instructions must count as flushed — otherwise the flow identity
 * fetched == committed + flushed + in-flight is permanently broken
 * and the invariant sweep fires flow.in_flight a few epochs later.
 */
TEST(OpenSystemFlow, ContextParkAndResetKeepFlowIdentity)
{
    SmtCpu cpu(smallMachine(2),
               {StreamGenerator(specProfile("gzip"), 1),
                StreamGenerator(specProfile("mcf"), 2)});
    cpu.run(5'000); // plenty of instructions in flight

    int squashed = cpu.idleContext(0);
    EXPECT_GT(squashed, 0) << "park must have squashed in-flight work";
    // Thread 0 has nothing in flight now: the identity is exact.
    EXPECT_EQ(cpu.stats().fetched[0],
              cpu.stats().committed[0] + cpu.stats().flushed[0])
        << "squashed instructions were not counted as flushed";

    cpu.resetContext(0, StreamGenerator(specProfile("twolf"), 3));
    cpu.run(5'000);
    cpu.resetContext(0, StreamGenerator(specProfile("gzip"), 4));
    cpu.run(5'000);

    InvariantChecker chk;
    chk.checkFlowCounters(cpu.stats(), cpu.config());
    chk.checkCpu(cpu);
    EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(OpenSystemRun, HorizonClosesOutResidentJobs)
{
    OpenSystemConfig oc = fastConfig(6);
    oc.minJobInstructions = 400'000; // far more than the horizon allows
    oc.maxJobInstructions = 500'000;
    oc.horizon = 64 * 1024;
    OpenSystem sys(smallMachine(2), oc);
    IcountPolicy icount;
    OpenSystemResult res = sys.run(icount);

    EXPECT_EQ(res.completedJobs, 0);
    EXPECT_EQ(res.horizonJobs, 6);
    EXPECT_EQ(res.cycles, oc.horizon);
    for (const JobRecord &job : res.jobs) {
        EXPECT_FALSE(job.completed);
        EXPECT_EQ(job.departCycle, res.cycles);
        if (job.attached) {
            EXPECT_GT(job.residency(), 0u);
            EXPECT_GE(job.atDepart.committed, job.atAttach.committed);
        } else {
            EXPECT_EQ(job.residency(), 0u) << "unplaced job ran";
        }
    }
    EXPECT_DOUBLE_EQ(jobThroughput(res), 0.0);
}

/**
 * Regression (satellite 3): jobs so short they attach AND depart
 * between two epoch boundaries — zero full-residency epochs. Every
 * report row and masked metric must stay finite: per-job rates
 * divide by the job's own residency (>= 1 by construction), never by
 * elapsed-epoch quantities that round to zero for sub-epoch lives.
 * Pinned for the whole learner family, whose epoch() measurement
 * only ever sees these jobs as partial-residency contributions.
 */
TEST(OpenSystemRun, SubEpochJobsKeepReportAndMetricsFinite)
{
    OpenSystemConfig oc;
    oc.seed = 7;
    oc.arrivalRate = 1.0 / 1024.0;
    oc.numJobs = 12;
    oc.minJobInstructions = 50; // lives measured in hundreds of cycles
    oc.maxJobInstructions = 200;
    oc.epochSize = 256 * 1024;  // boundaries measured in hundreds of K
    oc.horizon = 2'000'000;
    OpenSystem sys(smallMachine(4), oc);

    std::vector<std::unique_ptr<ResourcePolicy>> learners;
    HillConfig hc;
    hc.epochSize = oc.epochSize;
    learners.push_back(std::make_unique<HillClimbing>(hc));
    BanditConfig bc;
    bc.epochSize = oc.epochSize;
    learners.push_back(std::make_unique<BanditAllocator>(bc));
    RlConfig rlc;
    rlc.epochSize = oc.epochSize;
    learners.push_back(std::make_unique<RlAllocator>(rlc));

    for (auto &policy : learners) {
        OpenSystemResult res = sys.run(*policy);
        ASSERT_GT(res.completedJobs, 0) << policy->name();

        std::uint64_t job_committed = 0;
        for (const JobRecord &job : res.jobs) {
            job_committed += job.committed();
            if (!job.completed)
                continue;
            EXPECT_GE(job.residency(), 1u) << policy->name();
            EXPECT_LT(job.residency(), oc.epochSize) << policy->name()
                << ": job was meant to live inside one epoch";
            EXPECT_TRUE(std::isfinite(job.ipc())) << policy->name();
            EXPECT_GT(job.ipc(), 0.0) << policy->name();
        }
        EXPECT_EQ(job_committed, res.committedTotal) << policy->name();

        MachineReport rep = buildJobReport(res);
        for (const ThreadReport &tr : rep.threads) {
            EXPECT_TRUE(std::isfinite(tr.ipc)) << tr.label;
            EXPECT_TRUE(std::isfinite(tr.fetchShare)) << tr.label;
            EXPECT_TRUE(std::isfinite(tr.mispredictRate)) << tr.label;
            EXPECT_TRUE(std::isfinite(tr.dl1Mpki)) << tr.label;
            EXPECT_TRUE(std::isfinite(tr.l2Mpki)) << tr.label;
            EXPECT_TRUE(std::isfinite(tr.lockedFrac)) << tr.label;
            EXPECT_TRUE(std::isfinite(tr.flushedPerCommit)) << tr.label;
        }
    }
}

/**
 * Regression (satellite 2): the warm-machine fast path — makeMachine
 * once, MachineArena restore per run, runOn — must be bit-identical
 * to the cold run() path for every learner in the family.
 */
TEST(OpenSystemRun, ArenaRestoredMachinesMatchColdRuns)
{
    OpenSystemConfig oc = fastConfig(8);
    oc.slaWeights = true;
    OpenSystem sys(smallMachine(4), oc);
    const SmtCpu checkpoint = sys.makeMachine();
    MachineArena arena(1);

    std::vector<std::unique_ptr<ResourcePolicy>> learners;
    HillConfig hc;
    hc.epochSize = oc.epochSize;
    learners.push_back(std::make_unique<HillClimbing>(hc));
    BanditConfig bc;
    bc.epochSize = oc.epochSize;
    learners.push_back(std::make_unique<BanditAllocator>(bc));
    RlConfig rlc;
    rlc.epochSize = oc.epochSize;
    learners.push_back(std::make_unique<RlAllocator>(rlc));

    for (auto &policy : learners) {
        auto twin = policy->clone();
        OpenSystemResult cold = sys.run(*policy);
        SmtCpu &warm = arena.acquire(0, checkpoint);
        OpenSystemResult restored = sys.runOn(warm, *twin);
        EXPECT_TRUE(sameRun(cold, restored)) << policy->name();
    }
}

TEST(OpenSystemMetrics, JainFairnessUnitValues)
{
    EXPECT_DOUBLE_EQ(jainFairness({}), 0.0);
    EXPECT_DOUBLE_EQ(jainFairness({0.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(jainFairness({0.7, 0.7, 0.7, 0.7}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairness({1.0, 0.0, 0.0, 0.0}), 0.25);
    EXPECT_NEAR(jainFairness({2.0, 1.0}), 0.9, 1e-12);
}

TEST(OpenSystemMetrics, LatencyTailsOrderedAndWeighted)
{
    OpenSystemConfig oc = fastConfig(12);
    oc.slaWeights = true;
    OpenSystem sys(smallMachine(2), oc);
    IcountPolicy icount;
    OpenSystemResult res = sys.run(icount);
    ASSERT_GT(res.completedJobs, 0);

    LatencyStats lat = jobLatencyStats(res);
    EXPECT_GT(lat.p50, 0.0);
    EXPECT_LE(lat.p50, lat.p95);
    EXPECT_LE(lat.p95, lat.p99);
    EXPECT_GT(jobThroughput(res), 0.0);

    std::vector<double> weighted = priorityWeightedJobIpcs(res);
    EXPECT_EQ(weighted.size(),
              static_cast<std::size_t>(res.completedJobs));
    for (std::size_t i = 0, w = 0; i < res.jobs.size(); ++i) {
        const JobRecord &job = res.jobs[i];
        if (!job.completed)
            continue;
        EXPECT_DOUBLE_EQ(weighted[w++], job.ipc() / job.priority);
    }
}

} // namespace
} // namespace smthill
