/**
 * @file
 * The Attachment rule for observer links (common/event_trace.hh): a
 * copy- or move-constructed machine or policy starts with no links,
 * and assigning state into an existing one keeps its own links.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "common/event_trace.hh"
#include "core/epoch_trace.hh"
#include "core/hill_climbing.hh"
#include "core/machine_arena.hh"
#include "core/offline_exhaustive.hh"
#include "harness/runner.hh"
#include "workload/workloads.hh"

namespace smthill
{
namespace
{

constexpr Cycle kEpoch = 4096;

SmtCpu
artMcf()
{
    RunConfig rc;
    rc.epochSize = kEpoch;
    rc.warmupCycles = 16384;
    return makeCpu(workloadByName("art-mcf"), rc);
}

/** Counts what a machine's branch and load observers see. */
struct Observed
{
    std::uint64_t branches = 0;
    std::uint64_t loads = 0;

    void
    observe(SmtCpu &cpu)
    {
        cpu.setBranchObserver(
            [](void *c, const CommittedBranch &) {
                ++static_cast<Observed *>(c)->branches;
            },
            this);
        cpu.setLoadObserver(
            [](void *c, const LoadEvent &) {
                ++static_cast<Observed *>(c)->loads;
            },
            this);
    }
};

/** @return a non-equal partition of @p cpu's registers. */
Partition
skewed(const SmtCpu &cpu)
{
    Partition p;
    p.numThreads = 2;
    p.share[0] = 96;
    p.share[1] = cpu.config().intRegs - 96;
    return p;
}

TEST(Attachment, MachineCopyRunsWithoutObservers)
{
    SmtCpu cpu = artMcf();
    Observed seen;
    seen.observe(cpu);
    EventTrace trace;
    cpu.setEventTrace(&trace, 0);

    SmtCpu copy = cpu;
    SmtCpu moved = std::move(copy);
    EXPECT_EQ(moved.eventTrace(), nullptr);
    moved.setPartition(skewed(moved));
    moved.run(20000);
    EXPECT_EQ(seen.branches, 0u);
    EXPECT_EQ(seen.loads, 0u);
    EXPECT_TRUE(trace.empty());

    // The original still observes.
    cpu.run(20000);
    EXPECT_GT(seen.branches, 0u);
    EXPECT_GT(seen.loads, 0u);
}

TEST(Attachment, PolicyCloneRecordsNothingIntoOriginalsTracers)
{
    HillConfig hc;
    hc.epochSize = kEpoch;
    HillClimbing hill(hc);
    EpochTracer tracer;
    EventTrace trace;
    hill.setEpochTracer(&tracer);
    hill.setEventTrace(&trace, 2);

    std::unique_ptr<ResourcePolicy> clone = hill.clone();
    EXPECT_EQ(clone->epochTracer(), nullptr);
    EXPECT_EQ(clone->eventTrace(), nullptr);
    runPolicyOn(artMcf(), *clone, 3, kEpoch);
    EXPECT_TRUE(tracer.empty());
    EXPECT_TRUE(trace.empty());

    runPolicyOn(artMcf(), hill, 3, kEpoch);
    EXPECT_EQ(tracer.size(), 3u);
    EXPECT_FALSE(trace.empty());
}

TEST(Attachment, AssignmentKeepsTargetLinks)
{
    SmtCpu cpu = artMcf();
    Observed seen;
    seen.observe(cpu);
    EventTrace trace;
    cpu.setEventTrace(&trace, 4);

    SmtCpu other = artMcf();
    other.run(10000);
    cpu = other;
    EXPECT_EQ(cpu.now(), other.now());
    EXPECT_EQ(cpu.eventTrace(), &trace);
    EXPECT_EQ(cpu.eventTracePid(), 4);

    cpu.setPartition(skewed(cpu));
    cpu.run(20000);
    EXPECT_FALSE(trace.empty());
    EXPECT_GT(seen.branches, 0u);
    EXPECT_GT(seen.loads, 0u);
}

TEST(Attachment, OfflineStepKeepsMachineLinks)
{
    SmtCpu cpu = artMcf();
    Observed seen;
    seen.observe(cpu);
    EventTrace trace;
    cpu.setEventTrace(&trace, 1);

    OfflineConfig oc;
    oc.epochSize = kEpoch;
    oc.stride = 64;
    const Cycle before = cpu.now();
    OfflineExhaustive(oc).stepEpoch(cpu);
    EXPECT_EQ(cpu.now(), before + kEpoch);
    EXPECT_EQ(cpu.eventTrace(), &trace);
    EXPECT_EQ(cpu.eventTracePid(), 1);
    // The sweep and the committed epoch ran on copies.
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(seen.branches, 0u);

    cpu.setPartition(skewed(cpu));
    cpu.run(20000);
    EXPECT_FALSE(trace.empty());
    EXPECT_GT(seen.branches, 0u);
    EXPECT_GT(seen.loads, 0u);
}

TEST(Attachment, ArenaMachineStartsUnobserved)
{
    const SmtCpu checkpoint = artMcf();
    MachineArena arena(1);
    Observed seen;
    seen.observe(arena.acquire(0, checkpoint));

    // The next borrower gets a machine as unobserved as a copy.
    SmtCpu &trial = arena.acquire(0, checkpoint);
    trial.run(20000);
    EXPECT_EQ(seen.branches, 0u);
    EXPECT_EQ(seen.loads, 0u);
    EXPECT_EQ(trial.now(), checkpoint.now() + 20000);
}

} // namespace
} // namespace smthill
