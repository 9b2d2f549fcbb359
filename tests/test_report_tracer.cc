/**
 * @file
 * Unit tests for the derived-statistics report and the per-instruction
 * `inst` events of the event trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/event_trace.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "trace/program_profile.hh"

namespace smthill
{
namespace
{

SmtCpu
testCpu(double p_cold = 0.1)
{
    ProfileParams a;
    a.name = "mem";
    a.numBlocks = 12;
    a.avgBlockLen = 8;
    a.pLoadCold = p_cold;
    ProfileParams b;
    b.name = "ilp";
    b.numBlocks = 12;
    b.avgBlockLen = 8;
    b.pLoadWarm = 0.0; // DL1-resident only: near-zero MPKI
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(buildProfile(a), 0);
    gens.emplace_back(buildProfile(b), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(200000);
    return cpu;
}

TEST(Report, RatesAreConsistent)
{
    SmtCpu cpu = testCpu();
    MachineReport rep = runAndReport(cpu, 100000, {"mem", "ilp"});
    ASSERT_EQ(rep.threads.size(), 2u);
    EXPECT_EQ(rep.cycles, 100000u);
    double sum = rep.threads[0].ipc + rep.threads[1].ipc;
    EXPECT_NEAR(sum, rep.totalIpc, 1e-9);
    EXPECT_EQ(rep.threads[0].label, "mem");

    double share_sum =
        rep.threads[0].fetchShare + rep.threads[1].fetchShare;
    EXPECT_NEAR(share_sum, 1.0, 1e-9);

    // The memory thread must show much higher MPKI. (The clean
    // thread still takes some DL1 misses from warm-region stores.)
    EXPECT_GT(rep.threads[0].dl1Mpki, 3 * rep.threads[1].dl1Mpki);
    for (const auto &tr : rep.threads) {
        EXPECT_GE(tr.mispredictRate, 0.0);
        EXPECT_LE(tr.mispredictRate, 1.0);
        EXPECT_GE(tr.lockedFrac, 0.0);
    }
}

TEST(Report, EmptyIntervalIsSafe)
{
    SmtCpu cpu = testCpu();
    MachineSnapshot s = MachineSnapshot::capture(cpu);
    MachineReport rep = buildReport(s, s);
    EXPECT_EQ(rep.cycles, 0u);
    EXPECT_TRUE(rep.threads.empty());
}

TEST(Report, FlushShowsInFlushPerCommit)
{
    SmtCpu cpu = testCpu(0.25);
    FlushPolicy flush;
    flush.attach(cpu);
    MachineSnapshot before = MachineSnapshot::capture(cpu);
    for (int i = 0; i < 100000; ++i) {
        flush.cycle(cpu);
        cpu.step();
    }
    MachineReport rep =
        buildReport(before, MachineSnapshot::capture(cpu));
    EXPECT_GT(rep.threads[0].flushedPerCommit, 0.0);
}

TEST(Report, RunResultCarriesSnapshots)
{
    RunConfig rc;
    rc.epochs = 2;
    rc.epochSize = 8192;
    rc.warmupCycles = 32768;
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("art-mcf"), p, rc);
    MachineReport rep = res.report({"art", "mcf"});
    EXPECT_EQ(rep.cycles, 2u * 8192u);
    ASSERT_EQ(rep.threads.size(), 2u);
    EXPECT_NEAR(rep.threads[0].ipc, res.overallIpc.ipc[0], 1e-9);
}

// --- Per-instruction `inst` events of the event trace ---------------

/** Pipeline stages in lifecycle order; squash ends any of them. */
constexpr int kNumStages = 6;
const char *const kStages[kNumStages] = {"fetch",    "dispatch",
                                         "issue",    "complete",
                                         "commit",   "squash"};

/** @return the lifecycle index of stage @p name, or -1. */
int
stageIndex(const std::string &name)
{
    for (int i = 0; i < kNumStages; ++i)
        if (name == kStages[i])
            return i;
    return -1;
}

/** @return the `inst` events of @p trace, oldest first. */
std::vector<SimEvent>
instEvents(const EventTrace &trace)
{
    std::vector<SimEvent> out;
    for (SimEvent &e : trace.events())
        if (e.cat == "inst")
            out.push_back(std::move(e));
    return out;
}

/** @return an event trace with per-instruction events on. */
EventTrace
instTrace()
{
    EventTrace trace;
    trace.setInstructionEvents(true);
    return trace;
}

TEST(Tracer, RecordsAllStagesInOrder)
{
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace = instTrace();
    cpu.setEventTrace(&trace, 7);
    cpu.run(200);
    ASSERT_GT(cpu.flushThreadAfter(0, cpu.stats().committed[0] + 1), 0);
    auto events = instEvents(trace);
    ASSERT_GT(events.size(), 50u);
    bool saw[kNumStages] = {};
    Cycle prev = 0;
    for (const auto &e : events) {
        int stage = stageIndex(e.name);
        ASSERT_GE(stage, 0) << e.name;
        saw[stage] = true;
        EXPECT_EQ(e.ph, 'i');
        EXPECT_EQ(e.pid, 7);
        EXPECT_TRUE(e.tid == 0 || e.tid == 1) << e.tid;
        EXPECT_TRUE(e.args.contains("seq"));
        EXPECT_TRUE(e.args.contains("pc"));
        EXPECT_TRUE(e.args.contains("op"));
        EXPECT_GE(e.ts, prev);
        prev = e.ts;
    }
    for (int i = 0; i < kNumStages; ++i)
        EXPECT_TRUE(saw[i]) << kStages[i];
}

TEST(Tracer, PerInstructionLifecycleOrder)
{
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace = instTrace();
    cpu.setEventTrace(&trace, 0);
    cpu.run(500);
    // For any given (tid, seq), stage order must be fetch <= dispatch
    // <= issue <= complete <= commit in time.
    std::map<std::pair<int, std::int64_t>, Cycle> last_stage_cycle;
    std::map<std::pair<int, std::int64_t>, int> last_stage;
    for (const auto &e : instEvents(trace)) {
        if (e.name == "squash")
            continue;
        auto key = std::make_pair(e.tid, e.args.at("seq").asInt());
        int stage = stageIndex(e.name);
        auto it = last_stage.find(key);
        if (it != last_stage.end()) {
            EXPECT_GT(stage, it->second) << "seq " << key.second;
            EXPECT_GE(e.ts, last_stage_cycle[key]);
        }
        last_stage[key] = stage;
        last_stage_cycle[key] = e.ts;
    }
    EXPECT_FALSE(last_stage.empty());
}

TEST(Tracer, ThreadFilter)
{
    SmtCpu cpu = testCpu(0.0);
    const CpuStats before = cpu.stats();
    EventTrace trace = instTrace();
    cpu.setEventTrace(&trace, 0);
    cpu.run(300);
    // Thread selection is a filter over events(): thread 1's fetches
    // are exactly what its counters say it fetched.
    std::uint64_t fetched1 = 0;
    std::size_t all = 0;
    for (const auto &e : instEvents(trace)) {
        ++all;
        if (e.tid == 1 && e.name == "fetch")
            ++fetched1;
    }
    EXPECT_GT(fetched1, 0u);
    EXPECT_EQ(fetched1, cpu.stats().fetched[1] - before.fetched[1]);
    EXPECT_GT(all, fetched1);
}

TEST(Tracer, StageFilter)
{
    SmtCpu cpu = testCpu(0.0);
    const std::uint64_t before = cpu.stats().committedTotal();
    EventTrace trace = instTrace();
    cpu.setEventTrace(&trace, 0);
    cpu.run(300);
    // Stage selection is a filter over events(): the commit events
    // are exactly the instructions the machine committed.
    std::uint64_t commits = 0;
    for (const auto &e : instEvents(trace))
        if (e.name == "commit")
            ++commits;
    EXPECT_GT(commits, 0u);
    EXPECT_EQ(commits, cpu.stats().committedTotal() - before);
}

TEST(Tracer, SquashEventsOnFlush)
{
    SmtCpu cpu = testCpu(0.2);
    EventTrace trace = instTrace();
    cpu.setEventTrace(&trace, 0);
    cpu.run(200);
    trace.clear();
    int flushed = cpu.flushThreadAfter(0, cpu.stats().committed[0] + 1);
    std::size_t squashes = 0;
    for (const auto &e : instEvents(trace)) {
        EXPECT_EQ(e.name, "squash");
        EXPECT_EQ(e.tid, 0);
        ++squashes;
    }
    EXPECT_GT(flushed, 0);
    EXPECT_EQ(squashes, static_cast<std::size_t>(flushed));
}

TEST(Tracer, NoInstEventsUnlessSwitchedOn)
{
    SmtCpu cpu = testCpu(0.2);
    EventTrace trace;
    cpu.setEventTrace(&trace, 0);
    cpu.run(200);
    EXPECT_GT(cpu.flushThreadAfter(0, cpu.stats().committed[0] + 1), 0);
    // The trace is attached (the flush is on record) but holds no
    // per-instruction events.
    EXPECT_FALSE(trace.empty());
    EXPECT_TRUE(instEvents(trace).empty());
}

} // namespace
} // namespace smthill
