/**
 * @file
 * Unit tests for the SMT pipeline core: forward progress, occupancy
 * invariants, statistics, determinism, and checkpoint-by-copy.
 */

#include <algorithm>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/cpu.hh"
#include "trace/spec_profiles.hh"
#include "validate/invariants.hh"

namespace smthill
{
namespace
{

ProgramProfile
toyProfile(const char *name = "toy", double p_cold = 0.0)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 12;
    pp.avgBlockLen = 8;
    pp.pLoadCold = p_cold;
    return buildProfile(pp);
}

SmtCpu
makeToyCpu(int threads, double p_cold = 0.0)
{
    SmtConfig cfg;
    cfg.numThreads = threads;
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < threads; ++i)
        gens.emplace_back(toyProfile(), i);
    if (p_cold > 0.0) {
        gens.clear();
        for (int i = 0; i < threads; ++i)
            gens.emplace_back(toyProfile("toy-mem", p_cold), i);
    }
    return SmtCpu(cfg, std::move(gens));
}

TEST(SmtCpu, MakesForwardProgress)
{
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(20000);
    EXPECT_GT(cpu.stats().committed[0], 500u);
    EXPECT_EQ(cpu.now(), 20000u);
    // After the caches warm, throughput is much higher.
    auto before = cpu.stats().committed[0];
    cpu.run(300000);
    auto warm = cpu.stats().committed[0];
    cpu.run(100000);
    EXPECT_GT(cpu.stats().committed[0] - warm,
              (warm - before) / 4);
    EXPECT_GT(cpu.stats().committed[0], 100000u);
}

TEST(SmtCpu, AllThreadsProgress)
{
    SmtCpu cpu = makeToyCpu(4);
    cpu.run(50000);
    for (int i = 0; i < 4; ++i)
        EXPECT_GT(cpu.stats().committed[i], 1000u) << "thread " << i;
}

TEST(SmtCpu, IpcIsPhysical)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(50000);
    double total_ipc =
        static_cast<double>(cpu.stats().committedTotal()) / 50000.0;
    EXPECT_LE(total_ipc, 8.0) << "cannot exceed commit width";
    EXPECT_GT(total_ipc, 0.5);
}

TEST(SmtCpu, Deterministic)
{
    SmtCpu a = makeToyCpu(2);
    SmtCpu b = makeToyCpu(2);
    a.run(30000);
    b.run(30000);
    EXPECT_EQ(a.stats().committed[0], b.stats().committed[0]);
    EXPECT_EQ(a.stats().committed[1], b.stats().committed[1]);
    EXPECT_EQ(a.stats().mispredicts[0], b.stats().mispredicts[0]);
}

TEST(SmtCpu, CheckpointCopyReplaysIdentically)
{
    SmtCpu cpu = makeToyCpu(2, 0.05);
    cpu.run(10000);
    SmtCpu checkpoint = cpu; // whole-machine checkpoint
    cpu.run(20000);
    checkpoint.run(20000);
    EXPECT_EQ(cpu.stats().committed[0], checkpoint.stats().committed[0]);
    EXPECT_EQ(cpu.stats().committed[1], checkpoint.stats().committed[1]);
    EXPECT_EQ(cpu.stats().flushed[0], checkpoint.stats().flushed[0]);
    EXPECT_EQ(cpu.memory().dl1().misses(),
              checkpoint.memory().dl1().misses());
}

TEST(SmtCpu, CheckpointDivergesUnderDifferentControl)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(10000);
    SmtCpu checkpoint = cpu;
    checkpoint.setPartition(Partition::equal(2, 64)); // tiny machine
    cpu.run(30000);
    checkpoint.run(30000);
    EXPECT_NE(cpu.stats().committedTotal(),
              checkpoint.stats().committedTotal());
}

TEST(SmtCpu, StatsAccumulate)
{
    SmtCpu cpu = makeToyCpu(1, 0.02);
    cpu.run(40000);
    const CpuStats &s = cpu.stats();
    EXPECT_GT(s.fetched[0], s.committed[0] * 9 / 10);
    EXPECT_GT(s.branches[0], 0u);
    EXPECT_GT(s.loads[0], 0u);
    EXPECT_GT(s.committedTotal(), 0u);
}

TEST(SmtCpu, MispredictsOccurAndAreBounded)
{
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(100000);
    const CpuStats &s = cpu.stats();
    EXPECT_GT(s.mispredicts[0], 0u);
    EXPECT_LT(s.mispredicts[0], s.branches[0] / 2)
        << "predictors should do much better than chance";
}

TEST(SmtCpu, OccupancyWithinCapacities)
{
    SmtCpu cpu = makeToyCpu(2, 0.1);
    const SmtConfig &cfg = cpu.config();
    for (int i = 0; i < 20000; ++i) {
        cpu.step();
        const Occupancy &o = cpu.occupancy();
        ASSERT_LE(o.totalIfq(), cfg.ifqSize);
        ASSERT_LE(o.totalIntIq(), cfg.intIqSize);
        ASSERT_LE(o.totalFpIq(), cfg.fpIqSize);
        ASSERT_LE(o.totalIntRegs(), cfg.intRegs);
        ASSERT_LE(o.totalFpRegs(), cfg.fpRegs);
        ASSERT_LE(o.totalRob(), cfg.robSize);
        ASSERT_LE(o.totalLsq(), cfg.lsqSize);
        for (int t = 0; t < 2; ++t) {
            ASSERT_GE(o.intIq[t], 0);
            ASSERT_GE(o.rob[t], 0);
            ASSERT_GE(o.intRegs[t], 0);
            ASSERT_GE(o.lsq[t], 0);
            ASSERT_GE(o.ifq[t], 0);
        }
    }
}

TEST(SmtCpu, DrainsToEmptyWhenDisabled)
{
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(5000);
    cpu.setThreadEnabled(0, false);
    cpu.run(3000); // enough to drain any in-flight work
    const Occupancy &o = cpu.occupancy();
    EXPECT_EQ(o.totalRob(), 0);
    EXPECT_EQ(o.totalIfq(), 0);
    EXPECT_EQ(o.totalIntIq(), 0);
    auto committed = cpu.stats().committed[0];
    cpu.run(1000);
    EXPECT_EQ(cpu.stats().committed[0], committed)
        << "a disabled thread must not commit";
}

TEST(SmtCpu, ReEnableResumes)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(5000);
    cpu.setThreadEnabled(1, false);
    cpu.run(3000);
    auto c1 = cpu.stats().committed[1];
    cpu.setThreadEnabled(1, true);
    cpu.run(5000);
    EXPECT_GT(cpu.stats().committed[1], c1);
}

TEST(SmtCpu, SoloEpochMeasuresOnlyThatThread)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(5000);
    cpu.setThreadEnabled(0, false);
    cpu.run(2000); // drain
    auto c0 = cpu.stats().committed[0];
    auto c1 = cpu.stats().committed[1];
    cpu.run(10000);
    EXPECT_EQ(cpu.stats().committed[0], c0);
    EXPECT_GT(cpu.stats().committed[1], c1 + 1000);
}

TEST(SmtCpu, StallFreezesCommit)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(10000);
    auto before = cpu.stats().committedTotal();
    cpu.stallUntil(cpu.now() + 200);
    // During the stall fetch/dispatch/issue/commit are frozen; only
    // already-issued operations drain. With all-hot loads everything
    // in flight completes within a handful of cycles, so commit stays
    // flat over the stall window.
    cpu.run(200);
    auto after = cpu.stats().committedTotal();
    EXPECT_EQ(after, before);
    cpu.run(2000);
    EXPECT_GT(cpu.stats().committedTotal(), after);
}

TEST(SmtCpu, FetchLockStopsFetchButDrainsPipeline)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(5000);
    cpu.setFetchLocked(0, true);
    EXPECT_TRUE(cpu.fetchLocked(0));
    cpu.run(3000);
    auto c0 = cpu.stats().committed[0];
    cpu.run(2000);
    EXPECT_EQ(cpu.stats().committed[0], c0);
    cpu.setFetchLocked(0, false);
    cpu.run(2000);
    EXPECT_GT(cpu.stats().committed[0], c0);
}

TEST(SmtCpu, IcountFetchFavorsNonCloggedThread)
{
    // Thread 0 is memory-bound (cold misses), thread 1 is clean ILP;
    // without partitioning, ICOUNT alone should still let thread 1
    // commit far more instructions.
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(toyProfile("mem", 0.15), 0);
    gens.emplace_back(toyProfile("ilp", 0.0), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(100000);
    EXPECT_GT(cpu.stats().committed[1], 2 * cpu.stats().committed[0]);
}

TEST(SmtCpu, BranchObserverSeesCommittedBranches)
{
    SmtCpu cpu = makeToyCpu(1);
    struct Ctx
    {
        std::uint64_t count = 0;
        std::uint64_t insts = 0;
    } ctx;
    cpu.setBranchObserver(
        [](void *c, const CommittedBranch &cb) {
            auto *x = static_cast<Ctx *>(c);
            ++x->count;
            x->insts += cb.blockLength;
        },
        &ctx);
    cpu.run(20000);
    EXPECT_NEAR(static_cast<double>(ctx.count),
                static_cast<double>(cpu.stats().branches[0]), 64.0);
    EXPECT_GT(ctx.insts, 0u);
}

TEST(SmtCpu, ConfigValidationRejectsMismatch)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(toyProfile(), 0);
    EXPECT_DEATH(
        { SmtCpu cpu(cfg, std::move(gens)); }, "expected 2 programs");
}

TEST(SmtCpu, ConfigValidationRejectsRingTooLargeToIndex)
{
    // A completion event packs the ring slot and the thread id into
    // one 32-bit word; the check fires before any ring is allocated.
    SmtConfig cfg;
    cfg.numThreads = 1;
    cfg.robSize = 1 << 29;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(toyProfile(), 0);
    EXPECT_DEATH(
        { SmtCpu cpu(cfg, std::move(gens)); }, "too large to index");
}

TEST(SmtCpu, SingleThreadIpcReasonable)
{
    // A clean ILP toy program on the Table 1 machine should sustain
    // at least ~1 IPC (once warm) and not exceed the 8-wide limit.
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(400000); // warm caches/predictors
    auto before = cpu.stats().committed[0];
    cpu.run(100000);
    double ipc = static_cast<double>(cpu.stats().committed[0] - before) /
                 100000.0;
    EXPECT_GT(ipc, 1.0);
    EXPECT_LT(ipc, 8.0);
}

TEST(CpuWakeup, SquashedConsumersRelinkBeforeTheirProducerCompletes)
{
    // A load stuck on a memory miss collects consumers on its wakeup
    // list; a flush squashes the younger ones; their slots refill and
    // re-dispatch while the load is still in flight. Its completion
    // must then wake exactly the consumers linked at that moment.
    using Link = SmtCpu::WakeupLink;
    SmtCpu cpu = makeToyCpu(1, 0.3);
    InvariantChecker chk;
    auto expectClean = [&] {
        chk.checkCpu(cpu);
        ASSERT_TRUE(chk.ok()) << chk.violations()[0].check << ": "
                              << chk.violations()[0].detail;
    };

    // A long miss whose list (newest first) names older and younger
    // consumers: squashing from the middle link's consumer leaves
    // survivors.
    InstSeq producer = 0, start = 0;
    Cycle completes = 0;
    std::vector<Link> links;
    for (int i = 0; i < 200000 && start == 0; ++i) {
        cpu.step();
        for (const OutstandingMiss &m : cpu.outstandingMisses(0)) {
            links = cpu.wakeupList(0, m.seq);
            if (!m.toMemory || m.completesAt < cpu.now() + 100 ||
                links.size() < 2 ||
                links[links.size() / 2].consumer == links.back().consumer)
                continue;
            producer = m.seq;
            completes = m.completesAt;
            start = links[links.size() / 2].consumer;
            break;
        }
    }
    ASSERT_NE(start, 0u) << "no suitable producer found";
    expectClean();

    // The survivors keep their links, in order; the squashed leave.
    ASSERT_GT(cpu.flushThreadAfter(0, start - 1), 0);
    std::vector<Link> survivors;
    std::copy_if(links.begin(), links.end(), std::back_inserter(survivors),
                 [&](const Link &l) { return l.consumer < start; });
    EXPECT_EQ(cpu.wakeupList(0, producer), survivors);
    expectClean();

    // The squashed consumers refetch and re-dispatch (same seqs, same
    // sources) and link again before the producer completes.
    auto relinked = [&] {
        std::vector<Link> now = cpu.wakeupList(0, producer);
        return std::all_of(links.begin(), links.end(), [&](const Link &l) {
            return std::find(now.begin(), now.end(), l) != now.end();
        });
    };
    while (!relinked() && cpu.now() + 1 < completes) {
        cpu.step();
        expectClean();
    }
    ASSERT_TRUE(relinked()) << "no re-dispatch before the producer completed";

    // Completion drains the list. Every dispatched instruction's
    // pending count equals the links naming it before and after
    // (expectClean), so each consumer was woken once per link it
    // still had — never through a squashed incarnation.
    while (!cpu.wakeupList(0, producer).empty()) {
        ASSERT_LE(cpu.now(), completes);
        cpu.step();
        expectClean();
    }

    // Every consumer issues and commits: none was left waiting.
    for (int i = 0; i < 20000; ++i) {
        cpu.step();
        if (i % 64 == 0)
            expectClean();
    }
    EXPECT_GT(cpu.stats().committed[0], links.front().consumer);
}

} // namespace
} // namespace smthill
