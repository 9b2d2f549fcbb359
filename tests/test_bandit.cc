/**
 * @file
 * Bandit allocator unit tests: the arm lattice covers the quantized
 * partition space and conserves the register file, UCB1 selection is
 * deterministic (unplayed-first in index order, strict-argmax tie
 * break), EXP3 draws replay from the seeded stream, and churn
 * attach/detach rebuilds the lattice and re-seeds a drained anchor.
 * The RL allocator gets the matching churn/state checks.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/stat_registry.hh"
#include "policy/bandit.hh"
#include "policy/rl_alloc.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{
namespace
{

SmtCpu
makeMachine(const std::vector<const char *> &benches)
{
    SmtConfig cfg;
    cfg.numThreads = static_cast<int>(benches.size());
    std::vector<StreamGenerator> gens;
    for (std::size_t i = 0; i < benches.size(); ++i)
        gens.emplace_back(specProfile(benches[i]), i);
    return SmtCpu(cfg, std::move(gens));
}

TEST(Bandit, TwoThreadLatticeCoversQuantizedSpace)
{
    BanditConfig bc;
    bc.stride = 16;
    BanditAllocator bandit(bc);
    SmtCpu cpu = makeMachine({"art", "mcf"});
    bandit.attach(cpu);

    const int total = cpu.config().intRegs;
    ASSERT_EQ(bandit.arms().size(),
              static_cast<std::size_t>(total / bc.stride - 1))
        << "2-thread arms must be exactly enumeratePartitions2";
    for (std::size_t k = 0; k < bandit.arms().size(); ++k) {
        const Partition &arm = bandit.arms()[k];
        EXPECT_EQ(arm.total(), total) << "arm " << k;
        EXPECT_EQ(arm.share[0],
                  bc.stride * (static_cast<int>(k) + 1))
            << "arm " << k << ": lattice must ascend by stride";
        EXPECT_GE(arm.share[0], bc.stride);
        EXPECT_GE(arm.share[1], bc.stride);
    }
}

TEST(Bandit, WideMachineArmsConserveTotalsAndFloors)
{
    BanditConfig bc;
    bc.stride = 8;
    bc.minShare = 4;
    BanditAllocator bandit(bc);
    SmtCpu cpu = makeMachine({"art", "mcf", "gcc", "bzip2"});
    bandit.attach(cpu);

    const int total = cpu.config().intRegs;
    const std::size_t na = 4;
    ASSERT_GE(bandit.arms().size(), 1u);
    ASSERT_LE(bandit.arms().size(), 1 + 3 * na)
        << "spoke construction is bounded at 1 + 3 * active";
    for (std::size_t k = 0; k < bandit.arms().size(); ++k) {
        const Partition &arm = bandit.arms()[k];
        EXPECT_EQ(arm.total(), total) << "arm " << k;
        for (int t = 0; t < arm.numThreads; ++t)
            EXPECT_GE(arm.share[t], bc.minShare)
                << "arm " << k << " thread " << t;
    }
}

TEST(Bandit, Ucb1PlaysUnplayedArmsInIndexOrder)
{
    BanditConfig bc;
    bc.epochSize = 2048;
    bc.stride = 64; // few arms, so the sweep phase ends in-test
    BanditAllocator bandit(bc);
    SmtCpu cpu = makeMachine({"art", "mcf"});
    bandit.attach(cpu);

    const int k = static_cast<int>(bandit.arms().size());
    ASSERT_GT(k, 1);
    EXPECT_EQ(bandit.currentArm(), 0)
        << "attach pulls the first unplayed arm";

    // Tie-break determinism: until every arm has a reward, UCB1 must
    // walk the lattice strictly in index order, whatever the rewards.
    for (int e = 0; e + 1 < k; ++e) {
        cpu.run(bc.epochSize);
        bandit.epoch(cpu, static_cast<std::uint64_t>(e));
        EXPECT_EQ(bandit.currentArm(), e + 1) << "epoch " << e;
    }
    cpu.run(bc.epochSize);
    bandit.epoch(cpu, static_cast<std::uint64_t>(k - 1));
    // Every arm played once: selection is now the strict-argmax UCB
    // index, which two identical replays must agree on exactly.
    EXPECT_EQ(bandit.pulls(), static_cast<std::uint64_t>(k));

    BanditAllocator twin(bc);
    SmtCpu other = makeMachine({"art", "mcf"});
    twin.attach(other);
    for (int e = 0; e < k; ++e) {
        other.run(bc.epochSize);
        twin.epoch(other, static_cast<std::uint64_t>(e));
    }
    EXPECT_EQ(twin.currentArm(), bandit.currentArm())
        << "identical replays diverged after the sweep phase";
}

TEST(Bandit, ChurnRebuildsLatticeAndReseedsDrainedAnchor)
{
    BanditConfig bc;
    bc.epochSize = 2048;
    bc.stride = 32;
    BanditAllocator bandit(bc);
    SmtCpu cpu = makeMachine({"art", "mcf", "gcc"});
    const int total = cpu.config().intRegs;
    for (int i = 0; i < 3; ++i)
        cpu.setThreadEnabled(static_cast<ThreadId>(i), false);
    bandit.attach(cpu);
    EXPECT_TRUE(bandit.arms().empty()) << "no active threads, no arms";

    // First arrival: one thread is not partitionable, still no arms,
    // but the anchor must hold the whole register file for it.
    cpu.resetContext(0, StreamGenerator(specProfile("twolf"), 7));
    bandit.threadAttached(cpu, 0);
    EXPECT_TRUE(bandit.arms().empty());
    EXPECT_EQ(bandit.anchor().total(), total);

    // Second arrival: the 2-thread lattice appears on contexts {0, 2}.
    cpu.resetContext(2, StreamGenerator(specProfile("gzip"), 8));
    bandit.threadAttached(cpu, 2);
    EXPECT_EQ(bandit.arms().size(),
              static_cast<std::size_t>(total / bc.stride - 1));
    for (const Partition &arm : bandit.arms()) {
        EXPECT_EQ(arm.total(), total);
        EXPECT_EQ(arm.share[1], 0) << "inactive context got registers";
    }
    EXPECT_EQ(bandit.anchor().total(), total);

    // Full drain, then a re-arrival: the drained anchor (total 0) must
    // re-seed so admitAttached has a register file to conserve.
    cpu.idleContext(0);
    bandit.threadDetached(cpu, 0);
    cpu.idleContext(2);
    bandit.threadDetached(cpu, 2);
    EXPECT_TRUE(bandit.arms().empty());
    EXPECT_EQ(bandit.anchor().total(), 0) << "drained anchor keeps shares";

    cpu.resetContext(1, StreamGenerator(specProfile("mesa"), 9));
    bandit.threadAttached(cpu, 1);
    EXPECT_EQ(bandit.anchor().total(), total)
        << "re-seed lost the register file";
    EXPECT_EQ(bandit.anchor().share[1], total);
}

TEST(RlAlloc, ChurnKeepsAnchorConservedAndClearsStaleRows)
{
    RlConfig rc;
    rc.epochSize = 2048;
    RlAllocator rl(rc);
    SmtCpu cpu = makeMachine({"art", "mcf"});
    const int total = cpu.config().intRegs;
    rl.attach(cpu);
    EXPECT_EQ(rl.anchor().total(), total);

    // Learn something, then churn thread 0 out and back in: its Q
    // rows/columns must reset (a new job's dynamics are unrelated)
    // and the anchor must stay conserved throughout.
    for (int e = 0; e < 4; ++e) {
        cpu.run(rc.epochSize);
        rl.epoch(cpu, static_cast<std::uint64_t>(e));
    }
    cpu.idleContext(0);
    rl.threadDetached(cpu, 0);
    EXPECT_EQ(rl.anchor().total(), total);
    EXPECT_EQ(rl.anchor().share[0], 0);

    cpu.resetContext(0, StreamGenerator(specProfile("twolf"), 3));
    rl.threadAttached(cpu, 0);
    EXPECT_EQ(rl.anchor().total(), total);
    for (int a = 0; a <= RlAllocator::kStay; ++a)
        EXPECT_EQ(rl.qValue(0, a), 0.0)
            << "stale Q row survived churn, action " << a;
    for (int s = 0; s < kMaxThreads; ++s)
        EXPECT_EQ(rl.qValue(s, 0), 0.0)
            << "stale Q column survived churn, state " << s;
}

TEST(Bandit, ExportsEpochSwitchAndRebuildStats)
{
    StatRegistry &stats = globalStats();
    std::uint64_t epochs0 =
        stats.counter(CounterId::BanditEpochs).value();
    std::uint64_t switches0 =
        stats.counter(CounterId::BanditSwitches).value();
    std::uint64_t rebuilds0 =
        stats.counter(CounterId::BanditRebuilds).value();

    BanditConfig bc;
    bc.epochSize = 2048;
    bc.stride = 64;
    BanditAllocator bandit(bc);
    SmtCpu cpu = makeMachine({"art", "mcf"});
    bandit.attach(cpu);
    EXPECT_GE(stats.counter(CounterId::BanditRebuilds).value(),
              rebuilds0 + 1)
        << "attach must rebuild the arm lattice";

    const int k = static_cast<int>(bandit.arms().size());
    for (int e = 0; e < k; ++e) {
        cpu.run(bc.epochSize);
        bandit.epoch(cpu, static_cast<std::uint64_t>(e));
    }
    EXPECT_EQ(stats.counter(CounterId::BanditEpochs).value(),
              epochs0 + static_cast<std::uint64_t>(k));
    // The sweep phase pulls each arm once, so the first k epochs
    // switch arms at least k - 1 times.
    EXPECT_GE(stats.counter(CounterId::BanditSwitches).value(),
              switches0 + static_cast<std::uint64_t>(k - 1));
}

TEST(RlAlloc, ExportsEpochExploreAndAnchorMoveStats)
{
    StatRegistry &stats = globalStats();
    std::uint64_t epochs0 = stats.counter(CounterId::RlEpochs).value();
    std::uint64_t explores0 =
        stats.counter(CounterId::RlExplores).value();
    std::uint64_t moves0 =
        stats.counter(CounterId::RlAnchorMoves).value();

    RlConfig rc;
    rc.epochSize = 2048;
    RlAllocator rl(rc);
    SmtCpu cpu = makeMachine({"art", "mcf"});
    rl.attach(cpu);
    constexpr int kEpochs = 24;
    for (int e = 0; e < kEpochs; ++e) {
        cpu.run(rc.epochSize);
        rl.epoch(cpu, static_cast<std::uint64_t>(e));
    }
    EXPECT_EQ(stats.counter(CounterId::RlEpochs).value(),
              epochs0 + kEpochs);
    // Greedy/explore and anchor movement depend on the seeded streams;
    // both counters are monotone, so the floor assertion is exact.
    EXPECT_GE(stats.counter(CounterId::RlExplores).value(), explores0);
    EXPECT_GE(stats.counter(CounterId::RlAnchorMoves).value(), moves0);
}

} // namespace
} // namespace smthill
