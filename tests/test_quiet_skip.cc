/**
 * @file
 * Quiet-cycle skipping is bit-identical. runPolicyOn jumps over the
 * cycles in which neither the machine (SmtCpu::nextActiveCycle) nor
 * the policy (ResourcePolicy::nextWake) can act; every policy the CLI
 * knows must produce exactly what a reference loop calling cycle()
 * and step() every cycle produces, on memory-bound, ILP, mixed and
 * 4-thread workloads. Unit cases pin the counters skipQuietTo()
 * advances in bulk: stalledCycles across a hill-climbing boundary
 * stall (with the round-robin pointers frozen) and
 * partitionLockCycles across a partition-blocked fetch stretch.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/hill_climbing.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/dg.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"
#include "policy/stall.hh"
#include "policy/stall_flush.hh"
#include "policy/static_partition.hh"
#include "validate/invariants.hh"

namespace smthill
{
namespace
{

constexpr Cycle kEpoch = 8192;
constexpr int kEpochs = 10;

RunConfig
skipConfig()
{
    RunConfig rc;
    rc.epochSize = kEpoch;
    rc.epochs = kEpochs;
    rc.warmupCycles = 65536;
    return rc;
}

/** The CLI's policy set, built the way smthill_cli builds it. */
std::unique_ptr<ResourcePolicy>
makeCliPolicy(const std::string &name)
{
    HillConfig hc;
    hc.epochSize = kEpoch;
    if (name == "ICOUNT")
        return std::make_unique<IcountPolicy>();
    if (name == "FLUSH")
        return std::make_unique<FlushPolicy>();
    if (name == "DCRA")
        return std::make_unique<DcraPolicy>();
    if (name == "STALL")
        return std::make_unique<StallPolicy>();
    if (name == "STALL-FLUSH")
        return std::make_unique<StallFlushPolicy>();
    if (name == "DG")
        return std::make_unique<DgPolicy>();
    if (name == "PDG")
        return std::make_unique<PdgPolicy>();
    if (name == "STATIC")
        return std::make_unique<StaticPartitionPolicy>();
    if (name == "HILL")
        return std::make_unique<HillClimbing>(hc);
    if (name == "PHASE-HILL")
        return std::make_unique<PhaseHillClimbing>(hc);
    if (name == "BANDIT-UCB" || name == "BANDIT-EXP3") {
        BanditConfig bc;
        bc.epochSize = kEpoch;
        if (name == "BANDIT-EXP3")
            bc.algo = BanditAlgo::Exp3;
        return std::make_unique<BanditAllocator>(bc);
    }
    RlConfig rl;
    rl.epochSize = kEpoch;
    return std::make_unique<RlAllocator>(rl);
}

/** runPolicyOn with cycle() and step() on every cycle, no skipping. */
RunResult
referenceRun(SmtCpu cpu, ResourcePolicy &policy, int epochs,
             Cycle epoch_size)
{
    RunResult res;
    policy.attach(cpu);
    res.startSnapshot = MachineSnapshot::capture(cpu);
    auto start_committed = cpu.stats().committed;
    Cycle start_cycle = cpu.now();
    for (int e = 0; e < epochs; ++e) {
        EpochRecord rec;
        rec.partitioned = cpu.partitioningEnabled();
        if (rec.partitioned)
            rec.partition = cpu.partition();
        auto before = cpu.stats().committed;
        for (Cycle c = 0; c < epoch_size; ++c) {
            policy.cycle(cpu);
            cpu.step();
        }
        rec.ipc.numThreads = cpu.numThreads();
        for (int i = 0; i < cpu.numThreads(); ++i) {
            rec.ipc.ipc[i] =
                static_cast<double>(cpu.stats().committed[i] -
                                    before[i]) /
                static_cast<double>(epoch_size);
        }
        res.epochs.push_back(rec);
        policy.epoch(cpu, static_cast<std::uint64_t>(e));
    }
    Cycle elapsed = cpu.now() - start_cycle;
    res.overallIpc.numThreads = cpu.numThreads();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        res.overallIpc.ipc[i] =
            static_cast<double>(cpu.stats().committed[i] -
                                start_committed[i]) /
            static_cast<double>(elapsed);
    }
    res.stats = cpu.stats();
    res.finalSnapshot = MachineSnapshot::capture(cpu);
    return res;
}

void
expectSameRun(const RunResult &skip, const RunResult &ref)
{
    ASSERT_EQ(skip.epochs.size(), ref.epochs.size());
    for (std::size_t e = 0; e < ref.epochs.size(); ++e) {
        const EpochRecord &a = skip.epochs[e];
        const EpochRecord &b = ref.epochs[e];
        EXPECT_EQ(a.partitioned, b.partitioned) << "epoch " << e;
        EXPECT_EQ(a.partition, b.partition) << "epoch " << e;
        for (int t = 0; t < b.ipc.numThreads; ++t)
            EXPECT_EQ(a.ipc.ipc[t], b.ipc.ipc[t])
                << "epoch " << e << " thread " << t;
    }
    EXPECT_EQ(skip.stats, ref.stats);
    EXPECT_EQ(skip.finalSnapshot.cycle, ref.finalSnapshot.cycle);
    for (int t = 0; t < ref.overallIpc.numThreads; ++t)
        EXPECT_EQ(skip.overallIpc.ipc[t], ref.overallIpc.ipc[t]);
    EXPECT_EQ(skip.report(), ref.report());
}

struct SkipCase
{
    const char *policy;
    const char *workload;
};

void
PrintTo(const SkipCase &sc, std::ostream *os)
{
    *os << sc.policy << " on " << sc.workload;
}

class QuietSkipPolicies : public ::testing::TestWithParam<SkipCase>
{
};

TEST_P(QuietSkipPolicies, RunPolicyOnMatchesStepEveryCycle)
{
    const SkipCase &sc = GetParam();
    RunConfig rc = skipConfig();
    SmtCpu warm = makeCpu(workloadByName(sc.workload), rc);

    std::unique_ptr<ResourcePolicy> skip_policy = makeCliPolicy(sc.policy);
    std::unique_ptr<ResourcePolicy> ref_policy = skip_policy->clone();
    RunResult skip = runPolicyOn(warm, *skip_policy, kEpochs, kEpoch);
    RunResult ref = referenceRun(warm, *ref_policy, kEpochs, kEpoch);
    expectSameRun(skip, ref);
}

std::vector<SkipCase>
allCases()
{
    static const char *const kPolicies[] = {
        "ICOUNT", "FLUSH", "DCRA", "STALL", "STALL-FLUSH",
        "DG", "PDG", "STATIC", "HILL", "PHASE-HILL",
        "BANDIT-UCB", "BANDIT-EXP3", "RL-Q"};
    static const char *const kMixes[] = {"art-mcf", "apsi-eon", "mcf-eon",
                                         "art-mcf-swim-twolf"};
    std::vector<SkipCase> out;
    for (const char *m : kMixes)
        for (const char *p : kPolicies)
            out.push_back(SkipCase{p, m});
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<SkipCase> &info)
{
    std::string s = std::string(info.param.policy) + "_" +
                    info.param.workload;
    for (char &ch : s)
        if (ch == '-')
            ch = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(QuietSkip, QuietSkipPolicies,
                         ::testing::ValuesIn(allCases()), caseName);

/**
 * Drive @p skip with the skip loop and @p ref one step at a time to
 * @p until, with no policy. @return cycles the skip loop jumped.
 */
Cycle
skipAlongside(SmtCpu &skip, SmtCpu &ref, Cycle until)
{
    Cycle jumped = 0;
    while (skip.now() < until) {
        Cycle wake = skip.nextActiveCycle();
        if (wake > skip.now()) {
            Cycle target = std::min(wake, until);
            jumped += target - skip.now();
            skip.skipQuietTo(target);
        } else {
            skip.step();
        }
    }
    while (ref.now() < until)
        ref.step();
    return jumped;
}

TEST(QuietSkip, RunMatchesStepLoop)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    const Workload &w = workloadByName("art-mcf");
    SmtCpu ran(cfg, w.makeGenerators(3));
    SmtCpu stepped = ran;
    ran.run(100000);
    for (Cycle c = 0; c < 100000; ++c)
        stepped.step();
    EXPECT_EQ(diffMachineState(ran, stepped), "");
}

TEST(QuietSkip, BoundaryStallCountsStalledCyclesWithoutRotation)
{
    RunConfig rc = skipConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    HillConfig hc;
    hc.epochSize = kEpoch;
    HillClimbing hill(hc);
    hill.attach(cpu);
    runOneEpoch(cpu, hill, kEpoch);
    hill.epoch(cpu, 0); // charges the 200-cycle software cost

    SmtCpu ref = cpu;
    const std::uint64_t stalled = cpu.stats().stalledCycles;
    const std::uint32_t rr_commit = cpu.commitRoundRobin();
    const std::uint32_t rr_dispatch = cpu.dispatchRoundRobin();
    const Cycle until = cpu.now() + hc.softwareCost;
    Cycle jumped = skipAlongside(cpu, ref, until);

    EXPECT_GT(jumped, 0u) << "expected a jump inside the stall window";
    EXPECT_EQ(cpu.stats().stalledCycles, stalled + hc.softwareCost);
    EXPECT_EQ(cpu.commitRoundRobin(), rr_commit);
    EXPECT_EQ(cpu.dispatchRoundRobin(), rr_dispatch);
    EXPECT_EQ(diffMachineState(cpu, ref), "");
}

TEST(QuietSkip, PartitionBlockedStretchChargesLockCycles)
{
    RunConfig rc = skipConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    // Starve thread 0 so it sits partition-blocked while its misses
    // drain, fetchable but gated: each skipped cycle is one
    // partitionLockCycle.
    Partition p;
    p.numThreads = 2;
    p.share[0] = 8;
    p.share[1] = cpu.config().intRegs - 8;
    cpu.setPartition(p);
    SmtCpu ref = cpu;

    Cycle jumped_blocked = 0;
    const Cycle until = cpu.now() + 4 * kEpoch;
    while (cpu.now() < until) {
        Cycle wake = cpu.nextActiveCycle();
        if (wake > cpu.now()) {
            Cycle target = std::min(wake, until);
            std::uint64_t locked = cpu.stats().partitionLockCycles[0];
            Cycle k = target - cpu.now();
            cpu.skipQuietTo(target);
            if (cpu.stats().partitionLockCycles[0] == locked + k)
                jumped_blocked += k;
        } else {
            cpu.step();
        }
    }
    while (ref.now() < until)
        ref.step();

    EXPECT_GT(jumped_blocked, 0u)
        << "expected skipped stretches with thread 0 partition-blocked";
    EXPECT_EQ(cpu.stats().partitionLockCycles,
              ref.stats().partitionLockCycles);
    EXPECT_EQ(diffMachineState(cpu, ref), "");
}

/**
 * A policy with a per-cycle hook and no nextWake(): it fetch-locks
 * thread 1 on a fixed cycle pattern, so the default nextWake (the
 * next cycle) is what keeps the run exact.
 */
class PulseLockPolicy : public ResourcePolicy
{
  public:
    std::string name() const override { return "PULSE"; }
    void
    cycle(SmtCpu &cpu) override
    {
        cpu.setFetchLocked(1, (cpu.now() / 97) % 3 == 0);
    }
    std::unique_ptr<ResourcePolicy>
    clone() const override
    {
        return std::make_unique<PulseLockPolicy>(*this);
    }
};

TEST(QuietSkip, PolicyWithoutNextWakeStillMatches)
{
    RunConfig rc = skipConfig();
    SmtCpu warm = makeCpu(workloadByName("mcf-eon"), rc);
    PulseLockPolicy a;
    PulseLockPolicy b;
    expectSameRun(runPolicyOn(warm, a, 4, kEpoch),
                  referenceRun(warm, b, 4, kEpoch));
}

TEST(QuietSkip, PdgExpiryWakesAQuietMachine)
{
    // A predicted-miss entry whose load never completes (its context
    // was reset under it) gates fetch until it expires. With every
    // thread gated the machine drains and goes quiet, so only PDG's
    // nextWake() stops the jump at the expiry cycle.
    RunConfig rc = skipConfig();
    SmtCpu warm = makeCpu(workloadByName("mcf-eon"), rc);
    auto gate_all = [](SmtCpu &cpu, PdgPolicy &pdg) {
        pdg.attach(cpu);
        for (int i = 0; i < cpu.numThreads(); ++i) {
            auto tid = static_cast<ThreadId>(i);
            pdg.train(tid, 0x40, true);
            pdg.train(tid, 0x40, true);
            pdg.onLoadEvent(
                LoadEvent{tid, ~InstSeq{0}, 0x40, false, false, false});
        }
    };
    SmtCpu skip = warm;
    SmtCpu ref = warm;
    PdgPolicy a;
    PdgPolicy b;
    gate_all(skip, a);
    gate_all(ref, b);
    runOneEpoch(skip, a, kEpoch);
    for (Cycle c = 0; c < kEpoch; ++c) {
        b.cycle(ref);
        ref.step();
    }
    EXPECT_GT(ref.stats().fetched[0], warm.stats().fetched[0])
        << "thread 0 fetches again only once the entry expires";
    EXPECT_EQ(diffMachineState(skip, ref), "");
}

TEST(QuietSkip, MemoryBoundEpochIsMostlySkipped)
{
    // The mechanism must engage where it pays: art-mcf under ICOUNT
    // is mostly quiet, so most of an epoch is jumped, not stepped.
    RunConfig rc = skipConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    IcountPolicy icount;
    icount.attach(cpu);
    const Cycle end = cpu.now() + kEpoch;
    bool probe = true;
    Cycle wake_points = 0;
    while (cpu.now() < end) {
        advanceToWake(cpu, icount, end, probe);
        ++wake_points;
    }
    EXPECT_LT(wake_points, kEpoch / 2);
}

} // namespace
} // namespace smthill
