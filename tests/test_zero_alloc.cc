/**
 * @file
 * The simulated cycle loop allocates nothing once warm — measured
 * here rather than claimed in comments. This binary replaces every
 * replaceable global operator new with one that counts its calls,
 * which is why it is an executable of its own: the replacement
 * touches no other test.
 *
 * Scope: per-cycle work. runOneEpoch drives the policy's cycle()
 * hook and SmtCpu::step / skipQuietTo; a trial is
 * MachineArena::acquire (SmtCpu::restoreFrom) plus runTrialEpoch.
 * Per-epoch work — the policy's epoch() learner step and a sweep's
 * thread-pool fan-out — runs once per epoch, may allocate, and sits
 * outside the counted window.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/hill_climbing.hh"
#include "core/machine_arena.hh"
#include "core/offline_exhaustive.hh"
#include "core/partitioning.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"
#include "workload/workloads.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
counted(std::size_t n, std::align_val_t align) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    n = std::max<std::size_t>(n, 1);
    if (a <= alignof(std::max_align_t))
        return std::malloc(n);
    // aligned_alloc wants the size to be a multiple of the alignment.
    return std::aligned_alloc(a, (n + a - 1) / a * a);
}

void *
countedOrThrow(std::size_t n, std::align_val_t align)
{
    if (void *p = counted(n, align))
        return p;
    throw std::bad_alloc();
}

constexpr std::align_val_t kPlain{alignof(std::max_align_t)};
using Nothrow = const std::nothrow_t &;

} // namespace

// Every allocation form counts; every deallocation form frees, so a
// sanitizer's own operator delete never sees this malloc'd memory.
void *operator new(std::size_t n) { return countedOrThrow(n, kPlain); }
void *operator new[](std::size_t n) { return countedOrThrow(n, kPlain); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedOrThrow(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedOrThrow(n, a);
}
void *operator new(std::size_t n, Nothrow) noexcept
{
    return counted(n, kPlain);
}
void *operator new[](std::size_t n, Nothrow) noexcept
{
    return counted(n, kPlain);
}
void *operator new(std::size_t n, std::align_val_t a, Nothrow) noexcept
{
    return counted(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a, Nothrow) noexcept
{
    return counted(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, Nothrow) noexcept { std::free(p); }
void operator delete[](void *p, Nothrow) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t, Nothrow) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t, Nothrow) noexcept
{
    std::free(p);
}

namespace smthill
{
namespace
{

constexpr int kWarmEpochs = 2;
constexpr int kCountedEpochs = 4;
constexpr int kPolicies = 7;

/** One MEM2 and one ILP2 mix. */
const char *const kMixes[] = {"art-mcf", "apsi-eon"};

RunConfig
config()
{
    RunConfig c;
    c.warmupCycles = 512 * 1024;
    c.jobs = 1;
    return c;
}

/**
 * Policy @p which of ICOUNT, FLUSH, DCRA, HILL-WIPC, PHASE-HILL,
 * BANDIT and RL-Q, for @p epoch_size-cycle epochs.
 */
std::unique_ptr<ResourcePolicy>
makePolicy(int which, Cycle epoch_size)
{
    HillConfig hc;
    hc.epochSize = epoch_size;
    hc.metric = PerfMetric::WeightedIpc;
    BanditConfig bc;
    bc.epochSize = epoch_size;
    RlConfig rc;
    rc.epochSize = epoch_size;
    switch (which) {
      case 0: return std::make_unique<IcountPolicy>();
      case 1: return std::make_unique<FlushPolicy>();
      case 2: return std::make_unique<DcraPolicy>();
      case 3: return std::make_unique<HillClimbing>(hc);
      case 4: return std::make_unique<PhaseHillClimbing>(hc);
      case 5: return std::make_unique<BanditAllocator>(bc);
      default: return std::make_unique<RlAllocator>(rc);
    }
}

/** @p s as a gtest name: dashes become underscores. */
std::string
testName(std::string s)
{
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

/**
 * The mix is a std::string, not a const char *: gtest prints a char
 * pointer inside a tuple with its address, and the address would put
 * a per-build random number into every ctest name.
 */
using EpochCase = std::tuple<std::string, int>;

class ZeroAllocEpoch : public ::testing::TestWithParam<EpochCase>
{
};

TEST_P(ZeroAllocEpoch, CycleLoopAllocatesNothingOnceWarm)
{
    const auto [mix, which] = GetParam();
    const RunConfig cfg = config();
    SmtCpu cpu = makeCpu(workloadByName(mix), cfg);
    std::unique_ptr<ResourcePolicy> policy =
        makePolicy(which, cfg.epochSize);
    policy->attach(cpu);
    for (int e = 0; e < kWarmEpochs + kCountedEpochs; ++e) {
        const std::uint64_t before = allocations.load();
        runOneEpoch(cpu, *policy, cfg.epochSize);
        const std::uint64_t n = allocations.load() - before;
        if (e >= kWarmEpochs) {
            EXPECT_EQ(n, 0u) << policy->name() << " on " << mix
                             << ", epoch " << e;
        }
        policy->epoch(cpu, static_cast<std::uint64_t>(e));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ZeroAllocEpoch,
    ::testing::Combine(::testing::ValuesIn(std::vector<std::string>(
                           std::begin(kMixes), std::end(kMixes))),
                       ::testing::Range(0, kPolicies)),
    [](const ::testing::TestParamInfo<EpochCase> &p) {
        const Cycle epoch = config().epochSize;
        return testName(makePolicy(std::get<1>(p.param), epoch)->name() +
                        "_" + std::get<0>(p.param));
    });

class ZeroAllocTrial : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ZeroAllocTrial, RestoredTrialsAllocateNothing)
{
    const char *mix = GetParam();
    const RunConfig cfg = config();
    const SmtCpu checkpoint = makeCpu(workloadByName(mix), cfg);
    constexpr int kWorkers = 2;
    MachineArena arena(kWorkers);
    const std::vector<Partition> trials =
        enumeratePartitions2(checkpoint.config().intRegs, 16);
    ASSERT_GT(trials.size(), 2u * kWorkers);
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const int worker = static_cast<int>(i % kWorkers);
        const std::uint64_t before = allocations.load();
        SmtCpu &trial = arena.acquire(worker, checkpoint);
        runTrialEpoch(trial, trials[i], cfg.epochSize);
        const std::uint64_t n = allocations.load() - before;
        // Each worker's first trial clones the checkpoint.
        if (i >= kWorkers) {
            EXPECT_EQ(n, 0u) << mix << ", trial " << i << " on worker "
                             << worker << " (" << trials[i].str() << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ZeroAllocTrial, ::testing::ValuesIn(kMixes),
    [](const ::testing::TestParamInfo<const char *> &p) {
        return testName(p.param);
    });

} // namespace
} // namespace smthill
