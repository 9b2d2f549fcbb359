/**
 * @file
 * Unit tests for the fixed-size fork-join pool: full index coverage
 * with ordered results, jobs=1 inline degeneracy, join before
 * return, and each worker's increasing index order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/stat_registry.hh"
#include "common/thread_pool.hh"

namespace smthill
{
namespace
{

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ResultsLandInOrderedSlots)
{
    // The ordering contract: each task owns slot i, so the reduced
    // output is in index order no matter which worker ran what.
    ThreadPool pool(8);
    constexpr std::size_t n = 257;
    std::vector<std::size_t> out(n, 0);
    pool.parallelFor(n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, JobsOneRunsInlineOnCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(16);
    std::vector<std::size_t> order;
    pool.parallelFor(16, [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
        // Safe only because jobs=1 runs every index inline on the
        // caller — this test asserts exactly that serial order.
        order.push_back(i);
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
    // Inline execution is also in ascending index order.
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, JobsClampedToAtLeastOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.jobs(), 1);
    int ran = 0;
    // jobs clamps to 1, so the lambda runs inline; the unguarded
    // counter is the point of the clamping test.
    pool.parallelFor(3, [&](std::size_t) { ran++; });
    EXPECT_EQ(ran, 3);
}

TEST(ThreadPool, EmptyRangeIsANoOp)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, AllTasksFinishBeforeReturn)
{
    // The caller drains quickly while the pool threads dawdle on each
    // index; parallelFor must not return while any of them is still
    // touching caller-owned state.
    ThreadPool pool(4);
    constexpr std::size_t n = 200;
    std::atomic<int> completed{0};
    for (int round = 0; round < 5; ++round) {
        completed = 0;
        pool.parallelForWorker(n, [&](std::size_t, int worker) {
            if (worker != 0)
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            completed++;
        });
        EXPECT_EQ(completed.load(), static_cast<int>(n));
    }
}

TEST(ThreadPool, WorkersDrawIncreasingIndices)
{
    // Per-worker bests (MachineArena::keep) rely on this: a worker
    // id is in [0, jobs), never runs two indices at once, and draws
    // its indices in increasing order.
    ThreadPool pool(3);
    constexpr std::size_t n = 500;
    std::vector<int> ranOn(n, -1);
    std::vector<std::vector<std::size_t>> drawn(3);
    pool.parallelForWorker(n, [&](std::size_t i, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 3);
        ranOn[i] = worker;
        drawn[static_cast<std::size_t>(worker)].push_back(i);
    });
    std::size_t total = 0;
    for (const auto &d : drawn) {
        EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
        total += d.size();
    }
    EXPECT_EQ(total, n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NE(ranOn[i], -1) << "index " << i;
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1);
}

TEST(ThreadPool, ExportsIndexStats)
{
    // for_indices counts every index a fan-out ran, serial paths
    // included; it is the pool's only stat.
    ThreadPool pool(4);
    std::uint64_t before =
        globalStats().counter(CounterId::ThreadPoolForIndices).value();
    pool.parallelFor(64, [](std::size_t) {});
    pool.parallelFor(1, [](std::size_t) {});
    EXPECT_GE(
        globalStats().counter(CounterId::ThreadPoolForIndices).value(),
        before + 65);
}

TEST(ThreadPool, ReusableAcrossManyParallelFors)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(10, [&](std::size_t i) {
            sum += static_cast<int>(i);
        });
        EXPECT_EQ(sum.load(), 45);
    }
}

} // namespace
} // namespace smthill
