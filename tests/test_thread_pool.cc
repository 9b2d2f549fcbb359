/**
 * @file
 * Unit tests for the fixed-size worker thread pool: full index
 * coverage with ordered results, jobs=1 inline degeneracy,
 * deterministic exception propagation, and future-based submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
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

TEST(ThreadPool, PropagatesLowestIndexException)
{
    ThreadPool pool(4);
    // Multiple throwing indices: the surviving exception must be the
    // lowest index, independent of scheduling.
    for (int attempt = 0; attempt < 10; ++attempt) {
        try {
            pool.parallelFor(64, [&](std::size_t i) {
                if (i % 7 == 3) // throws at 3, 10, 17, ...
                    throw std::runtime_error("boom at " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom at 3");
        }
    }
}

TEST(ThreadPool, ExceptionPropagatesWithJobsOne)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(
                     5,
                     [&](std::size_t i) {
                         if (i == 2)
                             throw std::logic_error("serial");
                     }),
                 std::logic_error);
}

TEST(ThreadPool, AllTasksFinishBeforeThrowingReturn)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 200;
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(n, [&](std::size_t i) {
            if (i == 0)
                throw std::runtime_error("early");
            completed++;
        });
        FAIL();
    } catch (const std::runtime_error &) {
        // parallelFor must not return/throw while tasks are still
        // touching caller-owned state.
        EXPECT_EQ(completed.load(), static_cast<int>(n) - 1);
    }
}

TEST(ThreadPool, SubmitReturnsFutureResults)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 20; ++i)
        futs.push_back(pool.submit([i] { return i * 3; }));
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * 3);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1);
}

TEST(ThreadPool, ExportsIndexAndQueueDepthStats)
{
    ThreadPool pool(4);
    std::uint64_t before =
        globalStats().counter(CounterId::ThreadPoolForIndices).value();
    pool.parallelFor(64, [](std::size_t) {});
    EXPECT_GE(
        globalStats().counter(CounterId::ThreadPoolForIndices).value(),
        before + 64);
    // queue_depth is a live gauge; once parallelFor returns, every
    // enqueued task has been drained.
    EXPECT_EQ(
        globalStats().gauge(GaugeId::ThreadPoolQueueDepth).value(),
        0.0);
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
