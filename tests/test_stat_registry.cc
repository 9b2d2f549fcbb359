/**
 * @file
 * Unit tests for the named-statistic registry: find-or-create
 * semantics by catalog id, reference stability, JSON export in
 * registration order, and concurrent updates from pool-like worker
 * threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/stat_registry.hh"
#include "common/thread_pool.hh"

namespace smthill
{
namespace
{

// Asking for a stat of the wrong kind, or by a string, does not
// compile: the registry takes only catalog ids of the matching kind.
static_assert(!std::is_convertible_v<CounterId, GaugeId>);
static_assert(!std::is_convertible_v<GaugeId, CounterId>);
static_assert(!std::is_convertible_v<const char *, CounterId>);

TEST(StatRegistry, CounterFindOrCreate)
{
    StatRegistry reg;
    StatCounter &a = reg.counter(CounterId::WarmMachineHits);
    StatCounter &b = reg.counter(CounterId::WarmMachineHits);
    EXPECT_EQ(&a, &b) << "same id must yield the same object";
    a.inc();
    b.add(4);
    EXPECT_EQ(a.value(), 5u);
}

TEST(StatRegistry, GaugeSetAndAdd)
{
    StatRegistry reg;
    StatGauge &g = reg.gauge(GaugeId::ThreadPoolQueueDepth);
    g.set(3.0);
    g.add(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(StatRegistry, NamesInRegistrationOrder)
{
    StatRegistry reg;
    reg.counter(CounterId::RlEpochs);
    reg.gauge(GaugeId::ThreadPoolQueueDepth);
    reg.counter(CounterId::BanditEpochs);
    reg.counter(CounterId::RlEpochs); // lookup, not a new registration
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "smthill.rl.epochs");
    EXPECT_EQ(names[1], "smthill.thread_pool.queue_depth");
    EXPECT_EQ(names[2], "smthill.bandit.epochs");
}

TEST(StatRegistry, ToJsonExportsEveryKind)
{
    StatRegistry reg;
    reg.counter(CounterId::WarmMachineHits).add(7);
    reg.gauge(GaugeId::ThreadPoolQueueDepth).set(2.25);

    Json j = reg.toJson();
    EXPECT_EQ(j.dump(), "{\"smthill.warm_cache.machine.hits\":7,"
                        "\"smthill.thread_pool.queue_depth\":2.25}");

    // The export round-trips through the parser.
    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(j.dump(2), back, error)) << error;
    EXPECT_TRUE(back == j);
}

TEST(StatRegistry, ResetValuesKeepsRegistrations)
{
    StatRegistry reg;
    StatCounter &c = reg.counter(CounterId::RlExplores);
    c.add(5);
    reg.gauge(GaugeId::ThreadPoolQueueDepth).set(1.0);
    reg.resetValues();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge(GaugeId::ThreadPoolQueueDepth).value(),
                     0.0);
    EXPECT_EQ(reg.names().size(), 2u);
}

TEST(StatRegistry, ConcurrentCountsAreExact)
{
    StatRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            // Registration races with other workers on purpose; every
            // thread must land on the same counter object.
            StatCounter &c = reg.counter(CounterId::ThreadPoolTasks);
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counter(CounterId::ThreadPoolTasks).value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(StatRegistry, GlobalRegistryIsSingleton)
{
    EXPECT_EQ(&globalStats(), &globalStats());
}

TEST(StatRegistry, ThreadPoolRegistersItsStats)
{
    // The pool wires itself into globalStats(); tasks executed there
    // are visible in the export.
    std::uint64_t before =
        globalStats().counter(CounterId::ThreadPoolTasks).value();
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(16, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 16);
    EXPECT_GE(globalStats().counter(CounterId::ThreadPoolTasks).value(),
              before);
}

} // namespace
} // namespace smthill
