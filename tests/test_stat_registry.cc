/**
 * @file
 * Unit tests for the named-statistic registry: find-or-create
 * semantics by catalog id, reference stability, JSON export in
 * registration order, and concurrent updates from pool-like worker
 * threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/stat_registry.hh"
#include "common/thread_pool.hh"

namespace smthill
{
namespace
{

// Asking for a stat by a string does not compile: the registry takes
// only catalog ids.
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

TEST(StatRegistry, NamesInRegistrationOrder)
{
    StatRegistry reg;
    reg.counter(CounterId::RlEpochs);
    reg.counter(CounterId::ThreadPoolForIndices);
    reg.counter(CounterId::BanditEpochs);
    reg.counter(CounterId::RlEpochs); // lookup, not a new registration
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "smthill.rl.epochs");
    EXPECT_EQ(names[1], "smthill.thread_pool.for_indices");
    EXPECT_EQ(names[2], "smthill.bandit.epochs");
}

TEST(StatRegistry, ToJsonExportsEveryKind)
{
    StatRegistry reg;
    // Counters are the only kind: each exports as an integer.
    reg.counter(CounterId::WarmMachineHits).add(7);
    reg.counter(CounterId::ThreadPoolForIndices).add(31);

    Json j = reg.toJson();
    EXPECT_EQ(j.dump(), "{\"smthill.warm_cache.machine.hits\":7,"
                        "\"smthill.thread_pool.for_indices\":31}");

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
    reg.counter(CounterId::BanditSwitches).add(2);
    reg.resetValues();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(reg.counter(CounterId::BanditSwitches).value(), 0u);
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
            StatCounter &c = reg.counter(CounterId::RlExplores);
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counter(CounterId::RlExplores).value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(StatRegistry, GlobalRegistryIsSingleton)
{
    EXPECT_EQ(&globalStats(), &globalStats());
}

TEST(StatRegistry, ThreadPoolRegistersItsStats)
{
    // The pool wires itself into globalStats(); the indices it ran
    // are visible in the export.
    ThreadPool pool(2);
    const std::vector<std::string> names = globalStats().names();
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "smthill.thread_pool.for_indices"),
              names.end());
    std::uint64_t before =
        globalStats().counter(CounterId::ThreadPoolForIndices).value();
    std::atomic<int> ran{0};
    pool.parallelFor(16, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 16);
    EXPECT_GE(
        globalStats().counter(CounterId::ThreadPoolForIndices).value(),
        before + 16);
}

} // namespace
} // namespace smthill
