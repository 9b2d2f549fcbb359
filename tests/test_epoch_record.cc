/**
 * @file
 * One record per learner epoch: every learner's `epoch` event carries
 * exactly the record its epochHistory() keeps, so the event stream
 * and the epoch-trace export are two sinks of one value.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "core/epoch_trace.hh"
#include "core/hill_climbing.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/rl_alloc.hh"
#include "validate/invariants.hh"
#include "workload/open_system.hh"
#include "workload/workloads.hh"

namespace smthill
{
namespace
{

constexpr Cycle kEpoch = 8192;
constexpr int kEpochs = 10;

/**
 * Expect @p trace's `epoch` events, read back through the one-row
 * reader, to equal @p history record for record, each slice ending
 * at its record's boundary cycle, in a sane, undropped stream.
 */
void
expectEventsMatchHistory(const EventTrace &trace,
                         const std::vector<EpochTraceRecord> &history)
{
    EXPECT_EQ(trace.dropped(), 0u);
    std::vector<SimEvent> events = trace.events();
    std::size_t n = 0;
    for (const SimEvent &e : events) {
        if (findEvent(e.cat, e.name) != EventId::Epoch)
            continue;
        ASSERT_LT(n, history.size()) << "more epoch events than records";
        EpochTraceRecord rec;
        std::string error;
        ASSERT_TRUE(epochRecordFromJson(e.args, rec, error)) << error;
        EXPECT_EQ(rec, history[n]) << "epoch event " << n;
        EXPECT_EQ(e.ts + static_cast<Cycle>(e.dur), history[n].cycle)
            << "epoch event " << n;
        ++n;
    }
    EXPECT_EQ(n, history.size());

    InvariantChecker chk;
    chk.checkEventStream(events);
    EXPECT_TRUE(chk.ok()) << chk.summary();
}

struct Learner
{
    const char *name;
    std::unique_ptr<HillClimbing> (*make)();
};

void
PrintTo(const Learner &l, std::ostream *os)
{
    *os << l.name;
}

/** @return an @p L learning WIPC over the test's epoch size. */
template <typename L, typename Config>
std::unique_ptr<HillClimbing>
make()
{
    Config c;
    c.epochSize = kEpoch;
    c.metric = PerfMetric::WeightedIpc;
    return std::make_unique<L>(c);
}

class EpochEvent : public ::testing::TestWithParam<Learner>
{
};

TEST_P(EpochEvent, ArgsEqualHistory)
{
    RunConfig rc;
    rc.epochSize = kEpoch;
    rc.warmupCycles = 20000;
    std::unique_ptr<HillClimbing> learner = GetParam().make();
    EventTrace trace;
    learner->setEventTrace(&trace, 0);
    runPolicyOn(makeCpu(workloadByName("art-mcf"), rc), *learner,
                kEpochs, kEpoch);

    ASSERT_EQ(learner->epochHistory().size(),
              static_cast<std::size_t>(kEpochs));
    expectEventsMatchHistory(trace, learner->epochHistory());
}

INSTANTIATE_TEST_SUITE_P(
    Learners, EpochEvent,
    ::testing::Values(
        Learner{"HILL_WIPC", make<HillClimbing, HillConfig>},
        Learner{"PHASE_HILL", make<PhaseHillClimbing, HillConfig>},
        Learner{"BANDIT_UCB", make<BanditAllocator, BanditConfig>},
        Learner{"RL_Q", make<RlAllocator, RlConfig>}),
    [](const ::testing::TestParamInfo<Learner> &p) {
        return std::string(p.param.name);
    });

TEST(EpochEvent, OpenSystemChurnArgsEqualHistory)
{
    SmtConfig machine;
    machine.numThreads = 2;
    OpenSystemConfig oc;
    oc.seed = 11;
    oc.arrivalRate = 1.0 / 2048.0;
    oc.numJobs = 8;
    oc.minJobInstructions = 2'000;
    oc.maxJobInstructions = 5'000;
    oc.epochSize = 4'096;
    oc.horizon = 2'000'000;
    OpenSystem sys(machine, oc);

    HillConfig hc;
    hc.epochSize = oc.epochSize;
    HillClimbing hill(hc);
    EventTrace trace;
    OpenSystemResult res = sys.run(hill, &trace, 1);

    EXPECT_GT(res.completedJobs, 0);
    ASSERT_FALSE(hill.epochHistory().empty());
    expectEventsMatchHistory(trace, hill.epochHistory());
}

} // namespace
} // namespace smthill
