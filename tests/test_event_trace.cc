/**
 * @file
 * Unit tests for the cycle-level event tracer (common/event_trace.hh):
 * ring wrap/overflow accounting, export round-trips through both
 * sinks, the attachment handle, jobs-independence of
 * recorded streams, and the event-stream monotonicity invariant.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/event_trace.hh"
#include "common/stat_registry.hh"
#include "core/hill_climbing.hh"
#include "core/offline_exhaustive.hh"
#include "harness/runner.hh"
#include "harness/sync_runner.hh"
#include "policy/icount.hh"
#include "validate/invariants.hh"

namespace smthill
{
namespace
{

SimEvent
instantAt(Cycle ts, int tid = 0)
{
    SimEvent e;
    e.ts = ts;
    e.ph = 'i';
    e.tid = tid;
    e.cat = "test";
    e.name = "ev";
    return e;
}

TEST(EventTrace, RingKeepsNewestAndCountsDrops)
{
    std::uint64_t dropped_before =
        globalStats().counter(CounterId::EventTraceDropped).value();

    EventTrace trace(4);
    for (Cycle ts = 0; ts < 10; ++ts)
        trace.record(instantAt(ts));

    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.capacity(), 4u);
    EXPECT_EQ(trace.recorded(), 10u);
    EXPECT_EQ(trace.dropped(), 6u);

    // Oldest first, and only the newest four survive.
    std::vector<SimEvent> events = trace.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].ts, 6u + i);

    // The drops are mirrored into the global registry.
    EXPECT_EQ(
        globalStats().counter(CounterId::EventTraceDropped).value(),
        dropped_before + 6);

    // The exporter reports them too.
    Json doc = trace.toPerfettoJson();
    EXPECT_EQ(doc.at("otherData").at("dropped").asInt(), 6);
}

TEST(EventTrace, ClearKeepsLifetimeCounters)
{
    EventTrace trace(8);
    for (Cycle ts = 0; ts < 5; ++ts)
        trace.record(instantAt(ts));
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.recorded(), 5u);
    trace.record(instantAt(99));
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.recorded(), 6u);
}

TEST(EventTrace, DisabledTracerTouchesNoGlobalCounters)
{
    std::uint64_t recorded_before =
        globalStats().counter(CounterId::EventTraceRecorded).value();

    // A full policy run with no tracer attached anywhere must not
    // offer a single event.
    RunConfig rc;
    rc.epochSize = 4096;
    rc.epochs = 3;
    rc.warmupCycles = 16384;
    HillConfig hc;
    hc.epochSize = rc.epochSize;
    HillClimbing hill(hc);
    runPolicy(workloadByName("art-mcf"), hill, rc);

    EXPECT_EQ(
        globalStats().counter(CounterId::EventTraceRecorded).value(),
        recorded_before);
}

TEST(EventTrace, PerfettoRoundTrip)
{
    EventTrace trace;
    trace.processName(0, "proc");
    trace.threadName(0, 1, "thr");
    Json args = Json::object();
    args.set("epoch", 7);
    trace.instant(100, 0, 1, EventId::HillAnchorMove, std::move(args));
    trace.complete(200, 64, 0, kControlTid, EventId::Epoch);
    trace.counter(300, 0, 1, EventId::ShareTrack, 128.0);

    Json doc = trace.toPerfettoJson();
    EXPECT_EQ(doc.at("otherData").at("schema").asString(),
              "smthill.events.v1");

    std::vector<SimEvent> back;
    std::string error;
    ASSERT_TRUE(EventTrace::fromPerfettoJson(doc, back, error)) << error;
    EXPECT_EQ(back, trace.events());
}

TEST(EventTrace, JsonlRoundTripAndStreamingSinkMatch)
{
    std::ostringstream streamed;
    EventTrace trace;
    trace.streamTo(&streamed);
    trace.instant(10, 0, 0, EventId::MachineThreadEnabled);
    trace.complete(20, 5, 0, kControlTid, EventId::HillRound);
    trace.counter(30, 0, 1, EventId::ShareTrack, 120.0);
    trace.streamTo(nullptr);

    // No drops occurred, so the live stream and the batch export are
    // the same text.
    std::string batch = trace.toJsonl();
    EXPECT_EQ(streamed.str(), batch);

    std::vector<SimEvent> back;
    std::string error;
    ASSERT_TRUE(EventTrace::fromJsonlText(batch, back, error)) << error;
    EXPECT_EQ(back, trace.events());

    // The auto-detecting loader accepts both forms.
    std::vector<SimEvent> auto_jsonl;
    ASSERT_TRUE(
        EventTrace::loadEventTraceText(batch, auto_jsonl, error))
        << error;
    EXPECT_EQ(auto_jsonl, trace.events());
    std::vector<SimEvent> auto_doc;
    ASSERT_TRUE(EventTrace::loadEventTraceText(
        trace.toPerfettoJson().dump(2), auto_doc, error))
        << error;
    EXPECT_EQ(auto_doc, trace.events());
}

TEST(EventTrace, AttachmentHandleDropsOnCopy)
{
    EventTrace trace;
    Attachment<EventTraceLink> ref;
    ref.attach({&trace, 3});

    Attachment<EventTraceLink> copied(ref);
    EXPECT_EQ(copied->trace, nullptr);
    EXPECT_EQ(copied->pid, 0);

    Attachment<EventTraceLink> source;
    source.attach({&trace, 4});
    Attachment<EventTraceLink> moved(std::move(source));
    EXPECT_EQ(moved->trace, nullptr);

    // Assignment keeps the target's own link, whatever the source's.
    EventTrace other;
    Attachment<EventTraceLink> assigned;
    assigned.attach({&other, 5});
    assigned = ref;
    EXPECT_EQ(assigned->trace, &other);
    EXPECT_EQ(assigned->pid, 5);
    assigned = Attachment<EventTraceLink>();
    EXPECT_EQ(assigned->trace, &other);
    EXPECT_EQ(assigned->pid, 5);
}

TEST(EventTrace, MachineCheckpointsDoNotEmit)
{
    RunConfig rc;
    rc.epochSize = 4096;
    rc.warmupCycles = 16384;
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    EventTrace trace;
    cpu.setEventTrace(&trace, 0);

    // A checkpoint copy runs independently: nothing it does may land
    // in the original's stream.
    SmtCpu checkpoint = cpu;
    Partition p;
    p.numThreads = 2;
    p.share[0] = 100;
    p.share[1] = 156;
    checkpoint.setPartition(p);
    checkpoint.run(1024);
    EXPECT_TRUE(trace.empty());

    // The original still emits.
    cpu.setPartition(p);
    EXPECT_EQ(trace.size(), 2u); // one share counter per thread
}

/**
 * The same synchronized comparison, traced at jobs=1 and jobs=4,
 * must produce bit-identical event streams: the offline trial sweeps
 * run on worker threads, but only checkpoint copies (which drop the
 * attachment) ever execute there.
 */
TEST(EventTrace, StreamsBitIdenticalAcrossJobs)
{
    auto runTraced = [](int jobs) {
        RunConfig rc;
        rc.epochSize = 4096;
        rc.epochs = 3;
        rc.warmupCycles = 16384;
        const Workload &w = workloadByName("art-mcf");

        OfflineConfig oc;
        oc.epochSize = rc.epochSize;
        oc.stride = 64;
        oc.jobs = jobs;
        OfflineExhaustive off(oc);

        IcountPolicy icount;
        std::vector<ResourcePolicy *> policies{&icount};
        EventTrace trace;
        syncCompareOffline(makeCpu(w, rc), off, policies, rc.epochs,
                           &trace);
        return trace.events();
    };

    std::vector<SimEvent> serial = runTraced(1);
    std::vector<SimEvent> parallel = runTraced(4);
    EXPECT_FALSE(serial.empty());
    EventDiff d = diffEvents(serial, parallel);
    EXPECT_FALSE(d.diverged) << d.description;
}

TEST(EventTraceInvariant, AcceptsRealTraceAndOrderedTracks)
{
    RunConfig rc;
    rc.epochSize = 4096;
    rc.epochs = 4;
    rc.warmupCycles = 16384;
    HillConfig hc;
    hc.epochSize = rc.epochSize;
    HillClimbing hill(hc);
    EventTrace trace;
    hill.setEventTrace(&trace, 0);
    runPolicy(workloadByName("art-mcf"), hill, rc);
    EXPECT_FALSE(trace.empty());

    InvariantChecker chk;
    chk.checkEventStream(trace.events());
    EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(EventTraceInvariant, FlagsTimeTravelBadDurationAndPhase)
{
    // Independent tracks may interleave arbitrarily.
    std::vector<SimEvent> ok = {instantAt(100, 0), instantAt(10, 1),
                                instantAt(100, 0), instantAt(20, 1)};
    InvariantChecker accepts;
    accepts.checkEventStream(ok);
    EXPECT_TRUE(accepts.ok()) << accepts.summary();

    // Same track going backwards fires.
    std::vector<SimEvent> backwards = {instantAt(100), instantAt(99)};
    InvariantChecker chk1;
    chk1.checkEventStream(backwards);
    ASSERT_FALSE(chk1.ok());
    EXPECT_EQ(chk1.violations()[0].check, "events.monotonic");

    // A slice ending before an already-reached point fires too.
    SimEvent slice = instantAt(0);
    slice.ph = 'X';
    slice.dur = 50;
    std::vector<SimEvent> overlap = {instantAt(200), slice};
    InvariantChecker chk2;
    chk2.checkEventStream(overlap);
    ASSERT_FALSE(chk2.ok());
    EXPECT_EQ(chk2.violations()[0].check, "events.monotonic");

    // Negative-duration slices are malformed.
    SimEvent bad_dur = instantAt(300);
    bad_dur.ph = 'X';
    bad_dur.dur = -1;
    InvariantChecker chk3;
    chk3.checkEventStream({bad_dur});
    ASSERT_FALSE(chk3.ok());
    EXPECT_EQ(chk3.violations()[0].check, "events.duration");

    // Unknown phase characters are malformed.
    SimEvent bad_ph = instantAt(400);
    bad_ph.ph = 'Q';
    InvariantChecker chk4;
    chk4.checkEventStream({bad_ph});
    ASSERT_FALSE(chk4.ok());
    EXPECT_EQ(chk4.violations()[0].check, "events.phase");
}

TEST(EventTrace, DiffReportsFirstDivergence)
{
    std::vector<SimEvent> a = {instantAt(1), instantAt(2), instantAt(3)};
    std::vector<SimEvent> b = a;
    EXPECT_FALSE(diffEvents(a, b).diverged);

    b[1].ts = 99;
    EventDiff d = diffEvents(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.index, 1u);
    EXPECT_NE(d.description.find("ts"), std::string::npos);

    b = a;
    b.pop_back();
    EventDiff shorter = diffEvents(a, b);
    ASSERT_TRUE(shorter.diverged);
    EXPECT_EQ(shorter.index, 2u);
}

} // namespace
} // namespace smthill
