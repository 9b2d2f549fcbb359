/**
 * @file
 * Tests for the schema field tables (JsonField in common/json.hh) and
 * the four readers built on them: smthill.report.v1,
 * smthill.epoch-trace.v1, smthill.profile.v1 and smthill.events.v1.
 * For each schema: a field-wise round trip, a
 * document missing one required key, and a document with one
 * wrong-typed key. Both bad documents must make the reader return
 * false with the key named in the error; none may end the process.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/profile.hh"
#include "core/epoch_trace.hh"
#include "harness/report.hh"

namespace smthill
{
namespace
{

/** @p obj with member @p key replaced by @p value (dropped if null). */
Json
withMember(const Json &obj, const std::string &key, const Json *value)
{
    Json out = Json::object();
    for (const auto &[k, v] : obj.members()) {
        if (k != key)
            out.set(k, v);
        else if (value)
            out.set(k, *value);
    }
    return out;
}

/** @p doc with the first element of array @p list edited as above. */
Json
withItemMember(const Json &doc, const std::string &list,
               const std::string &key, const Json *value)
{
    Json items = Json::array();
    for (const Json &item : doc.at(list).items())
        items.push(items.size() == 0 ? withMember(item, key, value)
                                     : item);
    return withMember(doc, list, &items);
}

/** Serialize and reparse, as a reader sees a file from disk. */
Json
reparse(const Json &j)
{
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse(j.dump(2), out, error)) << error;
    return out;
}

void
expectNamesKey(const std::string &error, const std::string &key)
{
    EXPECT_NE(error.find("'" + key + "'"), std::string::npos) << error;
}

// --- smthill.report.v1 ----------------------------------------------

MachineReport
sampleReport()
{
    MachineReport rep;
    rep.cycles = 262144;
    rep.totalIpc = 0.4405;
    rep.stalledCycles = 600;
    rep.threads.push_back(
        {"art", 0.335, 0.76, 0.031, 107.4, 100.2, 0.25, 0.38, 87911, 12});
    rep.threads.push_back(
        {"mcf", 0.105, 0.24, 0.051, 63.2, 55.4, 0.0, 0.41, 27579, 0});
    return rep;
}

TEST(JsonFields, ReportRoundTrip)
{
    const MachineReport rep = sampleReport();
    MachineReport back;
    std::string error;
    ASSERT_TRUE(machineReportFromJson(reparse(rep.toJson()), back, error))
        << error;
    EXPECT_EQ(back, rep);
}

TEST(JsonFields, ReportMissingKey)
{
    Json doc = Json::object();
    doc.set("schema", Json("smthill.report.v1"));
    MachineReport out;
    std::string error;
    EXPECT_FALSE(machineReportFromJson(doc, out, error));
    expectNamesKey(error, "cycles");

    // A key missing inside a thread row is named too.
    Json noIpc =
        withItemMember(sampleReport().toJson(), "threads", "ipc", nullptr);
    EXPECT_FALSE(machineReportFromJson(noIpc, out, error));
    expectNamesKey(error, "ipc");
}

TEST(JsonFields, ReportWrongType)
{
    const Json doc = sampleReport().toJson();
    MachineReport out;
    std::string error;
    const Json text("x");
    EXPECT_FALSE(
        machineReportFromJson(withMember(doc, "cycles", &text), out, error));
    expectNamesKey(error, "cycles");

    // Unsigned counters take whole non-negative numbers only.
    const Json negative(-1);
    EXPECT_FALSE(machineReportFromJson(
        withMember(doc, "cycles", &negative), out, error));
    const Json fraction(0.5);
    EXPECT_FALSE(machineReportFromJson(
        withMember(doc, "stalled_cycles", &fraction), out, error));
    expectNamesKey(error, "stalled_cycles");
}

// --- smthill.epoch-trace.v1 -----------------------------------------

std::vector<EpochTraceRecord>
sampleEpochs()
{
    EpochTraceRecord a;
    a.epochId = 3;
    a.cycle = 85536;
    a.elapsedCycles = 65336;
    a.numThreads = 2;
    a.ipc = {0.5, 0.125};
    a.metricValue = 0.75;
    a.partitioned = true;
    a.trial.numThreads = 2;
    a.trial.share = {120, 136};
    a.anchor.numThreads = 2;
    a.anchor.share = {128, 128};
    a.roundPerf = {0.7, 0.8};
    a.singleIpcEst = {1.5, 0.25};
    a.gradientThread = 1;
    a.samplingThread = -1;
    a.anchorMoved = true;
    a.softwareCost = 200;

    EpochTraceRecord b = a;
    b.epochId = 4;
    b.partitioned = false;
    b.trial = Partition{};
    b.gradientThread = -1;
    b.samplingThread = 0;
    b.anchorMoved = false;
    return {a, b};
}

TEST(JsonFields, EpochTraceRoundTrip)
{
    const std::vector<EpochTraceRecord> recs = sampleEpochs();
    const Json doc = epochTraceToJson(recs, PerfMetric::WeightedIpc);
    EXPECT_TRUE(doc.at("epochs").items()[1].at("trial").isNull());

    std::vector<EpochTraceRecord> back;
    std::string error;
    ASSERT_TRUE(epochTraceFromJson(reparse(doc), back, error)) << error;
    EXPECT_EQ(back, recs);
}

TEST(JsonFields, EpochTraceMissingKey)
{
    const Json doc =
        epochTraceToJson(sampleEpochs(), PerfMetric::WeightedIpc);
    std::vector<EpochTraceRecord> out;
    std::string error;
    EXPECT_FALSE(epochTraceFromJson(
        withItemMember(doc, "epochs", "cycle", nullptr), out, error));
    expectNamesKey(error, "cycle");
    EXPECT_TRUE(out.empty());

    EXPECT_FALSE(epochTraceFromJson(withMember(doc, "metric", nullptr),
                                    out, error));
    expectNamesKey(error, "metric");
}

TEST(JsonFields, EpochTraceWrongType)
{
    const Json doc =
        epochTraceToJson(sampleEpochs(), PerfMetric::WeightedIpc);
    std::vector<EpochTraceRecord> out;
    std::string error;
    const Json text("x");
    EXPECT_FALSE(epochTraceFromJson(
        withItemMember(doc, "epochs", "cycle", &text), out, error));
    expectNamesKey(error, "cycle");

    // Per-thread arrays longer than the machine can hold are rejected
    // rather than overrunning the record's fixed-size arrays.
    Json wide = Json::array();
    for (int i = 0; i <= kMaxThreads; ++i)
        wide.push(Json(0.5));
    EXPECT_FALSE(epochTraceFromJson(
        withItemMember(doc, "epochs", "ipc", &wide), out, error));
    expectNamesKey(error, "ipc");
}

// --- smthill.profile.v1 ---------------------------------------------

prof::ProfileReport
sampleProfile()
{
    prof::ProfileReport rep;
    rep.spans = {{"cpu.run", 3, 900, 700, 400},
                 {"offline.trial_epoch", 2, 200, 200, 150}};
    rep.threads = {{0, {{"cpu.run", 2, 600, 500, 400}}},
                   {1,
                    {{"cpu.run", 1, 300, 200, 300},
                     {"offline.trial_epoch", 2, 200, 200, 150}}}};
    rep.parallelEfficiency = 0.75;
    return rep;
}

TEST(JsonFields, ProfileRoundTrip)
{
    const prof::ProfileReport rep = sampleProfile();
    prof::ProfileReport back;
    std::string error;
    ASSERT_TRUE(
        prof::profileFromJson(reparse(prof::profileToJson(rep)), back, error))
        << error;
    EXPECT_EQ(back, rep);
}

TEST(JsonFields, ProfileMissingKey)
{
    const Json doc = prof::profileToJson(sampleProfile());
    prof::ProfileReport out;
    std::string error;
    EXPECT_FALSE(prof::profileFromJson(
        withItemMember(doc, "spans", "count", nullptr), out, error));
    expectNamesKey(error, "count");

    EXPECT_FALSE(prof::profileFromJson(
        withMember(doc, "parallel_efficiency", nullptr), out, error));
    expectNamesKey(error, "parallel_efficiency");
}

TEST(JsonFields, ProfileWrongType)
{
    const Json doc = prof::profileToJson(sampleProfile());
    prof::ProfileReport out;
    std::string error;
    const Json text("a");
    EXPECT_FALSE(prof::profileFromJson(
        withItemMember(doc, "spans", "count", &text), out, error));
    expectNamesKey(error, "count");
}

// --- smthill.events.v1 ----------------------------------------------

EventTrace
sampleTrace()
{
    EventTrace trace(4); // small ring: the export records drops
    trace.processName(0, "art-mcf / HILL-WIPC");
    trace.threadName(0, 1, "mcf");
    Json args = Json::object();
    args.set("epoch", 7);
    trace.instant(100, 0, 1, EventId::HillAnchorMove, std::move(args));
    trace.complete(200, 64, 0, kControlTid, EventId::Epoch);
    trace.counter(300, 0, 1, EventId::ShareTrack, 128.0);
    trace.instant(400, 1, 0, EventId::MachinePartitionClear);
    return trace;
}

TEST(JsonFields, EventsRoundTrip)
{
    const EventTrace trace = sampleTrace();
    ASSERT_EQ(trace.dropped(), 2u);
    for (const SimEvent &e : trace.events()) {
        SimEvent back;
        std::string error;
        ASSERT_TRUE(EventTrace::eventFromJson(
            reparse(EventTrace::eventToJson(e)), back, error))
            << error;
        EXPECT_EQ(back, e);
    }

    // The document's otherData carries the drop count back.
    std::vector<SimEvent> events;
    EventTrace::TraceMeta meta;
    std::string error;
    ASSERT_TRUE(EventTrace::fromPerfettoJson(reparse(trace.toPerfettoJson()),
                                             events, error, &meta))
        << error;
    EXPECT_EQ(events, trace.events());
    EXPECT_EQ(meta.dropped, trace.dropped());
    EXPECT_DOUBLE_EQ(EventTrace::counterValue(events[2]), 128.0);
}

TEST(JsonFields, EventsMissingKey)
{
    const Json doc = sampleTrace().toPerfettoJson();
    std::vector<SimEvent> out;
    std::string error;
    EXPECT_FALSE(EventTrace::fromPerfettoJson(
        withItemMember(doc, "traceEvents", "ts", nullptr), out, error));
    expectNamesKey(error, "ts");

    EXPECT_FALSE(EventTrace::fromPerfettoJson(
        withMember(doc, "otherData", nullptr), out, error));
    expectNamesKey(error, "otherData");

    // A JSONL stream must open with its header line.
    EXPECT_FALSE(EventTrace::fromJsonlText(
        EventTrace::eventToJson(sampleTrace().events()[0]).dump() + "\n",
        out, error));
    expectNamesKey(error, "schema");
}

TEST(JsonFields, EventsWrongType)
{
    const Json event = EventTrace::eventToJson(sampleTrace().events()[0]);
    SimEvent out;
    std::string error;
    const Json text("x");
    EXPECT_FALSE(
        EventTrace::eventFromJson(withMember(event, "ts", &text), out, error));
    expectNamesKey(error, "ts");

    // A foreign clock domain is a wrong value of a constant key.
    const Json doc = sampleTrace().toPerfettoJson();
    const Json wall("wall-ns");
    Json other = withMember(doc.at("otherData"), "clock", &wall);
    std::vector<SimEvent> events;
    EXPECT_FALSE(EventTrace::fromPerfettoJson(
        withMember(doc, "otherData", &other), events, error));
    expectNamesKey(error, "clock");
}

// --- the helper itself ----------------------------------------------

struct Sample
{
    std::int64_t id = 0;
    double weight = -1.0; ///< written only when non-negative
};

constexpr JsonField<Sample> kSampleFields[] = {
    jsonField<&Sample::id>("id"),
    {"weight",
     [](const Sample &s, Json &v) {
         v = Json(s.weight);
         return s.weight >= 0.0;
     },
     [](const Json &v, Sample &s, std::string &error) {
         return scalarFromJson(v, s.weight, error);
     },
     true},
};

TEST(JsonFields, OptionalRows)
{
    // The writer leaves an optional row out when its write says so,
    // and the reader then keeps the record's default.
    Json absent = writeFields(kSampleFields, Sample{7, -1.0});
    EXPECT_FALSE(absent.contains("weight"));
    Sample back{99, 99.0};
    std::string error;
    ASSERT_TRUE(readFields(kSampleFields, absent, back, error)) << error;
    EXPECT_EQ(back.id, 7);
    EXPECT_EQ(back.weight, -1.0);

    Json present = writeFields(kSampleFields, Sample{7, 2.5});
    ASSERT_TRUE(readFields(kSampleFields, present, back, error)) << error;
    EXPECT_EQ(back.weight, 2.5);

    // Present but wrong-typed is still an error; required rows are
    // never optional.
    const Json text("heavy");
    EXPECT_FALSE(readFields(kSampleFields,
                            withMember(present, "weight", &text), back,
                            error));
    expectNamesKey(error, "weight");
    EXPECT_FALSE(readFields(kSampleFields, withMember(present, "id", nullptr),
                            back, error));
    expectNamesKey(error, "id");
    EXPECT_FALSE(readFields(kSampleFields, Json("not an object"), back,
                            error));
}

} // namespace
} // namespace smthill
