/**
 * @file
 * Tests for the observability layer and the measurement bugfixes it
 * made visible:
 *  - the epoch-trace codec: JSON/CSV export and round-trip;
 *  - MachineReport JSON round-trip, the flushed-with-zero-commits
 *    reporting, and snapshot/report thread-range consistency;
 *  - hill-climbing epoch IPCs measured over actual elapsed cycles
 *    (not the nominal epoch size);
 *  - the SingleIPC bootstrap that samples every thread solo at
 *    attach, before the first learning epoch, unless its estimate
 *    is supplied;
 *  - share-conservation / min-share properties of trialPartition and
 *    moveAnchor across the whole anchor space, including extremes.
 */

#include <gtest/gtest.h>

#include "core/epoch_trace.hh"
#include "core/hill_climbing.hh"
#include "core/partitioning.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
#include "trace/program_profile.hh"

namespace smthill
{
namespace
{

ProgramProfile
simpleProfile(double p_cold, int dep, const char *name)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 12;
    pp.avgBlockLen = 8;
    pp.pLoadCold = p_cold;
    pp.meanDepDist = dep;
    pp.serialFrac = 0.1;
    pp.burstProb = p_cold > 0 ? 0.6 : 0.0;
    pp.burstMax = 6;
    return buildProfile(pp);
}

SmtCpu
twoThreadCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(simpleProfile(0.08, 30, "mlp"), 0);
    gens.emplace_back(simpleProfile(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(100000);
    return cpu;
}

EpochTraceRecord
sampleRecord(std::uint64_t id)
{
    EpochTraceRecord r;
    r.epochId = id;
    r.cycle = 100000 + id * 16384;
    r.elapsedCycles = 16184;
    r.numThreads = 2;
    r.ipc = {0.75, 1.25};
    r.metricValue = 0.875;
    r.partitioned = true;
    r.trial.numThreads = 2;
    r.trial.share = {132, 124};
    r.anchor.numThreads = 2;
    r.anchor.share = {128, 128};
    r.roundPerf = {0.8, 0.9};
    r.singleIpcEst = {1.1, 2.2};
    r.gradientThread = 1;
    r.samplingThread = -1;
    r.anchorMoved = true;
    r.softwareCost = 200;
    return r;
}

TEST(EpochTracer, JsonRoundTripsEveryField)
{
    std::vector<EpochTraceRecord> recs = {sampleRecord(0)};
    EpochTraceRecord unpart = sampleRecord(1);
    unpart.partitioned = false;
    unpart.trial = Partition{}; // as traceEpoch records a solo epoch
    unpart.samplingThread = 0;
    unpart.gradientThread = -1;
    unpart.anchorMoved = false;
    recs.push_back(unpart);

    Json j = epochTraceToJson(recs, PerfMetric::WeightedIpc);
    EXPECT_EQ(j.at("schema").asString(), "smthill.epoch-trace.v1");
    EXPECT_EQ(j.at("metric").asString(), "WIPC");
    EXPECT_EQ(j.at("num_threads").asInt(), 2);
    EXPECT_TRUE(j.at("epochs").items()[1].at("trial").isNull())
        << "sampling epochs have no trial partition";

    // Export -> serialize -> parse -> rebuild must reproduce every
    // field of every record.
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(j.dump(2), reparsed, error)) << error;
    std::vector<EpochTraceRecord> back;
    ASSERT_TRUE(epochTraceFromJson(reparsed, back, error)) << error;
    EXPECT_EQ(back, recs);

    // One record alone: the `epoch` event's args.
    Json row;
    ASSERT_TRUE(Json::parse(epochRecordToJson(unpart).dump(), row, error))
        << error;
    EpochTraceRecord one;
    ASSERT_TRUE(epochRecordFromJson(row, one, error)) << error;
    EXPECT_EQ(one, unpart);
}

TEST(EpochTracer, RejectsForeignDocuments)
{
    Json j = Json::object();
    j.set("schema", Json("smthill.report.v1"));
    std::vector<EpochTraceRecord> out;
    std::string error;
    EXPECT_FALSE(epochTraceFromJson(j, out, error));
    EXPECT_FALSE(error.empty());
}

TEST(EpochTracer, CsvHasHeaderAndOneRowPerEpoch)
{
    std::string csv = epochTraceToCsv({sampleRecord(0), sampleRecord(1)});
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u) << "header + 2 rows";
    EXPECT_EQ(csv.substr(0, 6), "epoch,");
    EXPECT_NE(csv.find("single_ipc_est_1"), std::string::npos);
}

// ---------------------------------------------------------------
// MachineReport: JSON round-trip and the reporting fixes.

MachineSnapshot
emptySnapshot(int nt, Cycle cycle)
{
    MachineSnapshot s;
    s.cycle = cycle;
    s.numThreads = nt;
    return s;
}

TEST(MachineReport, JsonRoundTrip)
{
    MachineSnapshot before = emptySnapshot(2, 1000);
    MachineSnapshot after = emptySnapshot(2, 11000);
    after.stats.committed = {5000, 2500};
    after.stats.fetched = {9000, 4000};
    after.stats.flushed = {700, 40};
    after.stats.branches = {800, 400};
    after.stats.mispredicts = {60, 4};
    after.stats.partitionLockCycles = {100, 300};
    after.stats.stalledCycles = 600;
    after.dl1Misses = {200, 20};
    after.l2Misses = {50, 5};

    MachineReport rep = buildReport(before, after, {"a", "b"});
    Json j = rep.toJson();
    Json reparsed;
    std::string error;
    ASSERT_TRUE(Json::parse(j.dump(2), reparsed, error)) << error;
    MachineReport back;
    ASSERT_TRUE(machineReportFromJson(reparsed, back, error)) << error;
    EXPECT_EQ(back, rep);
    EXPECT_EQ(back.stalledCycles, 600u);
}

TEST(MachineReport, FromJsonRejectsForeignSchema)
{
    Json j = Json::object();
    j.set("schema", Json("something.else"));
    MachineReport out;
    std::string error;
    EXPECT_FALSE(machineReportFromJson(j, out, error));
}

TEST(MachineReport, FlushedReportedWithoutCommits)
{
    // Regression: a thread squashed out of every commit used to
    // vanish into flushedPerCommit == 0 with its flush traffic
    // hidden; the raw count must survive into the report.
    MachineSnapshot before = emptySnapshot(2, 0);
    MachineSnapshot after = emptySnapshot(2, 10000);
    after.stats.committed = {4000, 0};
    after.stats.fetched = {6000, 0};
    after.stats.flushed = {10, 900};

    MachineReport rep = buildReport(before, after, {"busy", "starved"});
    ASSERT_EQ(rep.threads.size(), 2u);
    EXPECT_EQ(rep.threads[1].label, "starved");
    EXPECT_EQ(rep.threads[1].flushed, 900u);
    EXPECT_DOUBLE_EQ(rep.threads[1].flushedPerCommit, 0.0)
        << "no commits: the ratio stays 0, the count does not";
    EXPECT_DOUBLE_EQ(rep.threads[0].flushedPerCommit, 10.0 / 4000.0);
}

TEST(MachineReport, IgnoresCountersBeyondMachineThreads)
{
    // Regression: capture() fills miss counters only for the
    // machine's contexts but the report used to scan kMaxThreads,
    // picking up stale garbage in the tail slots.
    MachineSnapshot before = emptySnapshot(2, 0);
    MachineSnapshot after = emptySnapshot(2, 10000);
    after.stats.committed = {4000, 3000};
    after.stats.fetched = {5000, 4000};
    // Garbage beyond numThreads that a full-width scan would report.
    after.stats.committed[3] = 7777;
    after.stats.fetched[3] = 8888;

    MachineReport rep = buildReport(before, after, {});
    EXPECT_EQ(rep.threads.size(), 2u);
    EXPECT_DOUBLE_EQ(rep.totalIpc, (4000.0 + 3000.0) / 10000.0)
        << "total IPC must not include out-of-range counters";
}

TEST(MachineReport, CaptureRecordsThreadCount)
{
    SmtCpu cpu = twoThreadCpu();
    MachineSnapshot s = MachineSnapshot::capture(cpu);
    EXPECT_EQ(s.numThreads, 2);
}

TEST(MachineReport, StalledCyclesCountedByCpu)
{
    SmtCpu cpu = twoThreadCpu();
    MachineSnapshot before = MachineSnapshot::capture(cpu);
    cpu.stallUntil(cpu.now() + 500);
    cpu.run(1000);
    MachineSnapshot after = MachineSnapshot::capture(cpu);
    MachineReport rep = buildReport(before, after, {});
    EXPECT_EQ(rep.stalledCycles, 500u);
}

// ---------------------------------------------------------------
// Hill-climbing measurement fixes, observed through the learner's
// epoch history.

HillConfig
tracedConfig()
{
    HillConfig hc;
    hc.epochSize = 16384;
    hc.metric = PerfMetric::AvgIpc;
    return hc;
}

TEST(HillMeasurement, IpcUsesActualElapsedCycles)
{
    // Regression: per-epoch IPC used to divide by the nominal epoch
    // size although the software-cost stall shortens the executed
    // window; the trace must show the true denominator.
    SmtCpu cpu = twoThreadCpu();
    HillConfig hc = tracedConfig();
    hc.softwareCost = 4096; // a quarter of the epoch, unmissable
    HillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 3; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
    }
    ASSERT_EQ(hill.epochHistory().size(), 3u);
    // First epoch after attach: no stall charged yet.
    EXPECT_EQ(hill.epochHistory()[0].elapsedCycles, hc.epochSize);
    // Every later epoch lost softwareCost cycles to the boundary
    // stall.
    for (std::size_t e = 1; e < 3; ++e)
        EXPECT_EQ(hill.epochHistory()[e].elapsedCycles,
                  hc.epochSize - hc.softwareCost)
            << "epoch " << e;
    // And the IPCs are measured over that shorter window: with a
    // quarter of the epoch stalled, dividing the same commits by the
    // nominal size would understate IPC by exactly 25%.
    const EpochTraceRecord &r = hill.epochHistory()[1];
    EXPECT_GT(r.ipc[0] + r.ipc[1], 0.0);
}

TEST(HillMeasurement, ElapsedConsistentAcrossEpochSizes)
{
    // Running with a *larger* actual epoch than cfg.epochSize used to
    // inflate nothing visibly but skewed IPC by 2x; the trace keeps
    // the denominators honest.
    SmtCpu cpu = twoThreadCpu();
    HillConfig hc = tracedConfig();
    hc.softwareCost = 0;
    HillClimbing hill(hc);
    hill.attach(cpu);
    Cycle actual = 2 * hc.epochSize;
    runOneEpoch(cpu, hill, actual);
    hill.epoch(cpu, 0);
    ASSERT_EQ(hill.epochHistory().size(), 1u);
    EXPECT_EQ(hill.epochHistory()[0].elapsedCycles, actual)
        << "measurement window must follow the machine, not the config";
}

/** @return HILL or PHASE-HILL: the learners that sample solo. */
std::unique_ptr<HillClimbing>
makeSampler(bool phase, const HillConfig &hc)
{
    if (phase)
        return std::make_unique<PhaseHillClimbing>(hc);
    return std::make_unique<HillClimbing>(hc);
}

TEST(HillBootstrap, SamplesEveryThreadBeforeLearning)
{
    // Regression: weighted-metric learners used to run their first
    // samplePeriod * T epochs on all-zero SingleIPC estimates, i.e.
    // on raw IPC. The bootstrap samples each thread solo immediately,
    // except where the caller supplied the thread's estimate.
    HillConfig hc = tracedConfig();
    hc.metric = PerfMetric::WeightedIpc;
    hc.samplePeriod = 40;
    for (bool phase : {false, true}) {
        SCOPED_TRACE(phase ? "PHASE-HILL" : "HILL");
        {
            SCOPED_TRACE("none supplied");
            SmtCpu cpu = twoThreadCpu();
            std::unique_ptr<HillClimbing> hill = makeSampler(phase, hc);
            hill->attach(cpu);

            EXPECT_TRUE(hill->samplingActive());
            EXPECT_TRUE(hill->soloResamplePending(0));
            EXPECT_TRUE(hill->soloResamplePending(1));
            EXPECT_FALSE(cpu.partitioningEnabled())
                << "bootstrap epochs run one thread solo";

            Partition anchor_before = hill->anchor();
            // One solo epoch per thread completes the bootstrap.
            for (int e = 0; e < 2; ++e) {
                EXPECT_TRUE(hill->samplingActive());
                runOneEpoch(cpu, *hill, hc.epochSize);
                hill->epoch(cpu, e);
            }
            EXPECT_FALSE(hill->samplingActive());
            EXPECT_FALSE(hill->soloResamplePending(0));
            EXPECT_FALSE(hill->soloResamplePending(1));
            EXPECT_GT(hill->singleIpc()[0], 0.0);
            EXPECT_GT(hill->singleIpc()[1], 0.0);
            EXPECT_TRUE(cpu.partitioningEnabled())
                << "learning resumes partitioned after the bootstrap";
            EXPECT_TRUE(cpu.threadEnabled(0));
            EXPECT_TRUE(cpu.threadEnabled(1));
            EXPECT_EQ(hill->anchor(), anchor_before)
                << "no anchor moves before estimates exist";

            // The trace labels the bootstrap epochs as sampling epochs.
            ASSERT_EQ(hill->epochHistory().size(), 2u);
            EXPECT_EQ(hill->epochHistory()[0].samplingThread, 0);
            EXPECT_EQ(hill->epochHistory()[1].samplingThread, 1);
            for (const EpochTraceRecord &r : hill->epochHistory())
                EXPECT_FALSE(r.partitioned);
        }
        {
            SCOPED_TRACE("every estimate supplied");
            HillConfig supplied = hc;
            supplied.singleIpc[0] = 1.5;
            supplied.singleIpc[1] = 2.5;
            SmtCpu cpu = twoThreadCpu();
            std::unique_ptr<HillClimbing> hill =
                makeSampler(phase, supplied);
            hill->attach(cpu);

            EXPECT_FALSE(hill->samplingActive());
            EXPECT_FALSE(hill->soloResamplePending(0));
            EXPECT_FALSE(hill->soloResamplePending(1));
            EXPECT_TRUE(cpu.partitioningEnabled())
                << "attach installs a trial at once";
            for (int e = 0; e < 2; ++e) {
                runOneEpoch(cpu, *hill, hc.epochSize);
                hill->epoch(cpu, e);
            }
            ASSERT_EQ(hill->epochHistory().size(), 2u);
            for (const EpochTraceRecord &r : hill->epochHistory()) {
                EXPECT_EQ(r.samplingThread, -1);
                EXPECT_TRUE(r.partitioned);
            }
            EXPECT_EQ(hill->singleIpc(), supplied.singleIpc);
        }
        {
            SCOPED_TRACE("one of two supplied");
            HillConfig supplied = hc;
            supplied.singleIpc[0] = 1.5;
            SmtCpu cpu = twoThreadCpu();
            std::unique_ptr<HillClimbing> hill =
                makeSampler(phase, supplied);
            hill->attach(cpu);

            EXPECT_TRUE(hill->samplingActive());
            EXPECT_FALSE(hill->soloResamplePending(0));
            EXPECT_TRUE(hill->soloResamplePending(1));
            EXPECT_FALSE(cpu.threadEnabled(0))
                << "only the unsupplied thread runs solo";
            EXPECT_TRUE(cpu.threadEnabled(1));
            runOneEpoch(cpu, *hill, hc.epochSize);
            hill->epoch(cpu, 0);

            EXPECT_FALSE(hill->samplingActive());
            EXPECT_TRUE(cpu.partitioningEnabled());
            ASSERT_EQ(hill->epochHistory().size(), 1u);
            EXPECT_EQ(hill->epochHistory()[0].samplingThread, 1);
            EXPECT_DOUBLE_EQ(hill->singleIpc()[0], 1.5);
            EXPECT_GT(hill->singleIpc()[1], 0.0);
        }
    }
}

TEST(HillBootstrap, SkippedWhenMetricNeedsNoEstimates)
{
    SmtCpu cpu = twoThreadCpu();
    HillClimbing hill(tracedConfig()); // AvgIpc, no sampling
    hill.attach(cpu);
    EXPECT_FALSE(hill.soloResamplePending(0));
    EXPECT_FALSE(hill.soloResamplePending(1));
    EXPECT_FALSE(hill.samplingActive());
    EXPECT_TRUE(cpu.partitioningEnabled());
}

TEST(HillBootstrap, EstimatesExposedInTrace)
{
    SmtCpu cpu = twoThreadCpu();
    HillConfig hc = tracedConfig();
    hc.metric = PerfMetric::WeightedIpc;
    HillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 3; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
    }
    // The first post-bootstrap record carries both estimates.
    const EpochTraceRecord &r = hill.epochHistory()[2];
    EXPECT_GT(r.singleIpcEst[0], 0.0);
    EXPECT_GT(r.singleIpcEst[1], 0.0);
}

// ---------------------------------------------------------------
// Partition-move properties.

Partition
makeAnchor(const std::vector<int> &shares)
{
    Partition p;
    p.numThreads = static_cast<int>(shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i)
        p.share[i] = shares[i];
    return p;
}

void
expectValidMove(const Partition &anchor, const Partition &moved,
                int min_share, const char *what)
{
    EXPECT_EQ(moved.numThreads, anchor.numThreads);
    EXPECT_EQ(moved.total(), anchor.total())
        << what << " must conserve the machine total";
    for (int i = 0; i < moved.numThreads; ++i)
        EXPECT_GE(moved.share[i], min_share)
            << what << " share " << i << " under the floor";
}

TEST(PartitionMoves, PreserveTotalAndFloorAcrossAnchorSpace)
{
    const int total = 256;
    const int min_share = 4;
    for (int nt : {2, 3, 4}) {
        // Walk a grid of anchors: thread 0 takes s, the remainder is
        // spread as evenly as integer division allows.
        for (int s = min_share; s <= total - (nt - 1) * min_share;
             s += 12) {
            std::vector<int> shares(nt, 0);
            shares[0] = s;
            int rest = total - s;
            for (int i = 1; i < nt; ++i) {
                int give = rest / (nt - i);
                shares[i] = give;
                rest -= give;
            }
            Partition anchor = makeAnchor(shares);
            ASSERT_EQ(anchor.total(), total);
            for (int delta : {1, 4, 19}) {
                for (int favored = 0; favored < nt; ++favored) {
                    expectValidMove(
                        anchor,
                        trialPartition(anchor, favored, delta, min_share),
                        min_share, "trialPartition");
                    expectValidMove(
                        anchor,
                        moveAnchor(anchor, favored, delta, min_share),
                        min_share, "moveAnchor");
                }
            }
        }
    }
}

TEST(PartitionMoves, ExtremeAnchorsStayValid)
{
    const int total = 256;
    const int min_share = 4;
    for (int nt : {2, 4}) {
        // One thread holds everything the floor allows; the donors
        // have zero headroom, so any delta must clamp, not go
        // negative.
        std::vector<int> shares(nt, min_share);
        shares[0] = total - (nt - 1) * min_share;
        Partition fat = makeAnchor(shares);
        for (int delta : {4, 64, 1000}) {
            for (int favored = 0; favored < nt; ++favored) {
                expectValidMove(fat,
                                trialPartition(fat, favored, delta,
                                               min_share),
                                min_share, "trialPartition@extreme");
                expectValidMove(fat,
                                moveAnchor(fat, favored, delta,
                                           min_share),
                                min_share, "moveAnchor@extreme");
            }
        }
        // Favoring the fat thread with a delta larger than every
        // donor's headroom combined must cap at the floor exactly.
        Partition t = trialPartition(fat, 0, 1000, min_share);
        for (int i = 1; i < nt; ++i)
            EXPECT_EQ(t.share[i], min_share);
        EXPECT_EQ(t.share[0], total - (nt - 1) * min_share);
    }
}

} // namespace
} // namespace smthill
