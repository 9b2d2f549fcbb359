/**
 * @file
 * Unit tests for the phase machinery: BBVs, phase table, Markov
 * predictor, and phase-based hill climbing (Section 5).
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "phase/bbv.hh"
#include "phase/markov_predictor.hh"
#include "phase/phase_hill.hh"
#include "phase/phase_table.hh"

namespace smthill
{
namespace
{

TEST(Bbv, HarvestNormalizes)
{
    BbvAccumulator acc(2);
    acc.record(0, 3, 10);
    acc.record(0, 5, 30);
    acc.record(1, 3, 60);
    EXPECT_EQ(acc.accumulated(), 100u);
    BbvSignature sig = acc.harvest();
    double sum = 0;
    for (double w : sig.weights)
        sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_EQ(sig.weights.size(), 2u * kBbvEntries);
    EXPECT_EQ(acc.accumulated(), 0u) << "harvest resets";
}

TEST(Bbv, DistanceZeroForIdentical)
{
    BbvAccumulator a(1), b(1);
    for (int i = 0; i < 10; ++i) {
        a.record(0, i, 5);
        b.record(0, i, 5);
    }
    EXPECT_NEAR(a.harvest().distance(b.harvest()), 0.0, 1e-12);
}

TEST(Bbv, DistanceLargeForDisjointBlocks)
{
    BbvAccumulator a(1), b(1);
    a.record(0, 1, 100);
    b.record(0, 2, 100);
    double d = a.harvest().distance(b.harvest());
    EXPECT_NEAR(d, 2.0, 1e-9) << "disjoint unit vectors are 2 apart";
}

TEST(Bbv, ThreadsOccupySeparateRegions)
{
    BbvAccumulator a(2), b(2);
    a.record(0, 1, 100);
    b.record(1, 1, 100);
    EXPECT_NEAR(a.harvest().distance(b.harvest()), 2.0, 1e-9);
}

TEST(Bbv, EmptyHarvestIsSafe)
{
    BbvAccumulator acc(1);
    BbvSignature sig = acc.harvest();
    double sum = 0;
    for (double w : sig.weights)
        sum += w;
    EXPECT_DOUBLE_EQ(sum, 0.0);
}

BbvSignature
sigFor(int hot_block, int threads = 1)
{
    BbvAccumulator acc(threads);
    acc.record(0, hot_block, 100);
    acc.record(0, hot_block + 17, 10);
    return acc.harvest();
}

TEST(PhaseTable, SameSignatureSameId)
{
    PhaseTable table;
    int a = table.classify(sigFor(1));
    int b = table.classify(sigFor(1));
    EXPECT_EQ(a, b);
    EXPECT_EQ(table.size(), 1);
}

TEST(PhaseTable, DifferentSignaturesDifferentIds)
{
    PhaseTable table;
    int a = table.classify(sigFor(1));
    int b = table.classify(sigFor(30));
    EXPECT_NE(a, b);
    EXPECT_EQ(table.size(), 2);
}

TEST(PhaseTable, NearbySignaturesMatch)
{
    PhaseTable table(128, 0.5);
    BbvAccumulator a(1), b(1);
    a.record(0, 1, 100);
    a.record(0, 2, 10);
    b.record(0, 1, 100);
    b.record(0, 2, 14); // slightly different weighting
    int ia = table.classify(a.harvest());
    int ib = table.classify(b.harvest());
    EXPECT_EQ(ia, ib);
}

TEST(PhaseTable, LruRecyclingWhenFull)
{
    PhaseTable table(2, 0.1);
    int a = table.classify(sigFor(1));
    table.classify(sigFor(20));
    table.classify(sigFor(40)); // recycles the LRU entry (block 1)
    EXPECT_EQ(table.size(), 2);
    int a2 = table.classify(sigFor(1));
    EXPECT_NE(a, a2) << "block-1 phase was evicted and re-founded";
}

TEST(PhaseTable, IdsStayBoundedByCapacity)
{
    // Regression (fuzzer stage B): recycling used to mint a fresh
    // nextId++ for every evicted entry, so an arbitrary signature
    // stream grew phase IDs without bound — and with them every
    // structure keyed by phase ID. A recycled slot keeps its ID.
    PhaseTable table(4, 0.05);
    for (int i = 0; i < 40; ++i) {
        int id = table.classify(sigFor(i * 3 + 1));
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 4) << "phase ID escaped the table capacity";
    }
    EXPECT_LE(table.size(), 4);
}

TEST(PhaseTable, RecycledFlagSignalsStaleId)
{
    PhaseTable table(1, 0.05);
    bool recycled = true;
    int a = table.classify(sigFor(1), &recycled);
    EXPECT_FALSE(recycled) << "first insert does not recycle";
    int b = table.classify(sigFor(30), &recycled);
    EXPECT_TRUE(recycled) << "eviction must be visible to consumers";
    EXPECT_EQ(a, b) << "the slot keeps its ID across recycling";
    bool again = true;
    table.classify(sigFor(30), &again);
    EXPECT_FALSE(again) << "a plain hit does not recycle";
}

TEST(Markov, LearnsAlternation)
{
    MarkovPhasePredictor mp(256);
    // Pattern: 3 epochs of phase 0, then 2 of phase 1, repeated.
    for (int rep = 0; rep < 30; ++rep) {
        for (int i = 0; i < 3; ++i)
            mp.observe(0);
        for (int i = 0; i < 2; ++i)
            mp.observe(1);
    }
    // At the end of a full cycle the next phase is 0; feed 3 zeros
    // and expect it to predict the switch to 1.
    mp.observe(0);
    mp.observe(0);
    EXPECT_EQ(mp.predict(), 0) << "mid-run predicts continuation";
    mp.observe(0);
    EXPECT_EQ(mp.predict(), 1) << "end of run-length-3 predicts switch";
}

TEST(Markov, FallbackIsLastValue)
{
    MarkovPhasePredictor mp(256);
    mp.observe(7);
    EXPECT_EQ(mp.predict(), 7);
}

TEST(Markov, ColdStartSaysDontKnow)
{
    // Regression (fuzzer stage B): before any observation the
    // predictor used to answer phase 0 — indistinguishable from a
    // real prediction of phase 0, so consumers could act on pure
    // noise. Cold start must answer -1.
    MarkovPhasePredictor mp(256);
    EXPECT_EQ(mp.predict(), -1);
    mp.observe(3);
    EXPECT_EQ(mp.predict(), 3) << "one observation ends cold start";
}

TEST(Markov, RunLengthSaturatesWithoutCorruption)
{
    // Run lengths are folded into a 16-bit tag; a run longer than
    // 65535 epochs must saturate instead of wrapping into a tag that
    // aliases short runs.
    MarkovPhasePredictor mp(256);
    for (int i = 0; i < 70000; ++i)
        mp.observe(5);
    EXPECT_EQ(mp.predict(), 5) << "a monotone stream predicts itself";
    mp.observe(9);
    int p = mp.predict();
    EXPECT_TRUE(p == 5 || p == 9) << "prediction left the alphabet";
}

TEST(Markov, AccuracyTracksStablePattern)
{
    MarkovPhasePredictor mp(256);
    for (int i = 0; i < 200; ++i)
        mp.observe(i / 100); // two long runs
    EXPECT_GT(mp.accuracy(), 0.95);
    EXPECT_GT(mp.predictions(), 100u);
}

TEST(Markov, RejectsNonPow2)
{
    EXPECT_DEATH(MarkovPhasePredictor mp(100), "power of two");
}

ProgramProfile
phasedProfile(const char *name)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 16;
    pp.avgBlockLen = 8;
    pp.freqClass = 1;
    pp.phaseSwing = 0.8;
    pp.pLoadCold = 0.05;
    pp.ipcEstimate = 0.8;
    return buildProfile(pp);
}

TEST(PhaseHill, RunsAndDetectsPhases)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(phasedProfile("pa"), 0);
    gens.emplace_back(phasedProfile("pb"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(50000);

    HillConfig hc;
    hc.epochSize = 16384;
    hc.metric = PerfMetric::AvgIpc;
    PhaseHillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 30; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
    }
    EXPECT_GE(hill.phasesSeen(), 1);
    EXPECT_GT(cpu.stats().committedTotal(), 10000u);
}

TEST(PhaseHill, LearnedPartitionsStayBounded)
{
    // Regression (fuzzer stage B): unbounded phase IDs made the
    // learned phase -> partition map grow without limit. IDs now stay
    // inside the table capacity and recycling drops the stale entry.
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(phasedProfile("pa"), 0);
    gens.emplace_back(phasedProfile("pb"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(50000);

    HillConfig hc;
    hc.epochSize = 8192;
    hc.metric = PerfMetric::AvgIpc;
    PhaseHillClimbing hill(hc);
    hill.attach(cpu);
    for (int e = 0; e < 60; ++e) {
        runOneEpoch(cpu, hill, hc.epochSize);
        hill.epoch(cpu, e);
    }
    EXPECT_LE(hill.learnedPartitions().size(), 128u);
    for (const auto &[phase, part] : hill.learnedPartitions()) {
        EXPECT_GE(phase, 0);
        EXPECT_LT(phase, 128);
        EXPECT_EQ(part.numThreads, 2);
    }
}

TEST(PhaseHill, NameAndClone)
{
    PhaseHillClimbing hill;
    EXPECT_EQ(hill.name(), "PHASE-HILL-WIPC");
    auto c = hill.clone();
    EXPECT_EQ(c->name(), "PHASE-HILL-WIPC");
}

TEST(PhaseHill, ObserverSurvivesReattach)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(phasedProfile("pa"), 0);
    gens.emplace_back(phasedProfile("pb"), 1);
    SmtCpu cpu(cfg, std::move(gens));

    PhaseHillClimbing hill;
    hill.attach(cpu);
    auto clone = hill.clone();
    SmtCpu cpu2 = cpu;
    clone->attach(cpu2); // re-registers the observer on the copy
    cpu2.run(30000);
    auto *ph = dynamic_cast<PhaseHillClimbing *>(clone.get());
    ASSERT_NE(ph, nullptr);
}

} // namespace
} // namespace smthill
