/**
 * @file
 * Unit tests for Partition and the proportional limit derivation of
 * Section 3.1.2.
 */

#include <gtest/gtest.h>

#include "pipeline/resources.hh"
#include "pipeline/smt_config.hh"

namespace smthill
{
namespace
{

TEST(Partition, EqualSplitsExactly)
{
    Partition p = Partition::equal(2, 256);
    EXPECT_EQ(p.share[0], 128);
    EXPECT_EQ(p.share[1], 128);
    EXPECT_EQ(p.total(), 256);
}

TEST(Partition, EqualHandlesRemainder)
{
    Partition p = Partition::equal(3, 256);
    EXPECT_EQ(p.total(), 256);
    for (int i = 0; i < 3; ++i) {
        EXPECT_GE(p.share[i], 85);
        EXPECT_LE(p.share[i], 86);
    }
}

TEST(Partition, ClampMinPreservesTotal)
{
    Partition p;
    p.numThreads = 3;
    p.share = {2, 250, 4};
    p.clampMin(8);
    EXPECT_EQ(p.total(), 256);
    for (int i = 0; i < 3; ++i)
        EXPECT_GE(p.share[i], 8);
}

TEST(Partition, ClampMinInfeasibleFloorDegrades)
{
    // Regression (fuzzer stage A): min_share 100 x 3 threads > 256 is
    // infeasible; clampMin used to bail out half-done, leaving shares
    // below every floor. It must degrade to the best feasible floor
    // (total / numThreads = 85) and still conserve the total.
    Partition p;
    p.numThreads = 3;
    p.share = {100, 56, 100};
    p.clampMin(100);
    EXPECT_EQ(p.total(), 256);
    for (int i = 0; i < 3; ++i)
        EXPECT_GE(p.share[i], 85) << p.str();
}

TEST(Partition, ClampMinExactlyFeasibleFloor)
{
    // min_share * numThreads == total: the only valid result is the
    // equal split.
    Partition p;
    p.numThreads = 4;
    p.share = {0, 0, 0, 256};
    p.clampMin(64);
    EXPECT_EQ(p.total(), 256);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(p.share[i], 64) << p.str();
}

TEST(Partition, ClampMinLeavesFeasiblePartitionsAlone)
{
    Partition p;
    p.numThreads = 3;
    p.share = {10, 116, 130};
    Partition before = p;
    p.clampMin(8);
    EXPECT_EQ(p, before);
}

TEST(Partition, StrFormat)
{
    Partition p;
    p.numThreads = 2;
    p.share = {100, 156};
    EXPECT_EQ(p.str(), "100/156");
}

TEST(DeriveLimits, ProportionalScaling)
{
    SmtConfig cfg;
    Partition p;
    p.numThreads = 2;
    p.share = {64, 192};
    DerivedLimits lim = deriveLimits(p, cfg);
    EXPECT_EQ(lim.intRegs[0], 64);
    EXPECT_EQ(lim.intRegs[1], 192);
    // 64/256 of the 80-entry IQ and 512-entry ROB.
    EXPECT_EQ(lim.intIq[0], 20);
    EXPECT_EQ(lim.intIq[1], 60);
    EXPECT_EQ(lim.rob[0], 128);
    EXPECT_EQ(lim.rob[1], 384);
}

TEST(DeriveLimits, MinimumOfOne)
{
    SmtConfig cfg;
    Partition p;
    p.numThreads = 2;
    p.share = {0, 256};
    DerivedLimits lim = deriveLimits(p, cfg);
    EXPECT_GE(lim.intRegs[0], 1);
    EXPECT_GE(lim.intIq[0], 1);
    EXPECT_GE(lim.rob[0], 1);
}

TEST(Occupancy, Totals)
{
    Occupancy o;
    o.intIq = {3, 4, 0, 0, 0, 0, 0, 0};
    o.rob = {10, 20, 30, 0, 0, 0, 0, 0};
    EXPECT_EQ(o.totalIntIq(), 7);
    EXPECT_EQ(o.totalRob(), 60);
    EXPECT_EQ(o.totalLsq(), 0);
}

TEST(SmtConfig, DefaultsMatchTable1)
{
    SmtConfig cfg;
    EXPECT_EQ(cfg.fetchWidth, 8);
    EXPECT_EQ(cfg.issueWidth, 8);
    EXPECT_EQ(cfg.commitWidth, 8);
    EXPECT_EQ(cfg.ifqSize, 32);
    EXPECT_EQ(cfg.intIqSize, 80);
    EXPECT_EQ(cfg.fpIqSize, 80);
    EXPECT_EQ(cfg.lsqSize, 256);
    EXPECT_EQ(cfg.intRegs, 256);
    EXPECT_EQ(cfg.fpRegs, 256);
    EXPECT_EQ(cfg.robSize, 512);
    EXPECT_EQ(cfg.intAddUnits, 6);
    EXPECT_EQ(cfg.intMulUnits, 3);
    EXPECT_EQ(cfg.memPorts, 4);
    EXPECT_EQ(cfg.fpAddUnits, 3);
    EXPECT_EQ(cfg.fpMulUnits, 3);
    EXPECT_EQ(cfg.mem.il1.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.mem.dl1.ways, 2u);
    EXPECT_EQ(cfg.mem.ul2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.mem.ul2.ways, 4u);
    EXPECT_EQ(cfg.mem.l2Latency, 20u);
    EXPECT_EQ(cfg.mem.memFirstChunk, 300u);
    EXPECT_EQ(cfg.mem.memInterChunk, 6u);
    EXPECT_EQ(cfg.gshareEntries, 8192u);
    EXPECT_EQ(cfg.bimodalEntries, 2048u);
    EXPECT_EQ(cfg.metaEntries, 8192u);
    EXPECT_EQ(cfg.btbEntries, 2048u);
    EXPECT_EQ(cfg.btbWays, 4u);
    cfg.validate(); // must not abort
}

} // namespace
} // namespace smthill
