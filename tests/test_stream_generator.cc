/**
 * @file
 * Unit tests for the synthetic instruction stream generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "trace/spec_profiles.hh"
#include "trace/stream_generator.hh"

namespace smthill
{
namespace
{

ProgramProfile
toyProfile(int freq_class = 0)
{
    ProfileParams pp;
    pp.name = "toy";
    pp.numBlocks = 8;
    pp.avgBlockLen = 6;
    pp.freqClass = freq_class;
    pp.pLoadCold = 0.05;
    pp.pLoadWarm = 0.05;
    pp.burstProb = 0.5;
    pp.burstMax = 4;
    return buildProfile(pp);
}

TEST(StreamGenerator, Deterministic)
{
    StreamGenerator a(toyProfile(), 0), b(toyProfile(), 0);
    for (int i = 0; i < 5000; ++i) {
        SynthInst x = a.next(), y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.op, y.op);
        ASSERT_EQ(x.effAddr, y.effAddr);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.srcDist[0], y.srcDist[0]);
    }
}

TEST(StreamGenerator, StreamSeedChangesStream)
{
    // The CFG walk (and thus the PC sequence) can coincide early, but
    // data addresses and op choices must diverge across stream seeds.
    StreamGenerator a(toyProfile(), 0), b(toyProfile(), 1);
    int same = 0;
    for (int i = 0; i < 500; ++i) {
        SynthInst x = a.next(), y = b.next();
        same += x.effAddr == y.effAddr && x.op == y.op;
    }
    EXPECT_LT(same, 450);
}

TEST(StreamGenerator, CopyResumesStream)
{
    StreamGenerator a(toyProfile(), 0);
    for (int i = 0; i < 1234; ++i)
        a.next();
    StreamGenerator b = a;
    for (int i = 0; i < 2000; ++i) {
        SynthInst x = a.next(), y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.op, y.op);
        ASSERT_EQ(x.effAddr, y.effAddr);
    }
}

TEST(StreamGenerator, BlocksEndWithBranches)
{
    StreamGenerator g(toyProfile(), 0);
    const auto &prof = g.profile();
    std::uint32_t cur_block = 0;
    std::uint32_t pos = 0;
    for (int i = 0; i < 20000; ++i) {
        SynthInst inst = g.next();
        ASSERT_EQ(inst.blockId, cur_block);
        if (pos < prof.blocks[cur_block].length) {
            ASSERT_NE(inst.op, OpClass::Branch);
            ++pos;
        } else {
            ASSERT_EQ(inst.op, OpClass::Branch);
            cur_block = inst.taken ? prof.blocks[cur_block].takenTarget
                                   : prof.blocks[cur_block].fallTarget;
            pos = 0;
        }
    }
}

TEST(StreamGenerator, BranchTargetsMatchCfg)
{
    StreamGenerator g(toyProfile(), 0);
    const auto &prof = g.profile();
    for (int i = 0; i < 20000; ++i) {
        SynthInst inst = g.next();
        if (!inst.isBranch())
            continue;
        std::uint32_t succ = inst.taken
                                 ? prof.blocks[inst.blockId].takenTarget
                                 : prof.blocks[inst.blockId].fallTarget;
        ASSERT_EQ(inst.target, prof.blockPc(succ));
    }
}

TEST(StreamGenerator, DependenceDistancesInRange)
{
    StreamGenerator g(toyProfile(), 0);
    for (std::uint64_t i = 0; i < 50000; ++i) {
        SynthInst inst = g.next();
        for (int k = 0; k < 2; ++k) {
            ASSERT_GE(inst.srcDist[k], 0);
            ASSERT_LE(static_cast<std::uint64_t>(inst.srcDist[k]), i)
                << "dependence reaches before program start";
            ASSERT_LE(inst.srcDist[k], 512);
        }
    }
}

TEST(StreamGenerator, LoadsAndStoresHaveAddresses)
{
    StreamGenerator g(toyProfile(), 0);
    int mem_ops = 0;
    for (int i = 0; i < 20000; ++i) {
        SynthInst inst = g.next();
        if (isMemOp(inst.op)) {
            ++mem_ops;
            ASSERT_NE(inst.effAddr, 0u);
        }
    }
    EXPECT_GT(mem_ops, 1000);
}

TEST(StreamGenerator, ColdLoadsMissDistinctLines)
{
    // Cold (streaming) loads advance a full cache line every access,
    // so their line addresses must all be distinct within a window.
    ProfileParams pp;
    pp.name = "cold";
    pp.pLoadCold = 1.0;
    pp.pLoadWarm = 0.0;
    pp.loadFrac = 0.5;
    ProgramProfile prof = buildProfile(pp);
    StreamGenerator g(prof, 0);
    std::set<Addr> lines;
    int loads = 0;
    for (int i = 0; i < 20000 && loads < 1000; ++i) {
        SynthInst inst = g.next();
        // Per-block miss-bias diverts some loads to the hot region;
        // the streaming (cold-region) ones must never repeat a line.
        if (inst.isLoad() && inst.effAddr >= 0x4000'0000) {
            ++loads;
            ASSERT_TRUE(lines.insert(inst.effAddr >> 6).second)
                << "cold load revisited a line";
        }
    }
    EXPECT_GE(loads, 1000);
}

TEST(StreamGenerator, HotLoadsStayInHotRegion)
{
    ProfileParams pp;
    pp.name = "hot";
    pp.pLoadCold = 0.0;
    pp.pLoadWarm = 0.0;
    pp.hotBytes = 4096;
    ProgramProfile prof = buildProfile(pp);
    StreamGenerator g(prof, 0);
    for (int i = 0; i < 20000; ++i) {
        SynthInst inst = g.next();
        if (inst.isLoad()) {
            ASSERT_GE(inst.effAddr, prof.dataBase);
            ASSERT_LT(inst.effAddr, prof.dataBase + prof.hotBytes);
        }
    }
}

TEST(StreamGenerator, PhaseAdvancesWithInstructions)
{
    ProgramProfile prof = toyProfile(2);
    ASSERT_EQ(prof.phases.size(), 2u);
    StreamGenerator g(prof, 0);
    std::uint64_t phase0_len = prof.phases[0].lengthInsts;
    for (std::uint64_t i = 0; i < phase0_len; ++i)
        g.next();
    EXPECT_EQ(g.currentPhase(), 1u);
}

TEST(StreamGenerator, EmittedCountTracks)
{
    StreamGenerator g(toyProfile(), 0);
    for (int i = 0; i < 321; ++i)
        g.next();
    EXPECT_EQ(g.emittedCount(), 321u);
}

TEST(StreamGenerator, OpMixRoughlyMatchesProfile)
{
    StreamGenerator g(specProfile("bzip2"), 0);
    std::map<OpClass, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[g.next().op]++;
    double load_frac = static_cast<double>(counts[OpClass::Load]) / n;
    double br_frac = static_cast<double>(counts[OpClass::Branch]) / n;
    EXPECT_NEAR(load_frac, 0.24, 0.08); // loadFrac ~0.26 minus branches
    EXPECT_GT(br_frac, 0.04);
    EXPECT_LT(br_frac, 0.20);
    EXPECT_EQ(counts[OpClass::FpAlu] + counts[OpClass::FpMul], 0)
        << "bzip2 is an integer benchmark";
}

TEST(StreamGenerator, FpBenchmarkEmitsFpOps)
{
    StreamGenerator g(specProfile("swim"), 0);
    int fp = 0;
    for (int i = 0; i < 20000; ++i)
        fp += isFpOp(g.next().op);
    EXPECT_GT(fp, 2000);
}

TEST(StreamGenerator, BurstsProduceIndependentColdLoads)
{
    StreamGenerator g(specProfile("swim"), 0);
    int independent_cold = 0;
    for (int i = 0; i < 200000; ++i) {
        SynthInst inst = g.next();
        if (inst.isLoad() && inst.effAddr >= 0x4000'0000 &&
            inst.srcDist[0] == 0 && inst.srcDist[1] == 0)
            ++independent_cold;
    }
    EXPECT_GT(independent_cold, 500)
        << "swim should exhibit clustered, independent misses";
}

/** 64-bit FNV-1a over @p v's low @p bytes bytes, little-endian. */
void
fnvMix(std::uint64_t &h, std::uint64_t v, int bytes = 8)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** Digest of every field of the first @p n instructions of a stream. */
std::uint64_t
streamDigest(const std::string &bench, std::uint64_t stream_seed, int n)
{
    StreamGenerator g(specProfile(bench), stream_seed);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < n; ++i) {
        const SynthInst inst = g.next();
        fnvMix(h, inst.pc);
        fnvMix(h, inst.effAddr);
        fnvMix(h, inst.target);
        fnvMix(h, inst.blockId, 4);
        fnvMix(h, static_cast<std::uint32_t>(inst.srcDist[0]), 4);
        fnvMix(h, static_cast<std::uint32_t>(inst.srcDist[1]), 4);
        fnvMix(h, static_cast<std::uint8_t>(inst.op), 1);
        fnvMix(h, inst.taken ? 1 : 0, 1);
    }
    return h;
}

TEST(StreamGenerator, DepTableMatchesFormula)
{
    std::set<int> means = {1, 2, 100'000'000};
    for (const std::string &bench : specBenchmarkNames())
        for (const PhaseSpec &ph : specProfile(bench).phases)
            means.insert(ph.meanDepDist);
    constexpr int kMax = DepDistTable::kMaxDist;
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    for (int mean : means) {
        SCOPED_TRACE(mean);
        const DepDistTable table(mean);
        Rng rng(static_cast<std::uint64_t>(mean));
        if (mean <= 1) {
            // Degenerate: always 1, and no draw is consumed.
            ASSERT_TRUE(table.degenerate());
            const Rng before = rng;
            EXPECT_EQ(table.draw(rng), 1);
            EXPECT_EQ(rng, before);
            continue;
        }
        ASSERT_FALSE(table.degenerate());
        const double log1p_neg_p = std::log1p(-1.0 / mean);
        auto formula = [&](std::uint64_t x) {
            return geometricFromDraw(x, log1p_neg_p, kMax);
        };
        // Around every step of the inverse CDF, T - 1 and T included.
        // Near the top a single step can pass several values at once.
        for (int v = 1; v < kMax; ++v) {
            const std::uint64_t t = table.threshold(v);
            if (t == kDraws)
                continue;
            EXPECT_LE(formula(t - 1), v) << "threshold " << v;
            EXPECT_GT(formula(t), v) << "threshold " << v;
            const std::uint64_t lo = t < 64 ? 0 : t - 64;
            const std::uint64_t hi = std::min(kDraws - 1, t + 64);
            for (std::uint64_t x = lo; x <= hi; ++x)
                ASSERT_EQ(table.valueOf(x), formula(x)) << "draw " << x;
        }
        for (std::uint64_t x : {std::uint64_t{0}, kDraws - 1})
            EXPECT_EQ(table.valueOf(x), formula(x)) << "draw " << x;
        // Random draws, each consuming exactly what nextGeometric does.
        for (int i = 0; i < 1'000'000; ++i) {
            Rng oracle = rng;
            const int drawn = table.draw(rng);
            ASSERT_EQ(drawn, oracle.nextGeometric(1.0 / mean, kMax));
            ASSERT_EQ(rng, oracle);
        }
    }
    // A quotient past INT_MAX clamps to the cap instead of overflowing.
    EXPECT_EQ(geometricFromDraw(kDraws - 1, std::log1p(-1e-9), kMax), kMax);
}

TEST(StreamGenerator, StreamsMatchParentDigest)
{
    // Pinned from the generator as it was before the dependence
    // distance became a table lookup (every draw then went through
    // log1p). Any change to what the generator emits, or to how much
    // randomness it consumes, changes these digests.
    struct Pinned
    {
        const char *bench;
        std::uint64_t seed0; ///< stream seed 0
        std::uint64_t seed5; ///< stream seed 5
    };
    const Pinned pinned[] = {
        {"bzip2", 0x0f46a5e9d57eafccULL, 0x3586c96060b537f4ULL},
        {"perlbmk", 0xd68d957aee0b69a2ULL, 0x429637c87740dd18ULL},
        {"eon", 0x6f4e5afc7db21267ULL, 0x4fb63f1a94b2e00fULL},
        {"vortex", 0xfc6a9028d1d947a9ULL, 0xaf0a60441a9091f1ULL},
        {"gzip", 0xcfee2ccac36eb2ffULL, 0xb006231f4b770483ULL},
        {"parser", 0xc09f94ff23bc6e63ULL, 0xa7690551de261197ULL},
        {"gap", 0x1a43940df9609a81ULL, 0x677410d093911ea6ULL},
        {"crafty", 0x233bb254c24a2b54ULL, 0xe08bc3542f7b2b03ULL},
        {"gcc", 0x0a2158a2b07593f3ULL, 0xa1524d82c96d7131ULL},
        {"apsi", 0x6e21359c5ac25a1aULL, 0x17590b62d9494b19ULL},
        {"fma3d", 0x96b9a70e7331f961ULL, 0xef935284ace1109aULL},
        {"wupwise", 0xb79beb9e16de4639ULL, 0x358c9d508e96954dULL},
        {"mesa", 0x483d3841440544a3ULL, 0x196d423838ed6cd9ULL},
        {"equake", 0xc3052ba082c0d38cULL, 0xbffb343786883d6bULL},
        {"vpr", 0x42fe9d95aa85ab91ULL, 0xf97cbbb97a8d058eULL},
        {"mcf", 0x856c914b7f5fe8efULL, 0xa1f317275e592755ULL},
        {"twolf", 0xad7b296d32143e90ULL, 0x40d780c76bf79f1dULL},
        {"art", 0xb1ab6267a648a1c5ULL, 0x4f772cf60fd22e23ULL},
        {"lucas", 0xf094a02c977d30f0ULL, 0x334e9467ff751976ULL},
        {"ammp", 0xa2c57e91ea331df1ULL, 0xfa8c1bbedec13a60ULL},
        {"swim", 0xa091f839e914ca86ULL, 0x5432aaed0e1c241fULL},
        {"applu", 0x48a260bc68950c5bULL, 0x8ff1d5ea39e5e1c4ULL},
    };
    ASSERT_EQ(std::size(pinned), specBenchmarkNames().size());
    for (const Pinned &p : pinned) {
        const std::uint64_t d0 = streamDigest(p.bench, 0, 200000);
        const std::uint64_t d5 = streamDigest(p.bench, 5, 200000);
        EXPECT_EQ(d0, p.seed0) << p.bench << " seed 0: 0x" << std::hex << d0;
        EXPECT_EQ(d5, p.seed5) << p.bench << " seed 5: 0x" << std::hex << d5;
    }
}

} // namespace
} // namespace smthill
