/**
 * @file
 * Deterministic synthetic instruction stream generator.
 *
 * A StreamGenerator walks a ProgramProfile's CFG and emits SynthInst
 * records one at a time. All of its *mutable* state is held by value,
 * so a copy of a generator resumes the stream at exactly the same
 * point — this is what lets the SMT core checkpoint whole machines for
 * OFF-LINE exhaustive learning and RAND-HILL.
 *
 * The profile and everything derived from it (block PCs, op-mix
 * normalizers, per-phase dependence-distance tables, the per-phase x
 * per-block miss periods) are immutable after
 * construction, so they live behind a shared_ptr: checkpointing a
 * machine bumps a refcount instead of copying kilobytes of constant
 * tables, and trial machines on pool workers read them concurrently
 * without synchronization.
 */

#ifndef SMTHILL_TRACE_STREAM_GENERATOR_HH
#define SMTHILL_TRACE_STREAM_GENERATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/instruction.hh"
#include "trace/program_profile.hh"

namespace smthill
{

/**
 * One phase's dependence-distance draw as an inverse-CDF table. The
 * distance is the truncated geometric Rng::nextGeometric(1 / mean,
 * kMaxDist) would return, and the table consumes the Rng exactly as
 * that call does (one next() per draw, none when mean <= 1), so it is
 * bit-identical to it. Instead of a log1p per draw, a draw starts at
 * the distance of its 1/256 bucket and steps up past each threshold
 * it reaches. The thresholds, where geometricFromDraw() steps up, are
 * found once by bisection.
 */
class DepDistTable
{
  public:
    /** Longest dependence distance the generator emits. */
    static constexpr int kMaxDist = 512;

    /** Build the table for a phase's meanDepDist. */
    explicit DepDistTable(int mean_dep_dist);

    /** @return true for mean <= 1: every draw is 1 and takes no Rng. */
    bool degenerate() const { return isDegenerate; }

    /**
     * @return the least 53-bit draw whose distance exceeds @p v, for
     * 1 <= v < kMaxDist; 2^53 when no draw does.
     */
    std::uint64_t threshold(int v) const { return thresh[v]; }

    /** @return the distance of the 53-bit draw @p draw53. */
    int
    valueOf(std::uint64_t draw53) const
    {
        int v = bucketStart[draw53 >> kBucketShift];
        while (draw53 >= thresh[v])
            ++v;
        return v;
    }

    /** Draw one distance from @p rng. */
    int
    draw(Rng &rng) const
    {
        return isDegenerate ? 1 : valueOf(rng.next53());
    }

  private:
    static constexpr int kBucketShift = 45; ///< 256 buckets of 53 bits

    /** thresh[v] as threshold(v); thresh[kMaxDist] stops every scan. */
    std::array<std::uint64_t, kMaxDist + 1> thresh{};
    /** Distance of the first draw of each bucket. */
    std::array<std::uint16_t, 256> bucketStart{};
    bool isDegenerate = false;
};

/** Generates the dynamic instruction stream of one thread. */
class StreamGenerator
{
  public:
    /**
     * @param profile the benchmark description (moved into shared,
     *        immutable storage)
     * @param stream_seed extra seed entropy (e.g., the thread id) so
     *        two instances of the same benchmark do not emit
     *        identical streams
     */
    explicit StreamGenerator(ProgramProfile profile,
                             std::uint64_t stream_seed = 0);

    /** Emit the next dynamic instruction. */
    SynthInst next();

    /** @return number of instructions emitted so far. */
    std::uint64_t emittedCount() const { return emitted; }

    /** @return the profile driving this stream. */
    const ProgramProfile &profile() const { return shared->prof; }

    /** @return index of the currently active phase. */
    std::size_t currentPhase() const { return phaseIdx; }

  private:
    /**
     * Immutable per-profile tables, precomputed once and shared by
     * every copy of the generator. Each entry caches a value the old
     * code recomputed per emitted instruction with the exact same
     * expression, so the emitted stream is bit-identical.
     */
    struct SharedTables
    {
        ProgramProfile prof;
        std::vector<Addr> blockPcs;    ///< precomputed block start PCs
        std::vector<double> mixTotal;  ///< per-block op-mix sum
        /** per-phase dependence-distance draw. */
        std::vector<DepDistTable> depDist;
        /** per-phase x per-block cold-miss period; 0 = never cold. */
        std::vector<std::uint32_t> coldPeriod;
        /** per-phase x per-block warm-miss period; 0 = never warm. */
        std::vector<std::uint32_t> warmPeriod;
        /** per-phase x per-block store warm-region probability. */
        std::vector<double> storePWarm;

        explicit SharedTables(ProgramProfile p);
    };

    /** Advance the phase schedule by one emitted instruction. */
    void tickPhase();

    /** Pick an op class from the current block's mix. */
    OpClass pickOp(const BlockSpec &block);

    /** Fill in source dependence distances for a new instruction. */
    void assignDeps(SynthInst &inst, bool force_independent);

    /** Pick a data address for a load. */
    Addr pickLoadAddr(bool &is_burst_miss);

    /** Pick a data address for a store. */
    Addr pickStoreAddr();

    /** Advance the strided warm-region pointer and return it. */
    Addr nextWarmAddr();

    /** @return index into the per-phase x per-block tables. */
    std::size_t
    phaseBlockIdx(std::uint32_t block) const
    {
        return phaseIdx * shared->prof.blocks.size() + block;
    }

    std::shared_ptr<const SharedTables> shared;
    std::vector<std::uint32_t> loopTrip; ///< per-block live trip count
    std::vector<std::uint32_t> coldTick; ///< per-block cold-miss phase
    std::vector<std::uint32_t> warmTick; ///< per-block warm-miss phase

    Rng rng;
    std::uint64_t emitted = 0;

    std::uint32_t curBlock = 0;
    std::uint32_t posInBlock = 0;

    std::size_t phaseIdx = 0;
    std::uint64_t phaseRemaining = 0;

    Addr coldPtr = 0;             ///< streaming pointer (cold region)
    Addr warmPtr = 0;             ///< strided pointer (warm region)
    int burstRemaining = 0;       ///< cold-miss MLP burst in progress
    std::uint32_t sinceLastLoad = 0; ///< distance to last emitted load
};

} // namespace smthill

#endif // SMTHILL_TRACE_STREAM_GENERATOR_HH
