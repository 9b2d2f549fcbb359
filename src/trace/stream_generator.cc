#include "trace/stream_generator.hh"

#include <algorithm>
#include <cmath>

namespace smthill
{

namespace
{

/** Cold region starts far above hot and warm so regions never alias. */
constexpr Addr kColdRegionBase = 0x4000'0000;
constexpr Addr kColdRegionSpan = 0x2000'0000;
constexpr int kMaxDepDist = DepDistTable::kMaxDist;

/**
 * The period (in qualifying accesses) between deterministic misses
 * with probability @p p, exactly as the per-instruction code used to
 * compute it; 0 encodes "never" (p <= 0).
 */
std::uint32_t
missPeriod(double p)
{
    if (p <= 0.0)
        return 0;
    auto period = static_cast<std::uint32_t>(1.0 / p + 0.5);
    return std::max(1u, period);
}

} // namespace

DepDistTable::DepDistTable(int mean_dep_dist)
{
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    thresh.fill(kDraws);
    thresh.back() = ~std::uint64_t{0};
    const double prob = 1.0 / std::max(1, mean_dep_dist);
    isDegenerate = prob >= 1.0;
    if (isDegenerate)
        return;
    const double log1p_neg_p = std::log1p(-prob);
    // Bisect for the least draw past each value. The formula never
    // decreases in the draw, so neither do the thresholds, and each
    // search starts at the previous one.
    std::uint64_t lo = 0;
    for (int v = 1; v < kMaxDist; ++v) {
        std::uint64_t hi = kDraws;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (geometricFromDraw(mid, log1p_neg_p, kMaxDist) > v)
                hi = mid;
            else
                lo = mid + 1;
        }
        if (lo == kDraws)
            break; // no 53-bit draw reaches v + 1
        thresh[v] = lo;
    }
    int v = 1;
    for (std::size_t b = 0; b < bucketStart.size(); ++b) {
        while ((static_cast<std::uint64_t>(b) << kBucketShift) >= thresh[v])
            ++v;
        bucketStart[b] = static_cast<std::uint16_t>(v);
    }
}

StreamGenerator::SharedTables::SharedTables(ProgramProfile p)
    : prof(std::move(p))
{
    prof.validate();
    const std::size_t nblocks = prof.blocks.size();
    const std::size_t nphases = prof.phases.size();

    blockPcs.reserve(nblocks);
    for (std::uint32_t i = 0; i < nblocks; ++i)
        blockPcs.push_back(prof.blockPc(i));

    mixTotal.reserve(nblocks);
    for (const BlockSpec &b : prof.blocks) {
        const OpMix &m = b.mix;
        mixTotal.push_back(m.intAlu + m.intMul + m.fpAlu + m.fpMul +
                           m.load + m.store);
    }

    depDist.reserve(nphases);
    for (const PhaseSpec &ph : prof.phases)
        depDist.emplace_back(ph.meanDepDist);

    coldPeriod.reserve(nphases * nblocks);
    warmPeriod.reserve(nphases * nblocks);
    storePWarm.reserve(nphases * nblocks);
    for (const PhaseSpec &ph : prof.phases) {
        for (const BlockSpec &b : prof.blocks) {
            const double bias = b.memBias;
            coldPeriod.push_back(
                missPeriod(std::min(0.95, ph.pLoadCold * bias)));
            warmPeriod.push_back(
                missPeriod(std::min(0.90, ph.pLoadWarm * bias)));
            storePWarm.push_back(
                std::min(0.5, (ph.pLoadWarm + ph.pLoadCold) * bias));
        }
    }
}

StreamGenerator::StreamGenerator(ProgramProfile profile,
                                 std::uint64_t stream_seed)
    : shared(std::make_shared<const SharedTables>(std::move(profile))),
      rng(shared->prof.seed * 0x2545'f491'4f6c'dd1dULL +
          stream_seed * 977 + 3)
{
    const ProgramProfile &prof = shared->prof;
    loopTrip.assign(prof.blocks.size(), 0);
    coldTick.assign(prof.blocks.size(), 0);
    warmTick.assign(prof.blocks.size(), 0);
    // Desynchronize the per-block miss phases so blocks don't all
    // miss on the same iteration.
    for (std::size_t i = 0; i < prof.blocks.size(); ++i) {
        coldTick[i] = static_cast<std::uint32_t>(rng.nextBelow(64));
        warmTick[i] = static_cast<std::uint32_t>(rng.nextBelow(64));
    }
    phaseIdx = 0;
    phaseRemaining = prof.phases[0].lengthInsts;
    coldPtr = kColdRegionBase + (rng.next() % kColdRegionSpan & ~Addr{63});
    warmPtr = rng.nextBelow(std::max<std::uint64_t>(prof.warmBytes, 64)) &
              ~Addr{63};
}

Addr
StreamGenerator::nextWarmAddr()
{
    const ProgramProfile &prof = shared->prof;
    // Stride through the warm region a cache line at a time, like a
    // loop sweeping an L2-resident array: one pass during warm-up
    // makes the whole region L2-resident, after which every access is
    // a deterministic DL1-miss/L2-hit.
    warmPtr += 64;
    if (warmPtr >= prof.warmBytes)
        warmPtr = 0;
    return prof.dataBase + prof.hotBytes + warmPtr;
}

void
StreamGenerator::tickPhase()
{
    ++emitted;
    ++sinceLastLoad;
    if (--phaseRemaining == 0) {
        const ProgramProfile &prof = shared->prof;
        phaseIdx = (phaseIdx + 1) % prof.phases.size();
        phaseRemaining = prof.phases[phaseIdx].lengthInsts;
        burstRemaining = 0;
    }
}

OpClass
StreamGenerator::pickOp(const BlockSpec &block)
{
    const OpMix &m = block.mix;
    double r = rng.nextDouble() * shared->mixTotal[curBlock];
    if ((r -= m.load) < 0)
        return OpClass::Load;
    if ((r -= m.store) < 0)
        return OpClass::Store;
    if ((r -= m.intAlu) < 0)
        return OpClass::IntAlu;
    if ((r -= m.intMul) < 0)
        return OpClass::IntMul;
    if ((r -= m.fpAlu) < 0)
        return OpClass::FpAlu;
    return OpClass::FpMul;
}

void
StreamGenerator::assignDeps(SynthInst &inst, bool force_independent)
{
    const PhaseSpec &ph = shared->prof.phases[phaseIdx];
    if (force_independent) {
        // Clustered cache misses must be mutually independent so the
        // machine can overlap them; their address operands are ready.
        inst.srcDist[0] = 0;
        inst.srcDist[1] = 0;
        return;
    }
    const DepDistTable &dep_dist = shared->depDist[phaseIdx];
    auto draw = [&]() -> std::int32_t {
        if (rng.chance(ph.serialFrac))
            return 1;
        return dep_dist.draw(rng);
    };
    std::int32_t d0 = draw();
    inst.srcDist[0] = std::min<std::int32_t>(
        d0, static_cast<std::int32_t>(
                std::min<std::uint64_t>(emitted, kMaxDepDist)));
    if (rng.chance(0.35)) {
        std::int32_t d1 = draw();
        inst.srcDist[1] = std::min<std::int32_t>(
            d1, static_cast<std::int32_t>(
                    std::min<std::uint64_t>(emitted, kMaxDepDist)));
    }
}

Addr
StreamGenerator::pickLoadAddr(bool &is_burst_miss)
{
    const ProgramProfile &prof = shared->prof;
    const PhaseSpec &ph = prof.phases[phaseIdx];
    is_burst_miss = false;

    // Misses arrive *periodically* per block, the way strided loops
    // cross cache-line boundaries every Nth access — not as Bernoulli
    // noise. This keeps per-epoch miss rates stable, which is what
    // makes epoch-to-epoch performance feedback learnable
    // (Section 3.3.1's hill shape). The periods are constant per
    // (phase, block) and precomputed in SharedTables.
    const std::size_t pb = phaseBlockIdx(curBlock);
    bool cold = false;
    if (burstRemaining > 0) {
        cold = true;
        --burstRemaining;
        is_burst_miss = true;
    } else {
        const std::uint32_t cold_period = shared->coldPeriod[pb];
        if (cold_period != 0) {
            if (++coldTick[curBlock] >= cold_period) {
                coldTick[curBlock] = 0;
                cold = true;
                if (ph.burstMax > 1 && rng.chance(ph.burstProb)) {
                    burstRemaining = static_cast<int>(
                        rng.nextRange(1, ph.burstMax - 1));
                    is_burst_miss = true;
                }
            }
        }
        if (!cold) {
            const std::uint32_t warm_period = shared->warmPeriod[pb];
            if (warm_period != 0 &&
                ++warmTick[curBlock] >= warm_period) {
                warmTick[curBlock] = 0;
                return nextWarmAddr();
            }
        }
    }

    if (cold) {
        // Stream through a huge region a full cache line at a time so
        // every cold access is a compulsory miss in DL1 and UL2.
        coldPtr += 64;
        if (coldPtr >= kColdRegionBase + kColdRegionSpan)
            coldPtr = kColdRegionBase;
        return coldPtr;
    }

    Addr off =
        rng.nextBelow(std::max<std::uint64_t>(prof.hotBytes, 64)) & ~Addr{7};
    return prof.dataBase + off;
}

Addr
StreamGenerator::pickStoreAddr()
{
    const ProgramProfile &prof = shared->prof;
    // Stores mostly hit the hot region (stack/locals); their
    // propensity to touch the warm region mirrors the loads', so
    // cache-quiet (ILP) programs stay quiet on the store side too.
    if (rng.chance(shared->storePWarm[phaseBlockIdx(curBlock)]))
        return nextWarmAddr();
    Addr off =
        rng.nextBelow(std::max<std::uint64_t>(prof.hotBytes, 64)) & ~Addr{7};
    return prof.dataBase + off;
}

SynthInst
StreamGenerator::next()
{
    const ProgramProfile &prof = shared->prof;
    const BlockSpec &block = prof.blocks[curBlock];
    SynthInst inst;
    inst.blockId = curBlock;
    inst.pc = shared->blockPcs[curBlock] + Addr{posInBlock} * 4;

    if (posInBlock < block.length) {
        inst.op = pickOp(block);
        if (inst.op == OpClass::Load) {
            bool burst = false;
            inst.effAddr = pickLoadAddr(burst);
            assignDeps(inst, burst);
            sinceLastLoad = 0;
        } else if (inst.op == OpClass::Store) {
            inst.effAddr = pickStoreAddr();
            assignDeps(inst, false);
        } else {
            assignDeps(inst, false);
        }
        ++posInBlock;
        tickPhase();
        return inst;
    }

    // Block-terminating branch.
    inst.op = OpClass::Branch;
    std::uint32_t next_block;
    switch (block.branch) {
      case BranchKind::Loop:
        if (++loopTrip[curBlock] < block.tripCount) {
            inst.taken = true;
            next_block = block.takenTarget;
        } else {
            loopTrip[curBlock] = 0;
            inst.taken = false;
            next_block = block.fallTarget;
        }
        break;
      case BranchKind::Biased:
      case BranchKind::Random:
        inst.taken = rng.chance(block.takenProb);
        next_block = inst.taken ? block.takenTarget : block.fallTarget;
        break;
      default:
        next_block = block.fallTarget;
        break;
    }
    inst.target = shared->blockPcs[next_block];

    // A branch often tests a recently computed value; with some
    // probability that value is the most recent load, which makes the
    // branch resolve late when the load misses (expensive mispredict).
    if (sinceLastLoad > 0 && sinceLastLoad < kMaxDepDist &&
        rng.chance(prof.branchDependsOnLoad)) {
        inst.srcDist[0] = static_cast<std::int32_t>(sinceLastLoad);
    } else {
        inst.srcDist[0] = static_cast<std::int32_t>(
            std::min<std::uint64_t>(emitted, rng.nextRange(1, 4)));
    }

    curBlock = next_block;
    posInBlock = 0;
    tickPhase();
    return inst;
}

} // namespace smthill
