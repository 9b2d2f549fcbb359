#include "policy/bandit.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/stat_registry.hh"

namespace smthill
{

namespace
{

Json
shareJson(const Partition &p)
{
    Json arr = Json::array();
    for (int i = 0; i < p.numThreads; ++i)
        arr.push(Json(p.share[i]));
    return arr;
}

Json
ipcJson(const IpcSample &s)
{
    Json arr = Json::array();
    for (int i = 0; i < s.numThreads; ++i)
        arr.push(Json(s.ipc[i]));
    return arr;
}

StatCounter &
banditEpochs()
{
    static StatCounter &c = globalStats().counter(CounterId::BanditEpochs);
    return c;
}

StatCounter &
banditSwitches()
{
    static StatCounter &c =
        globalStats().counter(CounterId::BanditSwitches);
    return c;
}

StatCounter &
banditRebuilds()
{
    static StatCounter &c =
        globalStats().counter(CounterId::BanditRebuilds);
    return c;
}

HillConfig
hillBase(const BanditConfig &b)
{
    HillConfig h;
    h.epochSize = b.epochSize;
    h.delta = std::max(1, b.stride);
    h.metric = b.metric;
    h.softwareCost = b.softwareCost;
    h.minShare = b.minShare;
    // The bandit never solo-samples: the base's sampling machinery
    // stays inert and weighted rewards normalize by config.singleIpc
    // (or run unnormalized where the caller left it zero).
    h.sampleSingleIpc = false;
    return h;
}

} // namespace

BanditAllocator::BanditAllocator(BanditConfig config)
    : HillClimbing(hillBase(config)), bcfg(config), rng(config.seed)
{
    if (bcfg.stride < 1)
        fatal("BanditAllocator: stride must be >= 1");
    if (bcfg.gamma <= 0.0 || bcfg.gamma > 1.0)
        fatal("BanditAllocator: gamma must be in (0, 1]");
}

std::string
BanditAllocator::name() const
{
    return bcfg.algo == BanditAlgo::Ucb1 ? "BANDIT-UCB" : "BANDIT-EXP3";
}

void
BanditAllocator::rebuildArms(const SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    int na = numActive(nt);
    int total = cpu.config().intRegs;
    armSet.clear();
    if (na == 2) {
        // The exact 2-thread lattice of the paper's limit study
        // (Section 3.2), mapped onto whichever contexts hold jobs.
        int lo = activeAt(0);
        int hi = activeAt(1);
        for (const Partition &p2 : enumeratePartitions2(total,
                                                        bcfg.stride)) {
            Partition p;
            p.numThreads = nt;
            p.share[lo] = p2.share[0];
            p.share[hi] = p2.share[1];
            armSet.push_back(p);
        }
    } else if (na > 2) {
        // Higher thread counts: the full lattice is cubic or worse,
        // so the arms are an equal split plus trialPartition spokes
        // at 1x/2x/4x stride around it — bounded at 1 + 3 * na.
        Partition equalBase = redistributeDetached(
            Partition::equal(nt, total), activeMask, bcfg.minShare);
        armSet.push_back(equalBase);
        for (int k = 0; k < na; ++k) {
            int tid = activeAt(k);
            for (int m : {1, 2, 4}) {
                Partition arm = trialPartition(equalBase, tid,
                                               bcfg.stride * m,
                                               bcfg.minShare);
                if (std::find(armSet.begin(), armSet.end(), arm) ==
                    armSet.end())
                    armSet.push_back(arm);
            }
        }
    }
    playCount.assign(armSet.size(), 0);
    meanReward.assign(armSet.size(), 0.0);
    weight.assign(armSet.size(), 1.0);
    lastProb.assign(armSet.size(), 0.0);
    rewardScale = 0.0;
    totalPlays = 0;
    armInFlight = -1;
    banditRebuilds().inc();
}

int
BanditAllocator::selectArm()
{
    int k = static_cast<int>(armSet.size());
    if (bcfg.algo == BanditAlgo::Ucb1) {
        // Unplayed arms first, in index order; then the UCB index
        // with a strictly-greater scan so ties break to the lowest
        // index — both deterministic by construction.
        for (int i = 0; i < k; ++i)
            if (playCount[i] == 0)
                return i;
        int best = 0;
        double bestIdx = -1.0;
        double logT = std::log(static_cast<double>(totalPlays));
        for (int i = 0; i < k; ++i) {
            double idx = meanReward[i] +
                         bcfg.exploreCoeff *
                             std::sqrt(logT /
                                       static_cast<double>(playCount[i]));
            if (idx > bestIdx) {
                bestIdx = idx;
                best = i;
            }
        }
        return best;
    }
    // EXP3: p_i = (1 - gamma) w_i / sum(w) + gamma / K, sampled from
    // the member Rng (clones copy the stream position, so replay is
    // bit-identical).
    double sumW = 0.0;
    for (int i = 0; i < k; ++i)
        sumW += weight[i];
    for (int i = 0; i < k; ++i)
        lastProb[i] = (1.0 - bcfg.gamma) * weight[i] / sumW +
                      bcfg.gamma / static_cast<double>(k);
    double u = rng.nextDouble();
    double acc = 0.0;
    for (int i = 0; i < k; ++i) {
        acc += lastProb[i];
        if (u < acc)
            return i;
    }
    return k - 1;
}

void
BanditAllocator::applyReward(int arm, double reward)
{
    ++playCount[arm];
    ++totalPlays;
    meanReward[arm] +=
        (reward - meanReward[arm]) / static_cast<double>(playCount[arm]);
    if (bcfg.algo == BanditAlgo::Exp3) {
        // EXP3 wants rewards in [0,1]: normalize by the running max
        // observed so far (deterministic, no oracle bound needed).
        if (reward > rewardScale)
            rewardScale = reward;
        double xhat = rewardScale > 0.0 ? reward / rewardScale : 0.0;
        double p = lastProb[arm] > 0.0 ? lastProb[arm] : 1.0;
        int k = static_cast<int>(armSet.size());
        weight[arm] *=
            std::exp(bcfg.gamma * xhat / (p * static_cast<double>(k)));
        // Keep the weights bounded: only their ratios matter.
        double maxW = *std::max_element(weight.begin(), weight.end());
        if (maxW > 1e100)
            for (double &w : weight)
                w /= maxW;
    }
}

void
BanditAllocator::pullArm(SmtCpu &cpu, int previous_arm, double reward)
{
    int next = selectArm();
    armInFlight = next;
    // The installed arm doubles as the anchor so epoch-trace records
    // and the churn admit/redistribute algebra see the live partition.
    anchorPartition = armSet[next];
    cpu.setPartition(anchorPartition);
    if (next != previous_arm)
        banditSwitches().inc();
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("alg_epoch", algEpoch);
        args.set("algo", bcfg.algo == BanditAlgo::Ucb1 ? "ucb1" : "exp3");
        args.set("arm", next);
        args.set("arms", static_cast<std::uint64_t>(armSet.size()));
        args.set("plays", playCount[next]);
        args.set("stat", bcfg.algo == BanditAlgo::Ucb1 ? meanReward[next]
                                                       : weight[next]);
        args.set("reward", reward);
        args.set("switched", next != previous_arm);
        args.set("partition", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::BanditArmPull, std::move(args));
    }
}

void
BanditAllocator::attach(SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    anchorPartition = Partition::equal(nt, cpu.config().intRegs);
    roundPerf.fill(0.0);
    singleIpcEst = bcfg.singleIpc;
    lastCommitted = cpu.stats().committed;
    lastEpochStart = cpu.now();
    roundStart = cpu.now();
    lastElapsed = 0;
    algEpoch = 0;
    epochsSinceSample = 0;
    sampleRotation = 0;
    samplingThread = -1;
    bootstrapPending = 0;
    roundPos = 0;
    roundDirty = false;
    needsSolo.fill(false);
    residentAccum.fill(0);
    residentFrom.fill(cpu.now());
    int na = 0;
    for (int i = 0; i < nt; ++i) {
        activeMask[i] = cpu.threadEnabled(static_cast<ThreadId>(i));
        na += activeMask[i] ? 1 : 0;
    }
    openSystemMode = na < nt;
    for (int i = 0; i < nt; ++i)
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
    if (openSystemMode)
        anchorPartition = redistributeDetached(anchorPartition,
                                               activeMask, cfg.minShare);
    rng = Rng(bcfg.seed);
    rebuildArms(cpu);
    if (na >= 2 && !armSet.empty())
        pullArm(cpu, -1, 0.0);
    else
        cpu.clearPartition();
}

void
BanditAllocator::epoch(SmtCpu &cpu, std::uint64_t epoch_id)
{
    int nt = cpu.numThreads();
    int na = numActive(nt);
    // Consume the churn flag: it covers the epoch that just ended.
    bool dirty = roundDirty;
    roundDirty = false;
    IpcSample sample = measureEpoch(cpu);
    Partition ran = cpu.partition();
    bool ran_partitioned = cpu.partitioningEnabled();
    double reward = evalActiveMetric(sample);

    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("epoch", epoch_id);
        args.set("kind", "learn");
        args.set("ipc", ipcJson(sample));
        evt->complete(lastEpochStart,
                      static_cast<std::int64_t>(lastElapsed),
                      eventTracePid(), kControlTid, EventId::Epoch,
                      std::move(args));
    }

    // A churn-dirtied epoch ran (at least partly) under a different
    // active set; crediting its reward would poison the arm stats.
    int prev = armInFlight;
    bool credited = !dirty && prev >= 0 &&
                    prev < static_cast<int>(armSet.size());
    if (credited)
        applyReward(prev, reward);

    bool moved = false;
    armInFlight = -1;
    if (na >= 2 && !armSet.empty()) {
        pullArm(cpu, prev, reward);
        moved = armInFlight != prev;
    } else {
        cpu.clearPartition();
    }
    ++algEpoch;
    banditEpochs().inc();
    traceEpoch(cpu, epoch_id, sample, ran, ran_partitioned, reward, -1,
               -1, moved);
    chargeBoundary(cpu);
}

void
BanditAllocator::threadAttached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    openSystemMode = true;
    activeMask[tid] = true;
    residentAccum[tid] = 0;
    residentFrom[tid] = cpu.now();
    lastCommitted[tid] = cpu.stats().committed[tid];
    singleIpcEst[tid] = bcfg.singleIpc[tid];
    // Drained-anchor re-seed: after an all-departure the anchor holds
    // no shares, and admitAttached conserves the total it is given.
    if (anchorPartition.total() == 0)
        anchorPartition.share[tid] = cpu.config().intRegs;
    anchorPartition =
        admitAttached(anchorPartition, activeMask, tid, cfg.minShare);
    roundDirty = true;
    rebuildArms(cpu);
    if (numActive(nt) >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        args.set("arms", static_cast<std::uint64_t>(armSet.size()));
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::BanditChurnAttach, std::move(args));
    }
}

void
BanditAllocator::threadDetached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    openSystemMode = true;
    if (activeMask[tid]) {
        Cycle from = std::max(residentFrom[tid], lastEpochStart);
        residentAccum[tid] += cpu.now() > from ? cpu.now() - from : 0;
    }
    activeMask[tid] = false;
    anchorPartition =
        redistributeDetached(anchorPartition, activeMask, cfg.minShare);
    roundDirty = true;
    rebuildArms(cpu);
    if (numActive(nt) >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        args.set("arms", static_cast<std::uint64_t>(armSet.size()));
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::BanditChurnDetach, std::move(args));
    }
}

std::unique_ptr<ResourcePolicy>
BanditAllocator::clone() const
{
    return std::make_unique<BanditAllocator>(*this);
}

} // namespace smthill
