#include "policy/rl_alloc.hh"

#include <algorithm>

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
rlEpochs()
{
    static StatCounter &c = globalStats().counter(CounterId::RlEpochs);
    return c;
}

StatCounter &
rlExplores()
{
    static StatCounter &c = globalStats().counter(CounterId::RlExplores);
    return c;
}

StatCounter &
rlMoves()
{
    static StatCounter &c =
        globalStats().counter(CounterId::RlAnchorMoves);
    return c;
}

HillConfig
hillBase(const RlConfig &r)
{
    HillConfig h;
    h.epochSize = r.epochSize;
    h.delta = r.delta;
    h.metric = r.metric;
    h.softwareCost = r.softwareCost;
    h.minShare = r.minShare;
    // The RL learner never solo-samples: weighted metrics run
    // unnormalized via the evalMetric fallback.
    h.sampleSingleIpc = false;
    return h;
}

} // namespace

RlAllocator::RlAllocator(RlConfig config)
    : HillClimbing(hillBase(config)), rcfg(config), rng(config.seed)
{
    if (rcfg.alpha <= 0.0 || rcfg.alpha > 1.0)
        fatal("RlAllocator: alpha must be in (0, 1]");
    if (rcfg.discount < 0.0 || rcfg.discount >= 1.0)
        fatal("RlAllocator: discount must be in [0, 1)");
    if (rcfg.epsilon < 0.0 || rcfg.epsilon > 1.0)
        fatal("RlAllocator: epsilon must be in [0, 1]");
}

std::string
RlAllocator::name() const
{
    return "RL-Q";
}

int
RlAllocator::stateOf() const
{
    int state = -1;
    for (int i = 0; i < anchorPartition.numThreads; ++i) {
        if (!activeMask[i])
            continue;
        if (state < 0 ||
            anchorPartition.share[i] > anchorPartition.share[state])
            state = i;
    }
    return state;
}

double
RlAllocator::bestValue(int state, int nt) const
{
    double best = qTable[state][kStay];
    for (int a = 0; a < nt; ++a)
        if (activeMask[a] && qTable[state][a] > best)
            best = qTable[state][a];
    return best;
}

int
RlAllocator::selectAction(int state, int nt)
{
    // Clones copy the Rng stream position, so the draw sequence —
    // one chance() per decision, plus one nextBelow() on explore —
    // replays bit-identically.
    if (rng.chance(rcfg.epsilon)) {
        ++exploreCount;
        rlExplores().inc();
        int na = numActive(nt);
        std::uint64_t pick = rng.nextBelow(
            static_cast<std::uint64_t>(na) + 1);
        if (pick == static_cast<std::uint64_t>(na))
            return kStay;
        return activeAt(static_cast<int>(pick));
    }
    // Greedy: strictly-greater scan, kStay first, so ties break
    // deterministically (stay, then lowest active index).
    int best = kStay;
    double bestQ = qTable[state][kStay];
    for (int a = 0; a < nt; ++a) {
        if (activeMask[a] && qTable[state][a] > bestQ) {
            bestQ = qTable[state][a];
            best = a;
        }
    }
    return best;
}

void
RlAllocator::attach(SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    anchorPartition = Partition::equal(nt, cpu.config().intRegs);
    roundPerf.fill(0.0);
    singleIpcEst = rcfg.singleIpc;
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
    rng = Rng(rcfg.seed);
    for (auto &row : qTable)
        row.fill(0.0);
    lastState = -1;
    lastAction = -1;
    exploreCount = 0;
    moveCount = 0;
    // The first epoch runs under the plain anchor; learning starts at
    // the first boundary once a reward exists to update from.
    if (na >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
}

void
RlAllocator::epoch(SmtCpu &cpu, std::uint64_t epoch_id)
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

    EventTrace *evt = eventTrace();
    int evtPid = eventTracePid();
    if (evt) {
        Json args = Json::object();
        args.set("epoch", epoch_id);
        args.set("kind", "learn");
        args.set("ipc", ipcJson(sample));
        evt->complete(lastEpochStart,
                      static_cast<std::int64_t>(lastElapsed), evtPid,
                      kControlTid, EventId::Epoch, std::move(args));
    }

    int state = na >= 1 ? stateOf() : -1;
    // Q-update from the transition that just completed. A
    // churn-dirtied epoch ran under a different active set; its
    // reward is not attributable to (lastState, lastAction).
    if (!dirty && lastState >= 0 && lastAction >= 0 && state >= 0) {
        double target =
            reward + rcfg.discount * bestValue(state, nt);
        qTable[lastState][lastAction] +=
            rcfg.alpha * (target - qTable[lastState][lastAction]);
    }

    bool moved = false;
    int gradient = -1;
    if (na >= 2 && state >= 0) {
        int action = selectAction(state, nt);
        if (action != kStay) {
            Partition before = anchorPartition;
            Partition next = moveAnchor(anchorPartition, action,
                                        cfg.delta, cfg.minShare);
            anchorPartition = overrideAnchor(cpu, next);
            moved = !(anchorPartition == before);
            gradient = action;
            if (moved) {
                ++moveCount;
                rlMoves().inc();
                if (evt) {
                    Json args = Json::object();
                    args.set("alg_epoch", algEpoch);
                    args.set("state", state);
                    args.set("action", action);
                    args.set("reward", reward);
                    args.set("q", qTable[state][action]);
                    args.set("anchor_before", shareJson(before));
                    args.set("anchor_step", shareJson(next));
                    args.set("anchor_after",
                             shareJson(anchorPartition));
                    evt->instant(cpu.now(), evtPid, kControlTid,
                                 EventId::RlAnchorMove, std::move(args));
                }
            }
        }
        cpu.setPartition(anchorPartition);
        lastState = state;
        lastAction = action;
    } else {
        // Nothing to learn with 0 or 1 jobs resident.
        lastState = -1;
        lastAction = -1;
    }
    ++algEpoch;
    rlEpochs().inc();
    traceEpoch(cpu, epoch_id, sample, ran, ran_partitioned, reward, -1,
               gradient, moved);
    chargeBoundary(cpu);
}

void
RlAllocator::threadAttached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    openSystemMode = true;
    activeMask[tid] = true;
    residentAccum[tid] = 0;
    residentFrom[tid] = cpu.now();
    lastCommitted[tid] = cpu.stats().committed[tid];
    singleIpcEst[tid] = rcfg.singleIpc[tid];
    // Drained-anchor re-seed: after an all-departure the anchor holds
    // no shares, and admitAttached conserves the total it is given.
    if (anchorPartition.total() == 0)
        anchorPartition.share[tid] = cpu.config().intRegs;
    anchorPartition =
        admitAttached(anchorPartition, activeMask, tid, cfg.minShare);
    roundDirty = true;
    lastState = -1;
    lastAction = -1;
    // A fresh job in a reused context invalidates what was learned
    // about that context: zero its state row and the move-toward-it
    // action column.
    qTable[tid].fill(0.0);
    for (auto &row : qTable)
        row[tid] = 0.0;
    if (numActive(nt) >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::RlChurnAttach, std::move(args));
    }
}

void
RlAllocator::threadDetached(SmtCpu &cpu, ThreadId tid)
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
    lastState = -1;
    lastAction = -1;
    if (numActive(nt) >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::RlChurnDetach, std::move(args));
    }
}

std::unique_ptr<ResourcePolicy>
RlAllocator::clone() const
{
    return std::make_unique<RlAllocator>(*this);
}

} // namespace smthill
