#include "core/hill_climbing.hh"

#include <algorithm>

#include "common/log.hh"

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

} // namespace

HillClimbing::HillClimbing(HillConfig config) : cfg(config)
{
    if (cfg.delta < 1)
        fatal("HillClimbing: delta must be >= 1");
    if (cfg.epochSize < 1)
        fatal("HillClimbing: epoch size must be >= 1");
    singleIpcEst.fill(0.0);
}

std::string
HillClimbing::name() const
{
    switch (cfg.metric) {
      case PerfMetric::AvgIpc:
        return "HILL-IPC";
      case PerfMetric::WeightedIpc:
        return "HILL-WIPC";
      case PerfMetric::HarmonicWeightedIpc:
        return "HILL-HWIPC";
    }
    return "HILL";
}

void
HillClimbing::attach(SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    // In the very first round the anchor defaults to an equal
    // partition for every thread (Figure 8, footnote).
    anchorPartition = Partition::equal(nt, cpu.config().intRegs);
    roundPerf.fill(0.0);
    singleIpcEst.fill(0.0);
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

    if (openSystemMode) {
        // Attached over a partially occupied (or empty) machine: the
        // anchor covers only the active set, and solo bootstrapping is
        // driven per-context through needsSolo as jobs arrive rather
        // than by the closed-system chain below.
        anchorPartition =
            redistributeDetached(anchorPartition, activeMask, cfg.minShare);
        if (cfg.sampleSingleIpc && needsSingleIpc())
            for (int i = 0; i < nt; ++i)
                needsSolo[i] = activeMask[i];
        int pending = na > 1 ? nextNeedsSolo() : -1;
        if (pending >= 0)
            beginSample(cpu, pending);
        else if (na > 1)
            installTrial(cpu);
        else
            cpu.clearPartition();
        return;
    }

    // Bootstrap the stand-alone IPC estimates (Section 4.2): before
    // any estimate exists, WIPC/HWIPC degenerate into raw-IPC
    // learning (evalMetric's solo() fallback), so the first epochs
    // sample every thread solo once. Learning epochs begin only
    // after the last bootstrap sample lands.
    if (cfg.sampleSingleIpc && needsSingleIpc() && nt > 1) {
        bootstrapPending = nt;
        beginSample(cpu, 0);
        sampleRotation = 1 % nt;
    } else {
        installTrial(cpu);
    }
}

int
HillClimbing::numActive(int nt) const
{
    int na = 0;
    for (int i = 0; i < nt; ++i)
        na += activeMask[i] ? 1 : 0;
    return na;
}

int
HillClimbing::activeAt(int k) const
{
    for (int i = 0; i < anchorPartition.numThreads; ++i) {
        if (!activeMask[i])
            continue;
        if (k-- == 0)
            return i;
    }
    fatal(msg("activeAt: no active thread at index ", k));
    return -1;
}

int
HillClimbing::nextNeedsSolo() const
{
    for (int i = 0; i < anchorPartition.numThreads; ++i)
        if (activeMask[i] && needsSolo[i])
            return i;
    return -1;
}

int
HillClimbing::nextActiveFrom(int start, int nt) const
{
    for (int k = 0; k < nt; ++k) {
        int i = (start + k) % nt;
        if (activeMask[i])
            return i;
    }
    return start;
}

double
HillClimbing::evalActiveMetric(const IpcSample &sample) const
{
    if (!openSystemMode)
        return evalMetric(cfg.metric, sample, singleIpcEst);
    return evalMetricMasked(cfg.metric, sample, singleIpcEst, activeMask);
}

void
HillClimbing::threadAttached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    openSystemMode = true;
    activeMask[tid] = true;
    residentAccum[tid] = 0;
    residentFrom[tid] = cpu.now();
    lastCommitted[tid] = cpu.stats().committed[tid];
    // A reused context must not learn on the previous occupant's
    // stand-alone IPC: zero the estimate and queue a solo
    // re-bootstrap sample for the new job.
    singleIpcEst[tid] = 0.0;
    roundPerf[tid] = 0.0;
    needsSolo[tid] = cfg.sampleSingleIpc && needsSingleIpc();
    // When the last job departed, redistributeDetached freed every
    // share into the void (no survivor to receive them) and the
    // anchor's total dropped to zero. admitAttached conserves the
    // total it is given, so without re-seeding the first arrival
    // after a drain would inherit — and once a second job lands,
    // install — an all-zero partition that starves every context.
    if (anchorPartition.total() == 0)
        anchorPartition.share[tid] = cpu.config().intRegs;
    anchorPartition =
        admitAttached(anchorPartition, activeMask, tid, cfg.minShare);
    // The round in flight compared trials over the old active set;
    // start over.
    roundPos = 0;
    roundDirty = true;
    roundStart = cpu.now();

    if (samplingThread >= 0 && samplingThread != static_cast<int>(tid)) {
        // A solo sample is in flight: the newcomer waits disabled
        // until it ends so the sample stays clean.
        cpu.setThreadEnabled(tid, false);
    } else if (numActive(nt) >= 2) {
        cpu.setPartition(anchorPartition);
    } else {
        cpu.clearPartition();
    }
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::HillChurnAttach, std::move(args));
    }
}

void
HillClimbing::threadDetached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    openSystemMode = true;
    if (activeMask[tid]) {
        Cycle from = std::max(residentFrom[tid], lastEpochStart);
        residentAccum[tid] += cpu.now() > from ? cpu.now() - from : 0;
    }
    activeMask[tid] = false;
    needsSolo[tid] = false;
    anchorPartition =
        redistributeDetached(anchorPartition, activeMask, cfg.minShare);
    roundPos = 0;
    roundDirty = true;
    roundStart = cpu.now();

    if (samplingThread == static_cast<int>(tid)) {
        // The thread running solo departed mid-sample: abandon it.
        samplingThread = -1;
        if (bootstrapPending > 0) {
            // Closed-system bootstrap chain interrupted by churn;
            // fall back to per-context re-bootstrap for whichever
            // active threads still lack an estimate.
            bootstrapPending = 0;
            if (cfg.sampleSingleIpc && needsSingleIpc())
                for (int i = 0; i < nt; ++i)
                    if (activeMask[i] && singleIpcEst[i] <= 0.0)
                        needsSolo[i] = true;
        }
        for (int i = 0; i < nt; ++i)
            cpu.setThreadEnabled(static_cast<ThreadId>(i), activeMask[i]);
    }
    if (samplingThread < 0) {
        // Re-feasibility on detach: the freed shares are already
        // redistributed into the anchor; install it now rather than
        // letting the survivors run capped until the next boundary.
        if (numActive(nt) >= 2)
            cpu.setPartition(anchorPartition);
        else
            cpu.clearPartition();
    }
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::HillChurnDetach, std::move(args));
    }
}

IpcSample
HillClimbing::measureEpoch(const SmtCpu &cpu)
{
    // The software-cost stall at the previous boundary froze the
    // machine for the first cycles of this epoch, and callers may
    // drive boundaries at a cadence other than cfg.epochSize; both
    // would bias trial comparisons if IPC were computed over the
    // nominal epoch size, so divide by the cycles the measurement
    // window actually covered.
    IpcSample s;
    s.numThreads = cpu.numThreads();
    Cycle now = cpu.now();
    lastElapsed = now > lastEpochStart ? now - lastEpochStart : 1;
    const auto &committed = cpu.stats().committed;
    for (int i = 0; i < s.numThreads; ++i) {
        Cycle resident = lastElapsed;
        if (openSystemMode) {
            // Partial residency (the job attached or departed inside
            // this window) must not be charged as full residency: the
            // divisor is the cycles the context actually held a job.
            resident = residentAccum[i];
            if (activeMask[i]) {
                Cycle from = std::max(residentFrom[i], lastEpochStart);
                resident += now > from ? now - from : 0;
            }
            resident = std::min(resident, lastElapsed);
            if (resident == 0) {
                s.ipc[i] = 0.0;
                continue;
            }
        }
        s.ipc[i] = static_cast<double>(committed[i] - lastCommitted[i]) /
                   static_cast<double>(resident);
    }
    return s;
}

void
HillClimbing::beginSample(SmtCpu &cpu, int tid)
{
    samplingThread = tid;
    int nt = cpu.numThreads();
    for (int i = 0; i < nt; ++i)
        cpu.setThreadEnabled(static_cast<ThreadId>(i), i == tid);
    // The solo thread gets the whole machine during the sample.
    cpu.clearPartition();
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", tid);
        args.set("bootstrap", bootstrapPending > 0);
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::HillSampleBegin, std::move(args));
    }
}

void
HillClimbing::chargeBoundary(SmtCpu &cpu)
{
    // Charge the software implementation cost (Section 4.2) and note
    // where the next measurement window really starts: commits resume
    // only once the stall drains.
    cpu.stallUntil(cpu.now() + cfg.softwareCost);
    lastCommitted = cpu.stats().committed;
    lastEpochStart = cpu.now() + cfg.softwareCost;
    if (openSystemMode) {
        residentAccum.fill(0);
        for (int i = 0; i < cpu.numThreads(); ++i)
            residentFrom[i] = lastEpochStart;
    }
}

bool
HillClimbing::estimatesReady() const
{
    // Meaningful only for metrics that use the estimates.
    for (int i = 0; i < anchorPartition.numThreads; ++i)
        if (singleIpcEst[i] <= 0.0)
            return false;
    return anchorPartition.numThreads > 0;
}

void
HillClimbing::installTrial(SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    int favored;
    if (openSystemMode) {
        int na = numActive(nt);
        if (na < 2) {
            // Nothing to partition: 0 or 1 jobs resident.
            cpu.clearPartition();
            return;
        }
        favored = activeAt(roundPos % na);
    } else {
        // Closed system: roundPos tracks algEpoch % nt exactly; keep
        // the Figure 8 indexing verbatim.
        favored = static_cast<int>(algEpoch % nt);
    }
    Partition trial =
        trialPartition(anchorPartition, favored, cfg.delta, cfg.minShare);
    cpu.setPartition(trial);
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("alg_epoch", algEpoch);
        args.set("favored", favored);
        args.set("trial", shareJson(trial));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     EventId::HillTrialInstall, std::move(args));
    }
}

void
HillClimbing::traceEpoch(const SmtCpu &cpu, std::uint64_t epoch_id,
                         const IpcSample &sample, const Partition &trial,
                         bool was_partitioned, double metric_value,
                         int sampled_thread, int gradient_thread,
                         bool anchor_moved)
{
    if (!epochTracer())
        return;
    EpochTraceRecord rec;
    rec.epochId = epoch_id;
    rec.cycle = cpu.now();
    rec.elapsedCycles = lastElapsed;
    rec.numThreads = sample.numThreads;
    for (int i = 0; i < sample.numThreads; ++i)
        rec.ipc[i] = sample.ipc[i];
    rec.metricValue = metric_value;
    rec.partitioned = was_partitioned;
    // Only a partitioned epoch has a meaningful trial; recording the
    // stale partition of an unpartitioned (solo-sampling) epoch made
    // in-memory records differ from their JSON export, which encodes
    // the trial of such epochs as null.
    rec.trial = was_partitioned ? trial : Partition{};
    rec.anchor = anchorPartition;
    rec.roundPerf = roundPerf;
    rec.singleIpcEst = singleIpcEst;
    rec.gradientThread = gradient_thread;
    rec.samplingThread = sampled_thread;
    rec.anchorMoved = anchor_moved;
    rec.softwareCost = cfg.softwareCost;
    epochTracer()->record(std::move(rec));
}

void
HillClimbing::epoch(SmtCpu &cpu, std::uint64_t epoch_id)
{
    int nt = cpu.numThreads();
    int na = numActive(nt);
    // Consume the churn flag: it covers the epoch that just ended.
    bool dirty = roundDirty;
    roundDirty = false;
    IpcSample sample = measureEpoch(cpu);
    // The partition the finished epoch actually ran under.
    Partition ran = cpu.partition();
    bool ran_partitioned = cpu.partitioningEnabled();

    EventTrace *evt = eventTrace();
    int evtPid = eventTracePid();
    if (evt) {
        // The epoch that just finished, as one slice on the control
        // track covering the cycles the measurement actually saw.
        Json args = Json::object();
        args.set("epoch", epoch_id);
        args.set("kind", samplingThread >= 0 ? "sample" : "learn");
        args.set("ipc", ipcJson(sample));
        evt->complete(lastEpochStart,
                      static_cast<std::int64_t>(lastElapsed), evtPid,
                      kControlTid, EventId::Epoch, std::move(args));
    }

    if (samplingThread >= 0) {
        // The epoch that just ended ran samplingThread solo; its IPC
        // is the thread's stand-alone IPC estimate. Resume normal
        // multithreaded execution without consuming a learning epoch.
        int sampled = samplingThread;
        singleIpcEst[sampled] = sample.ipc[sampled];
        needsSolo[sampled] = false;
        if (evt) {
            Json args = Json::object();
            args.set("thread", sampled);
            args.set("ipc", sample.ipc[sampled]);
            evt->instant(cpu.now(), evtPid, kControlTid,
                         EventId::HillSingleIpcUpdate, std::move(args));
        }
        if (bootstrapPending > 0)
            --bootstrapPending;
        if (bootstrapPending > 0) {
            // Attach-time bootstrap: chain straight into the next
            // thread's solo epoch until every estimate is populated.
            int next = sampleRotation;
            sampleRotation = (sampleRotation + 1) % nt;
            beginSample(cpu, next);
        } else {
            samplingThread = -1;
            for (int i = 0; i < nt; ++i)
                cpu.setThreadEnabled(static_cast<ThreadId>(i),
                                     !openSystemMode || activeMask[i]);
            int pending = na > 1 ? nextNeedsSolo() : -1;
            if (pending >= 0) {
                // Churn queued more re-bootstrap samples; chain them
                // like the attach-time bootstrap.
                beginSample(cpu, pending);
            } else {
                installTrial(cpu);
            }
        }
        traceEpoch(cpu, epoch_id, sample, ran, ran_partitioned,
                   sample.ipc[sampled], sampled, -1, false);
        chargeBoundary(cpu);
        return;
    }

    if (openSystemMode && na <= 1) {
        // Nothing to learn with 0 or 1 jobs resident — but a full,
        // churn-free solo stretch doubles as a free SingleIPC sample
        // for the lone job.
        double perf = evalActiveMetric(sample);
        int sampled = -1;
        if (na == 1) {
            int lone = activeAt(0);
            if (needsSolo[lone] && !dirty && !cpu.partitioningEnabled()) {
                singleIpcEst[lone] = sample.ipc[lone];
                needsSolo[lone] = false;
                sampled = lone;
                if (evt) {
                    Json args = Json::object();
                    args.set("thread", lone);
                    args.set("ipc", sample.ipc[lone]);
                    evt->instant(cpu.now(), evtPid, kControlTid,
                                 EventId::HillSingleIpcUpdate,
                                 std::move(args));
                }
            }
        }
        ++algEpoch;
        traceEpoch(cpu, epoch_id, sample, ran, ran_partitioned, perf,
                   sampled, -1, false);
        chargeBoundary(cpu);
        return;
    }

    // Figure 8 line 7: record the performance of the previous epoch.
    double perf = evalActiveMetric(sample);
    int gradient_thread = -1;
    bool anchor_moved = false;
    if (dirty) {
        // The finished epoch ran (at least partly) under a pre-churn
        // partition over a different active set; its measurement is
        // not comparable within the restarted round. Drop it and let
        // the new round begin with the trial installed below.
    } else {
        roundPerf[activeAt(roundPos)] = perf;

        // Figure 8 lines 8-15: at the end of a round, move the anchor
        // in favor of the best-performing trial (the positive
        // gradient).
        if (roundPos == na - 1) {
            gradient_thread = activeAt(0);
            for (int i = gradient_thread + 1; i < nt; ++i)
                if (activeMask[i] &&
                    roundPerf[i] > roundPerf[gradient_thread])
                    gradient_thread = i;
            anchor_moved = true;
        }
        roundPos = (roundPos + 1) % na;
    }
    if (anchor_moved) {
        Partition before = anchorPartition;
        Partition next = moveAnchor(anchorPartition, gradient_thread,
                                    cfg.delta, cfg.minShare);
        anchorPartition = overrideAnchor(cpu, next);
        if (evt) {
            // Decision audit: everything the gradient step looked at
            // and everything it decided, in one event.
            Json rp = Json::array();
            for (int i = 0; i < nt; ++i)
                rp.push(Json(roundPerf[i]));
            Json args = Json::object();
            args.set("alg_epoch", algEpoch);
            args.set("round_perf", std::move(rp));
            args.set("gradient", gradient_thread);
            args.set("delta", cfg.delta);
            args.set("anchor_before", shareJson(before));
            args.set("anchor_step", shareJson(next));
            args.set("anchor_after", shareJson(anchorPartition));
            evt->instant(cpu.now(), evtPid, kControlTid,
                         EventId::HillAnchorMove, std::move(args));
            evt->complete(roundStart,
                          static_cast<std::int64_t>(cpu.now() -
                                                    roundStart),
                          evtPid, kControlTid, EventId::HillRound);
        }
        roundStart = cpu.now();
    }

    ++algEpoch;

    // SingleIPC sampling (Section 4.2): every samplePeriod epochs,
    // run one thread solo for the next epoch. Only the weighted
    // metrics need stand-alone IPCs. Churn-queued re-bootstrap
    // samples (needsSolo) take priority over the periodic rotation.
    int pending = (cfg.sampleSingleIpc && needsSingleIpc() && na > 1)
                      ? nextNeedsSolo()
                      : -1;
    if (pending >= 0) {
        beginSample(cpu, pending);
    } else if (cfg.sampleSingleIpc && needsSingleIpc() && na > 1 &&
               ++epochsSinceSample >= cfg.samplePeriod) {
        epochsSinceSample = 0;
        int next = nextActiveFrom(sampleRotation, nt);
        sampleRotation = (next + 1) % nt;
        beginSample(cpu, next);
    } else {
        // Figure 8 lines 16-21: install the next trial partition.
        installTrial(cpu);
    }

    traceEpoch(cpu, epoch_id, sample, ran, ran_partitioned, perf, -1,
               gradient_thread, anchor_moved);
    chargeBoundary(cpu);
}

std::unique_ptr<ResourcePolicy>
HillClimbing::clone() const
{
    return std::make_unique<HillClimbing>(*this);
}

} // namespace smthill
