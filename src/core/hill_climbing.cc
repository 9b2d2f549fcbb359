#include "core/hill_climbing.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

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
    singleIpcEst = cfg.singleIpc;
    lastCommitted = cpu.stats().committed;
    lastEpochStart = cpu.now();
    roundStart = cpu.now();
    lastElapsed = 0;
    algEpoch = 0;
    epochsSinceSample = 0;
    sampleRotation = 0;
    samplingThread = -1;
    history.clear();
    roundPos = 0;
    roundDirty = false;
    needsSolo.fill(false);
    residentAccum.fill(0);
    residentFrom.fill(cpu.now());
    for (int i = 0; i < nt; ++i) {
        activeMask[i] = cpu.threadEnabled(static_cast<ThreadId>(i));
        cpu.setFetchLocked(static_cast<ThreadId>(i), false);
    }
    // The anchor covers only the active set (unchanged when every
    // context holds a job).
    anchorPartition =
        redistributeDetached(anchorPartition, activeMask, cfg.minShare);
    startLearning(cpu);
}

void
HillClimbing::startLearning(SmtCpu &cpu)
{
    // Bootstrap the stand-alone IPC estimates (Section 4.2): without
    // an estimate WIPC/HWIPC degenerate into raw-IPC learning
    // (evalMetric's solo() fallback), so every job lacking one runs
    // solo once, lowest context first, before learning begins.
    for (int i = 0; i < cpu.numThreads(); ++i)
        queueSolo(i);
    int pending = nextNeedsSolo();
    if (pending >= 0)
        beginSample(cpu, pending);
    else
        installTrial(cpu);
}

void
HillClimbing::queueSolo(int tid)
{
    needsSolo[tid] =
        samplesSolo() && activeMask[tid] && singleIpcEst[tid] <= 0.0;
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
    if (numActive(anchorPartition.numThreads) < 2)
        return -1;
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

void
HillClimbing::threadAttached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
    activeMask[tid] = true;
    residentAccum[tid] = 0;
    residentFrom[tid] = cpu.now();
    lastCommitted[tid] = cpu.stats().committed[tid];
    // A reused context must not learn on the previous occupant's
    // stand-alone IPC: restart from the supplied estimate and, when
    // none is supplied, queue a bootstrap solo sample for the new job.
    singleIpcEst[tid] = cfg.singleIpc[tid];
    roundPerf[tid] = 0.0;
    queueSolo(tid);
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
    onChurn(cpu, tid, true);

    if (samplingThread >= 0 && samplingThread != static_cast<int>(tid)) {
        // A solo sample is in flight: the newcomer waits disabled
        // until it ends so the sample stays clean.
        cpu.setThreadEnabled(tid, false);
    } else if (numActive(nt) >= 2) {
        cpu.setPartition(anchorPartition);
    } else {
        cpu.clearPartition();
    }
    traceChurn(cpu, tid, true);
}

void
HillClimbing::threadDetached(SmtCpu &cpu, ThreadId tid)
{
    int nt = cpu.numThreads();
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
    onChurn(cpu, tid, false);

    if (samplingThread == static_cast<int>(tid)) {
        // The thread running solo departed mid-sample: abandon it.
        // Bootstrap samples still queued run from the next boundary.
        samplingThread = -1;
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
    traceChurn(cpu, tid, false);
}

void
HillClimbing::traceChurn(const SmtCpu &cpu, ThreadId tid, bool attached)
{
    if (EventTrace *evt = eventTrace()) {
        Json args = Json::object();
        args.set("thread", static_cast<int>(tid));
        churnArgs(args);
        args.set("anchor", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTracePid(), kControlTid,
                     churnEvent(attached), std::move(args));
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
        // Partial residency (the job attached or departed inside this
        // window) must not be charged as full residency: the divisor
        // is the cycles the context actually held a job.
        Cycle resident = residentAccum[i];
        if (activeMask[i]) {
            Cycle from = std::max(residentFrom[i], lastEpochStart);
            resident += now > from ? now - from : 0;
        }
        resident = std::min(resident, lastElapsed);
        if (resident == 0) {
            s.ipc[i] = 0.0;
            continue;
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
        // A bootstrap sample fills an estimate that does not exist yet.
        args.set("bootstrap", singleIpcEst[tid] <= 0.0);
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
    residentAccum.fill(0);
    residentFrom.fill(lastEpochStart);
}

void
HillClimbing::installTrial(SmtCpu &cpu)
{
    int na = numActive(cpu.numThreads());
    if (na < 2) {
        // Nothing to partition: 0 or 1 jobs resident.
        cpu.clearPartition();
        return;
    }
    // Figure 8's epoch k of a round favors the k-th active context
    // (algEpoch % T when every context holds a job).
    int favored = activeAt(roundPos % na);
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
    if (EventTrace *evt = eventTrace()) {
        // The epoch that just finished, as one slice on the control
        // track covering the cycles the measurement actually saw.
        evt->complete(lastEpochStart,
                      static_cast<std::int64_t>(lastElapsed),
                      eventTracePid(), kControlTid, EventId::Epoch,
                      epochRecordToJson(rec));
    }
    history.push_back(std::move(rec));
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
        int pending = nextNeedsSolo();
        if (pending >= 0) {
            // Chain straight into the next queued bootstrap sample
            // until every estimate is populated.
            beginSample(cpu, pending);
        } else {
            samplingThread = -1;
            for (int i = 0; i < nt; ++i)
                cpu.setThreadEnabled(static_cast<ThreadId>(i),
                                     activeMask[i]);
            installTrial(cpu);
        }
        traceEpoch(cpu, epoch_id, sample, ran, ran_partitioned,
                   sample.ipc[sampled], sampled, -1, false);
        chargeBoundary(cpu);
        return;
    }

    if (na <= 1) {
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
    // metrics need stand-alone IPCs. Churn-queued bootstrap samples
    // (needsSolo) take priority over the periodic rotation.
    int pending = nextNeedsSolo();
    if (pending >= 0) {
        beginSample(cpu, pending);
    } else if (samplesSolo() &&
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
