#include "harness/sync_runner.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

double
SyncResult::offlineWinRate(std::size_t other_index) const
{
    const SyncSeries &s = others.at(other_index);
    if (offline.metric.empty())
        return 0.0;
    std::size_t n = std::min(offline.metric.size(), s.metric.size());
    std::size_t wins = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (offline.metric[i] >= s.metric[i])
            ++wins;
    return static_cast<double>(wins) / static_cast<double>(n);
}

SyncResult
syncCompareOffline(SmtCpu cpu, const OfflineExhaustive &offline,
                   const std::vector<ResourcePolicy *> &policies,
                   int epochs, EventTrace *trace)
{
    SyncResult res;
    res.offline.name = "OFF-LINE";
    for (ResourcePolicy *p : policies)
        res.others.push_back(SyncSeries{p->name(), {}});

    const OfflineConfig &oc = offline.config();

    if (trace) {
        trace->processName(0, "OFF-LINE");
        for (std::size_t pi = 0; pi < policies.size(); ++pi)
            trace->processName(1 + static_cast<int>(pi),
                               policies[pi]->name());
        cpu.setEventTrace(trace, 0); // OFF-LINE's own process
    }

    for (int e = 0; e < epochs; ++e) {
        // Each policy runs one epoch from a checkpoint of cpu, which
        // only stepEpoch below advances, with a fresh clone (its
        // steady state re-forms within cycles). A handful of copies
        // per epoch, each needing its own event-trace wiring, so the
        // arena buys nothing here.
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            SmtCpu trial = cpu.checkpoint();
            auto policy = policies[pi]->clone();
            // Copies start with no links (Attachment), so each
            // throwaway pair is wired to file under its own process.
            if (trace) {
                int pid = 1 + static_cast<int>(pi);
                policy->setEventTrace(trace, pid);
                trial.setEventTrace(trace, pid);
            }
            policy->attach(trial);
            IpcSample s = runOneEpoch(trial, *policy, oc.epochSize);
            res.others[pi].metric.push_back(
                evalMetric(oc.metric, s, oc.singleIpc));
        }

        // Advance the real machine along OFF-LINE's best path.
        OfflineEpoch rec = offline.stepEpoch(cpu);
        res.offline.metric.push_back(rec.metricValue);
        if (trace) {
            Json args = Json::object();
            args.set("epoch", e);
            args.set("metric", rec.metricValue);
            args.set("best", shareJson(rec.best));
            trace->instant(cpu.now(), 0, kControlTid,
                           EventId::OfflineBestPartition, std::move(args));
        }
    }
    return res;
}

std::vector<HillTraceEpoch>
traceHillVsOffline(SmtCpu cpu, HillClimbing &hill,
                   const OfflineConfig &offline_config, int epochs)
{
    if (cpu.numThreads() != 2)
        fatal("traceHillVsOffline: 2-thread machines only");

    OfflineConfig oc = offline_config;
    oc.keepCurves = true;
    oc.epochSize = hill.config().epochSize;
    OfflineExhaustive offline(oc);

    std::vector<HillTraceEpoch> out;
    out.reserve(epochs);

    // The machine arrived by value, so it has no links; mirror the
    // hill policy's event trace (if any) onto it. Trial machines
    // start unobserved, so the exhaustive per-epoch mapping never
    // feeds the stream or the learner's observers.
    cpu.setEventTrace(hill.eventTrace(), hill.eventTracePid());
    hill.attach(cpu);
    for (int e = 0; e < epochs; ++e) {
        // Exhaustively map the epoch without advancing the machine.
        OfflineEpoch best = offline.mapEpoch(cpu);

        HillTraceEpoch rec;
        rec.offlineShare0 = best.best.share[0];
        rec.offlineMetric = best.metricValue;
        rec.curveShares = std::move(best.curveShares);
        rec.curve = std::move(best.curve);
        rec.hillShare0 =
            cpu.partitioningEnabled() ? cpu.partition().share[0] : -1;

        // Hill-climbing takes its real epoch.
        IpcSample s = runOneEpoch(cpu, hill, oc.epochSize);
        rec.hillMetric = evalMetric(oc.metric, s, oc.singleIpc);
        hill.epoch(cpu, static_cast<std::uint64_t>(e));

        out.push_back(std::move(rec));
    }
    return out;
}

} // namespace smthill
