#include "core/offline_exhaustive.hh"

#include "common/log.hh"
#include "common/profile.hh"

namespace smthill
{

IpcSample
runTrialEpoch(SmtCpu &trial, const Partition &partition, Cycle epoch_size)
{
    SMTHILL_PROF_SCOPE("offline.trial_epoch");
    trial.setPartition(partition);
    auto before = trial.stats().committed;
    trial.run(epoch_size);

    IpcSample s;
    s.numThreads = trial.numThreads();
    for (int i = 0; i < s.numThreads; ++i) {
        s.ipc[i] =
            static_cast<double>(trial.stats().committed[i] - before[i]) /
            static_cast<double>(epoch_size);
    }
    return s;
}

IpcSample
runFixedPartitionEpoch(const SmtCpu &checkpoint, const Partition &partition,
                       Cycle epoch_size, SmtCpu *advanced)
{
    // One copy per committed epoch (not per trial).
    SmtCpu trial = checkpoint; // smthill-lint: allow(cpu-copy-hot-path)
    IpcSample s = runTrialEpoch(trial, partition, epoch_size);
    if (advanced)
        *advanced = std::move(trial);
    return s;
}

double
OfflineResult::meanMetric() const
{
    if (epochs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &e : epochs)
        sum += e.metricValue;
    return sum / static_cast<double>(epochs.size());
}

OfflineExhaustive::OfflineExhaustive(OfflineConfig config)
    : cfg(config),
      pool(std::make_shared<ThreadPool>(cfg.jobs < 1 ? 1 : cfg.jobs)),
      arena(std::make_shared<MachineArena>(pool->jobs()))
{
    if (cfg.stride < 1)
        fatal("OfflineExhaustive: stride must be >= 1");
}

OfflineEpoch
OfflineExhaustive::stepEpoch(SmtCpu &cpu) const
{
    SMTHILL_PROF_SCOPE("offline.step_epoch");
    if (cpu.numThreads() != 2)
        fatal("OfflineExhaustive: exhaustive search supports exactly "
              "2 hardware contexts (use RandHill for more)");

    // One checkpoint capture per epoch; trials restore from it via
    // the arena below.
    const SmtCpu checkpoint = cpu; // smthill-lint: allow(cpu-copy-hot-path)
    const int total = cpu.config().intRegs;

    // Every trial is an independent function of the checkpoint, so
    // the sweep fans out across the pool. Results land in per-trial
    // slots and are reduced below in enumeration order, making the
    // chosen partition (first strict maximum, i.e. lowest share[0]
    // among exact ties) bit-identical to the serial jobs=1 path.
    const std::vector<Partition> trials =
        enumeratePartitions2(total, cfg.stride);
    std::vector<IpcSample> samples(trials.size());
    std::vector<double> metrics(trials.size());
    pool->parallelForWorker(trials.size(), [&](std::size_t i, int worker) {
        // Restore the worker's warm machine instead of copy-
        // constructing a fresh SmtCpu per trial.
        SmtCpu &trial = arena->acquire(worker, checkpoint);
        samples[i] = runTrialEpoch(trial, trials[i], cfg.epochSize);
        metrics[i] = evalMetric(cfg.metric, samples[i], cfg.singleIpc);
    });

    OfflineEpoch rec;
    double best_metric = -1.0;
    Partition best;
    IpcSample best_ipc;

    for (std::size_t i = 0; i < trials.size(); ++i) {
        if (cfg.keepCurves) {
            rec.curveShares.push_back(trials[i].share[0]);
            rec.curve.push_back(metrics[i]);
        }
        if (metrics[i] > best_metric) {
            best_metric = metrics[i];
            best = trials[i];
            best_ipc = samples[i];
        }
    }

    // Commit: advance the real machine through the best trial. Only
    // this epoch is charged to execution time.
    rec.ipc = runFixedPartitionEpoch(checkpoint, best, cfg.epochSize, &cpu);
    rec.best = best;
    rec.metricValue = best_metric;
    return rec;
}

OfflineResult
OfflineExhaustive::run(SmtCpu &cpu, int num_epochs) const
{
    OfflineResult res;
    res.epochs.reserve(num_epochs);
    for (int e = 0; e < num_epochs; ++e)
        res.epochs.push_back(stepEpoch(cpu));
    return res;
}

} // namespace smthill
