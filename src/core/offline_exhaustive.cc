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
    int winner = 0;
    OfflineEpoch rec = sweep(cpu, winner);
    // Commit: the machine takes the best trial's end state. Only this
    // epoch is charged to execution time.
    cpu.restoreFrom(arena->best(winner));
    return rec;
}

OfflineEpoch
OfflineExhaustive::mapEpoch(const SmtCpu &cpu) const
{
    int winner = 0;
    return sweep(cpu, winner);
}

OfflineEpoch
OfflineExhaustive::sweep(const SmtCpu &cpu, int &winner) const
{
    if (cpu.numThreads() != 2)
        fatal("OfflineExhaustive: exhaustive search supports exactly "
              "2 hardware contexts (use RandHill for more)");

    // Every trial is an independent function of cpu, which nothing
    // writes during the sweep, so the sweep fans out across the pool
    // and each trial restores the worker's arena machine from cpu.
    // Results land in per-trial slots and are reduced below in
    // enumeration order, making the chosen partition (first strict
    // maximum, i.e. lowest share[0] among exact ties) bit-identical
    // to the serial jobs=1 path. Each worker keeps its own strict
    // improvements in increasing index order, so the worker that ran
    // the winner holds exactly that trial's machine.
    const std::vector<Partition> trials =
        enumeratePartitions2(cpu.config().intRegs, cfg.stride);
    std::vector<IpcSample> samples(trials.size());
    std::vector<double> metrics(trials.size());
    std::vector<int> ranOn(trials.size());
    arena->clearBests();
    pool->parallelForWorker(trials.size(), [&](std::size_t i, int worker) {
        SmtCpu &trial = arena->acquire(worker, cpu);
        samples[i] = runTrialEpoch(trial, trials[i], cfg.epochSize);
        metrics[i] = evalMetric(cfg.metric, samples[i], cfg.singleIpc);
        arena->keep(worker, metrics[i]);
        ranOn[i] = worker;
    });

    OfflineEpoch rec;
    rec.metricValue = -1.0;
    winner = -1;
    for (std::size_t i = 0; i < trials.size(); ++i) {
        if (cfg.keepCurves) {
            rec.curveShares.push_back(trials[i].share[0]);
            rec.curve.push_back(metrics[i]);
        }
        if (metrics[i] > rec.metricValue) {
            rec.metricValue = metrics[i];
            rec.best = trials[i];
            rec.ipc = samples[i];
            winner = ranOn[i];
        }
    }
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
