#include "workload/open_system.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{

namespace
{

/** @return the @p p quantile (0 < p <= 1) of sorted @p values. */
double
quantile(const std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    auto n = static_cast<double>(values.size());
    auto idx = static_cast<std::size_t>(std::ceil(p * n)) - 1;
    idx = std::min(idx, values.size() - 1);
    return values[idx];
}

} // namespace

OpenSystem::OpenSystem(const SmtConfig &machine,
                       const OpenSystemConfig &config)
    : machineConfig(machine), cfg(config)
{
    if (cfg.numJobs < 1)
        fatal("OpenSystem: numJobs must be >= 1");
    if (!(cfg.arrivalRate > 0.0))
        fatal("OpenSystem: arrivalRate must be > 0");
    if (cfg.minJobInstructions < 1 ||
        cfg.maxJobInstructions < cfg.minJobInstructions)
        fatal("OpenSystem: bad job instruction bounds");
    if (cfg.epochSize < 1)
        fatal("OpenSystem: epoch size must be >= 1");

    std::vector<std::string> pool = cfg.benchmarkPool;
    if (pool.empty())
        pool = specBenchmarkNames();
    for (const auto &name : pool)
        if (!isSpecBenchmark(name))
            fatal(msg("OpenSystem: unknown benchmark '", name, "'"));

    // The whole schedule is pre-generated from one Rng so a run is a
    // pure function of the config: exponential inter-arrival gaps by
    // inverse transform, then benchmark / bound / priority / stream
    // seed per job, in a fixed draw order.
    Rng rng(cfg.seed);
    Cycle t = 0;
    jobs.reserve(cfg.numJobs);
    for (int j = 0; j < cfg.numJobs; ++j) {
        double u = rng.nextDouble();
        double gap = -std::log1p(-u) / cfg.arrivalRate;
        t += std::max<Cycle>(1, static_cast<Cycle>(gap));

        JobRecord job;
        job.jobId = j;
        job.arriveCycle = t;
        job.benchmark = pool[rng.nextBelow(pool.size())];
        job.instructions =
            cfg.minJobInstructions +
            rng.nextBelow(cfg.maxJobInstructions - cfg.minJobInstructions +
                          1);
        job.priority =
            cfg.slaWeights ? 1 + static_cast<int>(rng.nextBelow(4)) : 1;
        job.streamSeed = rng.next();
        jobs.push_back(std::move(job));
    }
}

SmtCpu
OpenSystem::makeMachine() const
{
    int nt = machineConfig.numThreads;

    // Placeholder generators for the initial (all-idle) contexts;
    // they are replaced via resetContext before a context ever runs.
    std::vector<StreamGenerator> gens;
    gens.reserve(nt);
    std::vector<std::string> pool = cfg.benchmarkPool;
    if (pool.empty())
        pool = specBenchmarkNames();
    for (int i = 0; i < nt; ++i)
        gens.emplace_back(specProfile(pool[0]), 0);

    return SmtCpu(machineConfig, std::move(gens));
}

OpenSystemResult
OpenSystem::run(ResourcePolicy &policy, EventTrace *trace, int trace_pid)
{
    SmtCpu cpu = makeMachine();
    return runOn(cpu, policy, trace, trace_pid);
}

OpenSystemResult
OpenSystem::runOn(SmtCpu &cpu, ResourcePolicy &policy, EventTrace *trace,
                  int trace_pid)
{
    int nt = machineConfig.numThreads;

    if (!trace && policy.eventTrace()) {
        trace = policy.eventTrace();
        trace_pid = policy.eventTracePid();
    }
    if (trace) {
        cpu.setEventTrace(trace, trace_pid);
        policy.setEventTrace(trace, trace_pid);
    }
    for (int i = 0; i < nt; ++i)
        cpu.setThreadEnabled(static_cast<ThreadId>(i), false);
    policy.attach(cpu);

    OpenSystemResult res;
    res.config = cfg;
    res.policyName = policy.name();
    res.jobs = jobs;

    auto snapshotCtx = [&cpu](int tid) {
        auto id = static_cast<ThreadId>(tid);
        ContextSnapshot s;
        s.cycle = cpu.now();
        s.committed = cpu.stats().committed[tid];
        s.fetched = cpu.stats().fetched[tid];
        s.flushed = cpu.stats().flushed[tid];
        s.branches = cpu.stats().branches[tid];
        s.mispredicts = cpu.stats().mispredicts[tid];
        s.partitionLockCycles = cpu.stats().partitionLockCycles[tid];
        s.dl1Misses = cpu.memory().dl1Misses(id);
        s.l2Misses = cpu.memory().l2Misses(id);
        return s;
    };

    std::vector<int> contextJob(nt, -1);
    std::vector<int> waiting; ///< FIFO of arrived, unplaced job indices
    std::size_t nextArrival = 0;
    int done = 0;
    Cycle cycleInEpoch = 0;
    std::uint64_t epochId = 0;

    while (true) {
        Cycle now = cpu.now();

        while (nextArrival < res.jobs.size() &&
               res.jobs[nextArrival].arriveCycle <= now) {
            const JobRecord &job = res.jobs[nextArrival];
            waiting.push_back(static_cast<int>(nextArrival));
            if (trace) {
                Json args = Json::object();
                args.set("job", job.jobId);
                args.set("benchmark", job.benchmark);
                args.set("priority", job.priority);
                args.set("instructions", job.instructions);
                trace->instant(now, trace_pid, kControlTid, EventId::JobArrive,
                               std::move(args));
            }
            ++nextArrival;
        }
        res.maxQueueDepth =
            std::max(res.maxQueueDepth, static_cast<int>(waiting.size()));

        // FIFO placement onto the lowest-numbered free context.
        while (!waiting.empty()) {
            int tid = -1;
            for (int i = 0; i < nt; ++i) {
                if (contextJob[i] < 0) {
                    tid = i;
                    break;
                }
            }
            if (tid < 0)
                break;
            int j = waiting.front();
            waiting.erase(waiting.begin());
            JobRecord &job = res.jobs[j];
            job.context = tid;
            job.attached = true;
            job.attachCycle = now;
            cpu.resetContext(static_cast<ThreadId>(tid),
                             StreamGenerator(specProfile(job.benchmark),
                                             job.streamSeed));
            job.atAttach = snapshotCtx(tid);
            contextJob[tid] = j;
            if (trace) {
                Json args = Json::object();
                args.set("job", job.jobId);
                args.set("context", tid);
                args.set("waited", now - job.arriveCycle);
                trace->instant(now, trace_pid, tid, EventId::JobAttach,
                               std::move(args));
            }
            policy.threadAttached(cpu, static_cast<ThreadId>(tid));
        }

        if (done == static_cast<int>(res.jobs.size()))
            break;
        if (cfg.horizon > 0 && now >= cfg.horizon)
            break;

        policy.cycle(cpu);
        cpu.step();
        if (observer)
            observer(cpu);

        for (int tid = 0; tid < nt; ++tid) {
            int j = contextJob[tid];
            if (j < 0)
                continue;
            JobRecord &job = res.jobs[j];
            if (cpu.stats().committed[tid] - job.atAttach.committed <
                job.instructions)
                continue;
            cpu.idleContext(static_cast<ThreadId>(tid));
            job.atDepart = snapshotCtx(tid);
            job.departCycle = cpu.now();
            job.completed = true;
            contextJob[tid] = -1;
            ++done;
            if (trace) {
                Json args = Json::object();
                args.set("job", job.jobId);
                args.set("context", tid);
                args.set("committed", job.committed());
                args.set("residency", job.residency());
                trace->instant(cpu.now(), trace_pid, tid, EventId::JobDepart,
                               std::move(args));
            }
            policy.threadDetached(cpu, static_cast<ThreadId>(tid));
        }

        if (++cycleInEpoch >= cfg.epochSize) {
            cycleInEpoch = 0;
            policy.epoch(cpu, epochId++);
        }
    }

    // Close out whatever the horizon interrupted: jobs still resident
    // get a final snapshot; jobs never placed keep zero residency.
    Cycle end = cpu.now();
    for (auto &job : res.jobs) {
        if (job.completed) {
            ++res.completedJobs;
            continue;
        }
        ++res.horizonJobs;
        job.departCycle = end;
        if (job.attached && job.context >= 0 &&
            contextJob[job.context] == job.jobId)
            job.atDepart = snapshotCtx(job.context);
    }
    res.cycles = end;
    res.committedTotal = cpu.stats().committedTotal();
    return res;
}

LatencyStats
jobLatencyStats(const OpenSystemResult &result)
{
    std::vector<double> lat;
    lat.reserve(result.jobs.size());
    for (const auto &job : result.jobs)
        if (job.completed)
            lat.push_back(static_cast<double>(job.latency()));
    std::sort(lat.begin(), lat.end());
    LatencyStats s;
    s.p50 = quantile(lat, 0.50);
    s.p95 = quantile(lat, 0.95);
    s.p99 = quantile(lat, 0.99);
    return s;
}

double
jobThroughput(const OpenSystemResult &result)
{
    if (result.cycles == 0)
        return 0.0;
    return static_cast<double>(result.completedJobs) * 1e6 /
           static_cast<double>(result.cycles);
}

double
jainFairness(const std::vector<double> &shares)
{
    double sum = 0.0;
    double sumsq = 0.0;
    for (double x : shares) {
        sum += x;
        sumsq += x * x;
    }
    if (shares.empty() || sumsq <= 0.0)
        return 0.0;
    return sum * sum / (static_cast<double>(shares.size()) * sumsq);
}

std::vector<double>
priorityWeightedJobIpcs(const OpenSystemResult &result)
{
    std::vector<double> out;
    out.reserve(result.jobs.size());
    for (const auto &job : result.jobs)
        if (job.completed)
            out.push_back(job.ipc() / static_cast<double>(job.priority));
    return out;
}

} // namespace smthill
