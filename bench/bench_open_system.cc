/**
 * @file
 * Open-system traffic scenario: jobs arrive on a seeded exponential
 * process, attach to free hardware contexts, run a bounded
 * instruction stream, and depart. The lambda sweep crosses three
 * arrival intensities (mean inter-arrival gap 64K / 16K / 4K cycles)
 * with six policies (ICOUNT, DCRA, HILL, PHASE-HILL, BANDIT, RL) —
 * the full learner family racing on identical arrival schedules —
 * and reports job throughput, sojourn-latency tails (p50/p95/p99),
 * and Jain fairness over priority-weighted per-job IPCs: the
 * serving-system regime the paper's closed 2-4-thread mixes cannot
 * exercise.
 *
 * Cells share one cold-machine checkpoint through a MachineArena
 * (restoreFrom per cell instead of full construction), which is
 * bit-identical to fresh construction because the cold machine is a
 * pure function of the machine shape. Every cell is an independent
 * deterministic run, so results are bit-identical across
 * SMTHILL_JOBS settings and same-seed reruns.
 * Scale with SMTHILL_OS_JOBS (jobs per run) and SMTHILL_OS_HORIZON;
 * SMTHILL_SEED seeds the arrivals. Export with SMTHILL_STATS_JSON
 * (`smthill.bench.open-system.v1`); trace one run with
 * SMTHILL_EVENT_TRACE.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "core/hill_climbing.hh"
#include "core/machine_arena.hh"
#include "harness/table.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"
#include "workload/open_system.hh"

namespace smthill::benchutil
{

namespace
{

constexpr int kNumPolicies = 6;

std::unique_ptr<ResourcePolicy>
makePolicy(int pi, Cycle epoch_size, std::uint64_t seed)
{
    switch (pi) {
      case 0:
        return std::make_unique<IcountPolicy>();
      case 1:
        return std::make_unique<DcraPolicy>();
      case 2: {
        HillConfig hc;
        hc.epochSize = epoch_size;
        return std::make_unique<HillClimbing>(hc);
      }
      case 3: {
        HillConfig hc;
        hc.epochSize = epoch_size;
        return std::make_unique<PhaseHillClimbing>(hc);
      }
      case 4: {
        BanditConfig bc;
        bc.epochSize = epoch_size;
        bc.seed = seed;
        return std::make_unique<BanditAllocator>(bc);
      }
      default: {
        RlConfig rc;
        rc.epochSize = epoch_size;
        rc.seed = seed;
        return std::make_unique<RlAllocator>(rc);
      }
    }
}

} // namespace

void
openSystemSweep(const FigureConfig &cfg)
{
    banner("Open-system lambda sweep: arrival traffic vs policy");

    const RunConfig &rc = cfg.rc;

    SmtConfig machine = rc.machine;
    machine.numThreads = 4;

    OpenSystemConfig base;
    base.seed = cfg.osSeed;
    base.numJobs = cfg.sizes.osJobs;
    base.minJobInstructions = 20'000;
    base.maxJobInstructions = 60'000;
    base.epochSize = rc.epochSize;
    base.horizon = cfg.sizes.osHorizon;
    base.slaWeights = true;

    const Cycle mean_gaps[] = {64 * 1024, 16 * 1024, 4 * 1024};
    const char *policy_names[] = {"ICOUNT", "DCRA", "HILL",
                                  "PHASE-HILL", "BANDIT", "RL"};
    constexpr std::size_t kNumGaps =
        sizeof(mean_gaps) / sizeof(mean_gaps[0]);

    const std::size_t cells = kNumGaps * kNumPolicies;
    std::vector<OpenSystemResult> results(cells);

    // Warm-machine fast path: the cold machine every cell starts
    // from is identical across the sweep (same shape, same pool), so
    // build it once and restore per worker instead of reconstructing
    // the cache hierarchy and predictors cells-times over.
    const int jobs = rc.jobs;
    OpenSystem proto(machine, base);
    const SmtCpu checkpoint = proto.makeMachine();
    MachineArena arena(jobs);

    // Opt-in time series: one smthill.snapshots.v1 delta row per
    // completed cell (host telemetry only; cell results are
    // unaffected).
    SnapshotSink snapshots(cfg.snapshots);

    runGridWorker(cells, jobs, [&](std::size_t cell, int worker) {
        const Cycle gap = mean_gaps[cell / kNumPolicies];
        const int pi = static_cast<int>(cell % kNumPolicies);
        OpenSystemConfig sys_cfg = base;
        sys_cfg.arrivalRate = 1.0 / static_cast<double>(gap);
        OpenSystem sys(machine, sys_cfg);
        auto policy = makePolicy(pi, sys_cfg.epochSize, base.seed);
        SmtCpu &cpu = arena.acquire(worker, checkpoint);
        results[cell] = sys.runOn(cpu, *policy);
        snapshots.sample(cell, results[cell].cycles);
    });

    for (std::size_t gi = 0; gi < kNumGaps; ++gi) {
        std::printf("\n-- mean inter-arrival gap %llu cycles --\n",
                    static_cast<unsigned long long>(mean_gaps[gi]));
        Table t({"policy", "jobs/Mcyc", "p50", "p95", "p99", "fairness",
                 "done", "maxq"});
        for (int pi = 0; pi < kNumPolicies; ++pi) {
            const OpenSystemResult &res =
                results[gi * kNumPolicies + pi];
            LatencyStats lat = jobLatencyStats(res);
            double fair = jainFairness(priorityWeightedJobIpcs(res));
            t.beginRow();
            t.cell(std::string(policy_names[pi]));
            t.cell(jobThroughput(res));
            t.cell(lat.p50, 0);
            t.cell(lat.p95, 0);
            t.cell(lat.p99, 0);
            t.cell(fair, 3);
            t.cell(static_cast<double>(res.completedJobs), 0);
            t.cell(static_cast<double>(res.maxQueueDepth), 0);
        }
        t.print();
    }

    // Optional cycle-level trace of one run (HILL at the heaviest
    // traffic): the job.arrive/job.attach/job.depart markers land on
    // the same timeline as the machine and learner events.
    const std::string &trace_path = cfg.eventTrace;
    if (!trace_path.empty()) {
        OpenSystemConfig sys_cfg = base;
        sys_cfg.arrivalRate =
            1.0 / static_cast<double>(mean_gaps[kNumGaps - 1]);
        OpenSystem sys(machine, sys_cfg);
        auto policy = makePolicy(2, sys_cfg.epochSize, base.seed);
        EventTrace trace;
        trace.processName(1, "open-system HILL");
        sys.run(*policy, &trace, 1);
        writeEventTrace(trace, trace_path);
    }

    const std::string &stats_path = cfg.statsJson;
    if (!stats_path.empty()) {
        Json doc = Json::object();
        doc.set("schema", Json("smthill.bench.open-system.v1"));
        doc.set("seed", Json(base.seed));
        doc.set("machine_threads", Json(machine.numThreads));
        doc.set("num_jobs", Json(base.numJobs));
        Json rows = Json::array();
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const OpenSystemResult &res = results[cell];
            LatencyStats lat = jobLatencyStats(res);
            Json row = Json::object();
            row.set("mean_gap",
                    Json(mean_gaps[cell / kNumPolicies]));
            row.set("policy",
                    Json(policy_names[cell % kNumPolicies]));
            row.set("throughput", Json(jobThroughput(res)));
            row.set("latency_p50", Json(lat.p50));
            row.set("latency_p95", Json(lat.p95));
            row.set("latency_p99", Json(lat.p99));
            row.set("fairness",
                    Json(jainFairness(priorityWeightedJobIpcs(res))));
            row.set("completed_jobs", Json(res.completedJobs));
            row.set("horizon_jobs", Json(res.horizonJobs));
            row.set("max_queue_depth", Json(res.maxQueueDepth));
            row.set("cycles", Json(res.cycles));
            row.set("committed_total", Json(res.committedTotal));
            rows.push(std::move(row));
        }
        doc.set("rows", std::move(rows));

        Json reloaded = writeAndReloadJson(stats_path, doc);
        const Json &row0 = reloaded.at("rows").items().front();
        checkExportValue("throughput", row0.at("throughput").asDouble(),
                         jobThroughput(results[0]));
        checkExportValue("latency_p99",
                         row0.at("latency_p99").asDouble(),
                         jobLatencyStats(results[0]).p99);
        std::printf("wrote open-system stats to %s\n",
                    stats_path.c_str());
    }
}

} // namespace smthill::benchutil
