/**
 * @file
 * smthill command-line driver: run any workload under any policy
 * with any machine/experiment parameters, and print end metrics, a
 * derived statistics report, per-epoch CSV series, or the last
 * per-instruction pipeline events — without recompiling.
 *
 * Usage:
 *   smthill_cli [key=value ...] [config=FILE]
 *   smthill_cli help            (list options, policies, workloads)
 *
 * Examples:
 *   smthill_cli workload=art-mcf policy=hill-wipc epochs=64
 *   smthill_cli workload=swim-twolf policy=dcra csv=1
 *   smthill_cli workload=art-mcf policy=flush int_regs=128 trace=200
 *
 * Comma-separated workload/policy lists run every combination as a
 * grid of independent cells across `jobs` worker threads (default:
 * all hardware threads) and print one summary table:
 *   smthill_cli workload=art-mcf,swim-twolf policy=icount,dcra jobs=8
 *
 * Machine-readable export:
 *   stats_json=FILE   (or --stats-json=FILE) writes a
 *     `smthill.stats.v1` document: {"schema", "run" (workload,
 *     policy, epochs, epoch_size, warmup_cycles, seed, solo_epochs),
 *     "metrics" (weighted_ipc, avg_ipc, harmonic_weighted_ipc),
 *     "report" (a `smthill.report.v1` object), "counters" (the
 *     process-wide StatRegistry dump)}. Grid runs replace "run" /
 *     "metrics" / "report" with "grid" + a "cells" array holding the
 *     same three metrics per workload x policy cell.
 *   epoch_trace=FILE  (or --epoch-trace=FILE) writes the per-epoch
 *     `smthill.epoch-trace.v1` trace (see core/epoch_trace.hh); a
 *     path ending in ".csv" writes the flat CSV form instead.
 *     Learning policies export their epoch history (anchor/trial
 *     partitions, round perf, SingleIPC estimates), the same records
 *     their `epoch` events carry; other policies get a generic trace
 *     synthesized from the per-epoch IPC series.
 *   event_trace=FILE  (or --event-trace=FILE) writes the cycle-level
 *     `smthill.events.v1` event trace (see common/event_trace.hh):
 *     epoch/round slices (a learner's `epoch` slice carries its
 *     epoch-trace record as args), anchor-move and phase-reuse
 *     decision audits, and per-thread resource-share counter tracks. A path
 *     ending in ".jsonl" writes the streaming JSONL form; any other
 *     path writes Chrome trace-event / Perfetto JSON loadable at
 *     ui.perfetto.dev.
 *   trace=N records per-instruction `inst` events (fetch, dispatch,
 *     issue, complete, commit, squash) into the same event trace and
 *     prints the last N after the run; with event_trace= they are
 *     exported too.
 *   profile=1 turns on the host-side span profiler for this run
 *     (equivalent to SMTHILL_PROFILE=ON); profile_json=FILE writes
 *     the `smthill.profile.v1` report there instead of the stdout
 *     span table.
 * GNU-style spellings are accepted: "--stats-json=x" is normalized
 * to "stats_json=x" (dashes only rewritten in the key, not values).
 */

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "common/profile.hh"
#include "common/stat_registry.hh"
#include "core/epoch_trace.hh"
#include "core/hill_climbing.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/dg.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"
#include "policy/stall.hh"
#include "policy/stall_flush.hh"
#include "policy/static_partition.hh"
#include "workload/workloads.hh"

using namespace smthill;

namespace
{

/**
 * @return the policy @p name, or null for an unknown name. BANDIT and
 * RL never solo-sample, so they normalize their weighted rewards by
 * @p solo, the stand-alone IPCs the run is reported against. HILL
 * and PHASE-HILL are not handed @p solo: they bootstrap their
 * estimates with solo epochs on-line.
 */
std::unique_ptr<ResourcePolicy>
makePolicy(const std::string &name, Cycle epoch_size,
           const std::array<double, kMaxThreads> &solo = {})
{
    HillConfig hc;
    hc.epochSize = epoch_size;
    if (name == "icount")
        return std::make_unique<IcountPolicy>();
    if (name == "stall")
        return std::make_unique<StallPolicy>();
    if (name == "flush")
        return std::make_unique<FlushPolicy>();
    if (name == "stall-flush")
        return std::make_unique<StallFlushPolicy>();
    if (name == "dg")
        return std::make_unique<DgPolicy>();
    if (name == "pdg")
        return std::make_unique<PdgPolicy>();
    if (name == "dcra")
        return std::make_unique<DcraPolicy>();
    if (name == "static")
        return std::make_unique<StaticPartitionPolicy>();
    if (name == "hill-ipc") {
        hc.metric = PerfMetric::AvgIpc;
        return std::make_unique<HillClimbing>(hc);
    }
    if (name == "hill-wipc") {
        hc.metric = PerfMetric::WeightedIpc;
        return std::make_unique<HillClimbing>(hc);
    }
    if (name == "hill-hwipc") {
        hc.metric = PerfMetric::HarmonicWeightedIpc;
        return std::make_unique<HillClimbing>(hc);
    }
    if (name == "phase-hill") {
        hc.metric = PerfMetric::WeightedIpc;
        return std::make_unique<PhaseHillClimbing>(hc);
    }
    if (name == "bandit-ucb" || name == "bandit-exp3") {
        BanditConfig bc;
        bc.epochSize = epoch_size;
        bc.metric = PerfMetric::WeightedIpc;
        bc.singleIpc = solo;
        if (name == "bandit-exp3")
            bc.algo = BanditAlgo::Exp3;
        return std::make_unique<BanditAllocator>(bc);
    }
    if (name == "rl") {
        RlConfig rc;
        rc.epochSize = epoch_size;
        rc.metric = PerfMetric::WeightedIpc;
        rc.singleIpc = solo;
        return std::make_unique<RlAllocator>(rc);
    }
    return nullptr;
}

const char *kPolicyNames =
    "icount stall flush stall-flush dg pdg dcra static hill-ipc "
    "hill-wipc hill-hwipc phase-hill bandit-ucb bandit-exp3 rl";

/** @return the feedback metric a policy name implies (WIPC default). */
PerfMetric
policyMetric(const std::string &name)
{
    if (name == "hill-ipc")
        return PerfMetric::AvgIpc;
    if (name == "hill-hwipc")
        return PerfMetric::HarmonicWeightedIpc;
    return PerfMetric::WeightedIpc;
}

/**
 * Accept GNU-style spellings: "--stats-json=x" normalizes to
 * "stats_json=x". Only the key (before '=') is rewritten, so values
 * keep their dashes (workload=art-mcf).
 */
std::string
normalizeArg(const std::string &arg)
{
    std::string s = arg;
    if (s.rfind("--", 0) == 0)
        s = s.substr(2);
    std::size_t key_end = s.find('=');
    if (key_end == std::string::npos)
        key_end = s.size();
    for (std::size_t i = 0; i < key_end; ++i)
        if (s[i] == '-')
            s[i] = '_';
    return s;
}

/** Write @p content to @p path, fataling on I/O failure. */
void
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out)
        fatal(msg("cannot write '", path, "'"));
}

/** Shared metadata + counters skeleton of a smthill.stats.v1 doc. */
Json
statsDocument()
{
    Json root = Json::object();
    root.set("schema", Json("smthill.stats.v1"));
    return root;
}

/**
 * Emit the host-profile report when profiling is on: to @p path as a
 * `smthill.profile.v1` document, or as a stdout span summary when
 * @p path is empty. No-op with profiling off, so default CLI output
 * is untouched.
 */
void
exportProfile(const std::string &path)
{
    if (!prof::profilingEnabled())
        return;
    const prof::ProfileReport report = prof::profileReport();
    if (!path.empty()) {
        writeTextFile(path, prof::profileToJson(report).dump(2) + "\n");
        std::printf("wrote host profile to %s (%zu spans, "
                    "parallel_efficiency %.3f)\n",
                    path.c_str(), report.spans.size(),
                    report.parallelEfficiency);
        return;
    }
    std::printf("\nhost profile (parallel_efficiency %.3f):\n",
                report.parallelEfficiency);
    for (const prof::SpanStats &s : report.spans)
        std::printf("  %-28s count=%llu total_ms=%.3f self_ms=%.3f\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    static_cast<double>(s.totalNs) / 1e6,
                    static_cast<double>(s.selfNs) / 1e6);
}

/** Split a comma-separated list; empty pieces are dropped. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/**
 * Grid mode: run every workload x policy cell concurrently and print
 * one row per cell, in list order.
 */
int
runCliGrid(const std::vector<std::string> &workload_names,
           const std::vector<std::string> &policy_names,
           const RunConfig &rc, std::uint64_t solo_epochs,
           const std::string &stats_json)
{
    struct Cell
    {
        double wipc, ipc, hwipc;
    };
    const std::size_t cells =
        workload_names.size() * policy_names.size();
    std::vector<Cell> results(cells);

    // Resolve names up front so unknown workloads/policies fail fast
    // on the main thread instead of inside a worker.
    std::vector<const Workload *> workloads;
    for (const auto &wn : workload_names)
        workloads.push_back(&workloadByName(wn));
    for (const auto &pn : policy_names)
        if (!makePolicy(pn, rc.epochSize))
            fatal(msg("unknown policy '", pn, "'; choose from: ",
                      kPolicyNames));

    runGrid(cells, rc.jobs, [&](std::size_t i) {
        const Workload &w = *workloads[i / policy_names.size()];
        const std::string &pn = policy_names[i % policy_names.size()];
        auto solo = soloIpcs(w, rc, solo_epochs * rc.epochSize);
        auto policy = makePolicy(pn, rc.epochSize, solo);
        RunResult res = runPolicy(w, *policy, rc);
        results[i] = {res.metric(PerfMetric::WeightedIpc, solo),
                      res.metric(PerfMetric::AvgIpc, solo),
                      res.metric(PerfMetric::HarmonicWeightedIpc, solo)};
    });

    std::printf("%zu x %zu grid, %d epochs x %llu cycles, jobs=%d\n\n",
                workload_names.size(), policy_names.size(), rc.epochs,
                static_cast<unsigned long long>(rc.epochSize), rc.jobs);
    Table t({"workload", "policy", "weighted IPC", "avg IPC",
             "harmonic"});
    for (std::size_t i = 0; i < cells; ++i) {
        t.beginRow();
        t.cell(workload_names[i / policy_names.size()]);
        t.cell(policy_names[i % policy_names.size()]);
        t.cell(results[i].wipc);
        t.cell(results[i].ipc);
        t.cell(results[i].hwipc);
    }
    t.print();

    if (!stats_json.empty()) {
        Json root = statsDocument();
        Json grid = Json::object();
        grid.set("epochs", Json(rc.epochs));
        grid.set("epoch_size", Json(rc.epochSize));
        grid.set("jobs", Json(rc.jobs));
        root.set("grid", std::move(grid));
        Json cells_arr = Json::array();
        for (std::size_t i = 0; i < cells; ++i) {
            Json c = Json::object();
            c.set("workload",
                  Json(workload_names[i / policy_names.size()]));
            c.set("policy",
                  Json(policy_names[i % policy_names.size()]));
            c.set("weighted_ipc", Json(results[i].wipc));
            c.set("avg_ipc", Json(results[i].ipc));
            c.set("harmonic_weighted_ipc", Json(results[i].hwipc));
            cells_arr.push(std::move(c));
        }
        root.set("cells", std::move(cells_arr));
        root.set("counters", globalStats().toJson());
        writeTextFile(stats_json, root.dump(2) + "\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name = "art-mcf";
    std::string policy_name = "hill-wipc";
    std::string config_file;
    RunConfig rc;
    bool csv = false;
    std::int64_t trace_events = 0;
    std::uint64_t solo_epochs = 16;
    std::string stats_json;
    std::string epoch_trace;
    std::string event_trace;
    std::string profile_json;
    bool profile_on = false;

    OptionSet opts;
    opts.addString("workload", &workload_name,
                   "Table 3 workload name (e.g. art-mcf)");
    opts.addString("policy", &policy_name, kPolicyNames);
    opts.addString("config", &config_file,
                   "config file of key = value lines");
    opts.addInt32("epochs", &rc.epochs, "measured epochs");
    opts.addUint("epoch_size", &rc.epochSize, "cycles per epoch");
    opts.addUint("warmup", &rc.warmupCycles, "warm-up cycles");
    opts.addUint("seed", &rc.seedSalt, "workload stream seed salt");
    opts.addUint("solo_epochs", &solo_epochs,
                 "epochs of solo run per thread (weighted metrics)");
    opts.addBool("csv", &csv, "print per-epoch CSV instead of tables");
    opts.addString("stats_json", &stats_json,
                   "write a smthill.stats.v1 JSON document here");
    opts.addString("epoch_trace", &epoch_trace,
                   "write the smthill.epoch-trace.v1 per-epoch trace "
                   "here (.csv extension selects CSV)");
    opts.addString("event_trace", &event_trace,
                   "write the smthill.events.v1 cycle-level event "
                   "trace here (.jsonl extension selects JSONL; "
                   "anything else gets Perfetto JSON)");
    opts.addBool("profile", &profile_on,
                 "turn on the host span profiler "
                 "(same as SMTHILL_PROFILE=ON)");
    opts.addString("profile_json", &profile_json,
                   "write the smthill.profile.v1 host-profile report "
                   "here (default: stdout span table)");
    opts.addInt("trace", &trace_events,
                "record per-instruction inst events and print the "
                "last N after the run (event_trace= exports them "
                "too)");
    opts.addInt32("jobs", &rc.jobs,
                  "worker threads for workload/policy grids "
                  "(default: hardware threads; 1 = serial)");

    // Machine overrides (Table 1 defaults).
    opts.addInt32("fetch_width", &rc.machine.fetchWidth, "fetch width");
    opts.addInt32("issue_width", &rc.machine.issueWidth, "issue width");
    opts.addInt32("commit_width", &rc.machine.commitWidth,
                  "commit width");
    opts.addInt32("fetch_threads", &rc.machine.fetchThreadsPerCycle,
                  "threads fetched per cycle (ICOUNT.x.8)");
    opts.addInt32("ifq", &rc.machine.ifqSize, "IFQ entries");
    opts.addInt32("int_iq", &rc.machine.intIqSize, "int IQ entries");
    opts.addInt32("fp_iq", &rc.machine.fpIqSize, "fp IQ entries");
    opts.addInt32("lsq", &rc.machine.lsqSize, "LSQ entries");
    opts.addInt32("int_regs", &rc.machine.intRegs,
                  "int rename registers (the partitioned unit)");
    opts.addInt32("fp_regs", &rc.machine.fpRegs, "fp rename registers");
    opts.addInt32("rob", &rc.machine.robSize, "ROB entries");
    opts.addUint("mem_latency", &rc.machine.mem.memFirstChunk,
                 "memory first-chunk latency");
    opts.addUint("l2_latency", &rc.machine.mem.l2Latency,
                 "L2 hit latency");

    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc - 1));
    for (int i = 1; i < argc; ++i)
        args.push_back(normalizeArg(argv[i]));
    if (!args.empty() && args[0] == "help") {
        std::printf("usage: %s [key=value ...]\n\noptions:\n", argv[0]);
        opts.printHelp();
        std::printf("\nworkloads:\n ");
        for (const auto &w : allWorkloads())
            std::printf(" %s", w.name.c_str());
        std::printf("\n");
        return 0;
    }

    std::vector<std::string> positional;
    std::string error;
    if (!opts.parseArgs(args, positional, error))
        fatal(error);
    if (!positional.empty())
        fatal(msg("unexpected argument '", positional[0],
                  "' (use key=value; see 'help')"));
    if (!config_file.empty() && !opts.loadFile(config_file, error))
        fatal(error);
    if (profile_on)
        prof::setProfilingEnabled(true);
    // A size of 0 would average over no cycles (nan metrics).
    if (rc.epochs < 1)
        fatal("epochs must be at least 1");
    if (rc.epochSize == 0)
        fatal("epoch_size must be at least 1");
    if (solo_epochs == 0)
        fatal("solo_epochs must be at least 1");

    std::vector<std::string> workload_names = splitList(workload_name);
    std::vector<std::string> policy_names = splitList(policy_name);
    if (workload_names.empty() || policy_names.empty())
        fatal("workload/policy lists must not be empty");
    if (workload_names.size() > 1 || policy_names.size() > 1) {
        if (csv || trace_events > 0 || !epoch_trace.empty() ||
            !event_trace.empty())
            fatal("csv/trace/epoch_trace/event_trace are single-run "
                  "features; drop them or run one workload x policy "
                  "cell");
        int status = runCliGrid(workload_names, policy_names, rc,
                                solo_epochs, stats_json);
        exportProfile(profile_json);
        return status;
    }

    const Workload &workload = workloadByName(workload_name);
    if (!makePolicy(policy_name, rc.epochSize))
        fatal(msg("unknown policy '", policy_name, "'; choose from: ",
                  kPolicyNames));

    auto solo = soloIpcs(workload, rc, solo_epochs * rc.epochSize);
    auto policy = makePolicy(policy_name, rc.epochSize, solo);

    SmtCpu cpu = makeCpu(workload, rc);

    // Cycle-level event trace: the run files under process 0, with
    // one named track per hardware thread plus the control track.
    // trace=N switches on per-instruction events and widens the ring
    // by N, so the last N of them survive to be printed.
    const std::size_t inst_events =
        trace_events > 0 ? static_cast<std::size_t>(trace_events) : 0;
    EventTrace event_tracer(EventTrace::kDefaultCapacity + inst_events);
    event_tracer.setInstructionEvents(inst_events > 0);
    if (!event_trace.empty()) {
        event_tracer.processName(0, workload.name + " / " +
                                        policy->name());
        for (int i = 0; i < workload.numThreads(); ++i)
            event_tracer.threadName(0, i, workload.benchmarks[i]);
        event_tracer.threadName(0, kControlTid, "control");
    }
    if (!event_trace.empty() || inst_events > 0)
        policy->setEventTrace(&event_tracer, 0);

    RunResult res =
        runPolicyOn(std::move(cpu), *policy, rc.epochs, rc.epochSize);

    PerfMetric metric = policyMetric(policy_name);
    if (!epoch_trace.empty()) {
        // Learning policies keep their epoch-by-epoch state; for the
        // others a generic trace is synthesized from the runner's
        // per-epoch records.
        std::vector<EpochTraceRecord> recs;
        if (const auto *hill =
                dynamic_cast<const HillClimbing *>(policy.get()))
            recs = hill->epochHistory();
        if (recs.empty()) {
            for (std::size_t e = 0; e < res.epochs.size(); ++e) {
                const EpochRecord &er = res.epochs[e];
                EpochTraceRecord r;
                r.epochId = e;
                r.cycle = res.startSnapshot.cycle +
                          (static_cast<Cycle>(e) + 1) * rc.epochSize;
                r.elapsedCycles = rc.epochSize;
                r.numThreads = workload.numThreads();
                r.ipc = er.ipc.ipc;
                r.metricValue = evalMetric(metric, er.ipc, solo);
                r.partitioned = er.partitioned;
                r.trial = er.partition;
                r.anchor = er.partition;
                recs.push_back(std::move(r));
            }
        }
        bool as_csv = epoch_trace.size() >= 4 &&
                      epoch_trace.compare(epoch_trace.size() - 4, 4,
                                          ".csv") == 0;
        writeTextFile(epoch_trace,
                      as_csv ? epochTraceToCsv(recs)
                             : epochTraceToJson(recs, metric).dump(2) +
                                   "\n");
    }

    if (!event_trace.empty()) {
        bool as_jsonl =
            event_trace.size() >= 6 &&
            event_trace.compare(event_trace.size() - 6, 6, ".jsonl") ==
                0;
        writeTextFile(event_trace,
                      as_jsonl
                          ? event_tracer.toJsonl()
                          : event_tracer.toPerfettoJson().dump(2) +
                                "\n");
    }

    if (!stats_json.empty()) {
        Json root = statsDocument();
        Json run = Json::object();
        run.set("workload", Json(workload.name));
        run.set("policy", Json(policy_name));
        run.set("epochs", Json(rc.epochs));
        run.set("epoch_size", Json(rc.epochSize));
        run.set("warmup_cycles", Json(rc.warmupCycles));
        run.set("seed", Json(rc.seedSalt));
        run.set("solo_epochs", Json(solo_epochs));
        root.set("run", std::move(run));
        Json metrics = Json::object();
        metrics.set("weighted_ipc",
                    Json(res.metric(PerfMetric::WeightedIpc, solo)));
        metrics.set("avg_ipc",
                    Json(res.metric(PerfMetric::AvgIpc, solo)));
        metrics.set("harmonic_weighted_ipc",
                    Json(res.metric(PerfMetric::HarmonicWeightedIpc,
                                    solo)));
        root.set("metrics", std::move(metrics));
        root.set("report", res.report(workload.benchmarks).toJson());
        root.set("counters", globalStats().toJson());
        writeTextFile(stats_json, root.dump(2) + "\n");
    }

    if (csv) {
        std::printf("epoch");
        for (int i = 0; i < workload.numThreads(); ++i)
            std::printf(",ipc_%s", workload.benchmarks[i].c_str());
        std::printf(",wipc,share0\n");
        for (std::size_t e = 0; e < res.epochs.size(); ++e) {
            std::printf("%zu", e);
            for (int i = 0; i < workload.numThreads(); ++i)
                std::printf(",%.4f", res.epochs[e].ipc.ipc[i]);
            std::printf(",%.4f,%d\n",
                        evalMetric(PerfMetric::WeightedIpc,
                                   res.epochs[e].ipc, solo),
                        res.epochs[e].partitioned
                            ? res.epochs[e].partition.share[0]
                            : -1);
        }
        exportProfile(profile_json);
        return 0;
    }

    std::printf("workload %s (%s) under %s, %d epochs x %llu cycles\n\n",
                workload.name.c_str(), workload.group.c_str(),
                policy->name().c_str(), rc.epochs,
                static_cast<unsigned long long>(rc.epochSize));

    Table t({"metric", "value"});
    t.beginRow();
    t.cell(std::string("weighted IPC"));
    t.cell(res.metric(PerfMetric::WeightedIpc, solo));
    t.beginRow();
    t.cell(std::string("average IPC"));
    t.cell(res.metric(PerfMetric::AvgIpc, solo));
    t.beginRow();
    t.cell(std::string("harmonic mean"));
    t.cell(res.metric(PerfMetric::HarmonicWeightedIpc, solo));
    t.print();

    // Derived statistics over the measured interval.
    std::printf("\n");
    res.report(workload.benchmarks).print();

    if (inst_events > 0) {
        std::printf("\n");
        printLastInstEvents(event_tracer, inst_events, stdout);
    }
    exportProfile(profile_json);
    return 0;
}
