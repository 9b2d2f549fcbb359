/**
 * @file
 * Figure 9 (the paper's headline result): hill-climbing with
 * weighted-IPC feedback (HILL-WIPC) versus ICOUNT, FLUSH, and DCRA
 * on all 42 multiprogrammed workloads, evaluated under weighted IPC.
 * The paper reports +12.4% over ICOUNT, +11.3% over FLUSH, and
 * +2.4% over DCRA, with larger gains on 2-thread (+3.3%) than
 * 4-thread (+0.4%) workloads and the biggest MEM2 gain (+5.1%).
 *
 * The grid also races the full learner family on identical seeds:
 * PHASE-HILL, BANDIT (UCB1 over the partition lattice), and RL
 * (epsilon-greedy Q-learning over anchor moves) run the same
 * workloads under the same weighted-IPC yardstick, so the table
 * doubles as the learner-race result quoted in EXPERIMENTS.md.
 *
 * Scale with SMTHILL_EPOCHS (the paper's 1B-instruction windows
 * correspond to thousands of epochs of learning time).
 *
 * SMTHILL_STATS_JSON=FILE additionally writes every cell as
 * `smthill.bench.learner-race.v1` JSON, reparses the file, re-derives
 * the overall means and headline gains from the parsed cells, and
 * fails unless they are bit-identical to the stdout path.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/hill_climbing.hh"
#include "harness/table.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"

namespace smthill::benchutil
{

void
fig09HillMain(const FigureConfig &cfg)
{
    banner("Figure 9: HILL-WIPC vs ICOUNT / FLUSH / DCRA "
           "(42 workloads, weighted IPC)");

    const RunConfig &rc = cfg.rc;

    // Workload cells run concurrently across rc.jobs threads; each
    // fills its own row, reduced/printed in workload order below.
    struct Row
    {
        double icount, flush, dcra, hill, phase, bandit, rl;
    };
    const std::vector<Workload> &workloads = allWorkloads();
    std::vector<Row> rows(workloads.size());

    // Opt-in time series: one smthill.snapshots.v1 delta row per
    // completed workload cell (host telemetry only; the race results
    // are unaffected).
    SnapshotSink snapshots(cfg.snapshots);

    runGrid(workloads.size(), rc.jobs, [&](std::size_t i) {
        const Workload &w = workloads[i];
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        // Every learner in the race gets the same per-cell seed, so
        // the comparison varies only the learning rule.
        const std::uint64_t seed = rc.seedSalt + 1 + i;

        IcountPolicy icount;
        FlushPolicy flush;
        DcraPolicy dcra;
        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::WeightedIpc;
        HillClimbing hill(hc);
        PhaseHillClimbing phase(hc);
        BanditConfig bc;
        bc.epochSize = rc.epochSize;
        bc.metric = PerfMetric::WeightedIpc;
        bc.seed = seed;
        bc.singleIpc = solo;
        BanditAllocator bandit(bc);
        RlConfig rlc;
        rlc.epochSize = rc.epochSize;
        rlc.metric = PerfMetric::WeightedIpc;
        rlc.seed = seed;
        rlc.singleIpc = solo;
        RlAllocator rl(rlc);

        Row &r = rows[i];
        r.icount = runPolicy(w, icount, rc)
                       .metric(PerfMetric::WeightedIpc, solo);
        r.flush =
            runPolicy(w, flush, rc).metric(PerfMetric::WeightedIpc, solo);
        r.dcra =
            runPolicy(w, dcra, rc).metric(PerfMetric::WeightedIpc, solo);
        r.hill =
            runPolicy(w, hill, rc).metric(PerfMetric::WeightedIpc, solo);
        r.phase =
            runPolicy(w, phase, rc).metric(PerfMetric::WeightedIpc, solo);
        r.bandit = runPolicy(w, bandit, rc)
                       .metric(PerfMetric::WeightedIpc, solo);
        r.rl = runPolicy(w, rl, rc).metric(PerfMetric::WeightedIpc, solo);
        snapshots.sample(i, 0);
    });

    Table t({"workload", "group", "ICOUNT", "FLUSH", "DCRA",
             "HILL-WIPC", "PHASE", "BANDIT", "RL"});
    GroupMeans means;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Workload &w = workloads[i];
        const Row &r = rows[i];
        t.beginRow();
        t.cell(w.name);
        t.cell(w.group);
        t.cell(r.icount);
        t.cell(r.flush);
        t.cell(r.dcra);
        t.cell(r.hill);
        t.cell(r.phase);
        t.cell(r.bandit);
        t.cell(r.rl);

        for (const auto &key : {w.group, std::string("all"),
                                std::string(w.numThreads() == 2 ? "2T"
                                                                : "4T")}) {
            means.add(key + "/ICOUNT", r.icount);
            means.add(key + "/FLUSH", r.flush);
            means.add(key + "/DCRA", r.dcra);
            means.add(key + "/HILL", r.hill);
            means.add(key + "/PHASE", r.phase);
            means.add(key + "/BANDIT", r.bandit);
            means.add(key + "/RL", r.rl);
        }
    }
    t.print();

    std::printf("\ngroup means (weighted IPC):\n");
    for (const auto &g : workloadGroups()) {
        std::printf("  %-5s ICOUNT=%.3f FLUSH=%.3f DCRA=%.3f HILL=%.3f "
                    "PHASE=%.3f BANDIT=%.3f RL=%.3f\n",
                    g.c_str(), means.mean(g + "/ICOUNT"),
                    means.mean(g + "/FLUSH"), means.mean(g + "/DCRA"),
                    means.mean(g + "/HILL"), means.mean(g + "/PHASE"),
                    means.mean(g + "/BANDIT"), means.mean(g + "/RL"));
    }

    std::printf("\nHILL-WIPC gains (paper: +12.4%% / +11.3%% / +2.4%%):\n");
    printGain("over ICOUNT", means.mean("all/HILL"),
              means.mean("all/ICOUNT"));
    printGain("over FLUSH", means.mean("all/HILL"),
              means.mean("all/FLUSH"));
    printGain("over DCRA", means.mean("all/HILL"),
              means.mean("all/DCRA"));
    std::printf("\nby thread count (paper: 2T +3.3%%, 4T +0.4%% over "
                "DCRA):\n");
    printGain("2-thread over DCRA", means.mean("2T/HILL"),
              means.mean("2T/DCRA"));
    printGain("4-thread over DCRA", means.mean("4T/HILL"),
              means.mean("4T/DCRA"));
    printGain("MEM2 over DCRA (paper +5.1%)", means.mean("MEM2/HILL"),
              means.mean("MEM2/DCRA"));

    std::printf("\nlearner race (overall means vs HILL-WIPC):\n");
    printGain("PHASE-HILL over HILL", means.mean("all/PHASE"),
              means.mean("all/HILL"));
    printGain("BANDIT over HILL", means.mean("all/BANDIT"),
              means.mean("all/HILL"));
    printGain("RL over HILL", means.mean("all/RL"),
              means.mean("all/HILL"));

    const std::string &export_path = cfg.statsJson;
    if (!export_path.empty()) {
        Json doc = Json::object();
        doc.set("schema", Json("smthill.bench.learner-race.v1"));
        doc.set("epochs", Json(rc.epochs));
        doc.set("epoch_size", Json(rc.epochSize));
        doc.set("seed", Json(rc.seedSalt));
        Json cells = Json::array();
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            Json c = Json::object();
            c.set("workload", Json(workloads[i].name));
            c.set("group", Json(workloads[i].group));
            c.set("threads", Json(workloads[i].numThreads()));
            c.set("icount", Json(rows[i].icount));
            c.set("flush", Json(rows[i].flush));
            c.set("dcra", Json(rows[i].dcra));
            c.set("hill", Json(rows[i].hill));
            c.set("phase_hill", Json(rows[i].phase));
            c.set("bandit", Json(rows[i].bandit));
            c.set("rl", Json(rows[i].rl));
            cells.push(std::move(c));
        }
        doc.set("cells", std::move(cells));
        doc.set("counters", globalStats().toJson());

        // Re-derive the overall means from the re-parsed cells and
        // demand bit-identity with the stdout path. GroupMeans adds
        // values in the same (workload) order, so the float sums are
        // reproducible exactly.
        Json re = writeAndReloadJson(export_path, doc);
        GroupMeans remeans;
        for (const Json &c : re.at("cells").items()) {
            remeans.add("all/ICOUNT", c.at("icount").asDouble());
            remeans.add("all/FLUSH", c.at("flush").asDouble());
            remeans.add("all/DCRA", c.at("dcra").asDouble());
            remeans.add("all/HILL", c.at("hill").asDouble());
            remeans.add("all/PHASE", c.at("phase_hill").asDouble());
            remeans.add("all/BANDIT", c.at("bandit").asDouble());
            remeans.add("all/RL", c.at("rl").asDouble());
        }
        for (const char *k : {"ICOUNT", "FLUSH", "DCRA", "HILL", "PHASE",
                              "BANDIT", "RL"})
            checkExportValue(k,
                             remeans.mean(std::string("all/") + k),
                             means.mean(std::string("all/") + k));
        std::printf("\nexported %s (overall means re-derived from the "
                    "file match)\n",
                    export_path.c_str());
    }
}

} // namespace smthill::benchutil
