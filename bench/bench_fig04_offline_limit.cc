/**
 * @file
 * Figure 4 (the limit study, Section 3.3): OFF-LINE exhaustive
 * learning versus ICOUNT, FLUSH, and DCRA on the 21 two-thread
 * workloads, under the weighted IPC metric. The paper reports
 * OFF-LINE gains of +19.2% over ICOUNT, +18.0% over FLUSH, and
 * +7.6% over DCRA, largest in the MEM2 group.
 *
 * Scale with SMTHILL_EPOCHS and SMTHILL_OFFLINE_STRIDE (the paper
 * uses stride 2 = 127 trials/epoch).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/offline_exhaustive.hh"
#include "harness/table.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"

namespace smthill::benchutil
{

void
fig04OfflineLimit(const FigureConfig &cfg)
{
    banner("Figure 4: OFF-LINE exhaustive learning vs ICOUNT / FLUSH / "
           "DCRA (2-thread workloads, weighted IPC)");

    const RunConfig &rc = cfg.rc;
    const int stride = cfg.sizes.offlineStride;

    // One grid cell per workload; cells run concurrently (rc.jobs)
    // and fill their own row, which is reduced/printed in order.
    struct Row
    {
        double icount, flush, dcra, off;
    };
    const std::vector<Workload> workloads = twoThreadWorkloads();
    std::vector<Row> rows(workloads.size());

    runGrid(workloads.size(), rc.jobs, [&](std::size_t i) {
        const Workload &w = workloads[i];
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        IcountPolicy icount;
        FlushPolicy flush;
        DcraPolicy dcra;
        Row &r = rows[i];
        r.icount = runPolicy(w, icount, rc)
                       .metric(PerfMetric::WeightedIpc, solo);
        r.flush =
            runPolicy(w, flush, rc).metric(PerfMetric::WeightedIpc, solo);
        r.dcra =
            runPolicy(w, dcra, rc).metric(PerfMetric::WeightedIpc, solo);

        OfflineConfig oc;
        oc.epochSize = rc.epochSize;
        oc.stride = stride;
        oc.singleIpc = solo;
        OfflineExhaustive off(oc);
        SmtCpu cpu = makeCpu(w, rc);
        r.off = off.run(cpu, rc.epochs).meanMetric();
    });

    Table t({"workload", "group", "ICOUNT", "FLUSH", "DCRA", "OFF-LINE"});
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
        t.cell(r.off);

        means.add(w.group + "/ICOUNT", r.icount);
        means.add(w.group + "/FLUSH", r.flush);
        means.add(w.group + "/DCRA", r.dcra);
        means.add(w.group + "/OFF", r.off);
        means.add("all/ICOUNT", r.icount);
        means.add("all/FLUSH", r.flush);
        means.add("all/DCRA", r.dcra);
        means.add("all/OFF", r.off);
    }
    t.print();

    std::printf("\ngroup means (weighted IPC):\n");
    for (const char *g : {"ILP2", "MIX2", "MEM2"}) {
        std::printf("  %-5s ICOUNT=%.3f FLUSH=%.3f DCRA=%.3f "
                    "OFF-LINE=%.3f\n",
                    g, means.mean(std::string(g) + "/ICOUNT"),
                    means.mean(std::string(g) + "/FLUSH"),
                    means.mean(std::string(g) + "/DCRA"),
                    means.mean(std::string(g) + "/OFF"));
    }

    std::printf("\nOFF-LINE gains (paper: +19.2%% / +18.0%% / +7.6%%):\n");
    printGain("over ICOUNT", means.mean("all/OFF"),
              means.mean("all/ICOUNT"));
    printGain("over FLUSH", means.mean("all/OFF"),
              means.mean("all/FLUSH"));
    printGain("over DCRA", means.mean("all/OFF"), means.mean("all/DCRA"));
    std::printf("\nMEM2 gains (paper: +21.9%% / +39.4%% / +13.2%%):\n");
    printGain("over ICOUNT", means.mean("MEM2/OFF"),
              means.mean("MEM2/ICOUNT"));
    printGain("over FLUSH", means.mean("MEM2/OFF"),
              means.mean("MEM2/FLUSH"));
    printGain("over DCRA", means.mean("MEM2/OFF"),
              means.mean("MEM2/DCRA"));
}

} // namespace smthill::benchutil
