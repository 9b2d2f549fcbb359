/**
 * @file
 * Figure 11: hill-climbing against the ideal off-line learners.
 * Top: HILL-WIPC vs OFF-LINE on the 21 two-thread workloads (paper:
 * hill achieves 96.6% of ideal). Bottom: DCRA vs HILL-WIPC vs
 * RAND-HILL on the 21 four-thread workloads (paper: hill achieves
 * 94.1% of RAND-HILL; RAND-HILL beats DCRA by 7.4%).
 *
 * Scale with SMTHILL_EPOCHS, SMTHILL_OFFLINE_STRIDE, and
 * SMTHILL_RANDHILL_ITERS (the paper runs 128 iterations).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/hill_climbing.hh"
#include "core/offline_exhaustive.hh"
#include "core/rand_hill.hh"
#include "harness/table.hh"
#include "policy/dcra.hh"

namespace smthill::benchutil
{

void
fig11Limits(const FigureConfig &cfg)
{
    banner("Figure 11: HILL-WIPC vs ideal learners");

    const RunConfig &rc = cfg.rc;
    const int stride = cfg.sizes.offlineStride;
    const int iters = cfg.sizes.randHillIters;

    // ---- top: 2-thread, HILL vs OFF-LINE -------------------------
    // Both halves fan their workload cells across rc.jobs threads;
    // rows are filled per-cell and printed in order afterwards.
    std::printf("\n-- 2-thread: HILL-WIPC vs OFF-LINE --\n");
    GroupMeans means;

    struct TwoRow
    {
        double hill, off;
    };
    const std::vector<Workload> two = twoThreadWorkloads();
    std::vector<TwoRow> two_rows(two.size());
    runGrid(two.size(), rc.jobs, [&](std::size_t i) {
        const Workload &w = two[i];
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::WeightedIpc;
        HillClimbing hill(hc);
        two_rows[i].hill =
            runPolicy(w, hill, rc).metric(PerfMetric::WeightedIpc, solo);

        OfflineConfig oc;
        oc.epochSize = rc.epochSize;
        oc.stride = stride;
        oc.singleIpc = solo;
        OfflineExhaustive off(oc);
        SmtCpu cpu = makeCpu(w, rc);
        two_rows[i].off = off.run(cpu, rc.epochs).meanMetric();
    });

    Table top({"workload", "group", "HILL-WIPC", "OFF-LINE",
               "hill/ideal"});
    for (std::size_t i = 0; i < two.size(); ++i) {
        const Workload &w = two[i];
        double m_hill = two_rows[i].hill;
        double m_off = two_rows[i].off;
        top.beginRow();
        top.cell(w.name);
        top.cell(w.group);
        top.cell(m_hill);
        top.cell(m_off);
        top.cell(m_off > 0 ? m_hill / m_off : 0.0);
        means.add("2T/HILL", m_hill);
        means.add("2T/OFF", m_off);
    }
    top.print();
    std::printf("hill achieves %.1f%% of OFF-LINE (paper: 96.6%%)\n",
                100.0 * means.mean("2T/HILL") / means.mean("2T/OFF"));

    // ---- bottom: 4-thread, DCRA vs HILL vs RAND-HILL -------------
    std::printf("\n-- 4-thread: DCRA vs HILL-WIPC vs RAND-HILL --\n");

    struct FourRow
    {
        double dcra, hill, rand;
    };
    const std::vector<Workload> four = fourThreadWorkloads();
    std::vector<FourRow> four_rows(four.size());
    runGrid(four.size(), rc.jobs, [&](std::size_t i) {
        const Workload &w = four[i];
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        DcraPolicy dcra;
        four_rows[i].dcra =
            runPolicy(w, dcra, rc).metric(PerfMetric::WeightedIpc, solo);

        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::WeightedIpc;
        HillClimbing hill(hc);
        four_rows[i].hill =
            runPolicy(w, hill, rc).metric(PerfMetric::WeightedIpc, solo);

        RandHillConfig rh;
        rh.epochSize = rc.epochSize;
        rh.iterations = iters;
        rh.singleIpc = solo;
        RandHill rand_hill(rh);
        SmtCpu cpu = makeCpu(w, rc);
        four_rows[i].rand = rand_hill.run(cpu, rc.epochs).meanMetric();
    });

    Table bot({"workload", "group", "DCRA", "HILL-WIPC", "RAND-HILL",
               "hill/ideal"});
    for (std::size_t i = 0; i < four.size(); ++i) {
        const Workload &w = four[i];
        double m_dcra = four_rows[i].dcra;
        double m_hill = four_rows[i].hill;
        double m_rand = four_rows[i].rand;
        bot.beginRow();
        bot.cell(w.name);
        bot.cell(w.group);
        bot.cell(m_dcra);
        bot.cell(m_hill);
        bot.cell(m_rand);
        bot.cell(m_rand > 0 ? m_hill / m_rand : 0.0);
        means.add("4T/DCRA", m_dcra);
        means.add("4T/HILL", m_hill);
        means.add("4T/RAND", m_rand);
    }
    bot.print();
    std::printf("hill achieves %.1f%% of RAND-HILL (paper: 94.1%%)\n",
                100.0 * means.mean("4T/HILL") / means.mean("4T/RAND"));
    printGain("RAND-HILL over DCRA (paper +7.4%)", means.mean("4T/RAND"),
              means.mean("4T/DCRA"));
}

} // namespace smthill::benchutil
