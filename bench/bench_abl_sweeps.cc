/**
 * @file
 * Ablation sweeps for the design choices DESIGN.md calls out:
 *   1. epoch size (Section 3.1.1 says 64K cycles is consistently
 *      good: too small -> inter-epoch jitter, too large -> slow
 *      adaptation);
 *   2. the hill step Delta (the paper uses 4);
 *   3. the epoch-boundary software cost (the paper charges 200
 *      cycles and argues it is negligible);
 *   4. partitioning granularity: hill climbing vs a static equal
 *      split vs no partitioning at all (ICOUNT).
 *
 * Run on three representative workloads. Scale with SMTHILL_EPOCHS
 * (in 64K-cycle-equivalents of simulated time).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/hill_climbing.hh"
#include "harness/table.hh"
#include "policy/icount.hh"
#include "policy/static_partition.hh"

namespace smthill::benchutil
{

namespace
{

const char *kWorkloads[] = {"art-mcf", "swim-twolf", "art-gzip"};

double
runHill(const Workload &w, const RunConfig &rc, HillConfig hc,
        const std::array<double, kMaxThreads> &solo)
{
    HillClimbing hill(hc);
    return runPolicy(w, hill, rc).metric(PerfMetric::WeightedIpc, solo);
}

} // namespace

void
ablSweeps(const FigureConfig &cfg)
{
    banner("Ablations: epoch size, Delta, software cost, partitioning");

    const RunConfig &base = cfg.rc;
    const Cycle budget =
        static_cast<Cycle>(base.epochs) * base.epochSize;

    // 1. Epoch size sweep (same total simulated cycles).
    std::printf("\n-- epoch size (weighted IPC; total cycles fixed) --\n");
    {
        Table t({"workload", "8K", "16K", "32K", "64K", "128K"});
        for (const char *wn : kWorkloads) {
            const Workload &w = workloadByName(wn);
            auto solo = soloIpcs(w, base, budget);
            t.beginRow();
            t.cell(w.name);
            for (Cycle es : {8u * 1024u, 16u * 1024u, 32u * 1024u,
                             64u * 1024u, 128u * 1024u}) {
                RunConfig rc = base;
                rc.epochSize = es;
                rc.epochs = static_cast<int>(budget / es);
                HillConfig hc;
                hc.epochSize = es;
                hc.metric = PerfMetric::WeightedIpc;
                t.cell(runHill(w, rc, hc, solo));
            }
        }
        t.print();
    }

    // 2. Delta sweep.
    std::printf("\n-- hill step Delta (paper uses 4) --\n");
    {
        Table t({"workload", "d=1", "d=2", "d=4", "d=8", "d=16"});
        for (const char *wn : kWorkloads) {
            const Workload &w = workloadByName(wn);
            auto solo = soloIpcs(w, base, budget);
            t.beginRow();
            t.cell(w.name);
            for (int delta : {1, 2, 4, 8, 16}) {
                HillConfig hc;
                hc.epochSize = base.epochSize;
                hc.metric = PerfMetric::WeightedIpc;
                hc.delta = delta;
                hc.minShare = delta;
                t.cell(runHill(w, base, hc, solo));
            }
        }
        t.print();
    }

    // 3. Software cost.
    std::printf("\n-- epoch-boundary software cost --\n");
    {
        Table t({"workload", "0 cycles", "200 cycles", "2000 cycles"});
        for (const char *wn : kWorkloads) {
            const Workload &w = workloadByName(wn);
            auto solo = soloIpcs(w, base, budget);
            t.beginRow();
            t.cell(w.name);
            for (Cycle cost : {Cycle{0}, Cycle{200}, Cycle{2000}}) {
                HillConfig hc;
                hc.epochSize = base.epochSize;
                hc.metric = PerfMetric::WeightedIpc;
                hc.softwareCost = cost;
                t.cell(runHill(w, base, hc, solo));
            }
        }
        t.print();
    }

    // 4. Partitioning granularity.
    std::printf("\n-- partitioning: none vs static-equal vs learned --\n");
    {
        Table t({"workload", "ICOUNT(none)", "STATIC(equal)", "HILL"});
        for (const char *wn : kWorkloads) {
            const Workload &w = workloadByName(wn);
            auto solo = soloIpcs(w, base, budget);
            IcountPolicy icount;
            StaticPartitionPolicy fixed;
            HillConfig hc;
            hc.epochSize = base.epochSize;
            hc.metric = PerfMetric::WeightedIpc;
            t.beginRow();
            t.cell(w.name);
            t.cell(runPolicy(w, icount, base)
                       .metric(PerfMetric::WeightedIpc, solo));
            t.cell(runPolicy(w, fixed, base)
                       .metric(PerfMetric::WeightedIpc, solo));
            t.cell(runHill(w, base, hc, solo));
        }
        t.print();
    }
}

} // namespace smthill::benchutil
