/**
 * @file
 * Section 5: phase detection and prediction. Runs plain HILL-WIPC
 * and PHASE-HILL-WIPC (BBV phase table + RLE Markov predictor +
 * per-phase partition reuse) on all 42 workloads and reports the
 * overall gain, the gain restricted to TL-class workloads (large
 * with a low-frequency member — where the paper sees the benefit,
 * +2.1% vs +0.4% overall), and the phase statistics.
 *
 * Scale with SMTHILL_EPOCHS.
 */

#include <cstdio>

#include "bench_common.hh"
#include "harness/table.hh"
#include "phase/phase_hill.hh"
#include "trace/spec_profiles.hh"

namespace smthill::benchutil
{

namespace
{

/** TL-class prediction from Section 4.4.2's labels. */
bool
isTemporallyLimited(const Workload &w)
{
    int threshold = w.numThreads() == 2 ? 256 : 416;
    if (w.paperRscSum() <= threshold)
        return false;
    for (const auto &b : w.benchmarks)
        if (specInfo(b).freqClass == 1)
            return true;
    return false;
}

} // namespace

void
sec5Phase(const FigureConfig &cfg)
{
    banner("Section 5: phase-based hill climbing");

    const RunConfig &rc = cfg.rc;

    Table t({"workload", "group", "HILL", "PHASE-HILL", "gain%",
             "phases", "pred.acc", "reuses", "TL?"});
    GroupMeans means;

    for (const Workload &w : allWorkloads()) {
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::WeightedIpc;

        HillClimbing plain(hc);
        double m_plain =
            runPolicy(w, plain, rc).metric(PerfMetric::WeightedIpc, solo);

        PhaseHillClimbing phased(hc);
        double m_phase = runPolicy(w, phased, rc)
                             .metric(PerfMetric::WeightedIpc, solo);

        bool tl = isTemporallyLimited(w);
        t.beginRow();
        t.cell(w.name);
        t.cell(w.group);
        t.cell(m_plain);
        t.cell(m_phase);
        t.cell(pctGain(m_phase, m_plain), 2);
        t.cell(static_cast<std::int64_t>(phased.phasesSeen()));
        t.cell(phased.predictionAccuracy(), 2);
        t.cell(static_cast<std::int64_t>(phased.reuses()));
        t.cell(std::string(tl ? "TL" : "-"));

        means.add("all/plain", m_plain);
        means.add("all/phase", m_phase);
        if (tl) {
            means.add("tl/plain", m_plain);
            means.add("tl/phase", m_phase);
        }
    }
    t.print();

    std::printf("\nphase-based gains:\n");
    printGain("overall (paper +0.4%)", means.mean("all/phase"),
              means.mean("all/plain"));
    printGain("TL workloads (paper +2.1%)", means.mean("tl/phase"),
              means.mean("tl/plain"));
}

} // namespace smthill::benchutil
