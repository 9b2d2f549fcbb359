/**
 * @file
 * Table 2 ("Rsc" and "Freq" columns), per Section 4.4.2: for every
 * modeled benchmark, measure (a) the number of integer rename
 * registers needed to reach 95% of its maximum stand-alone IPC, and
 * (b) how often that requirement changes across 64K-cycle epochs —
 * classifying the benchmark as No / Low / High frequency variation.
 *
 * Scale with SMTHILL_EPOCHS, the number of epochs the variation is
 * measured over. The epoch length and the warm-up stay fixed: they
 * are part of the Section 4.4.2 definition.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hh"
#include "harness/table.hh"
#include "pipeline/cpu.hh"
#include "trace/spec_profiles.hh"

namespace smthill::benchutil
{

namespace
{

const char *
freqName(int cls)
{
    return cls == 2 ? "High" : cls == 1 ? "Low" : "No";
}

/** IPC of a warm solo machine at a given register share. */
double
ipcAtShare(const SmtCpu &warm, int share, Cycle window)
{
    SmtCpu cpu = warm.checkpoint();
    Partition p;
    p.numThreads = 1;
    p.share[0] = share;
    cpu.setPartition(p);
    auto before = cpu.stats().committed[0];
    cpu.run(window);
    return static_cast<double>(cpu.stats().committed[0] - before) /
           static_cast<double>(window);
}

/** Smallest share (stepping by 8) reaching 95% of the 256-reg IPC. */
int
requirementAt(const SmtCpu &warm, Cycle window)
{
    double max_ipc = ipcAtShare(warm, 256, window);
    for (int share = 24; share < 256; share += 8) {
        if (ipcAtShare(warm, share, window) >= 0.95 * max_ipc)
            return share;
    }
    return 256;
}

} // namespace

void
tab02AppChar(const FigureConfig &cfg)
{
    banner("Table 2: per-benchmark resource requirement (Rsc) and "
           "time variation (Freq)");

    const int var_epochs = cfg.rc.epochs;
    const Cycle epoch = 64 * 1024;

    // One grid cell per benchmark; cells run concurrently (rc.jobs)
    // and fill their own row, printed in order afterwards.
    struct Row
    {
        int rsc;
        double rate;
    };
    const std::vector<std::string> &names = specBenchmarkNames();
    std::vector<Row> rows(names.size());

    runGrid(names.size(), cfg.rc.jobs, [&](std::size_t i) {
        SmtConfig smt;
        smt.numThreads = 1;
        std::vector<StreamGenerator> gens;
        gens.emplace_back(specProfile(names[i]), 0);
        SmtCpu cpu(smt, std::move(gens));
        cpu.run(512 * 1024); // warm

        // (a) Steady-state requirement over a long window.
        rows[i].rsc = requirementAt(cpu, 2 * epoch);

        // (b) Per-epoch requirement trajectory.
        int changes = 0;
        int prev = -1;
        SmtCpu walker = cpu.checkpoint();
        for (int e = 0; e < var_epochs; ++e) {
            int req = requirementAt(walker, epoch);
            if (prev >= 0 && std::abs(req - prev) >= 16)
                ++changes;
            prev = req;
            walker.clearPartition();
            walker.run(epoch);
        }
        rows[i].rate = var_epochs > 1 ? static_cast<double>(changes) /
                                            (var_epochs - 1)
                                      : 0.0;
    });

    Table t({"app", "type", "cat", "Rsc(paper)", "Rsc(model)",
             "Freq(paper)", "changes/epoch", "Freq(model)"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        const SpecInfo &info = specInfo(names[i]);
        const double rate = rows[i].rate;
        const char *model_freq =
            rate > 0.34 ? "High" : rate > 0.09 ? "Low" : "No";

        t.beginRow();
        t.cell(names[i]);
        t.cell(std::string(info.isFp ? "FP" : "Int"));
        t.cell(std::string(info.isMem ? "MEM" : "ILP"));
        t.cell(static_cast<std::int64_t>(info.paperRsc));
        t.cell(static_cast<std::int64_t>(rows[i].rsc));
        t.cell(std::string(freqName(info.freqClass)));
        t.cell(rate, 2);
        t.cell(std::string(model_freq));
    }
    t.print();

    std::printf("\nshape to check: MEM benchmarks with bursty misses "
                "(swim, art, ammp, twolf, vpr) and long-distance ILP\n"
                "(gap, wupwise) need large windows; short-chain ILP "
                "(perlbmk, bzip2, fma3d, lucas) needs small ones.\n");
}

} // namespace smthill::benchutil
