/**
 * @file
 * Figure 2: IPC of mesa, vortex, and fma3d running simultaneously
 * during a 32K-cycle interval, as the fraction of resources
 * distributed to each thread is varied. The paper plots a 2-D
 * surface over (mesa share, vortex share); fma3d receives the rest.
 * This bench prints the same surface as a grid, per thread and
 * total, and reports the peak — which should sit at an interior
 * point of the space (the "hill" that motivates hill climbing).
 *
 * Scale with SMTHILL_SURFACE_STEP, the register step between grid
 * points.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/machine_arena.hh"
#include "harness/table.hh"
#include "pipeline/cpu.hh"
#include "trace/spec_profiles.hh"

namespace smthill::benchutil
{

void
fig02Surface(const FigureConfig &cfg)
{
    banner("Figure 2: IPC vs resource distribution "
           "(mesa / vortex / fma3d, 32K-cycle interval)");

    const int step = cfg.sizes.surfaceStep;
    const Cycle interval = 32 * 1024;
    const int total = 256;
    const int min_share = 8;

    SmtConfig smt;
    smt.numThreads = 3;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(specProfile("mesa"), 0);
    gens.emplace_back(specProfile("vortex"), 1);
    gens.emplace_back(specProfile("fma3d"), 2);
    SmtCpu machine(smt, std::move(gens));
    machine.run(512 * 1024); // warm to a representative point

    std::printf("rows: mesa share; columns: vortex share; "
                "cell: total IPC (fma3d gets the remainder)\n\n");

    // One arena machine serves the whole serial walk: restoreFrom is
    // a bit-exact rewind to the warm machine, which nothing else
    // runs, so every cell starts from the same warm state without a
    // full SmtCpu copy per cell.
    MachineArena arena(1);

    double best = 0.0;
    int best_mesa = 0, best_vortex = 0;

    // Header row.
    std::printf("%6s", "");
    for (int v = min_share; v + min_share <= total - min_share; v += step)
        std::printf(" %6d", v);
    std::printf("\n");

    for (int m = min_share; m + 2 * min_share <= total; m += step) {
        std::printf("%6d", m);
        for (int v = min_share; v + min_share <= total - min_share;
             v += step) {
            int f = total - m - v;
            if (f < min_share) {
                std::printf(" %6s", "-");
                continue;
            }
            SmtCpu &trial = arena.acquire(0, machine);
            Partition p;
            p.numThreads = 3;
            p.share = {m, v, f};
            trial.setPartition(p);
            auto before = trial.stats().committedTotal();
            trial.run(interval);
            double ipc = static_cast<double>(
                             trial.stats().committedTotal() - before) /
                         static_cast<double>(interval);
            std::printf(" %6.3f", ipc);
            if (ipc > best) {
                best = ipc;
                best_mesa = m;
                best_vortex = v;
            }
        }
        std::printf("\n");
    }

    std::printf("\npeak: IPC=%.3f at mesa=%d vortex=%d fma3d=%d\n", best,
                best_mesa, best_vortex, total - best_mesa - best_vortex);
    std::printf("paper shape: a well-defined hill with a clear interior "
                "performance peak.\n");
}

} // namespace smthill::benchutil
