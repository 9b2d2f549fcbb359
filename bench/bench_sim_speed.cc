/**
 * @file
 * Pool-scaling sweep (google-benchmark): one OFF-LINE epoch of the
 * fig04 hot loop at 1/2/4/8 jobs. perfbench times every other layer
 * (step, restore, stream, predictor, cache, trace overhead) but runs
 * its pool at 2 workers only, so this is the one job-count sweep.
 *
 * Give it enough time to iterate: at `--benchmark_min_time=0.05` each
 * job count runs a single iteration, which times warm-up rather than
 * scaling. `--benchmark_min_time=1` is the setting EXPERIMENTS.md
 * quotes; `--benchmark_format=json` gives machine-readable output.
 */

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/offline_exhaustive.hh"
#include "pipeline/cpu.hh"
#include "trace/spec_profiles.hh"
#include "trace/stream_generator.hh"

using namespace smthill;

namespace
{

/** A warmed art-mcf two-thread machine. */
SmtCpu
warmArtMcf()
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(specProfile("art"), 0);
    gens.emplace_back(specProfile("mcf"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(200000); // warm
    return cpu;
}

/**
 * The fig04 hot loop at bench stride (16 -> 15 trials/epoch) across
 * 1/2/4/8 jobs; tracks the parallel layer's speedup. Results are
 * bit-identical across the job counts (asserted by the determinism
 * tests); this measures wall clock only.
 */
void
BM_OfflineEpoch_Parallel(benchmark::State &state)
{
    SmtCpu cpu = warmArtMcf();
    OfflineConfig oc;
    oc.epochSize = 16 * 1024;
    oc.stride = 16;
    oc.jobs = static_cast<int>(state.range(0));
    OfflineExhaustive off(oc);
    for (auto _ : state) {
        // One copy per measured epoch so every iteration sweeps the
        // same program point; the sweep inside uses the arena.
        SmtCpu epoch_cpu = cpu.checkpoint();
        benchmark::DoNotOptimize(off.stepEpoch(epoch_cpu));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["jobs"] =
        benchmark::Counter(static_cast<double>(oc.jobs));
}

} // namespace

BENCHMARK(BM_OfflineEpoch_Parallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
