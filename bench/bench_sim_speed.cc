/**
 * @file
 * Simulator-component microbenchmarks (google-benchmark): core cycle
 * throughput for different thread counts and workload classes,
 * whole-machine checkpoint cost, stream generation, predictor and
 * cache access rates. These are engineering numbers, not paper
 * results; they bound how large the figure benches can be scaled.
 *
 * SMTHILL_STATS_JSON=FILE writes the run results as a
 * `smthill.bench.sim-speed.v1` document: one entry per benchmark with
 * iterations, per-iteration real/cpu time (ns), items/sec, and — for
 * the BM_CoreCycles* family, where one item is one simulated cycle —
 * the headline kcycles/sec figure. The committed baseline lives at
 * bench/BENCH_sim_speed.json; regenerate it with
 *   SMTHILL_STATS_JSON=bench/BENCH_sim_speed.json ./bench_sim_speed
 * and compare kcycles/sec before accepting a change that touches the
 * core loop (the event-trace instrumentation, for example, must stay
 * within noise when no tracer is attached).
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "branch/predictors.hh"
#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "core/offline_exhaustive.hh"
#include "harness/runner.hh"
#include "memory/cache.hh"
#include "trace/spec_profiles.hh"

using namespace smthill;

namespace
{

SmtCpu
machineFor(const std::vector<std::string> &benches)
{
    SmtConfig cfg;
    cfg.numThreads = static_cast<int>(benches.size());
    std::vector<StreamGenerator> gens;
    for (std::size_t i = 0; i < benches.size(); ++i)
        gens.emplace_back(specProfile(benches[i]), i);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(200000); // warm
    return cpu;
}

void
BM_CoreCycles(benchmark::State &state,
              const std::vector<std::string> &benches)
{
    SmtCpu cpu = machineFor(benches);
    for (auto _ : state)
        cpu.step();
    state.SetItemsProcessed(state.iterations());
    state.counters["ipc"] = benchmark::Counter(
        static_cast<double>(cpu.stats().committedTotal()) /
        static_cast<double>(cpu.now()));
}

/**
 * BM_CoreCycles with an event trace attached to the machine. The
 * core loop itself emits nothing (events come from partition changes,
 * stalls, and flushes driven by policies), so any delta against the
 * smt2_mem config is pure pointer-check overhead — the "zero cost
 * when disabled" claim, measured.
 */
void
BM_CoreCycles_EventTrace(benchmark::State &state)
{
    SmtCpu cpu = machineFor({"art", "mcf"});
    EventTrace trace(1024);
    cpu.setEventTrace(&trace, 0);
    for (auto _ : state)
        cpu.step();
    state.SetItemsProcessed(state.iterations());
}

void
BM_Checkpoint(benchmark::State &state)
{
    SmtCpu cpu = machineFor({"art", "mcf"});
    for (auto _ : state) {
        // The copy is the thing being measured.
        SmtCpu copy = cpu; // smthill-lint: allow(cpu-copy-hot-path)
        benchmark::DoNotOptimize(&copy);
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * The arena path the trial sweeps actually take: restore a warm
 * machine from a checkpoint via SmtCpu::restoreFrom. The delta
 * against BM_Checkpoint is the allocation tax a cold copy-construct
 * pays on top of the state copy.
 */
void
BM_CheckpointRestore(benchmark::State &state)
{
    SmtCpu cpu = machineFor({"art", "mcf"});
    SmtCpu warm = cpu; // smthill-lint: allow(cpu-copy-hot-path)
    for (auto _ : state) {
        warm.restoreFrom(cpu);
        benchmark::DoNotOptimize(&warm);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_StreamGenerator(benchmark::State &state)
{
    StreamGenerator gen(specProfile("gcc"), 0);
    for (auto _ : state) {
        SynthInst inst = gen.next();
        benchmark::DoNotOptimize(inst);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_HybridPredictor(benchmark::State &state)
{
    HybridPredictor hp;
    Rng rng(1);
    Addr pc = 0x400000;
    for (auto _ : state) {
        auto lk = hp.predict(pc);
        bool taken = rng.chance(0.7);
        hp.update(pc, lk, taken);
        pc = 0x400000 + (rng.next() & 0x3ff) * 4;
    }
    state.SetItemsProcessed(state.iterations());
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
    SmtCpu cpu = machineFor({"art", "mcf"});
    OfflineConfig oc;
    oc.epochSize = 16 * 1024;
    oc.stride = 16;
    oc.jobs = static_cast<int>(state.range(0));
    OfflineExhaustive off(oc);
    for (auto _ : state) {
        // One copy per measured epoch so every iteration sweeps the
        // same program point; the sweep inside uses the arena.
        SmtCpu epoch_cpu = cpu; // smthill-lint: allow(cpu-copy-hot-path)
        benchmark::DoNotOptimize(off.stepEpoch(epoch_cpu));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["jobs"] =
        benchmark::Counter(static_cast<double>(oc.jobs));
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{"dl1", 64 * 1024, 64, 2});
    Rng rng(2);
    for (auto _ : state) {
        Addr addr = rng.next() & 0x3'ffff; // 256 KB footprint
        benchmark::DoNotOptimize(cache.access(addr, false));
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * Console reporting plus per-run capture for the JSON export: every
 * plain iteration run is kept (aggregates and errored runs are not).
 */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<Run> captured;

    bool
    ReportContext(const Context &context) override
    {
        return benchmark::ConsoleReporter::ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &r : report)
            if (r.run_type == Run::RT_Iteration && !r.error_occurred)
                captured.push_back(r);
        benchmark::ConsoleReporter::ReportRuns(report);
    }
};

/** Per-iteration time in nanoseconds, independent of the time unit. */
double
perIterNs(double accumulated_seconds, benchmark::IterationCount iters)
{
    if (iters == 0)
        return 0.0;
    return 1e9 * accumulated_seconds / static_cast<double>(iters);
}

void
exportResults(const std::vector<CaptureReporter::Run> &runs,
              const std::string &path)
{
    Json doc = Json::object();
    doc.set("schema", Json("smthill.bench.sim-speed.v1"));

    // Jobs-scaling efficiency for the parallel family: real_time at
    // jobs=1 divided by (real_time at jobs=j times j). 1.0 is perfect
    // scaling; 1/j is no real-time benefit at all (e.g. a single-CPU
    // host, where only cpu_ns_per_iter divides).
    double base_real_ns = 0.0;
    for (const auto &r : runs) {
        auto jobs_it = r.counters.find("jobs");
        if (jobs_it != r.counters.end() &&
            static_cast<int>(jobs_it->second) == 1) {
            base_real_ns = perIterNs(r.real_accumulated_time, r.iterations);
            break;
        }
    }

    Json list = Json::array();
    for (const auto &r : runs) {
        Json entry = Json::object();
        std::string name = r.benchmark_name();
        entry.set("name", Json(name));
        entry.set("iterations",
                  Json(static_cast<std::uint64_t>(r.iterations)));
        entry.set("real_ns_per_iter",
                  Json(perIterNs(r.real_accumulated_time, r.iterations)));
        entry.set("cpu_ns_per_iter",
                  Json(perIterNs(r.cpu_accumulated_time, r.iterations)));
        auto ips = r.counters.find("items_per_second");
        if (ips != r.counters.end()) {
            double per_sec = ips->second;
            entry.set("items_per_sec", Json(per_sec));
            // One item of a core-cycle bench is one simulated cycle.
            if (name.rfind("BM_CoreCycles", 0) == 0)
                entry.set("kcycles_per_sec", Json(per_sec / 1e3));
        }
        auto jobs_it = r.counters.find("jobs");
        if (jobs_it != r.counters.end() && base_real_ns > 0.0) {
            double j = jobs_it->second;
            double real_ns = perIterNs(r.real_accumulated_time,
                                       r.iterations);
            if (j > 0.0 && real_ns > 0.0) {
                entry.set("parallel_efficiency",
                          Json(base_real_ns / (real_ns * j)));
            }
        }
        list.push(std::move(entry));
    }
    doc.set("benchmarks", std::move(list));
    benchutil::writeAndReloadJson(path, doc);
    std::printf("exported %s\n", path.c_str());
}

} // namespace

BENCHMARK_CAPTURE(BM_CoreCycles, solo_ilp,
                  std::vector<std::string>{"bzip2"});
BENCHMARK_CAPTURE(BM_CoreCycles, smt2_mem,
                  std::vector<std::string>{"art", "mcf"});
BENCHMARK_CAPTURE(BM_CoreCycles, smt4_mix,
                  std::vector<std::string>{"art", "mcf", "fma3d", "gcc"});
BENCHMARK(BM_CoreCycles_EventTrace);
BENCHMARK(BM_Checkpoint);
BENCHMARK(BM_CheckpointRestore);
BENCHMARK(BM_OfflineEpoch_Parallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamGenerator);
BENCHMARK(BM_HybridPredictor);
BENCHMARK(BM_CacheAccess);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const char *path = std::getenv("SMTHILL_STATS_JSON");
    if (path && *path)
        exportResults(reporter.captured, path);
    return 0;
}
