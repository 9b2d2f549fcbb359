/**
 * @file
 * smthill_perfbench: the repository benchmark program.
 *
 * One process runs one workload for one seed. It builds the warm
 * machine and the solo IPCs (set-up), then runs a fixed number of
 * cells (the measured phase), checks every cell's simulated output,
 * and prints its metrics as the last line of stdout, one JSON object.
 *
 *   smthill_perfbench --workload race-mem --seed 0 --seconds 10 \
 *       --trace 0 --golden perfbench/fingerprints.txt
 *
 * A race cell runs one of ICOUNT, FLUSH, DCRA, HILL-WIPC and
 * PHASE-HILL from the warm checkpoint through runPolicyOn, serially
 * on the calling thread. An offline cell chains OfflineExhaustive
 * epochs (stride 8) on a two-worker pool. --seconds sets how many
 * cells run through a pinned per-workload cell cost, so both sides of
 * a comparison always do the same simulated work.
 *
 * --trace 1 is the per-layer run: it times calls into the library's
 * public functions from here (harness builds, policy.cycle /
 * SmtCpu::step sampled in a replica of the runPolicyOn loop, policy
 * epochs, restoreFrom, OfflineExhaustive::stepEpoch, and replays of
 * the stream generator, predictor and cache hierarchy). Spans stay in
 * memory and are reduced once at exit.
 *
 * Every cell is fingerprinted: per-thread committed/fetched/flushed
 * counts, the final partition and the weighted IPC to 17 significant
 * digits. A cell fails when its fingerprint differs from an earlier
 * run of the same cell in this process (repeats, or traced versus
 * untraced), from the pinned fingerprint on the default seed, or when
 * InvariantChecker::checkCpu reports a violation after it.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "branch/predictors.hh"
#include "common/profile.hh"
#include "core/hill_climbing.hh"
#include "core/metrics.hh"
#include "core/offline_exhaustive.hh"
#include "core/partitioning.hh"
#include "harness/runner.hh"
#include "memory/hierarchy.hh"
#include "phase/phase_hill.hh"
#include "pipeline/cpu.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "trace/stream_generator.hh"
#include "validate/invariants.hh"
#include "workload/workloads.hh"

using namespace smthill;

namespace
{

/** Seed whose cell fingerprints are pinned in the golden file. */
constexpr std::uint64_t kDefaultSeed = 0;

/** Solo-IPC window: the RunConfig default of 16 epochs. */
constexpr Cycle kSoloCycles = 16 * 64 * 1024;

/** OFF-LINE enumeration stride (31 trials of 256 registers). */
constexpr int kOfflineStride = 8;

/** OFF-LINE trial-sweep pool size (the two benchmark threads). */
constexpr int kOfflineWorkers = 2;

/** The traced loop times one cycle in every 2^kSampleShift. */
constexpr Cycle kSampleShift = 6;

/** Instructions replayed per thread by the layer micro-timers. */
constexpr std::size_t kReplayInsts = 500000;

/** restoreFrom calls timed by the traced run. */
constexpr int kRestores = 32;

enum class Kind { Race, Offline };

/**
 * One benchmark workload. A run's inputs are `machines` warm machines
 * of the mix, with stream salts seed * machines + k; setup_s is the
 * total of their set-ups.
 *
 * unitSeconds pins the measured work: a run of --seconds S does
 * max(1, round(S / unitSeconds)) units, where a unit is one cell per
 * race policy on every machine, or one offline cell on every machine.
 * It is a fixed constant, never measured at run time.
 */
struct WorkloadSpec
{
    const char *name;
    const char *mix;
    Kind kind;
    int machines;
    int raceEpochs;    ///< epochs per race cell
    int offlineEpochs; ///< OfflineExhaustive epochs per offline cell
    double unitSeconds;
};

const WorkloadSpec kSpecs[] = {
    {"race-mem", "art-mcf", Kind::Race, 4, 16, 1, 5.0},
    {"race-ilp", "apsi-eon", Kind::Race, 2, 6, 1, 9.0},
    {"offline-sweep", "mcf-eon", Kind::Offline, 2, 4, 3, 9.0},
};

const char *const kRacePolicies[] = {"ICOUNT", "FLUSH", "DCRA",
                                     "HILL-WIPC", "PHASE-HILL"};

std::unique_ptr<ResourcePolicy>
makeRacePolicy(const std::string &name, Cycle epoch_size)
{
    if (name == "ICOUNT")
        return std::make_unique<IcountPolicy>();
    if (name == "FLUSH")
        return std::make_unique<FlushPolicy>();
    if (name == "DCRA")
        return std::make_unique<DcraPolicy>();
    HillConfig hc;
    hc.epochSize = epoch_size;
    hc.metric = PerfMetric::WeightedIpc;
    if (name == "HILL-WIPC")
        return std::make_unique<HillClimbing>(hc);
    return std::make_unique<PhaseHillClimbing>(hc);
}

// --- Host clocks ---------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t
nsNow()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Wall and process-CPU time summed over start/stop intervals. */
struct PhaseClock
{
    double wall = 0.0;
    double cpu = 0.0;
    double wallAt = 0.0;
    double cpuAt = 0.0;

    void
    start()
    {
        wallAt = wallNow();
        cpuAt = cpuNow();
    }

    void
    stop()
    {
        wall += wallNow() - wallAt;
        cpu += cpuNow() - cpuAt;
    }
};

double
total(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- Output check --------------------------------------------------

std::string
joinCounts(const std::array<std::uint64_t, kMaxThreads> &a, int threads)
{
    std::string s;
    for (int t = 0; t < threads; ++t)
        s += (t ? "," : "") + std::to_string(a[t]);
    return s;
}

/** @return per-thread IPC of a cell, with runPolicyOn's arithmetic. */
IpcSample
overallIpc(const CpuStats &start, const CpuStats &end, int threads,
           Cycle elapsed)
{
    IpcSample s;
    s.numThreads = threads;
    for (int i = 0; i < threads; ++i) {
        s.ipc[i] = static_cast<double>(end.committed[i] -
                                       start.committed[i]) /
                   static_cast<double>(elapsed);
    }
    return s;
}

std::string
fingerprint(const CpuStats &st, int threads, bool partitioned,
            const Partition &partition, double wipc)
{
    char w[64];
    std::snprintf(w, sizeof w, "%.17g", wipc);
    return "committed=" + joinCounts(st.committed, threads) +
           " fetched=" + joinCounts(st.fetched, threads) +
           " flushed=" + joinCounts(st.flushed, threads) +
           " partition=" + (partitioned ? partition.str() : "off") +
           " wipc=" + w;
}

/**
 * Counts attempted and failed cells. Every fingerprint of a cell key
 * must equal the first one seen in the process; on the default seed
 * it must also equal the pinned one.
 */
class OutputCheck
{
  public:
    OutputCheck(std::string workload, bool pinned, const std::string &path)
        : wl(std::move(workload)), usePinned(pinned)
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            auto sp = line.find(' ');
            if (line.rfind('#', 0) != 0 && sp != std::string::npos)
                golden[line.substr(0, sp)] = line.substr(sp + 1);
        }
    }

    void
    record(const std::string &cell, const std::string &fp,
           const InvariantChecker &inv)
    {
        const std::string key = wl + "/" + cell;
        ++attempted;
        bool ok = true;
        if (!inv.ok()) {
            std::fprintf(stderr, "FAIL %s: invariant violation\n%s\n",
                         key.c_str(), inv.summary().c_str());
            ok = false;
        }
        auto [it, fresh] = seen.emplace(key, fp);
        if (fresh) {
            std::printf("cell %s %s\n", key.c_str(), fp.c_str());
        } else if (it->second != fp) {
            std::fprintf(stderr, "FAIL %s: fingerprint changed\n  was %s\n"
                                 "  now %s\n",
                         key.c_str(), it->second.c_str(), fp.c_str());
            ok = false;
        }
        if (usePinned) {
            auto g = golden.find(key);
            if (g == golden.end() || g->second != fp) {
                std::fprintf(stderr, "FAIL %s: differs from pinned\n  "
                                     "pinned %s\n  got    %s\n",
                             key.c_str(),
                             g == golden.end() ? "(none)"
                                               : g->second.c_str(),
                             fp.c_str());
                ok = false;
            }
        }
        failed += ok ? 0 : 1;
    }

    int attempted = 0;
    int failed = 0;

  private:
    std::string wl;
    bool usePinned;
    std::map<std::string, std::string> golden;
    std::map<std::string, std::string> seen;
};

// --- Set-up ------------------------------------------------------

/** One warm machine of the run's inputs. */
struct Machine
{
    std::string tag; ///< "m<k>", part of every cell key
    std::uint64_t salt = 0; ///< RunConfig::seedSalt
    SmtCpu warm;
    std::array<double, kMaxThreads> solo{};
};

struct Setup
{
    std::vector<Machine> machines;
    std::vector<double> warmS; ///< makeCpu time per machine
    std::vector<double> soloS; ///< soloIpcs time per machine
};

/** Build every machine through makeCpu and soloIpcs, timing each call. */
Setup
buildSetup(const Workload &w, std::uint64_t seed, int machines)
{
    Setup s;
    s.machines.reserve(static_cast<std::size_t>(machines));
    for (int k = 0; k < machines; ++k) {
        RunConfig rc;
        rc.seedSalt = seed * static_cast<std::uint64_t>(machines) +
                      static_cast<std::uint64_t>(k);
        rc.jobs = 1;
        const double t0 = wallNow();
        SmtCpu cpu = makeCpu(w, rc);
        const double t1 = wallNow();
        auto solo = soloIpcs(w, rc, kSoloCycles);
        const double t2 = wallNow();
        s.warmS.push_back(t1 - t0);
        s.soloS.push_back(t2 - t1);
        s.machines.push_back(
            {"m" + std::to_string(k), rc.seedSalt, std::move(cpu), solo});
    }
    return s;
}

// --- Cells ---------------------------------------------------------

std::string
raceKey(const std::string &policy, int epochs, const Machine &m)
{
    return "race." + policy + ".e" + std::to_string(epochs) + "." + m.tag;
}

std::string
offlineKey(int epochs, const Machine &m)
{
    return "offline.s" + std::to_string(kOfflineStride) + ".e" +
           std::to_string(epochs) + "." + m.tag;
}

/**
 * Check @p cpu at the end of a cell that started from @p start at
 * @p start_cycle, and record its fingerprint under @p key.
 */
void
recordCell(OutputCheck &check, const std::string &key, const SmtCpu &cpu,
           const CpuStats &start, Cycle start_cycle,
           const std::array<double, kMaxThreads> &solo)
{
    InvariantChecker inv;
    inv.checkCpu(cpu);
    const int threads = cpu.numThreads();
    const double wipc = evalMetric(
        PerfMetric::WeightedIpc,
        overallIpc(start, cpu.stats(), threads, cpu.now() - start_cycle),
        solo);
    check.record(key,
                 fingerprint(cpu.stats(), threads, cpu.partitioningEnabled(),
                             cpu.partition(), wipc),
                 inv);
}

/**
 * Untraced race cell: runPolicyOn from the warm checkpoint. The
 * invariant check runs in the last epoch's observer with @p clock
 * stopped, so only simulation is timed.
 */
void
raceCell(const Machine &mc, const std::string &name, int epochs,
         PhaseClock &clock, OutputCheck &check)
{
    auto policy = makeRacePolicy(name, RunConfig{}.epochSize);
    InvariantChecker inv;
    bool partitioned = false;
    Partition part;
    clock.start();
    RunResult res = runPolicyOn(
        mc.warm, *policy, epochs, RunConfig{}.epochSize,
        [&](int e, const SmtCpu &cpu) {
            if (e != epochs - 1)
                return;
            clock.stop();
            inv.checkCpu(cpu);
            partitioned = cpu.partitioningEnabled();
            part = cpu.partition();
            clock.start();
        });
    clock.stop();
    check.record(raceKey(name, epochs, mc),
                 fingerprint(res.stats, mc.warm.numThreads(), partitioned,
                             part, res.metric(PerfMetric::WeightedIpc,
                                              mc.solo)),
                 inv);
}

/** Sampled host-time totals of one traced race cell. */
struct TracedCell
{
    double wall = 0.0;
    std::int64_t stepNs = 0;
    std::int64_t cycleNs = 0;
    std::int64_t samples = 0;
    std::int64_t epochNs = 0;
    int epochs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t quiet = 0;
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;

    TracedCell &
    operator+=(const TracedCell &o)
    {
        wall += o.wall;
        stepNs += o.stepNs;
        cycleNs += o.cycleNs;
        samples += o.samples;
        epochNs += o.epochNs;
        epochs += o.epochs;
        cycles += o.cycles;
        quiet += o.quiet;
        committed += o.committed;
        fetched += o.fetched;
        return *this;
    }
};

/**
 * Traced race cell: the runPolicyOn loop driven from here so that
 * policy.cycle, SmtCpu::step and policy.epoch can be timed. Its
 * fingerprint is recorded under the untraced cell's key, so any
 * divergence from the runPolicyOn path fails the cell.
 */
TracedCell
tracedRaceCell(const Machine &mc, const std::string &name, int epochs,
               OutputCheck &check)
{
    const Cycle epoch_size = RunConfig{}.epochSize;
    auto policy = makeRacePolicy(name, epoch_size);
    TracedCell tc;
    const double w0 = wallNow();
    SmtCpu cpu = mc.warm;
    policy->attach(cpu);
    const CpuStats start = cpu.stats();
    const Cycle start_cycle = cpu.now();
    constexpr Cycle mask = (Cycle{1} << kSampleShift) - 1;
    for (int e = 0; e < epochs; ++e) {
        for (Cycle c = 0; c < epoch_size; ++c) {
            const auto fetched = cpu.stats().fetched;
            const auto committed = cpu.stats().committed;
            const OccupancyTotals occ = cpu.occupancyTotals();
            if ((c & mask) == 0) {
                const std::int64_t t0 = nsNow();
                policy->cycle(cpu);
                const std::int64_t t1 = nsNow();
                cpu.step();
                const std::int64_t t2 = nsNow();
                tc.cycleNs += t1 - t0;
                tc.stepNs += t2 - t1;
                ++tc.samples;
            } else {
                policy->cycle(cpu);
                cpu.step();
            }
            if (fetched == cpu.stats().fetched &&
                committed == cpu.stats().committed &&
                occ == cpu.occupancyTotals())
                ++tc.quiet;
        }
        const std::int64_t t0 = nsNow();
        policy->epoch(cpu, static_cast<std::uint64_t>(e));
        tc.epochNs += nsNow() - t0;
        ++tc.epochs;
    }
    tc.wall = wallNow() - w0;

    tc.cycles = cpu.now() - start_cycle;
    for (int t = 0; t < cpu.numThreads(); ++t) {
        tc.committed += cpu.stats().committed[t] - start.committed[t];
        tc.fetched += cpu.stats().fetched[t] - start.fetched[t];
    }
    recordCell(check, raceKey(name, epochs, mc), cpu, start, start_cycle,
               mc.solo);
    return tc;
}

/** Host time of one offline cell's stepEpoch calls. */
struct OfflineTiming
{
    double wall = 0.0;
    double cpu = 0.0;
    int epochs = 0;
};

/**
 * Offline cell: @p epochs chained stepEpoch calls from the warm
 * checkpoint. The learner (its pool and machine arena) is built inside
 * the cell, so no more than kOfflineWorkers threads ever exist.
 */
OfflineTiming
offlineCell(const Machine &mc, int epochs, OutputCheck &check)
{
    OfflineTiming t;
    PhaseClock clock;
    clock.start();
    OfflineConfig oc;
    oc.stride = kOfflineStride;
    oc.metric = PerfMetric::WeightedIpc;
    oc.singleIpc = mc.solo;
    oc.jobs = kOfflineWorkers;
    const OfflineExhaustive offline(oc);
    SmtCpu cpu = mc.warm;
    const CpuStats start = cpu.stats();
    const Cycle start_cycle = cpu.now();
    for (int e = 0; e < epochs; ++e)
        offline.stepEpoch(cpu);
    clock.stop();
    t.wall = clock.wall;
    t.cpu = clock.cpu;
    t.epochs = epochs;
    recordCell(check, offlineKey(epochs, mc), cpu, start, start_cycle,
               mc.solo);
    return t;
}

/** Simulated cycles of one offline epoch: every trial plus the commit. */
Cycle
offlineEpochCycles(const SmtCpu &cpu)
{
    const auto trials =
        enumeratePartitions2(cpu.config().intRegs, kOfflineStride);
    return static_cast<Cycle>(trials.size() + 1) * RunConfig{}.epochSize;
}

// --- Layer replays (traced run only) -------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

/**
 * Replay the workload's instruction streams through the stream
 * generator, one HybridPredictor per thread and one shared
 * MemoryHierarchy, timing each layer over its whole replay. Miss
 * rates count only the second half, once the caches are warm.
 */
void
replayLayers(const Workload &w, std::uint64_t seed, Metrics &m)
{
    auto gens = w.makeGenerators(seed);
    const int threads = static_cast<int>(gens.size());
    std::vector<std::vector<SynthInst>> streams(threads);
    std::int64_t next_ns = 0;
    for (int t = 0; t < threads; ++t) {
        streams[t].resize(kReplayInsts);
        const std::int64_t t0 = nsNow();
        for (auto &inst : streams[t])
            inst = gens[t].next();
        next_ns += nsNow() - t0;
    }
    m.emplace_back("trace.next_ns",
                   static_cast<double>(next_ns) /
                       static_cast<double>(kReplayInsts * threads));

    std::uint64_t branches = 0, mispredicts = 0;
    std::int64_t branch_ns = 0;
    for (int t = 0; t < threads; ++t) {
        std::vector<const SynthInst *> br;
        for (const auto &inst : streams[t])
            if (inst.isBranch())
                br.push_back(&inst);
        HybridPredictor pred;
        const std::int64_t t0 = nsNow();
        for (const SynthInst *inst : br) {
            auto lk = pred.predict(inst->pc);
            pred.update(inst->pc, lk, inst->taken);
            if (lk.prediction != inst->taken) {
                pred.repairHistory(lk, inst->taken);
                ++mispredicts;
            }
        }
        branch_ns += nsNow() - t0;
        branches += br.size();
    }
    m.emplace_back("branch.lookup_ns", static_cast<double>(branch_ns) /
                                           static_cast<double>(branches));
    m.emplace_back("branch.mispredict_pct",
                   100.0 * static_cast<double>(mispredicts) /
                       static_cast<double>(branches));

    struct Access
    {
        ThreadId tid;
        Addr addr;
        bool write;
    };
    std::vector<Access> acc;
    for (std::size_t i = 0; i < kReplayInsts; ++i)
        for (int t = 0; t < threads; ++t) {
            const SynthInst &inst = streams[t][i];
            if (inst.isLoad() || inst.isStore())
                acc.push_back({static_cast<ThreadId>(t), inst.effAddr,
                               inst.isStore()});
        }
    MemoryHierarchy mem;
    const std::size_t half = acc.size() / 2;
    std::uint64_t dl1_hits = 0, dl1_miss = 0, l2_hits = 0, l2_miss = 0;
    const std::int64_t t0 = nsNow();
    for (std::size_t i = 0; i < acc.size(); ++i) {
        if (i == half) {
            dl1_hits = mem.dl1().hits();
            dl1_miss = mem.dl1().misses();
            l2_hits = mem.ul2().hits();
            l2_miss = mem.ul2().misses();
        }
        mem.dataAccess(acc[i].tid, acc[i].addr, acc[i].write);
    }
    const std::int64_t mem_ns = nsNow() - t0;
    m.emplace_back("memory.access_ns", static_cast<double>(mem_ns) /
                                           static_cast<double>(acc.size()));
    const double d_miss = static_cast<double>(mem.dl1().misses() - dl1_miss);
    const double d_all =
        d_miss + static_cast<double>(mem.dl1().hits() - dl1_hits);
    const double l_miss = static_cast<double>(mem.ul2().misses() - l2_miss);
    const double l_all =
        l_miss + static_cast<double>(mem.ul2().hits() - l2_hits);
    m.emplace_back("memory.dl1_miss_pct", 100.0 * d_miss / d_all);
    m.emplace_back("memory.l2_miss_pct",
                   l_all > 0 ? 100.0 * l_miss / l_all : 0.0);
}

/** Mean restoreFrom time onto a machine that has run past the checkpoint. */
double
restoreMicros(const SmtCpu &warm)
{
    SmtCpu m = warm;
    std::int64_t ns = 0;
    for (int k = 0; k < kRestores; ++k) {
        m.run(4096);
        const std::int64_t t0 = nsNow();
        m.restoreFrom(warm);
        ns += nsNow() - t0;
    }
    return static_cast<double>(ns) / kRestores / 1e3;
}

// --- Runs ----------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Untraced run: the end-to-end metrics. */
Metrics
measuredRun(const WorkloadSpec &spec, const Setup &s, int units,
            OutputCheck &check)
{
    PhaseClock clock;
    std::uint64_t cycles = 0;
    std::vector<double> per_machine(s.machines.size());
    for (int u = 0; u < units; ++u) {
        for (std::size_t k = 0; k < s.machines.size(); ++k) {
            const Machine &mc = s.machines[k];
            const double before = clock.wall;
            if (spec.kind == Kind::Offline) {
                OfflineTiming t = offlineCell(mc, spec.offlineEpochs, check);
                clock.wall += t.wall;
                clock.cpu += t.cpu;
                cycles += static_cast<std::uint64_t>(spec.offlineEpochs) *
                          offlineEpochCycles(mc.warm);
            } else {
                for (const char *p : kRacePolicies) {
                    raceCell(mc, p, spec.raceEpochs, clock, check);
                    cycles += static_cast<std::uint64_t>(spec.raceEpochs) *
                              RunConfig{}.epochSize;
                }
            }
            per_machine[k] += clock.wall - before;
        }
    }
    std::printf("info units=%d sim_cycles=%llu wall_s_per_machine=", units,
                static_cast<unsigned long long>(cycles));
    for (std::size_t k = 0; k < per_machine.size(); ++k)
        std::printf("%s%.4f", k ? "," : "", per_machine[k]);
    std::printf("\n");
    return {
        {"wall_s", clock.wall},
        {"cpu_s", clock.cpu},
        {"setup_s", total(s.warmS) + total(s.soloS)},
        {"sim_mcycles_per_s",
         static_cast<double>(cycles) / 1e6 / clock.wall},
        {"peak_rss_mb", peakRssMb()},
    };
}

/**
 * Traced run: the per-layer metrics. Every race cell runs untraced and
 * then traced on every machine; times are totals over the run.
 */
Metrics
tracedRun(const WorkloadSpec &spec, const Workload &w, const Setup &s,
          OutputCheck &check)
{
    Metrics m;
    m.emplace_back("harness.warm_build_s", total(s.warmS));
    m.emplace_back("harness.solo_build_s", total(s.soloS));

    double untraced_wall = 0.0;
    TracedCell all;
    Metrics cycle_ns, epoch_us;
    for (const char *p : kRacePolicies) {
        PhaseClock clock;
        TracedCell pol;
        for (const Machine &mc : s.machines) {
            raceCell(mc, p, spec.raceEpochs, clock, check);
            pol += tracedRaceCell(mc, p, spec.raceEpochs, check);
        }
        untraced_wall += clock.wall;
        m.emplace_back(std::string("harness.run_policy_s.") + p,
                       clock.wall);
        cycle_ns.emplace_back(std::string("policy.cycle_ns.") + p,
                              static_cast<double>(pol.cycleNs) /
                                  static_cast<double>(pol.samples));
        epoch_us.emplace_back(std::string("policy.epoch_us.") + p,
                              static_cast<double>(pol.epochNs) / 1e3 /
                                  pol.epochs);
        all += pol;
    }
    const auto cycles = static_cast<double>(all.cycles);
    m.emplace_back("pipeline.step_ns", static_cast<double>(all.stepNs) /
                                           static_cast<double>(all.samples));
    m.emplace_back("pipeline.quiet_cycle_pct",
                   100.0 * static_cast<double>(all.quiet) / cycles);
    m.emplace_back("pipeline.ipc",
                   static_cast<double>(all.committed) / cycles);
    m.emplace_back("pipeline.commit_per_fetch",
                   static_cast<double>(all.committed) /
                       static_cast<double>(all.fetched));
    m.emplace_back("trace.fetched_per_cycle",
                   static_cast<double>(all.fetched) / cycles);
    m.insert(m.end(), cycle_ns.begin(), cycle_ns.end());
    m.insert(m.end(), epoch_us.begin(), epoch_us.end());
    m.emplace_back("trace_overhead_pct",
                   100.0 * (all.wall / untraced_wall - 1.0));

    const Machine &first = s.machines.front();
    m.emplace_back("pipeline.restore_us", restoreMicros(first.warm));

    OfflineTiming off;
    for (const Machine &mc : s.machines) {
        OfflineTiming t = offlineCell(mc, spec.offlineEpochs, check);
        off.wall += t.wall;
        off.cpu += t.cpu;
        off.epochs += t.epochs;
    }
    m.emplace_back("core.offline.step_epoch_ms",
                   1e3 * off.wall / off.epochs);
    m.emplace_back("core.offline.trials",
                   static_cast<double>(
                       enumeratePartitions2(first.warm.config().intRegs,
                                            kOfflineStride)
                           .size()));
    m.emplace_back("common.pool.utilization",
                   off.cpu / (off.wall * kOfflineWorkers));

    replayLayers(w, first.salt, m);
    return m;
}

// --- Output --------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: smthill_perfbench --workload race-mem|race-ilp|"
                 "offline-sweep --seed N --seconds S --trace 0|1 "
                 "--golden FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::string(argv[i]).rfind("--", 0) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 != 1 || !args.count("workload"))
        return usage();
    const WorkloadSpec *spec = nullptr;
    for (const auto &s : kSpecs)
        if (args["workload"] == s.name)
            spec = &s;
    if (!spec)
        return usage();
    const std::uint64_t seed =
        std::strtoull(args.count("seed") ? args["seed"].c_str() : "0",
                      nullptr, 10);
    const double seconds =
        args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10.0;
    const bool trace = args.count("trace") && args["trace"] == "1";

    // The in-program profiler stays off: all timing is from here.
    prof::setProfilingEnabled(false);

    std::printf("host {\"nproc\": %ld, \"cpu_model\": %s, \"compiler\": "
                "%s, \"build_type\": %s}\n",
                sysconf(_SC_NPROCESSORS_ONLN), jsonString(cpuModel()).c_str(),
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str());

    const Workload &w = workloadByName(spec->mix);
    OutputCheck check(spec->name, seed == kDefaultSeed,
                      args.count("golden") ? args["golden"] : "");
    const Setup s = buildSetup(w, seed, spec->machines);
    const int units = std::max(
        1, static_cast<int>(std::lround(seconds / spec->unitSeconds)));
    const Metrics m = trace ? tracedRun(*spec, w, s, check)
                            : measuredRun(*spec, s, units, check);

    std::string out = "{\"correct\": ";
    out += check.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(check.attempted);
    out += ", \"failed\": " + std::to_string(check.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char v[64];
        std::snprintf(v, sizeof v, "%.17g", m[i].second);
        out += (i ? ", " : "") + jsonString(m[i].first) + ": " + v;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
