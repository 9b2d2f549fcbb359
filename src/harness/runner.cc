#include "harness/runner.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/log.hh"
#include "common/profile.hh"
#include "common/stat_registry.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{

namespace
{

/**
 * Warm-machine cache key: every field that shapes the warmed state.
 * Keying on the whole SmtConfig (not a hand-picked subset) means no
 * future machine knob can silently alias two different machines.
 */
struct MachineKey
{
    std::string workload;
    std::uint64_t seedSalt;
    Cycle warmupCycles;
    SmtConfig machine;

    auto operator<=>(const MachineKey &) const = default;
};

/**
 * Cache slot whose value is built exactly once, outside the cache
 * lock, so concurrent grid cells warming *different* machines never
 * serialize behind each other.
 */
template <typename V>
struct OnceSlot
{
    std::once_flag once;
    std::optional<V> value;
};

/**
 * Mutex-guarded, size-bounded, build-once cache. Eviction is FIFO by
 * insertion; an evicted slot still being warmed stays alive through
 * its shared_ptr, so readers are never invalidated.
 */
template <typename K, typename V>
class WarmCache
{
  public:
    /** The hit, miss and eviction counters register in globalStats(). */
    WarmCache(std::size_t max_entries, CounterId hits, CounterId misses,
              CounterId evictions)
        : maxEntries(max_entries), hitsStat(globalStats().counter(hits)),
          missesStat(globalStats().counter(misses)),
          evictionsStat(globalStats().counter(evictions))
    {
    }

    template <typename Build>
    V
    get(const K &key, Build &&build)
    {
        std::shared_ptr<OnceSlot<V>> slot;
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = entries.find(key);
            if (it == entries.end()) {
                while (entries.size() >= maxEntries && !order.empty()) {
                    entries.erase(order.front());
                    order.pop_front();
                    evictionsStat.inc();
                }
                slot = std::make_shared<OnceSlot<V>>();
                entries.emplace(key, slot);
                order.push_back(key);
                missesStat.inc();
            } else {
                slot = it->second;
                hitsStat.inc();
            }
        }
        std::call_once(slot->once,
                       [&] { slot->value.emplace(build()); });
        return *slot->value;
    }

  private:
    std::size_t maxEntries;
    std::mutex mutex;
    std::map<K, std::shared_ptr<OnceSlot<V>>> entries;
    std::deque<K> order;
    StatCounter &hitsStat;
    StatCounter &missesStat;
    StatCounter &evictionsStat;
};

} // namespace

SmtCpu
makeCpu(const Workload &workload, const RunConfig &config)
{
    // Warming a machine costs millions of cycles; benches build the
    // same warm machine for every policy, so cache it by value and
    // hand out copies. Bounded: a long-lived process sweeping many
    // machine configurations must not hold every warm machine alive.
    static WarmCache<MachineKey, SmtCpu> cache(
        64, CounterId::WarmMachineHits, CounterId::WarmMachineMisses,
        CounterId::WarmMachineEvictions);
    MachineKey key{workload.name, config.seedSalt, config.warmupCycles,
                   config.machine};
    return cache.get(key, [&] {
        SMTHILL_PROF_SCOPE("harness.warm_build");
        SmtConfig machine = config.machine;
        machine.numThreads = workload.numThreads();
        SmtCpu cpu(machine, workload.makeGenerators(config.seedSalt));
        cpu.run(config.warmupCycles);
        return cpu;
    });
}

IpcSample
runOneEpoch(SmtCpu &cpu, ResourcePolicy &policy, Cycle epoch_size)
{
    SMTHILL_PROF_SCOPE("runner.epoch");
    auto before = cpu.stats().committed;
    const Cycle end = cpu.now() + epoch_size;
    bool probe = true;
    while (cpu.now() < end)
        advanceToWake(cpu, policy, end, probe);
    IpcSample s;
    s.numThreads = cpu.numThreads();
    for (int i = 0; i < s.numThreads; ++i) {
        s.ipc[i] =
            static_cast<double>(cpu.stats().committed[i] - before[i]) /
            static_cast<double>(epoch_size);
    }
    return s;
}

RunResult
runPolicyOn(SmtCpu cpu, ResourcePolicy &policy, int epochs,
            Cycle epoch_size, const EpochObserver &on_epoch)
{
    SMTHILL_PROF_SCOPE("runner.policy_run");
    RunResult res;
    res.epochs.reserve(epochs);
    // The machine arrived by value, so it has no links; mirror the
    // policy's event trace onto the machine this run executes on.
    cpu.setEventTrace(policy.eventTrace(), policy.eventTracePid());
    policy.attach(cpu);

    res.startSnapshot = MachineSnapshot::capture(cpu);
    auto start_committed = cpu.stats().committed;
    Cycle start_cycle = cpu.now();

    for (int e = 0; e < epochs; ++e) {
        EpochRecord rec;
        rec.partitioned = cpu.partitioningEnabled();
        if (rec.partitioned)
            rec.partition = cpu.partition();
        rec.ipc = runOneEpoch(cpu, policy, epoch_size);
        res.epochs.push_back(rec);
        policy.epoch(cpu, static_cast<std::uint64_t>(e));
        if (on_epoch)
            on_epoch(e, cpu);
    }

    Cycle elapsed = cpu.now() - start_cycle;
    res.overallIpc.numThreads = cpu.numThreads();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        res.overallIpc.ipc[i] =
            static_cast<double>(cpu.stats().committed[i] -
                                start_committed[i]) /
            static_cast<double>(elapsed);
    }
    res.stats = cpu.stats();
    res.finalSnapshot = MachineSnapshot::capture(cpu);
    return res;
}

RunResult
runPolicy(const Workload &workload, ResourcePolicy &policy,
          const RunConfig &config)
{
    return runPolicyOn(makeCpu(workload, config), policy, config.epochs,
                       config.epochSize);
}

double
soloIpc(const std::string &benchmark, const RunConfig &config,
        Cycle cycles)
{
    // Process-wide cache: solo IPCs are reused across dozens of
    // workloads and policies within one bench binary. Keyed on the
    // whole machine configuration (the old string key ignored machine
    // overrides, so ablation sweeps could read stale values).
    struct SoloKey
    {
        std::string benchmark;
        Cycle cycles;
        std::uint64_t seedSalt;
        Cycle warmupCycles;
        SmtConfig machine;

        auto operator<=>(const SoloKey &) const = default;
    };
    static WarmCache<SoloKey, double> cache(
        1024, CounterId::WarmSoloIpcHits, CounterId::WarmSoloIpcMisses,
        CounterId::WarmSoloIpcEvictions);
    SoloKey key{benchmark, cycles, config.seedSalt, config.warmupCycles,
                config.machine};
    key.machine.numThreads = 1; // solo runs always use one context
    return cache.get(key, [&] {
        SMTHILL_PROF_SCOPE("harness.solo_build");
        SmtConfig machine = config.machine;
        machine.numThreads = 1;
        std::vector<StreamGenerator> gens;
        gens.emplace_back(specProfile(benchmark), config.seedSalt * 131);
        SmtCpu cpu(machine, std::move(gens));
        cpu.run(config.warmupCycles);
        std::uint64_t before = cpu.stats().committed[0];
        cpu.run(cycles);
        return static_cast<double>(cpu.stats().committed[0] - before) /
               static_cast<double>(cycles);
    });
}

std::array<double, kMaxThreads>
soloIpcs(const Workload &workload, const RunConfig &config, Cycle cycles)
{
    std::array<double, kMaxThreads> out{};
    for (int i = 0; i < workload.numThreads(); ++i)
        out[i] = soloIpc(workload.benchmarks[i], config, cycles);
    return out;
}

void
runGrid(std::size_t cells, int jobs,
        const std::function<void(std::size_t)> &cell)
{
    ThreadPool pool(jobs);
    pool.parallelFor(cells, cell);
}

void
runGridWorker(std::size_t cells, int jobs,
              const std::function<void(std::size_t, int)> &cell)
{
    ThreadPool pool(jobs);
    pool.parallelForWorker(cells, cell);
}

std::optional<std::uint64_t>
envKnob(const char *name)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return std::nullopt;
    // strtoull alone would wrap "-1" to 2^64-1 and read "2x" as 2.
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
        errno == ERANGE) {
        warn(msg("ignoring unparsable ", name, "='", v, "'"));
        return std::nullopt;
    }
    return parsed;
}

std::uint64_t
envScale(const char *name, std::uint64_t def)
{
    return envKnob(name).value_or(def);
}

} // namespace smthill
