/**
 * @file
 * Named-statistic registry: counters and gauges that any subsystem
 * can register and update cheaply on a hot path, with a
 * machine-readable JSON export. Every stat is a row of the catalog
 * (common/catalog.hh), and asking for a counter as a gauge, or for a
 * name outside the catalog, fails to compile.
 *
 * Design constraints, in order:
 *  - hot-path updates are a single relaxed atomic op — no locks, no
 *    lookups; callers hold a reference to the stat object obtained
 *    once at setup;
 *  - references returned by the registry are stable for the life of
 *    the registry (one fixed slot per catalog row);
 *  - concurrent registration from pool workers is safe (mutex only on
 *    the registration path);
 *  - zero-cost when unused: nothing updates stats unless a subsystem
 *    was handed one, and reads never block writers.
 *
 * A process-wide registry (globalStats()) serves the long-lived
 * subsystems — thread pool, warm-machine/solo-IPC caches — while
 * per-run structures (a learner's epoch history) own their own data.
 */

#ifndef SMTHILL_COMMON_STAT_REGISTRY_HH
#define SMTHILL_COMMON_STAT_REGISTRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/catalog.hh"
#include "common/json.hh"

namespace smthill
{

/** Monotonic event count (cache hits, tasks executed, evictions). */
class StatCounter
{
  public:
    void add(std::uint64_t n) { val.fetch_add(n, std::memory_order_relaxed); }
    void inc() { add(1); }
    std::uint64_t value() const
    {
        return val.load(std::memory_order_relaxed);
    }
    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> val{0};
};

/** Instantaneous level (queue depth, estimate state); set/add. */
class StatGauge
{
  public:
    void set(double v) { val.store(v, std::memory_order_relaxed); }
    void add(double d)
    {
        // Relaxed CAS loop: gauges are low-frequency relative to
        // counters and tolerate no lost updates.
        double cur = val.load(std::memory_order_relaxed);
        while (!val.compare_exchange_weak(cur, cur + d,
                                          std::memory_order_relaxed)) {
        }
    }
    double value() const { return val.load(std::memory_order_relaxed); }
    void reset() { val.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> val{0.0};
};

/**
 * The registry. A stat is created on first lookup and lives as long
 * as the registry; a second lookup of the same id returns the same
 * object, so independent subsystems may share a stat. Stats are
 * named only by catalog ids (common/catalog.hh).
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Find-or-create; the reference stays valid forever. */
    StatCounter &counter(CounterId id);
    StatGauge &gauge(GaugeId id);

    /**
     * Export every registered stat as one JSON object keyed by name,
     * in registration order: counters as integers, gauges as doubles.
     */
    Json toJson() const;

    /** Registered names in registration order (tests, listings). */
    std::vector<std::string> names() const;

    /** Reset every counter and gauge to zero. */
    void resetValues();

  private:
    /** Mark kStatCatalog[@p index] registered, if it is not yet. */
    void enroll(std::size_t index);

    mutable std::mutex mutex;
    std::array<StatCounter, kCounterCount> counters;
    std::array<StatGauge, kStatCount - kCounterCount> gauges;
    std::vector<std::size_t> order; ///< catalog indexes, registration order
};

/** The process-wide registry (thread pool, warm caches, CLI export). */
StatRegistry &globalStats();

} // namespace smthill

#endif // SMTHILL_COMMON_STAT_REGISTRY_HH
