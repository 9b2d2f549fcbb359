/**
 * @file
 * Runtime invariant checking for the simulator (debug-mode validation
 * layer). The paper's results depend on the machine conserving its
 * partitioned resources exactly — every trial/anchor move
 * redistributes the 256 integer rename registers and the proportional
 * IQ/ROB caps — so this layer cross-checks the live pipeline against
 * the accounting identities that must hold at every cycle:
 *
 *  - an enforced Partition has the machine's thread count,
 *    non-negative shares, and shares summing to the machine total;
 *  - per-thread occupancy never exceeds the DerivedLimits caps
 *    (allowing the bounded transient drain right after a partition
 *    shrink, when existing occupancy may sit above the new cap but
 *    must only decrease);
 *  - occupancy totals never exceed the shared structure capacities;
 *  - cumulative flow counters reconcile: fetched >= committed +
 *    flushed per thread, with the in-flight difference bounded by
 *    IFQ + ROB capacity;
 *  - cache access counters reconcile across levels (per-thread miss
 *    attributions sum to the per-cache totals; every L1 miss is
 *    exactly one L2 access);
 *  - epoch-trace records match the live learner state.
 *
 * Checks are expressed over plain state structs wherever possible so
 * the test suite can feed deliberately corrupted state and assert
 * each invariant actually fires (no silent checkers).
 */

#ifndef SMTHILL_VALIDATE_INVARIANTS_HH
#define SMTHILL_VALIDATE_INVARIANTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "core/epoch_trace.hh"
#include "core/hill_climbing.hh"
#include "pipeline/cpu.hh"

namespace smthill
{

/**
 * Cache counters captured for reconciliation — a plain struct so the
 * tests can corrupt one and assert the checks fire.
 */
struct CacheCounterSample
{
    std::array<std::uint64_t, kMaxThreads> dl1PerThread{};
    std::array<std::uint64_t, kMaxThreads> l2PerThread{};
    std::uint64_t il1Misses = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t ul2Hits = 0;
    std::uint64_t ul2Misses = 0;

    static CacheCounterSample capture(const MemoryHierarchy &memory);

    bool operator==(const CacheCounterSample &) const = default;
};

/** One detected invariant violation. */
struct InvariantViolation
{
    std::string check;  ///< invariant name ("partition.total", ...)
    std::string detail; ///< human-readable description of the breach
};

/**
 * Collects invariant violations over structured simulator state.
 * By default violations accumulate for inspection; failFast panics
 * on the first one (fuzzing under a debugger / sanitizer).
 */
class InvariantChecker
{
  public:
    struct Options
    {
        /** panic() on the first violation instead of recording it. */
        bool failFast = false;

        /**
         * Require an enforced partition to sum to exactly the
         * machine total (all in-repo partitioning policies conserve
         * it; user-supplied static partitions may deliberately
         * under-allocate, so this is an opt-in strictness).
         */
        bool strictPartitionTotal = false;

        /** Recording cap; violations past it only bump the count. */
        std::size_t maxViolations = 256;
    };

    InvariantChecker();
    explicit InvariantChecker(Options options);

    // --- Structured-state checks (feed corrupted state in tests) ---

    /**
     * Shape of a partition: thread count, non-negative shares, total
     * vs @p total (<= always; == when strictPartitionTotal), and,
     * when @p min_share > 0 and feasible, every share >= min_share.
     */
    void checkPartitionShape(const Partition &p, int num_threads,
                             int total, int min_share = 0);

    /** Two partitions (before/after a move) conserve the total. */
    void checkPartitionConserves(const Partition &before,
                                 const Partition &after);

    /** Occupancy totals fit the shared structure capacities. */
    void checkOccupancyCapacity(const Occupancy &occ,
                                const SmtConfig &config);

    /**
     * The incrementally maintained machine-wide totals equal a fresh
     * re-summation of the per-thread counters (the pipeline updates
     * both at every allocate/release site; a drifted total means a
     * missed update).
     */
    void checkOccupancyTotals(const Occupancy &occ,
                              const OccupancyTotals &totals);

    /**
     * Strict per-thread partition caps: occupancy of every
     * partitioned structure is within DerivedLimits. Use only on
     * state known to be past any re-partition transient.
     */
    void checkOccupancyLimits(const Occupancy &occ,
                              const DerivedLimits &limits,
                              int num_threads);

    /**
     * Transient-tolerant per-thread caps: occupancy may exceed the
     * cap only while draining, i.e. occ <= max(prev, limit) for each
     * partitioned structure (prev = occupancy at the last check).
     */
    void checkOccupancyTransient(const Occupancy &occ,
                                 const Occupancy &prev,
                                 const DerivedLimits &limits,
                                 int num_threads);

    /**
     * Cumulative pipeline flow identities over CpuStats: per thread,
     * fetched >= committed + flushed, the in-flight difference is
     * bounded by IFQ + ROB capacity, mispredicts <= branches, and
     * branches/loads <= fetched.
     */
    void checkFlowCounters(const CpuStats &stats, const SmtConfig &config);

    /**
     * Cache counter reconciliation: per-thread DL1/L2 miss
     * attributions sum to the cache totals, and L2 accesses equal
     * IL1 misses + DL1 misses (every L1 miss is one L2 access).
     */
    void checkCacheCounters(const CacheCounterSample &sample);

    /** Capture @p memory's counters and reconcile them. */
    void checkCacheCounters(const MemoryHierarchy &memory);

    /**
     * Epoch-trace records agree with the live learner: the last
     * record's anchor and SingleIPC estimates equal the learner's
     * current state, epoch ids increase strictly, and measured
     * windows/IPCs are sane.
     */
    void checkEpochTrace(const HillClimbing &hill,
                         const EpochTracer &tracer);

    /**
     * Cycle-level event-stream sanity (common/event_trace.hh): per
     * (pid, tid) track, event end times (ts + dur for slices, ts for
     * points) never decrease — sim time only moves forward — slice
     * durations are non-negative, and phase characters are from the
     * trace-event dialect the exporter emits (B/E/X/i/C/M).
     */
    void checkEventStream(const std::vector<SimEvent> &events);

    // --- Composite live-machine check -----------------------------

    /**
     * Run every stateless check against a live machine: occupancy
     * capacities, partition shape (when enforced), flow counters,
     * cache reconciliation, and wakeup-list consistency
     * (SmtCpu::wakeupListError).
     */
    void checkCpu(const SmtCpu &cpu);

    // --- Results ---------------------------------------------------

    bool ok() const { return total_ == 0; }
    const std::vector<InvariantViolation> &violations() const
    {
        return viols;
    }
    /** Count of all violations, including ones past maxViolations. */
    std::size_t totalViolations() const { return total_; }
    void clear();

    /** One line per recorded violation (empty string when ok). */
    std::string summary() const;

    const Options &options() const { return opt; }

  private:
    void report(const char *check, std::string detail);

    Options opt;
    std::vector<InvariantViolation> viols;
    std::size_t total_ = 0;
};

/**
 * Compare the machine state quiet-cycle skipping must reproduce
 * exactly: now(), every CpuStats counter (partitionLockCycles and
 * stalledCycles included), occupancy and its totals, the partition,
 * the round-robin pointers, per-thread fetch locks, enables and
 * in-flight misses, and the cache counters.
 * @return "" when equal, else the first difference found
 */
std::string diffMachineState(const SmtCpu &a, const SmtCpu &b);

} // namespace smthill

#endif // SMTHILL_VALIDATE_INVARIANTS_HH
