/**
 * @file
 * The partitioned-resource abstraction of Section 3.1.2.
 *
 * Learning-based distribution partitions a single "unit" resource —
 * the integer rename registers — and applies the same per-thread
 * fractions proportionally to the integer IQ and the ROB. A Partition
 * is therefore a per-thread allocation of integer rename registers
 * summing to the machine total; DerivedLimits expands it to concrete
 * per-thread caps on all three partitioned structures.
 */

#ifndef SMTHILL_PIPELINE_RESOURCES_HH
#define SMTHILL_PIPELINE_RESOURCES_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "memory/hierarchy.hh" // kMaxThreads

namespace smthill
{

struct SmtConfig;

/** Per-thread allocation of the unit resource (int rename regs). */
struct Partition
{
    std::array<int, kMaxThreads> share{};
    int numThreads = 0;

    /** @return an equal split of @p total across @p threads. */
    static Partition equal(int threads, int total);

    /** @return allocation of thread @p tid. */
    int of(ThreadId tid) const { return share[tid]; }

    /** @return the sum of all shares. */
    int total() const;

    /**
     * Clamp every share into [min_share, +inf) while preserving the
     * total, taking the excess from the largest shares. Used by the
     * hill-climber so no thread is ever starved below Delta.
     */
    void clampMin(int min_share);

    /** @return a short "a/b/c" string for logs and tables. */
    std::string str() const;

    bool operator==(const Partition &) const = default;
};

/** Concrete per-thread caps on the three partitioned structures. */
struct DerivedLimits
{
    std::array<int, kMaxThreads> intRegs{};
    std::array<int, kMaxThreads> intIq{};
    std::array<int, kMaxThreads> rob{};
};

/**
 * Expand a Partition into per-structure caps using the proportional
 * rule of Section 3.1.2. Every cap is at least 1 so a thread with a
 * nonzero register share can always make forward progress.
 */
DerivedLimits deriveLimits(const Partition &partition,
                           const SmtConfig &config);

/** Per-thread occupancy counters for all shared structures. */
struct Occupancy
{
    std::array<int, kMaxThreads> intIq{};
    std::array<int, kMaxThreads> fpIq{};
    std::array<int, kMaxThreads> intRegs{};
    std::array<int, kMaxThreads> fpRegs{};
    std::array<int, kMaxThreads> rob{};
    std::array<int, kMaxThreads> lsq{};
    std::array<int, kMaxThreads> ifq{};

    int totalIntIq() const;
    int totalFpIq() const;
    int totalIntRegs() const;
    int totalFpRegs() const;
    int totalRob() const;
    int totalLsq() const;
    int totalIfq() const;

    bool operator==(const Occupancy &) const = default;
};

/**
 * Machine-wide occupancy totals, maintained incrementally alongside
 * the per-thread Occupancy counters. The dispatch and fetch stages
 * test shared-capacity limits against these every attempt; keeping
 * them as running sums removes the per-attempt re-summation of the
 * per-thread arrays. Always recomputable from an Occupancy, which is
 * what the invariant checker does to validate the increments.
 */
struct OccupancyTotals
{
    int intIq = 0;
    int fpIq = 0;
    int intRegs = 0;
    int fpRegs = 0;
    int rob = 0;
    int lsq = 0;
    int ifq = 0;

    /** @return totals re-summed from scratch. */
    static OccupancyTotals of(const Occupancy &occ);

    bool operator==(const OccupancyTotals &) const = default;
};

} // namespace smthill

#endif // SMTHILL_PIPELINE_RESOURCES_HH
