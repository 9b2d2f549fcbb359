/**
 * @file
 * Derived statistics reports: turns raw machine counters into the
 * per-thread and whole-machine rates an architect actually reads —
 * IPC, misprediction rate, cache MPKI, flush overhead, fetch shares,
 * partition-lock time — over a measurement interval bracketed by two
 * machine snapshots.
 */

#ifndef SMTHILL_HARNESS_REPORT_HH
#define SMTHILL_HARNESS_REPORT_HH

#include <array>
#include <string>
#include <vector>

#include "common/json.hh"
#include "pipeline/cpu.hh"
#include "workload/open_system.hh"

namespace smthill
{

/** Raw counters captured at one instant. */
struct MachineSnapshot
{
    Cycle cycle = 0;
    int numThreads = 0; ///< hardware contexts of the captured machine
    CpuStats stats;
    std::array<std::uint64_t, kMaxThreads> dl1Misses{};
    std::array<std::uint64_t, kMaxThreads> l2Misses{};

    /** Capture the current counters of @p cpu. */
    static MachineSnapshot capture(const SmtCpu &cpu);
};

/** Derived per-thread rates over an interval. */
struct ThreadReport
{
    std::string label;
    double ipc = 0.0;
    double fetchShare = 0.0;      ///< of all fetched instructions
    double mispredictRate = 0.0;  ///< mispredicts / branches
    double dl1Mpki = 0.0;         ///< DL1 misses / kilo-instruction
    double l2Mpki = 0.0;          ///< L2 misses / kilo-instruction
    double flushedPerCommit = 0.0; ///< squashed / committed
    double lockedFrac = 0.0;      ///< partition-locked fetch cycles
    std::uint64_t committed = 0;
    std::uint64_t flushed = 0;    ///< squashed, even when committed==0

    bool operator==(const ThreadReport &) const = default;
};

/** Whole-machine derived report. */
struct MachineReport
{
    Cycle cycles = 0;
    double totalIpc = 0.0;
    std::uint64_t stalledCycles = 0; ///< software-cost stall cycles
    std::vector<ThreadReport> threads;

    /** Pretty-print to stdout. */
    void print() const;

    /**
     * Machine-readable export (`smthill.report.v1`): every field of
     * the report, one object per thread. Round-trips exactly through
     * machineReportFromJson.
     */
    Json toJson() const;

    bool operator==(const MachineReport &) const = default;
};

/**
 * Rebuild a report from a toJson() export.
 * @return false with @p error naming the first missing or
 * wrong-typed key if @p j is not a v1 report
 */
bool machineReportFromJson(const Json &j, MachineReport &out,
                           std::string &error);

/**
 * Build a report over the interval [@p before, @p after].
 * @param labels optional per-thread names (benchmark names)
 */
MachineReport buildReport(const MachineSnapshot &before,
                          const MachineSnapshot &after,
                          const std::vector<std::string> &labels = {});

/** Convenience: snapshot, run @p cycles, report. */
MachineReport runAndReport(SmtCpu &cpu, Cycle cycles,
                           const std::vector<std::string> &labels = {});

/**
 * Build a report with one row per *job* from an open-system run.
 * Hardware contexts are reused across job lifetimes and their
 * cumulative counters keep counting, so a per-context report would
 * merge every job that ever ran on a context into one row; this
 * adapter instead differences each job's own attach/depart snapshots,
 * giving lifetime-correct rows (per-job IPC over the job's residency,
 * its own branches/misses/flushes — not its predecessors').
 * Unplaced jobs (zero residency) are skipped.
 */
MachineReport buildJobReport(const OpenSystemResult &result);

} // namespace smthill

#endif // SMTHILL_HARNESS_REPORT_HH
