/**
 * @file
 * Per-epoch observability for the learning policies: an EpochTracer
 * collects one EpochTraceRecord per epoch boundary — measured
 * per-thread IPCs over the *actual* elapsed cycles, the trial and
 * anchor partitions, per-trial metric values of the current round,
 * the chosen gradient thread, SingleIPC estimate state, and the
 * software cost charged — so Figure 5/12-style time-varying traces
 * fall out of any run as machine-readable JSON or CSV instead of
 * stdout scraping.
 *
 * Schema (`smthill.epoch-trace.v1`): a top-level object
 *   { "schema": "smthill.epoch-trace.v1",
 *     "metric": "WIPC" | "IPC" | "HWIPC",
 *     "num_threads": N,
 *     "epochs": [ { "epoch": id, "cycle": c, "elapsed_cycles": e,
 *       "ipc": [..N], "metric_value": m, "trial": [..N] | null,
 *       "anchor": [..N], "round_perf": [..N],
 *       "single_ipc_est": [..N], "gradient_thread": g | -1,
 *       "sampling_thread": s | -1, "anchor_moved": bool,
 *       "software_cost": cycles }, ... ] }
 * The CSV export flattens the same fields, one row per epoch.
 */

#ifndef SMTHILL_CORE_EPOCH_TRACE_HH
#define SMTHILL_CORE_EPOCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/metrics.hh"
#include "pipeline/resources.hh"

namespace smthill
{

/** Everything observable about one epoch of a learning run. */
struct EpochTraceRecord
{
    std::uint64_t epochId = 0;    ///< runner epoch index
    Cycle cycle = 0;              ///< machine cycle at the boundary
    Cycle elapsedCycles = 0;      ///< cycles actually measured
    int numThreads = 0;
    std::array<double, kMaxThreads> ipc{};    ///< per-thread epoch IPC
    double metricValue = 0.0;     ///< feedback metric of the epoch
    bool partitioned = false;     ///< trial partition was enforced
    Partition trial;              ///< partition during the epoch
    Partition anchor;             ///< anchor after this epoch's update
    std::array<double, kMaxThreads> roundPerf{};
    std::array<double, kMaxThreads> singleIpcEst{};
    int gradientThread = -1;      ///< chosen on round-end epochs
    int samplingThread = -1;      ///< thread that ran solo, or -1
    bool anchorMoved = false;     ///< a round ended at this boundary
    Cycle softwareCost = 0;       ///< stall charged at the boundary

    /** Field-wise equality (round-trip tests). */
    bool operator==(const EpochTraceRecord &) const = default;
};

/** Accumulates records and exports them as JSON or CSV. */
class EpochTracer
{
  public:
    /** Append one epoch's record. */
    void record(EpochTraceRecord rec) { recs.push_back(std::move(rec)); }

    const std::vector<EpochTraceRecord> &records() const { return recs; }
    std::size_t size() const { return recs.size(); }
    bool empty() const { return recs.empty(); }
    void clear() { recs.clear(); }

    /** @param metric the feedback metric label for the header */
    Json toJson(PerfMetric metric) const;

    /** Flat CSV: header line + one row per epoch. */
    std::string toCsv() const;

    /**
     * Rebuild records from a toJson() export (round-trip tests and
     * external consumers re-deriving figure series).
     * @return false with @p error naming the first missing or
     * wrong-typed key if @p j is not a v1 trace
     */
    static bool fromJson(const Json &j,
                         std::vector<EpochTraceRecord> &out,
                         std::string &error);

  private:
    std::vector<EpochTraceRecord> recs;
};

} // namespace smthill

#endif // SMTHILL_CORE_EPOCH_TRACE_HH
