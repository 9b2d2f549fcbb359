/**
 * @file
 * Periodic StatRegistry sampler (`smthill.snapshots.v1`): turns the
 * registry's end-of-run blob into a time series. Each sample() emits
 * one delta row — counters as increments since the previous row (only
 * the ones that moved) and gauges as current levels — through a
 * streaming JSONL sink, the same idiom as EventTrace::streamTo: one
 * header line on attach, then one row object per line as samples
 * land, so even a killed run leaves a usable series behind.
 *
 * Cadence is the caller's: the CLI and runPolicyOn sample per policy
 * epoch; the grid benches sample per completed cell. sample() is
 * thread-safe (grid cells finish on pool workers), but row order then
 * follows host scheduling — snapshots are host-side telemetry, never
 * simulator state, so the determinism contract is untouched.
 */

#ifndef SMTHILL_COMMON_STAT_SNAPSHOT_HH
#define SMTHILL_COMMON_STAT_SNAPSHOT_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/stat_registry.hh"

namespace smthill
{

/** Delta-row sampler over one registry (usually globalStats()). */
class StatSnapshotter
{
  public:
    explicit StatSnapshotter(StatRegistry &registry);

    /**
     * Attach a streaming JSONL sink (nullptr detaches): the
     * `smthill.snapshots.v1` header line immediately, then one row
     * per sample(). The stream is owned by the caller and must
     * outlive the attachment.
     */
    void streamTo(std::ostream *sink);

    /**
     * Record one delta row stamped with the caller's progress marks
     * (@p epoch: policy epoch or grid cell; @p cycle: simulated cycle
     * at the sample, 0 when the cadence has no single machine).
     * @return the row that was appended/streamed.
     */
    Json sample(std::uint64_t epoch, std::uint64_t cycle);

    /** Rows recorded so far, oldest first. */
    std::vector<Json> rows() const;

    /** Full series as JSONL text (header line + one row per line). */
    std::string toJsonl() const;

    /** The `smthill.snapshots.v1` header line (no newline). */
    static std::string headerLine();

    /** Re-serialize parsed rows into the exact toJsonl() text. */
    static std::string rowsToJsonl(const std::vector<Json> &rows);

    /** @return false with @p error set unless @p text is a series. */
    static bool fromJsonlText(const std::string &text,
                              std::vector<Json> &rows_out,
                              std::string &error);

  private:
    StatRegistry &registry;
    mutable std::mutex mutex;
    std::map<std::string, std::uint64_t> lastCounters;
    std::vector<Json> rowsStore;
    std::ostream *sink = nullptr;
    std::uint64_t seq = 0;
};

} // namespace smthill

#endif // SMTHILL_COMMON_STAT_SNAPSHOT_HH
