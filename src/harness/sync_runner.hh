/**
 * @file
 * Synchronized time-varying comparisons (Sections 3.3 and 4.4.1):
 * all techniques are evaluated epoch by epoch from the *same*
 * machine checkpoints, so per-epoch performance numbers are directly
 * comparable (Figure 5), and hill-climbing's trajectory can be
 * overlaid on OFF-LINE's exhaustive per-epoch curves (Figure 12).
 */

#ifndef SMTHILL_HARNESS_SYNC_RUNNER_HH
#define SMTHILL_HARNESS_SYNC_RUNNER_HH

#include <string>
#include <vector>

#include "core/hill_climbing.hh"
#include "core/offline_exhaustive.hh"
#include "harness/runner.hh"

namespace smthill
{

/** One technique's per-epoch metric series. */
struct SyncSeries
{
    std::string name;
    std::vector<double> metric;
};

/** Result of a synchronized comparison against OFF-LINE. */
struct SyncResult
{
    SyncSeries offline;             ///< the reference (best) series
    std::vector<SyncSeries> others; ///< one per compared policy

    /** Fraction of epochs where OFF-LINE >= the named series. */
    double offlineWinRate(std::size_t other_index) const;
};

/**
 * Figure 5: advance the machine along OFF-LINE's best path; at every
 * epoch boundary, run each policy for one epoch from the same
 * checkpoint and record its metric.
 *
 * @param trace optional cycle-level event trace: the OFF-LINE path
 *        records as trace-event process 0 and each compared policy
 *        as process 1 + its index, so the synchronized timelines
 *        render side by side in Perfetto. Process/thread metadata
 *        names are emitted on first use.
 */
SyncResult syncCompareOffline(SmtCpu cpu, const OfflineExhaustive &offline,
                              const std::vector<ResourcePolicy *> &policies,
                              int epochs, EventTrace *trace = nullptr);

/** One epoch of the Figure 12 trace. */
struct HillTraceEpoch
{
    int hillShare0 = 0;     ///< thread-0 share hill-climbing used
    int offlineShare0 = 0;  ///< thread-0 share OFF-LINE found best
    double hillMetric = 0.0;
    double offlineMetric = 0.0;
    std::vector<int> curveShares;  ///< per-trial thread-0 shares
    std::vector<double> curve;     ///< per-trial metric values
};

/**
 * Figure 12: run hill-climbing normally; at every epoch boundary,
 * exhaustively evaluate the epoch (OfflineExhaustive::mapEpoch,
 * which advances nothing) to obtain the performance hill and the
 * best partitioning, then let hill-climbing take its real step.
 * Two-thread machines only.
 */
std::vector<HillTraceEpoch> traceHillVsOffline(
    SmtCpu cpu, HillClimbing &hill, const OfflineConfig &offline_config,
    int epochs);

} // namespace smthill

#endif // SMTHILL_HARNESS_SYNC_RUNNER_HH
