/**
 * @file
 * Shared by the figure/table functions behind `smthill_repro`: the
 * per-figure configuration, group-mean bookkeeping, percent-gain
 * reporting, and the opt-in export writers.
 */

#ifndef SMTHILL_BENCH_BENCH_COMMON_HH
#define SMTHILL_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/profile.hh"
#include "common/stat_registry.hh"
#include "common/stat_snapshot.hh"
#include "harness/runner.hh"

namespace smthill::benchutil
{

/** Mean-by-key accumulator (per workload group, per policy...). */
class GroupMeans
{
  public:
    void
    add(const std::string &key, double value)
    {
        auto &e = sums[key];
        e.first += value;
        e.second += 1;
    }

    double
    mean(const std::string &key) const
    {
        auto it = sums.find(key);
        if (it == sums.end() || it->second.second == 0)
            return 0.0;
        return it->second.first / it->second.second;
    }

  private:
    std::map<std::string, std::pair<double, int>> sums;
};

/** @return percent gain of a over b. */
inline double
pctGain(double a, double b)
{
    return b > 0.0 ? 100.0 * (a / b - 1.0) : 0.0;
}

/** Print a "X vs Y: +Z%" line. */
inline void
printGain(const char *what, double ours, double theirs)
{
    std::printf("  %-28s %+6.1f%%\n", what, pctGain(ours, theirs));
}

/** Solo-IPC window used consistently across benches. */
inline Cycle
soloWindow(const RunConfig &rc)
{
    return static_cast<Cycle>(rc.epochs) * rc.epochSize;
}

/**
 * A figure's scale knobs. Each row of the driver's figure table
 * (repro.cc) holds one of these as that figure's defaults; a set
 * environment variable overrides the field it names. Zero marks a
 * knob the figure does not read.
 */
struct FigureSizes
{
    int epochs = 0;           ///< SMTHILL_EPOCHS
    int offlineStride = 0;    ///< SMTHILL_OFFLINE_STRIDE
    int randHillIters = 0;    ///< SMTHILL_RANDHILL_ITERS
    int surfaceStep = 0;      ///< SMTHILL_SURFACE_STEP
    int osJobs = 0;           ///< SMTHILL_OS_JOBS
    Cycle osHorizon = 0;      ///< SMTHILL_OS_HORIZON
};

/**
 * Everything a figure reads from its environment, resolved by the
 * driver before the figure runs. Empty export paths disable the
 * matching export.
 */
struct FigureConfig
{
    RunConfig rc;               ///< rc.epochs is sizes.epochs
    FigureSizes sizes;
    std::uint64_t osSeed = 1;   ///< open-system arrivals (SMTHILL_SEED)
    std::string workload;       ///< fig05's workload (SMTHILL_WORKLOAD)
    std::string statsJson;      ///< SMTHILL_STATS_JSON
    std::string eventTrace;     ///< SMTHILL_EVENT_TRACE
    std::string snapshots;      ///< SMTHILL_SNAPSHOTS
};

// One function per reproduced table/figure, in the driver's order.
void fig02Surface(const FigureConfig &cfg);
void tab02AppChar(const FigureConfig &cfg);
void tab03Workloads(const FigureConfig &cfg);
void fig04OfflineLimit(const FigureConfig &cfg);
void fig05Sync(const FigureConfig &cfg);
void fig07HillWidth(const FigureConfig &cfg);
void fig09HillMain(const FigureConfig &cfg);
void fig10Metrics(const FigureConfig &cfg);
void fig11Limits(const FigureConfig &cfg);
void fig12Behaviors(const FigureConfig &cfg);
void sec5Phase(const FigureConfig &cfg);
void ablSweeps(const FigureConfig &cfg);
void openSystemSweep(const FigureConfig &cfg);

/**
 * Streaming snapshot sink over globalStats(): opens @p path and
 * emits one `smthill.snapshots.v1` row per sample() call; an empty
 * path makes every operation a no-op. sample() is thread-safe, so
 * grid cells can report completion from pool workers.
 */
class SnapshotSink
{
  public:
    explicit SnapshotSink(const std::string &path)
    {
        if (path.empty())
            return;
        out.open(path, std::ios::binary);
        if (!out)
            fatal(msg("cannot write '", path, "'"));
        snap.emplace(globalStats());
        snap->streamTo(&out);
        file = path;
    }

    ~SnapshotSink()
    {
        if (!snap)
            return;
        snap->streamTo(nullptr);
        if (!out)
            fatal(msg("cannot write '", file, "'"));
        std::printf("wrote %zu stat snapshots to %s\n",
                    snap->rows().size(), file.c_str());
    }

    SnapshotSink(const SnapshotSink &) = delete;
    SnapshotSink &operator=(const SnapshotSink &) = delete;

    void
    sample(std::uint64_t epoch, std::uint64_t cycle)
    {
        if (snap)
            snap->sample(epoch, cycle);
    }

  private:
    std::ofstream out;
    std::optional<StatSnapshotter> snap;
    std::string file;
};

/**
 * Write @p trace to @p path: a ".jsonl" extension selects the JSONL
 * stream form, anything else the Chrome trace-event / Perfetto JSON
 * document. When profiling is on, the collected host spans are
 * injected first as a second clock track. Fatal on I/O failure.
 */
inline void
writeEventTrace(EventTrace &trace, const std::string &path)
{
    SMTHILL_PROF_SCOPE("bench.export");
    if (prof::profilingEnabled())
        prof::appendHostSpans(trace);
    bool as_jsonl =
        path.size() >= 6 &&
        path.compare(path.size() - 6, 6, ".jsonl") == 0;
    std::ofstream out(path, std::ios::binary);
    out << (as_jsonl ? trace.toJsonl()
                     : trace.toPerfettoJson().dump(2) + "\n");
    if (!out)
        fatal(msg("cannot write '", path, "'"));
    std::printf("wrote %s event trace to %s (%zu events, %llu "
                "dropped)\n",
                as_jsonl ? "JSONL" : "Perfetto", path.c_str(),
                trace.size(),
                static_cast<unsigned long long>(trace.dropped()));
}

/**
 * Write @p doc to @p path, read the file back, and reparse it. The
 * caller re-derives its figure values from the returned document and
 * checks them against the stdout path, proving the export is a
 * faithful substitute for scraping the tables. Fatal on I/O or parse
 * failure.
 */
inline Json
writeAndReloadJson(const std::string &path, const Json &doc)
{
    SMTHILL_PROF_SCOPE("bench.export");
    {
        std::ofstream out(path, std::ios::binary);
        out << doc.dump(2) << '\n';
        if (!out)
            fatal(msg("cannot write '", path, "'"));
    }
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in)
        fatal(msg("cannot read back '", path, "'"));
    Json reloaded;
    std::string error;
    if (!Json::parse(text, reloaded, error))
        fatal(msg("export '", path, "' does not reparse: ", error));
    return reloaded;
}

/** Fatal unless @p a and @p b are bit-identical doubles. */
inline void
checkExportValue(const char *what, double a, double b)
{
    if (a != b)
        fatal(msg("export self-check failed for ", what, ": ", a,
                  " != ", b));
}

/**
 * Emit the host-profile report when profiling is on: to @p path as a
 * `smthill.profile.v1` document (with a write/reload/reparse
 * self-check, like the figure exports), or, when @p path is empty,
 * as a compact stdout table of the heaviest spans. No-op when
 * profiling is off, keeping default bench output byte-identical.
 */
inline void
exportProfileIfEnabled(const std::string &path)
{
    if (!prof::profilingEnabled())
        return;
    const prof::ProfileReport report = prof::profileReport();
    if (!path.empty()) {
        Json reloaded =
            writeAndReloadJson(path, prof::profileToJson(report));
        prof::ProfileReport back;
        std::string error;
        if (!prof::profileFromJson(reloaded, back, error))
            fatal(msg("profile export '", path,
                      "' does not reload: ", error));
        std::printf("wrote host profile to %s (%zu spans, "
                    "parallel_efficiency %.3f)\n",
                    path.c_str(), report.spans.size(),
                    report.parallelEfficiency);
        return;
    }
    std::vector<prof::SpanStats> spans = report.spans;
    std::sort(spans.begin(), spans.end(),
              [](const prof::SpanStats &a, const prof::SpanStats &b) {
                  return a.totalNs > b.totalNs;
              });
    std::printf("host profile (parallel_efficiency %.3f):\n",
                report.parallelEfficiency);
    std::printf("  %-28s %10s %12s %12s %12s\n", "span", "count",
                "total_ms", "self_ms", "max_ms");
    const std::size_t shown = spans.size() < 12 ? spans.size() : 12;
    for (std::size_t i = 0; i < shown; ++i) {
        const prof::SpanStats &s = spans[i];
        std::printf("  %-28s %10llu %12.3f %12.3f %12.3f\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    static_cast<double>(s.totalNs) / 1e6,
                    static_cast<double>(s.selfNs) / 1e6,
                    static_cast<double>(s.maxNs) / 1e6);
    }
}

} // namespace smthill::benchutil

#endif // SMTHILL_BENCH_BENCH_COMMON_HH
