/**
 * @file
 * Offline reporting over `smthill.events.v1` cycle-level event
 * traces (common/event_trace.hh), in either export form (Perfetto
 * JSON or JSONL; auto-detected).
 *
 * Usage:
 *   smthill_trace_report summarize TRACE [csv=FILE]
 *     Event counts by category/name, the epoch latency distribution,
 *     and the per-thread resource-share timeline as an ASCII table
 *     (csv=FILE additionally writes the full timeline as CSV rows of
 *     cycle,pid,thread,share).
 *
 *   smthill_trace_report diff TRACE_A TRACE_B
 *     Compare two traces event by event. Exits 0 when the streams
 *     are identical; otherwise reports the first divergent event
 *     (with a little surrounding context) and exits 1. This is the
 *     debugging companion to the differential fuzzer: two runs that
 *     should be equivalent are localized to the first decision where
 *     they split.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/event_trace.hh"
#include "common/log.hh"
#include "harness/table.hh"

using namespace smthill;

namespace
{

/** @return whether @p e is an event of catalog entry @p id. */
bool
isEvent(const SimEvent &e, EventId id)
{
    return findEvent(e.cat, e.name) == id;
}

/** Slurp @p path, fataling on I/O failure. */
std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(msg("cannot open '", path, "'"));
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!in && !in.eof())
        fatal(msg("cannot read '", path, "'"));
    return ss.str();
}

/** Load a trace file in either export form, fataling on errors. */
std::vector<SimEvent>
loadTrace(const std::string &path)
{
    std::vector<SimEvent> events;
    std::string error;
    if (!EventTrace::loadEventTraceText(readTextFile(path), events,
                                        error))
        fatal(msg(path, ": ", error));
    return events;
}

/** q-quantile (0..1) of an ascending-sorted sample vector. */
std::int64_t
quantile(const std::vector<std::int64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(i, sorted.size() - 1)];
}

void
printEventCounts(const std::vector<SimEvent> &events)
{
    std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
    for (const SimEvent &e : events)
        ++counts[{e.cat, e.name}];

    banner("event counts");
    Table t({"cat", "name", "count"});
    for (const auto &[key, n] : counts) {
        t.beginRow();
        t.cell(key.first);
        t.cell(key.second);
        t.cell(static_cast<std::int64_t>(n));
    }
    t.print();
    std::printf("total: %zu events\n", events.size());

    // Names outside the catalog (common/catalog.hh) get called out
    // rather than silently folded into the table: the simulator cannot
    // emit them, so they come from a foreign or hand-edited trace.
    // Perfetto 'M' metadata (process_name/thread_name) is viewer
    // plumbing, not a simulator event, and is exempt.
    std::map<std::string, std::uint64_t> unknown;
    for (const SimEvent &e : events)
        if (e.ph != 'M' && !findEvent(e.cat, e.name))
            ++unknown[e.cat + "/" + e.name];
    for (const auto &[name, n] : unknown)
        std::printf("warning: unknown event name '%s' (%llu events) — "
                    "not in the event catalog\n",
                    name.c_str(),
                    static_cast<unsigned long long>(n));
}

void
printEpochLatency(const std::vector<SimEvent> &events)
{
    std::vector<std::int64_t> durs;
    for (const SimEvent &e : events)
        if (e.ph == 'X' && isEvent(e, EventId::Epoch) && e.dur >= 0)
            durs.push_back(e.dur);

    banner("epoch latency (cycles)");
    if (durs.empty()) {
        std::printf("no epoch slices in trace\n");
        return;
    }
    std::sort(durs.begin(), durs.end());
    double mean = 0.0;
    for (std::int64_t d : durs)
        mean += static_cast<double>(d);
    mean /= static_cast<double>(durs.size());

    Table t({"epochs", "min", "p50", "p90", "max", "mean"});
    t.beginRow();
    t.cell(static_cast<std::int64_t>(durs.size()));
    t.cell(durs.front());
    t.cell(quantile(durs, 0.5));
    t.cell(quantile(durs, 0.9));
    t.cell(durs.back());
    t.cell(mean, 1);
    t.print();
}

/** share.tN counter samples folded into per-(pid, cycle) snapshots. */
struct ShareTimeline
{
    // pid -> thread id -> last value, rebuilt cycle by cycle.
    std::map<int, std::vector<int>> threads; ///< sorted tids per pid
    // pid -> cycle -> (tid -> value) updates at that cycle.
    std::map<int, std::map<Cycle, std::map<int, double>>> updates;
};

ShareTimeline
collectShares(const std::vector<SimEvent> &events)
{
    ShareTimeline tl;
    for (const SimEvent &e : events) {
        if (e.ph != 'C' || !isEvent(e, EventId::ShareTrack))
            continue;
        tl.updates[e.pid][e.ts][e.tid] = EventTrace::counterValue(e);
        std::vector<int> &tids = tl.threads[e.pid];
        if (std::find(tids.begin(), tids.end(), e.tid) == tids.end())
            tids.push_back(e.tid);
    }
    for (auto &[pid, tids] : tl.threads)
        std::sort(tids.begin(), tids.end());
    return tl;
}

void
printShareTimeline(const ShareTimeline &tl)
{
    banner("per-thread share timeline");
    if (tl.updates.empty()) {
        std::printf("no share.tN counter events in trace\n");
        return;
    }
    constexpr std::size_t kMaxRows = 48;
    for (const auto &[pid, by_cycle] : tl.updates) {
        const std::vector<int> &tids = tl.threads.at(pid);
        std::vector<std::string> headers = {"cycle"};
        for (int tid : tids)
            headers.push_back(msg(eventSpec(EventId::ShareTrack).name, tid));
        Table t(std::move(headers));

        // Carry the last seen value forward so each printed row is a
        // complete snapshot even when only one thread's share moved.
        std::map<int, double> current;
        std::vector<std::pair<Cycle, std::map<int, double>>> rows;
        for (const auto &[cycle, upd] : by_cycle) {
            for (const auto &[tid, value] : upd)
                current[tid] = value;
            rows.emplace_back(cycle, current);
        }
        std::size_t step =
            rows.size() <= kMaxRows ? 1 : (rows.size() + kMaxRows - 1) /
                                              kMaxRows;
        auto emit = [&](std::size_t i) {
            t.beginRow();
            t.cell(static_cast<std::int64_t>(rows[i].first));
            for (int tid : tids) {
                auto it = rows[i].second.find(tid);
                t.cell(it == rows[i].second.end()
                           ? std::int64_t{-1}
                           : static_cast<std::int64_t>(it->second));
            }
        };
        for (std::size_t i = 0; i < rows.size(); i += step)
            emit(i);
        // The final snapshot is the run's end state; always show it.
        if (step > 1 && (rows.size() - 1) % step != 0)
            emit(rows.size() - 1);
        std::printf("process %d:\n", pid);
        t.print();
        if (step > 1)
            std::printf("(%zu of %zu snapshots shown; csv=FILE writes "
                        "all)\n",
                        t.numRows(), rows.size());
    }
}

void
writeShareCsv(const ShareTimeline &tl, const std::string &path)
{
    std::ostringstream out;
    out << "cycle,pid,thread,share\n";
    for (const auto &[pid, by_cycle] : tl.updates)
        for (const auto &[cycle, upd] : by_cycle)
            for (const auto &[tid, value] : upd)
                out << cycle << ',' << pid << ',' << tid << ','
                    << static_cast<std::int64_t>(value) << '\n';

    std::ofstream f(path, std::ios::binary);
    f << out.str();
    if (!f)
        fatal(msg("cannot write '", path, "'"));
    std::printf("wrote share timeline CSV to %s\n", path.c_str());
}

int
runSummarize(const std::string &trace_path, const std::string &csv_path)
{
    std::vector<SimEvent> events = loadTrace(trace_path);
    std::printf("%s: %zu events\n", trace_path.c_str(), events.size());
    printEventCounts(events);
    printEpochLatency(events);
    ShareTimeline tl = collectShares(events);
    printShareTimeline(tl);
    if (!csv_path.empty())
        writeShareCsv(tl, csv_path);
    return 0;
}

int
runDiff(const std::string &path_a, const std::string &path_b)
{
    std::vector<SimEvent> a = loadTrace(path_a);
    std::vector<SimEvent> b = loadTrace(path_b);
    EventDiff d = diffEvents(a, b);
    if (!d.diverged) {
        std::printf("identical: %zu events\n", a.size());
        return 0;
    }
    std::printf("DIVERGED at event %zu: %s\n", d.index,
                d.description.c_str());
    // A little leading context localizes the decision that split.
    std::size_t from = d.index >= 3 ? d.index - 3 : 0;
    for (std::size_t i = from; i < d.index && i < a.size(); ++i)
        std::printf("  common  [%zu] %s\n", i,
                    eventSummary(a[i]).c_str());
    if (d.index < a.size())
        std::printf("  A       [%zu] %s\n", d.index,
                    eventSummary(a[d.index]).c_str());
    else
        std::printf("  A       [%zu] <end of stream>\n", d.index);
    if (d.index < b.size())
        std::printf("  B       [%zu] %s\n", d.index,
                    eventSummary(b[d.index]).c_str());
    else
        std::printf("  B       [%zu] <end of stream>\n", d.index);
    return 1;
}

[[noreturn]] void
usage()
{
    fatal("usage: smthill_trace_report summarize TRACE [csv=FILE]\n"
          "       smthill_trace_report diff TRACE_A TRACE_B");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        usage();

    if (args[0] == "summarize") {
        std::string csv_path;
        std::vector<std::string> rest;
        for (std::size_t i = 1; i < args.size(); ++i) {
            if (args[i].rfind("csv=", 0) == 0)
                csv_path = args[i].substr(4);
            else
                rest.push_back(args[i]);
        }
        if (rest.size() != 1)
            usage();
        return runSummarize(rest[0], csv_path);
    }
    if (args[0] == "diff") {
        if (args.size() != 3)
            usage();
        return runDiff(args[1], args[2]);
    }
    usage();
}
