/**
 * @file
 * Figure 5: synchronized time-varying performance of OFF-LINE, DCRA,
 * FLUSH, and ICOUNT on the art-mcf workload. All techniques run each
 * epoch from the same machine checkpoint (the one OFF-LINE's best
 * path produced), so per-epoch numbers are directly comparable. The
 * paper finds OFF-LINE at or above every other technique in
 * essentially every epoch.
 *
 * Scale with SMTHILL_EPOCHS and SMTHILL_OFFLINE_STRIDE;
 * SMTHILL_WORKLOAD picks the workload.
 *
 * SMTHILL_STATS_JSON=FILE additionally writes the per-epoch series
 * as `smthill.bench.fig05.v1` JSON, reparses the file, re-derives
 * the win rates from the parsed data, and fails unless they are
 * bit-identical to the stdout path — the figure is reproducible from
 * the export alone.
 *
 * SMTHILL_EVENT_TRACE=FILE writes the synchronized comparison's
 * cycle-level `smthill.events.v1` trace: the OFF-LINE path renders
 * as one Perfetto process and each compared policy as another, so
 * the per-epoch checkpoint structure is visible at ui.perfetto.dev
 * (.jsonl extension selects the JSONL form).
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"
#include "common/event_trace.hh"
#include "harness/sync_runner.hh"
#include "harness/table.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"

namespace smthill::benchutil
{

void
fig05Sync(const FigureConfig &cfg)
{
    const std::string &wname = cfg.workload;
    banner("Figure 5: synchronized per-epoch weighted IPC (" + wname +
           ")");

    const RunConfig &rc = cfg.rc;
    const Workload &w = workloadByName(wname);
    auto solo = soloIpcs(w, rc, soloWindow(rc));

    OfflineConfig oc;
    oc.epochSize = rc.epochSize;
    oc.stride = cfg.sizes.offlineStride;
    oc.singleIpc = solo;
    OfflineExhaustive off(oc);

    IcountPolicy icount;
    FlushPolicy flush;
    DcraPolicy dcra;
    std::vector<ResourcePolicy *> policies{&icount, &flush, &dcra};

    EventTrace event_trace;
    const std::string &trace_path = cfg.eventTrace;
    SyncResult res = syncCompareOffline(
        makeCpu(w, rc), off, policies, rc.epochs,
        trace_path.empty() ? nullptr : &event_trace);

    Table t({"epoch", "ICOUNT", "FLUSH", "DCRA", "OFF-LINE"});
    for (int e = 0; e < rc.epochs; ++e) {
        t.beginRow();
        t.cell(static_cast<std::int64_t>(e));
        t.cell(res.others[0].metric[e]);
        t.cell(res.others[1].metric[e]);
        t.cell(res.others[2].metric[e]);
        t.cell(res.offline.metric[e]);
    }
    t.print();

    std::printf("\nOFF-LINE epoch win rates (paper: 100%% vs ICOUNT and "
                "FLUSH, 97.2%% vs DCRA):\n");
    std::printf("  vs ICOUNT: %5.1f%%\n", 100.0 * res.offlineWinRate(0));
    std::printf("  vs FLUSH : %5.1f%%\n", 100.0 * res.offlineWinRate(1));
    std::printf("  vs DCRA  : %5.1f%%\n", 100.0 * res.offlineWinRate(2));

    const std::string &export_path = cfg.statsJson;
    if (!export_path.empty()) {
        const char *names[] = {"ICOUNT", "FLUSH", "DCRA"};
        Json doc = Json::object();
        doc.set("schema", Json("smthill.bench.fig05.v1"));
        doc.set("workload", Json(wname));
        doc.set("epochs", Json(rc.epochs));
        Json series = Json::object();
        auto pushSeries = [&](const char *name,
                              const std::vector<double> &vals) {
            Json arr = Json::array();
            for (double v : vals)
                arr.push(Json(v));
            series.set(name, std::move(arr));
        };
        for (std::size_t p = 0; p < 3; ++p)
            pushSeries(names[p], res.others[p].metric);
        pushSeries("OFF-LINE", res.offline.metric);
        doc.set("series", std::move(series));
        doc.set("counters", globalStats().toJson());

        // Re-derive every win rate from the re-parsed file and demand
        // bit-identity with the in-memory numbers printed above.
        Json re = writeAndReloadJson(export_path, doc);
        const Json &rs = re.at("series");
        for (std::size_t p = 0; p < 3; ++p) {
            const auto &off_series = rs.at("OFF-LINE").items();
            const auto &other = rs.at(names[p]).items();
            std::size_t n = std::min(off_series.size(), other.size());
            std::size_t wins = 0;
            for (std::size_t e = 0; e < n; ++e)
                if (off_series[e].asDouble() >= other[e].asDouble())
                    ++wins;
            double rate = n ? static_cast<double>(wins) /
                                  static_cast<double>(n)
                            : 0.0;
            checkExportValue(names[p], rate, res.offlineWinRate(p));
        }
        std::printf("\nexported %s (win rates re-derived from the "
                    "file match)\n",
                    export_path.c_str());
    }

    if (!trace_path.empty())
        writeEventTrace(event_trace, trace_path);
}

} // namespace smthill::benchutil
