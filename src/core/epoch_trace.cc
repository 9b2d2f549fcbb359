#include "core/epoch_trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/log.hh"

namespace smthill
{

namespace
{

constexpr char kEpochTraceSchema[] = "smthill.epoch-trace.v1";

/** The first @p n entries of a per-thread array. */
template <typename T>
Json
threadArray(const std::array<T, kMaxThreads> &a, int n)
{
    Json arr = Json::array();
    for (int i = 0; i < n; ++i)
        arr.push(scalarToJson(a[i]));
    return arr;
}

/** Read up to kMaxThreads scalars into @p out; @p n gets the count. */
template <typename T>
bool
parseThreadArray(const Json &j, std::array<T, kMaxThreads> &out, int &n,
                 std::string &error)
{
    if (!j.isArray() || j.items().size() > kMaxThreads) {
        error = msg("expected an array of at most ", kMaxThreads,
                    " entries");
        return false;
    }
    n = 0;
    for (const Json &v : j.items())
        if (!scalarFromJson(v, out[n++], error))
            return false;
    return true;
}

bool
parseShareArray(const Json &j, Partition &p, std::string &error)
{
    p = Partition{};
    return parseThreadArray(j, p.share, p.numThreads, error);
}

/**
 * Row for a per-thread double array: numThreads entries, which is
 * also how the reader recovers the record's thread count.
 */
template <std::array<double, kMaxThreads> EpochTraceRecord::*Member>
constexpr JsonField<EpochTraceRecord>
perThreadField(const char *key)
{
    return {key,
            [](const EpochTraceRecord &r, Json &v) {
                v = threadArray(r.*Member, r.numThreads);
                return true;
            },
            [](const Json &v, EpochTraceRecord &r, std::string &error) {
                return parseThreadArray(v, r.*Member, r.numThreads, error);
            }};
}

constexpr JsonField<EpochTraceRecord> kEpochFields[] = {
    jsonField<&EpochTraceRecord::epochId>("epoch"),
    jsonField<&EpochTraceRecord::cycle>("cycle"),
    jsonField<&EpochTraceRecord::elapsedCycles>("elapsed_cycles"),
    perThreadField<&EpochTraceRecord::ipc>("ipc"),
    jsonField<&EpochTraceRecord::metricValue>("metric_value"),
    // null when no trial partition was enforced during the epoch.
    {"trial",
     [](const EpochTraceRecord &r, Json &v) {
         v = r.partitioned ? shareJson(r.trial) : Json();
         return true;
     },
     [](const Json &v, EpochTraceRecord &r, std::string &error) {
         r.partitioned = !v.isNull();
         return !r.partitioned || parseShareArray(v, r.trial, error);
     }},
    {"anchor",
     [](const EpochTraceRecord &r, Json &v) {
         v = shareJson(r.anchor);
         return true;
     },
     [](const Json &v, EpochTraceRecord &r, std::string &error) {
         return parseShareArray(v, r.anchor, error);
     }},
    perThreadField<&EpochTraceRecord::roundPerf>("round_perf"),
    perThreadField<&EpochTraceRecord::singleIpcEst>("single_ipc_est"),
    jsonField<&EpochTraceRecord::gradientThread>("gradient_thread"),
    jsonField<&EpochTraceRecord::samplingThread>("sampling_thread"),
    jsonField<&EpochTraceRecord::anchorMoved>("anchor_moved"),
    jsonField<&EpochTraceRecord::softwareCost>("software_cost"),
};

/** The whole document: a header and one record per epoch. */
struct EpochTraceDoc
{
    std::string metric;
    int numThreads = 0;
    std::vector<EpochTraceRecord> epochs;
};

constexpr JsonField<EpochTraceDoc> kDocFields[] = {
    jsonSchema<EpochTraceDoc, kEpochTraceSchema>(),
    jsonField<&EpochTraceDoc::metric>("metric"),
    jsonField<&EpochTraceDoc::numThreads>("num_threads"),
    jsonRecords<&EpochTraceDoc::epochs, kEpochFields>("epochs"),
};

} // namespace

Json
shareJson(const Partition &p)
{
    return threadArray(p.share, p.numThreads);
}

Json
epochRecordToJson(const EpochTraceRecord &rec)
{
    return writeFields(kEpochFields, rec);
}

bool
epochRecordFromJson(const Json &j, EpochTraceRecord &out,
                    std::string &error)
{
    return readFields(kEpochFields, j, out, error);
}

Json
epochTraceToJson(const std::vector<EpochTraceRecord> &recs,
                 PerfMetric metric)
{
    return writeFields(
        kDocFields,
        EpochTraceDoc{metricName(metric),
                      recs.empty() ? 0 : recs.front().numThreads, recs});
}

std::string
epochTraceToCsv(const std::vector<EpochTraceRecord> &recs)
{
    // The CSV columns are the JSON keys: the scalar rows of
    // kEpochFields, then `<key>_<i>` per thread for the array rows.
    static constexpr int kScalarRows[] = {0, 1, 2, 4, 9, 10, 11, 12};
    static constexpr int kThreadRows[] = {3, 5, 6, 7, 8};
    int nt = recs.empty() ? 0 : recs.front().numThreads;
    std::string out;
    for (int row : kScalarRows) {
        if (!out.empty())
            out += ',';
        out += kEpochFields[row].key;
    }
    for (int row : kThreadRows) {
        for (int i = 0; i < nt; ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), ",%s_%d",
                          kEpochFields[row].key, i);
            out += buf;
        }
    }
    out += '\n';

    char buf[64];
    for (const EpochTraceRecord &r : recs) {
        std::snprintf(buf, sizeof(buf),
                      "%" PRIu64 ",%" PRIu64 ",%" PRIu64, r.epochId,
                      r.cycle, r.elapsedCycles);
        out += buf;
        std::snprintf(buf, sizeof(buf), ",%.6f,%d,%d,%d,%" PRIu64,
                      r.metricValue, r.gradientThread, r.samplingThread,
                      r.anchorMoved ? 1 : 0, r.softwareCost);
        out += buf;
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%.6f", r.ipc[i]);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%d",
                          r.partitioned ? r.trial.share[i] : -1);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%d", r.anchor.share[i]);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%.6f", r.roundPerf[i]);
            out += buf;
        }
        for (int i = 0; i < nt; ++i) {
            std::snprintf(buf, sizeof(buf), ",%.6f", r.singleIpcEst[i]);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

bool
epochTraceFromJson(const Json &j, std::vector<EpochTraceRecord> &out,
                   std::string &error)
{
    out.clear();
    EpochTraceDoc doc;
    if (!readFields(kDocFields, j, doc, error))
        return false;
    out = std::move(doc.epochs);
    return true;
}

} // namespace smthill
