/**
 * @file
 * Table 3 plus the Figure 11 annotation rows: the 42 multiprogrammed
 * workloads with their summed resource requirements ("Rsc" column of
 * Table 3), their SM/LG classification against the machine's total
 * window, and the behavior the classification predicts (SS / TL /
 * JL), per Section 4.4.2.
 */

#include <cstdio>

#include "bench_common.hh"
#include "harness/table.hh"
#include "trace/spec_profiles.hh"
#include "workload/workloads.hh"

namespace smthill::benchutil
{

namespace
{

/** Derived-characteristics label, Section 4.4.2. */
std::string
classify(const Workload &w)
{
    int threshold = w.numThreads() == 2 ? 256 : 416;
    if (w.paperRscSum() <= threshold)
        return "SM";
    bool high = false, low = false;
    for (const auto &b : w.benchmarks) {
        int f = specInfo(b).freqClass;
        high = high || f == 2;
        low = low || f == 1;
    }
    std::string tag = "LG(";
    if (low)
        tag += "L";
    if (high)
        tag += "H";
    if (!low && !high)
        tag += "-";
    return tag + ")";
}

/** Predicted time-varying behavior from the classification. */
std::string
predict(const std::string &cls)
{
    if (cls == "SM")
        return "SS";
    std::string out;
    if (cls.find('L') != std::string::npos)
        out += "TL";
    if (cls.find('H') != std::string::npos)
        out += out.empty() ? "JL" : "+JL";
    if (out.empty())
        out = "TL"; // large but static: learning time still binds
    return out;
}

} // namespace

void
tab03Workloads(const FigureConfig &cfg)
{
    banner("Table 3: multiprogrammed workloads, Rsc sums, and "
           "predicted behavior classes");

    for (const auto &group : workloadGroups()) {
        std::printf("\n-- %s --\n", group.c_str());
        const std::vector<Workload> ws = workloadsInGroup(group);

        // Classification cells run across the grid (cheap here, but
        // the same pattern as the simulation benches).
        struct Row
        {
            std::int64_t rsc;
            std::string cls;
        };
        std::vector<Row> rows(ws.size());
        runGrid(ws.size(), cfg.rc.jobs, [&](std::size_t i) {
            rows[i].rsc =
                static_cast<std::int64_t>(ws[i].paperRscSum());
            rows[i].cls = classify(ws[i]);
        });

        Table t({"workload", "Rsc(sum)", "class", "predicted",
                 "source"});
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const Workload &w = ws[i];
            t.beginRow();
            t.cell(w.name);
            t.cell(rows[i].rsc);
            t.cell(rows[i].cls);
            t.cell(predict(rows[i].cls));
            t.cell(std::string(w.reconstructed ? "reconstructed"
                                               : "Table 3"));
        }
        t.print();
    }

    std::printf("\nSM workloads fit the 256-register window and should "
                "show spatially-stable (SS) behavior; LG(H) workloads\n"
                "predict jitter-limited (JL) and LG(L) temporally-"
                "limited (TL) behavior (Section 4.4.2).\n");
}

} // namespace smthill::benchutil
