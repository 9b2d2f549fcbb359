#include "harness/report.hh"

#include <cstdio>

#include "harness/table.hh"

namespace smthill
{

MachineSnapshot
MachineSnapshot::capture(const SmtCpu &cpu)
{
    MachineSnapshot s;
    s.cycle = cpu.now();
    s.numThreads = cpu.numThreads();
    s.stats = cpu.stats();
    for (int i = 0; i < cpu.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        s.dl1Misses[i] = cpu.memory().dl1Misses(tid);
        s.l2Misses[i] = cpu.memory().l2Misses(tid);
    }
    return s;
}

MachineReport
buildReport(const MachineSnapshot &before, const MachineSnapshot &after,
            const std::vector<std::string> &labels)
{
    MachineReport rep;
    rep.cycles = after.cycle - before.cycle;
    if (rep.cycles == 0)
        return rep;
    rep.stalledCycles =
        after.stats.stalledCycles - before.stats.stalledCycles;

    // The snapshot fills cache-miss counters only for the machine's
    // contexts, so the report iterates the same range instead of
    // kMaxThreads (snapshots predating the numThreads field fall
    // back to the old full-width scan over all-zero tails).
    int nt = after.numThreads > 0 ? after.numThreads : kMaxThreads;

    std::uint64_t fetched_total = 0;
    for (int i = 0; i < nt; ++i)
        fetched_total += after.stats.fetched[i] - before.stats.fetched[i];

    std::uint64_t committed_total = 0;
    for (int i = 0; i < nt; ++i) {
        std::uint64_t committed =
            after.stats.committed[i] - before.stats.committed[i];
        std::uint64_t fetched =
            after.stats.fetched[i] - before.stats.fetched[i];
        std::uint64_t flushed =
            after.stats.flushed[i] - before.stats.flushed[i];
        if (committed == 0 && fetched == 0 && flushed == 0)
            continue;

        ThreadReport tr;
        tr.label = static_cast<std::size_t>(i) < labels.size()
                       ? labels[i]
                       : "thread" + std::to_string(i);
        tr.committed = committed;
        committed_total += committed;
        tr.ipc = static_cast<double>(committed) /
                 static_cast<double>(rep.cycles);
        tr.fetchShare = fetched_total
                            ? static_cast<double>(fetched) /
                                  static_cast<double>(fetched_total)
                            : 0.0;
        std::uint64_t branches =
            after.stats.branches[i] - before.stats.branches[i];
        std::uint64_t mispred =
            after.stats.mispredicts[i] - before.stats.mispredicts[i];
        tr.mispredictRate =
            branches ? static_cast<double>(mispred) /
                           static_cast<double>(branches)
                     : 0.0;
        // The raw flush count is reported unconditionally: a thread
        // that was squashed out of every commit (committed == 0)
        // still shows its flush traffic instead of a silent 0.0 rate.
        tr.flushed = flushed;
        if (committed > 0) {
            double kilo_inst = static_cast<double>(committed) / 1000.0;
            tr.dl1Mpki = static_cast<double>(after.dl1Misses[i] -
                                             before.dl1Misses[i]) /
                         kilo_inst;
            tr.l2Mpki = static_cast<double>(after.l2Misses[i] -
                                            before.l2Misses[i]) /
                        kilo_inst;
            tr.flushedPerCommit =
                static_cast<double>(flushed) /
                static_cast<double>(committed);
        }
        tr.lockedFrac =
            static_cast<double>(after.stats.partitionLockCycles[i] -
                                before.stats.partitionLockCycles[i]) /
            static_cast<double>(rep.cycles);
        rep.threads.push_back(std::move(tr));
    }
    rep.totalIpc = static_cast<double>(committed_total) /
                   static_cast<double>(rep.cycles);
    return rep;
}

MachineReport
runAndReport(SmtCpu &cpu, Cycle cycles,
             const std::vector<std::string> &labels)
{
    MachineSnapshot before = MachineSnapshot::capture(cpu);
    cpu.run(cycles);
    MachineSnapshot after = MachineSnapshot::capture(cpu);
    return buildReport(before, after, labels);
}

MachineReport
buildJobReport(const OpenSystemResult &result)
{
    MachineReport rep;
    rep.cycles = result.cycles;
    if (rep.cycles == 0)
        return rep;

    std::uint64_t fetched_total = 0;
    for (const JobRecord &job : result.jobs)
        fetched_total += job.atDepart.fetched - job.atAttach.fetched;

    for (const JobRecord &job : result.jobs) {
        Cycle resident = job.residency();
        if (resident == 0)
            continue;

        std::uint64_t committed = job.committed();
        std::uint64_t fetched =
            job.atDepart.fetched - job.atAttach.fetched;
        std::uint64_t flushed =
            job.atDepart.flushed - job.atAttach.flushed;
        std::uint64_t branches =
            job.atDepart.branches - job.atAttach.branches;
        std::uint64_t mispred =
            job.atDepart.mispredicts - job.atAttach.mispredicts;

        ThreadReport tr;
        tr.label = "job" + std::to_string(job.jobId) + ":" +
                   job.benchmark;
        tr.committed = committed;
        tr.flushed = flushed;
        // Rates are over the job's own residency window, not the
        // whole run: the job wasn't on the machine outside it.
        tr.ipc = static_cast<double>(committed) /
                 static_cast<double>(resident);
        tr.fetchShare = fetched_total
                            ? static_cast<double>(fetched) /
                                  static_cast<double>(fetched_total)
                            : 0.0;
        tr.mispredictRate =
            branches ? static_cast<double>(mispred) /
                           static_cast<double>(branches)
                     : 0.0;
        if (committed > 0) {
            double kilo_inst = static_cast<double>(committed) / 1000.0;
            tr.dl1Mpki =
                static_cast<double>(job.atDepart.dl1Misses -
                                    job.atAttach.dl1Misses) /
                kilo_inst;
            tr.l2Mpki = static_cast<double>(job.atDepart.l2Misses -
                                            job.atAttach.l2Misses) /
                        kilo_inst;
            tr.flushedPerCommit = static_cast<double>(flushed) /
                                  static_cast<double>(committed);
        }
        tr.lockedFrac =
            static_cast<double>(job.atDepart.partitionLockCycles -
                                job.atAttach.partitionLockCycles) /
            static_cast<double>(resident);
        rep.threads.push_back(std::move(tr));
    }
    rep.totalIpc = static_cast<double>(result.committedTotal) /
                   static_cast<double>(rep.cycles);
    return rep;
}

namespace
{

constexpr char kReportSchema[] = "smthill.report.v1";

constexpr JsonField<ThreadReport> kThreadFields[] = {
    jsonField<&ThreadReport::label>("label"),
    jsonField<&ThreadReport::ipc>("ipc"),
    jsonField<&ThreadReport::fetchShare>("fetch_share"),
    jsonField<&ThreadReport::mispredictRate>("mispredict_rate"),
    jsonField<&ThreadReport::dl1Mpki>("dl1_mpki"),
    jsonField<&ThreadReport::l2Mpki>("l2_mpki"),
    jsonField<&ThreadReport::flushedPerCommit>("flushed_per_commit"),
    jsonField<&ThreadReport::lockedFrac>("locked_frac"),
    jsonField<&ThreadReport::committed>("committed"),
    jsonField<&ThreadReport::flushed>("flushed"),
};

constexpr JsonField<MachineReport> kReportFields[] = {
    jsonSchema<MachineReport, kReportSchema>(),
    jsonField<&MachineReport::cycles>("cycles"),
    jsonField<&MachineReport::totalIpc>("total_ipc"),
    jsonField<&MachineReport::stalledCycles>("stalled_cycles"),
    jsonRecords<&MachineReport::threads, kThreadFields>("threads"),
};

} // namespace

Json
MachineReport::toJson() const
{
    return writeFields(kReportFields, *this);
}

bool
machineReportFromJson(const Json &j, MachineReport &out, std::string &error)
{
    return readFields(kReportFields, j, out, error);
}

void
MachineReport::print() const
{
    std::printf("interval: %llu cycles, total IPC %.3f\n",
                static_cast<unsigned long long>(cycles), totalIpc);
    Table t({"thread", "ipc", "fetch%", "misp%", "dl1mpki", "l2mpki",
             "flush/ci", "locked%"});
    for (const ThreadReport &tr : threads) {
        t.beginRow();
        t.cell(tr.label);
        t.cell(tr.ipc);
        t.cell(100.0 * tr.fetchShare, 1);
        t.cell(100.0 * tr.mispredictRate, 2);
        t.cell(tr.dl1Mpki, 1);
        t.cell(tr.l2Mpki, 1);
        t.cell(tr.flushedPerCommit, 3);
        t.cell(100.0 * tr.lockedFrac, 1);
    }
    t.print();
}

} // namespace smthill
