#include "validate/invariants.hh"

#include <cmath>
#include <map>
#include <utility>

#include "common/log.hh"

namespace smthill
{

InvariantChecker::InvariantChecker() = default;

InvariantChecker::InvariantChecker(Options options) : opt(options) {}

void
InvariantChecker::report(const char *check, std::string detail)
{
    if (opt.failFast)
        panic(msg("invariant violated [", check, "]: ", detail));
    ++total_;
    if (viols.size() < opt.maxViolations)
        viols.push_back(InvariantViolation{check, std::move(detail)});
}

void
InvariantChecker::clear()
{
    viols.clear();
    total_ = 0;
}

std::string
InvariantChecker::summary() const
{
    std::string out;
    for (const InvariantViolation &v : viols) {
        out += "[";
        out += v.check;
        out += "] ";
        out += v.detail;
        out += "\n";
    }
    if (total_ > viols.size()) {
        out += msg("... and ", total_ - viols.size(),
                   " more violations\n");
    }
    return out;
}

void
InvariantChecker::checkPartitionShape(const Partition &p, int num_threads,
                                      int total, int min_share)
{
    if (p.numThreads != num_threads) {
        report("partition.threads",
               msg("partition has ", p.numThreads, " threads, machine ",
                   num_threads));
        return;
    }
    for (int i = 0; i < p.numThreads; ++i) {
        if (p.share[i] < 0) {
            report("partition.negative",
                   msg("thread ", i, " share ", p.share[i], " < 0 (",
                       p.str(), ")"));
        }
    }
    int sum = p.total();
    if (sum > total || (opt.strictPartitionTotal && sum != total)) {
        report("partition.total",
               msg("shares sum to ", sum, ", machine total ", total,
                   " (", p.str(), ")"));
    }
    // A floor only binds when it is feasible at all.
    if (min_share > 0 && num_threads > 0 &&
        min_share * num_threads <= total) {
        for (int i = 0; i < p.numThreads; ++i) {
            if (p.share[i] < min_share) {
                report("partition.min_share",
                       msg("thread ", i, " share ", p.share[i],
                           " below floor ", min_share, " (", p.str(),
                           ")"));
            }
        }
    }
}

void
InvariantChecker::checkPartitionConserves(const Partition &before,
                                          const Partition &after)
{
    if (before.numThreads != after.numThreads) {
        report("partition.move_threads",
               msg("move changed thread count ", before.numThreads,
                   " -> ", after.numThreads));
        return;
    }
    if (before.total() != after.total()) {
        report("partition.conservation",
               msg("move changed total ", before.total(), " -> ",
                   after.total(), " (", before.str(), " -> ",
                   after.str(), ")"));
    }
}

void
InvariantChecker::checkOccupancyCapacity(const Occupancy &occ,
                                         const SmtConfig &config)
{
    struct Cap
    {
        const char *name;
        int used;
        int cap;
    };
    const Cap caps[] = {
        {"int_iq", occ.totalIntIq(), config.intIqSize},
        {"fp_iq", occ.totalFpIq(), config.fpIqSize},
        {"int_regs", occ.totalIntRegs(), config.intRegs},
        {"fp_regs", occ.totalFpRegs(), config.fpRegs},
        {"rob", occ.totalRob(), config.robSize},
        {"lsq", occ.totalLsq(), config.lsqSize},
        {"ifq", occ.totalIfq(), config.ifqSize},
    };
    for (const Cap &c : caps) {
        if (c.used > c.cap) {
            report("occupancy.capacity",
                   msg(c.name, " occupancy ", c.used, " exceeds capacity ",
                       c.cap));
        }
        if (c.used < 0) {
            report("occupancy.negative",
                   msg(c.name, " occupancy ", c.used, " is negative"));
        }
    }
    for (int i = 0; i < kMaxThreads; ++i) {
        if (occ.intIq[i] < 0 || occ.fpIq[i] < 0 || occ.intRegs[i] < 0 ||
            occ.fpRegs[i] < 0 || occ.rob[i] < 0 || occ.lsq[i] < 0 ||
            occ.ifq[i] < 0) {
            report("occupancy.negative",
                   msg("thread ", i, " has a negative occupancy counter"));
        }
    }
}

void
InvariantChecker::checkOccupancyTotals(const Occupancy &occ,
                                       const OccupancyTotals &totals)
{
    const OccupancyTotals fresh = OccupancyTotals::of(occ);
    struct Pair
    {
        const char *name;
        int cached;
        int summed;
    };
    const Pair pairs[] = {
        {"int_iq", totals.intIq, fresh.intIq},
        {"fp_iq", totals.fpIq, fresh.fpIq},
        {"int_regs", totals.intRegs, fresh.intRegs},
        {"fp_regs", totals.fpRegs, fresh.fpRegs},
        {"rob", totals.rob, fresh.rob},
        {"lsq", totals.lsq, fresh.lsq},
        {"ifq", totals.ifq, fresh.ifq},
    };
    for (const Pair &p : pairs) {
        if (p.cached != p.summed) {
            report("occupancy.totals",
                   msg(p.name, " running total ", p.cached,
                       " != per-thread sum ", p.summed));
        }
    }
}

void
InvariantChecker::checkOccupancyLimits(const Occupancy &occ,
                                       const DerivedLimits &limits,
                                       int num_threads)
{
    for (int i = 0; i < num_threads; ++i) {
        if (occ.intRegs[i] > limits.intRegs[i]) {
            report("occupancy.int_regs_limit",
                   msg("thread ", i, " holds ", occ.intRegs[i],
                       " int regs, cap ", limits.intRegs[i]));
        }
        if (occ.intIq[i] > limits.intIq[i]) {
            report("occupancy.int_iq_limit",
                   msg("thread ", i, " holds ", occ.intIq[i],
                       " int IQ entries, cap ", limits.intIq[i]));
        }
        if (occ.rob[i] > limits.rob[i]) {
            report("occupancy.rob_limit",
                   msg("thread ", i, " holds ", occ.rob[i],
                       " ROB entries, cap ", limits.rob[i]));
        }
    }
}

void
InvariantChecker::checkOccupancyTransient(const Occupancy &occ,
                                          const Occupancy &prev,
                                          const DerivedLimits &limits,
                                          int num_threads)
{
    // Right after a partition shrink a thread may sit above its new
    // cap; dispatch is gated on the cap, so occupancy above it can
    // only drain. The sound per-structure rule between two checks is
    // therefore occ <= max(prev, limit).
    auto check = [&](const char *name, int cur, int before, int lim,
                     int tid) {
        if (cur > lim && cur > before) {
            report("occupancy.partition_limit",
                   msg("thread ", tid, " ", name, " occupancy grew to ",
                       cur, " beyond cap ", lim, " (was ", before, ")"));
        }
    };
    for (int i = 0; i < num_threads; ++i) {
        check("int_regs", occ.intRegs[i], prev.intRegs[i],
              limits.intRegs[i], i);
        check("int_iq", occ.intIq[i], prev.intIq[i], limits.intIq[i], i);
        check("rob", occ.rob[i], prev.rob[i], limits.rob[i], i);
    }
}

void
InvariantChecker::checkFlowCounters(const CpuStats &stats,
                                    const SmtConfig &config)
{
    const std::uint64_t in_flight_cap =
        static_cast<std::uint64_t>(config.ifqSize) +
        static_cast<std::uint64_t>(config.robSize);
    for (int i = 0; i < config.numThreads; ++i) {
        std::uint64_t retired = stats.committed[i] + stats.flushed[i];
        if (stats.fetched[i] < retired) {
            report("flow.fetched",
                   msg("thread ", i, " fetched ", stats.fetched[i],
                       " < committed ", stats.committed[i], " + flushed ",
                       stats.flushed[i]));
            continue;
        }
        std::uint64_t in_flight = stats.fetched[i] - retired;
        if (in_flight > in_flight_cap) {
            report("flow.in_flight",
                   msg("thread ", i, " has ", in_flight,
                       " in-flight instructions, window holds ",
                       in_flight_cap));
        }
        if (stats.mispredicts[i] > stats.branches[i]) {
            report("flow.mispredicts",
                   msg("thread ", i, " mispredicts ", stats.mispredicts[i],
                       " > branches ", stats.branches[i]));
        }
        if (stats.branches[i] > stats.fetched[i]) {
            report("flow.branches",
                   msg("thread ", i, " branches ", stats.branches[i],
                       " > fetched ", stats.fetched[i]));
        }
        if (stats.loads[i] > stats.fetched[i]) {
            report("flow.loads",
                   msg("thread ", i, " loads ", stats.loads[i],
                       " > fetched ", stats.fetched[i]));
        }
    }
}

CacheCounterSample
CacheCounterSample::capture(const MemoryHierarchy &memory)
{
    CacheCounterSample s;
    for (int i = 0; i < kMaxThreads; ++i) {
        s.dl1PerThread[i] = memory.dl1Misses(static_cast<ThreadId>(i));
        s.l2PerThread[i] = memory.l2Misses(static_cast<ThreadId>(i));
    }
    s.il1Misses = memory.il1().misses();
    s.dl1Misses = memory.dl1().misses();
    s.ul2Hits = memory.ul2().hits();
    s.ul2Misses = memory.ul2().misses();
    return s;
}

void
InvariantChecker::checkCacheCounters(const CacheCounterSample &sample)
{
    // Sum the full attribution arrays: a miss credited to a thread id
    // beyond the machine's contexts is itself a bug worth catching.
    std::uint64_t dl1_sum = 0;
    std::uint64_t l2_sum = 0;
    for (int i = 0; i < kMaxThreads; ++i) {
        dl1_sum += sample.dl1PerThread[i];
        l2_sum += sample.l2PerThread[i];
    }
    if (dl1_sum != sample.dl1Misses) {
        report("cache.dl1_attribution",
               msg("per-thread DL1 misses sum to ", dl1_sum,
                   ", cache counted ", sample.dl1Misses));
    }
    if (l2_sum != sample.ul2Misses) {
        report("cache.l2_attribution",
               msg("per-thread L2 misses sum to ", l2_sum,
                   ", cache counted ", sample.ul2Misses));
    }
    std::uint64_t l2_accesses = sample.ul2Hits + sample.ul2Misses;
    std::uint64_t l1_misses = sample.il1Misses + sample.dl1Misses;
    if (l2_accesses != l1_misses) {
        report("cache.level_reconcile",
               msg("L2 saw ", l2_accesses, " accesses but L1s missed ",
                   l1_misses, " times"));
    }
}

void
InvariantChecker::checkCacheCounters(const MemoryHierarchy &memory)
{
    checkCacheCounters(CacheCounterSample::capture(memory));
}

void
InvariantChecker::checkEpochTrace(const HillClimbing &hill)
{
    const std::vector<EpochTraceRecord> &recs = hill.epochHistory();
    if (recs.empty())
        return;
    const EpochTraceRecord &last = recs.back();
    if (!(last.anchor == hill.anchor())) {
        report("trace.anchor",
               msg("last trace anchor ", last.anchor.str(),
                   " != live anchor ", hill.anchor().str()));
    }
    for (int i = 0; i < last.anchor.numThreads; ++i) {
        if (last.singleIpcEst[i] != hill.singleIpc()[i]) {
            report("trace.single_ipc",
                   msg("thread ", i, " traced SingleIPC estimate ",
                       last.singleIpcEst[i], " != live ",
                       hill.singleIpc()[i]));
        }
    }
    for (std::size_t r = 0; r < recs.size(); ++r) {
        const EpochTraceRecord &rec = recs[r];
        if (r > 0 && rec.epochId <= recs[r - 1].epochId) {
            report("trace.epoch_order",
                   msg("record ", r, " epoch id ", rec.epochId,
                       " does not follow ", recs[r - 1].epochId));
        }
        if (rec.elapsedCycles < 1) {
            report("trace.elapsed",
                   msg("record ", r, " covers ", rec.elapsedCycles,
                       " cycles"));
        }
        for (int i = 0; i < rec.numThreads; ++i) {
            if (!std::isfinite(rec.ipc[i]) || rec.ipc[i] < 0.0) {
                report("trace.ipc",
                       msg("record ", r, " thread ", i,
                           " has invalid IPC ", rec.ipc[i]));
            }
        }
    }
}

void
InvariantChecker::checkEventStream(const std::vector<SimEvent> &events)
{
    // Last end time seen per (pid, tid) track; points end at ts,
    // slices at ts + dur.
    std::map<std::pair<std::int32_t, std::int32_t>, Cycle> track_end;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const SimEvent &e = events[i];
        if (e.ph != 'B' && e.ph != 'E' && e.ph != 'X' && e.ph != 'i' &&
            e.ph != 'C' && e.ph != 'M') {
            report("events.phase",
                   msg("event ", i, " (", eventSummary(e),
                       ") has unknown phase '", e.ph, "'"));
            continue;
        }
        if (e.ph == 'M')
            continue; // metadata carries no timestamp semantics
        if (e.ph == 'X' && e.dur < 0) {
            report("events.duration",
                   msg("event ", i, " (", eventSummary(e),
                       ") is a slice with negative duration ", e.dur));
        }
        Cycle end = e.ts;
        if (e.ph == 'X' && e.dur > 0)
            end += static_cast<Cycle>(e.dur);
        auto [it, fresh] = track_end.try_emplace({e.pid, e.tid}, end);
        if (!fresh) {
            if (end < it->second) {
                report("events.monotonic",
                       msg("event ", i, " (", eventSummary(e),
                           ") ends at cycle ", end,
                           " before track (pid ", e.pid, ", tid ",
                           e.tid, ") already reached ", it->second));
            } else {
                it->second = end;
            }
        }
    }
}

void
InvariantChecker::checkCpu(const SmtCpu &cpu)
{
    checkOccupancyCapacity(cpu.occupancy(), cpu.config());
    checkOccupancyTotals(cpu.occupancy(), cpu.occupancyTotals());
    if (cpu.partitioningEnabled()) {
        checkPartitionShape(cpu.partition(), cpu.numThreads(),
                            cpu.config().intRegs);
    }
    checkFlowCounters(cpu.stats(), cpu.config());
    checkCacheCounters(cpu.memory());
    std::string wakeup = cpu.wakeupListError();
    if (!wakeup.empty())
        report("cpu.wakeup_list", wakeup);
}

std::string
diffMachineState(const SmtCpu &a, const SmtCpu &b)
{
    if (a.now() != b.now())
        return msg("now ", a.now(), " vs ", b.now());
    if (a.numThreads() != b.numThreads())
        return msg("threads ", a.numThreads(), " vs ", b.numThreads());
    const CpuStats &sa = a.stats();
    const CpuStats &sb = b.stats();
    if (sa.stalledCycles != sb.stalledCycles) {
        return msg("stalledCycles ", sa.stalledCycles, " vs ",
                   sb.stalledCycles);
    }
    for (int i = 0; i < a.numThreads(); ++i) {
        if (sa.partitionLockCycles[i] != sb.partitionLockCycles[i]) {
            return msg("thread ", i, " partitionLockCycles ",
                       sa.partitionLockCycles[i], " vs ",
                       sb.partitionLockCycles[i]);
        }
        if (sa.committed[i] != sb.committed[i] ||
            sa.fetched[i] != sb.fetched[i]) {
            return msg("thread ", i, " committed/fetched ",
                       sa.committed[i], "/", sa.fetched[i], " vs ",
                       sb.committed[i], "/", sb.fetched[i]);
        }
    }
    if (!(sa == sb))
        return "CpuStats differ (flushed/branches/mispredicts/loads)";
    if (!(a.occupancy() == b.occupancy()))
        return "per-thread occupancy differs";
    if (!(a.occupancyTotals() == b.occupancyTotals()))
        return "occupancy totals differ";
    if (a.partitioningEnabled() != b.partitioningEnabled() ||
        !(a.partition() == b.partition())) {
        return msg("partition ", a.partitioningEnabled() ? "on " : "off ",
                   a.partition().str(), " vs ",
                   b.partitioningEnabled() ? "on " : "off ",
                   b.partition().str());
    }
    if (a.commitRoundRobin() != b.commitRoundRobin() ||
        a.dispatchRoundRobin() != b.dispatchRoundRobin()) {
        return msg("round-robin commit/dispatch ", a.commitRoundRobin(),
                   "/", a.dispatchRoundRobin(), " vs ",
                   b.commitRoundRobin(), "/", b.dispatchRoundRobin());
    }
    for (int i = 0; i < a.numThreads(); ++i) {
        auto tid = static_cast<ThreadId>(i);
        if (a.fetchLocked(tid) != b.fetchLocked(tid) ||
            a.threadEnabled(tid) != b.threadEnabled(tid) ||
            a.dl1MissesInFlight(tid) != b.dl1MissesInFlight(tid)) {
            return msg("thread ", i,
                       " fetch lock / enable / in-flight misses differ");
        }
    }
    if (!(CacheCounterSample::capture(a.memory()) ==
          CacheCounterSample::capture(b.memory())))
        return "cache counters differ";
    return "";
}

} // namespace smthill
