#include "pipeline/cpu.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/profile.hh"

namespace smthill
{

namespace
{

/** Functional-unit pool indices for issue-stage accounting. */
enum FuPool : int
{
    FuIntAdd = 0,
    FuIntMul,
    FuMemPort,
    FuFpAdd,
    FuFpMul,
    FuPoolCount
};

/** The functional-unit pool of each OpClass, in enum order. */
constexpr std::array<std::uint8_t, kNumOpClasses> kFuPool = {
    FuIntAdd,  // IntAlu
    FuIntMul,  // IntMul
    FuFpAdd,   // FpAlu
    FuFpMul,   // FpMul
    FuMemPort, // Load
    FuMemPort, // Store
    FuIntAdd,  // Branch
};

/** @return the index of @p op in the per-OpClass tables. */
std::size_t
opIndex(OpClass op)
{
    return static_cast<std::size_t>(op);
}

std::uint64_t
nextPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

std::uint64_t
CpuStats::committedTotal() const
{
    std::uint64_t sum = 0;
    for (auto v : committed)
        sum += v;
    return sum;
}

SmtCpu::SmtCpu(const SmtConfig &config, std::vector<StreamGenerator> programs)
    : cfg(config),
      mem(config.mem),
      btb(config.btbEntries, config.btbWays)
{
    cfg.validate();
    if (static_cast<int>(programs.size()) != cfg.numThreads)
        fatal(msg("SmtCpu: expected ", cfg.numThreads,
                  " programs, got ", programs.size()));

    std::uint64_t ring_size = nextPow2(
        static_cast<std::uint64_t>(cfg.robSize) + cfg.ifqSize +
        cfg.fetchWidth + 8);
    if (ring_size > (std::uint64_t{1} << (32 - kTidBits)))
        fatal(msg("SmtCpu: an instruction ring of ", ring_size,
                  " slots is too large to index"));
    ringMask = ring_size - 1;

    threads.reserve(programs.size());
    for (auto &prog : programs) {
        ThreadState t(std::move(prog));
        t.ring.resize(ring_size);
        t.misses.reserve(static_cast<std::size_t>(cfg.lsqSize));
        threads.push_back(std::move(t));
    }
    // Reserve the cycle loop's queues to their bounds (see the
    // members) so it never allocates.
    const auto iq = static_cast<std::size_t>(cfg.intIqSize + cfg.fpIqSize);
    readyList.reserve(iq);
    const Cycle longest = std::max(
        {cfg.intAluLatency, cfg.intMulLatency, cfg.fpAluLatency,
         cfg.fpMulLatency, cfg.branchLatency, cfg.storeLatency,
         cfg.mem.l1Latency + cfg.mem.l2Latency + cfg.mem.memFirstChunk});
    ReservedVector<CompletionEvent> heap;
    heap.reserve(static_cast<std::size_t>(cfg.issueWidth) * longest);
    events = decltype(events)(std::greater<CompletionEvent>(),
                              std::move(heap));
    opLatency[opIndex(OpClass::IntAlu)] = cfg.intAluLatency;
    opLatency[opIndex(OpClass::IntMul)] = cfg.intMulLatency;
    opLatency[opIndex(OpClass::FpAlu)] = cfg.fpAluLatency;
    opLatency[opIndex(OpClass::FpMul)] = cfg.fpMulLatency;
    opLatency[opIndex(OpClass::Store)] = cfg.storeLatency;
    opLatency[opIndex(OpClass::Branch)] = cfg.branchLatency;
    predictors.reserve(cfg.numThreads);
    for (int i = 0; i < cfg.numThreads; ++i)
        predictors.emplace_back(cfg.metaEntries, cfg.gshareEntries,
                                cfg.bimodalEntries);

    curPartition = Partition::equal(cfg.numThreads, cfg.intRegs);
    limits = deriveLimits(curPartition, cfg);
}

void
SmtCpu::restoreFrom(const SmtCpu &checkpoint)
{
    // Plain member-wise assignment is the whole restore: vector
    // assignment writes into existing storage when capacity suffices
    // (the rings' trivially copyable slots copy flat), so a warm
    // machine of the same shape takes zero allocations.
    *this = checkpoint;
}

void
SmtCpu::setPartition(const Partition &partition)
{
    if (partition.numThreads != cfg.numThreads)
        fatal("setPartition: thread-count mismatch");
    for (int i = 0; i < partition.numThreads; ++i) {
        if (partition.share[i] < 0)
            fatal(msg("setPartition: thread ", i, " share ",
                      partition.share[i], " is negative (",
                      partition.str(), ")"));
    }
    if (partition.total() > cfg.intRegs)
        fatal(msg("setPartition: shares sum to ", partition.total(),
                  " > ", cfg.intRegs, " registers"));
    curPartition = partition;
    limits = deriveLimits(partition, cfg);
    partitionOn = true;
    if (evt->trace) {
        // One counter track per hardware thread: the share timeline
        // renders as stacked counters in Perfetto.
        for (int i = 0; i < partition.numThreads; ++i) {
            evt->trace->counter(curCycle, evt->pid, i, EventId::ShareTrack,
                                partition.share[i]);
        }
    }
}

void
SmtCpu::clearPartition()
{
    partitionOn = false;
    if (evt->trace) {
        evt->trace->instant(curCycle, evt->pid, kControlTid,
                            EventId::MachinePartitionClear);
    }
}

void
SmtCpu::setFetchLocked(ThreadId tid, bool locked)
{
    threads.at(tid).policyLocked = locked;
}

bool
SmtCpu::fetchLocked(ThreadId tid) const
{
    return threads.at(tid).policyLocked;
}

void
SmtCpu::setThreadEnabled(ThreadId tid, bool enabled)
{
    threads.at(tid).enabled = enabled;
    if (evt->trace) {
        Json args = Json::object();
        args.set("enabled", enabled);
        evt->trace->instant(curCycle, evt->pid, static_cast<int>(tid),
                            EventId::MachineThreadEnabled, std::move(args));
    }
}

bool
SmtCpu::threadEnabled(ThreadId tid) const
{
    return threads.at(tid).enabled;
}

void
SmtCpu::stallUntil(Cycle until)
{
    stalledUntil = std::max(stalledUntil, until);
    if (evt->trace && until > curCycle) {
        evt->trace->complete(curCycle,
                             static_cast<std::int64_t>(until - curCycle),
                             evt->pid, kControlTid, EventId::MachineStall);
    }
}

void
SmtCpu::setBranchObserver(BranchObserver fn, void *ctx)
{
    branchObs.attach({fn, ctx});
}

void
SmtCpu::setLoadObserver(LoadObserver fn, void *ctx)
{
    loadObs.attach({fn, ctx});
}

int
SmtCpu::frontEndCount(ThreadId tid) const
{
    return occ.ifq[tid] + occ.intIq[tid] + occ.fpIq[tid];
}

bool
SmtCpu::step()
{
    if (curCycle < stalledUntil) {
        // The machine is frozen (hill-climbing software cost), but
        // operations already in flight keep draining.
        ++statCounters.stalledCycles;
        bool active = doCompletions();
        ++curCycle;
        return active;
    }
    // Every stage runs every cycle: `|`, never `||`.
    bool active = doCommit();
    active |= doCompletions();
    active |= doIssue();
    active |= doDispatch();
    active |= doFetch();
    ++curCycle;
    return active;
}

void
SmtCpu::runUntil(Cycle until)
{
    // Probe only after a step that did nothing: on a busy machine the
    // next cycle is almost always active too, and the probe would be
    // pure overhead.
    bool probe = true;
    while (curCycle < until) {
        if (probe) {
            Cycle wake = nextActiveCycle();
            if (wake > curCycle) {
                skipQuietTo(std::min(wake, until));
                probe = false; // the machine is active at wake
                continue;
            }
        }
        probe = !step();
    }
}

void
SmtCpu::run(Cycle n)
{
    // One span per batch, never per cycle: step() stays scope-free so
    // the profiler costs nothing measurable on the core loop.
    SMTHILL_PROF_SCOPE("cpu.run");
    runUntil(curCycle + n);
}

Cycle
SmtCpu::nextActiveCycle() const
{
    // Completions drain even while the machine is stalled.
    Cycle wake = events.empty() ? kNeverCycle : events.top().at;
    if (wake <= curCycle)
        return curCycle;
    if (curCycle < stalledUntil)
        return std::min(wake, stalledUntil);

    for (int i = 0; i < cfg.numThreads; ++i) {
        auto tid = static_cast<ThreadId>(i);
        const ThreadState &t = threads[tid];
        if (t.commitSeq < t.dispatchSeq &&
            t.ring[t.commitSeq & ringMask].state == SlotCompleted)
            return curCycle; // commit
        if (t.dispatchSeq < t.fetchSeq &&
            !dispatchBlocked(
                tid, dispatchHolds(t.ring[t.dispatchSeq & ringMask].si.op)))
            return curCycle; // dispatch
        // A thread waiting out an IL1 miss or a redirect changes the
        // fetch walk the moment its gate opens.
        if (t.enabled && !t.policyLocked && t.blockingBranch == kNoSeq &&
            t.fetchReadyAt > curCycle)
            wake = std::min(wake, t.fetchReadyAt);
    }
    for (const ReadyEntry &e : readyList) {
        const Slot &s = threads[e.tid].ring[e.slot];
        if (s.genId != e.genId || s.state != SlotDispatched)
            continue; // stale: issue drops it without effect
        if (e.readyAt <= curCycle)
            return curCycle; // issue
        wake = std::min(wake, e.readyAt);
    }
    std::uint32_t charged = 0;
    if (fetchWouldAct(charged))
        return curCycle;
    return wake;
}

void
SmtCpu::skipQuietTo(Cycle target)
{
    if (target <= curCycle)
        return;
    Cycle k = target - curCycle;
    if (curCycle < stalledUntil) {
        // nextActiveCycle() never looks past stalledUntil, so the
        // whole window is frozen: no stage runs, no pointer rotates.
        statCounters.stalledCycles += k;
    } else {
        std::uint32_t charged = 0;
        fetchWouldAct(charged);
        auto nt = static_cast<std::uint32_t>(cfg.numThreads);
        for (std::uint32_t i = 0; i < nt; ++i) {
            if ((charged >> i) & 1)
                statCounters.partitionLockCycles[i] += k;
        }
        auto turn = static_cast<std::uint32_t>(k % nt);
        rrCommit = (rrCommit + turn) % nt;
        rrDispatch = (rrDispatch + turn) % nt;
    }
    curCycle = target;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

bool
SmtCpu::doCommit()
{
    int budget = cfg.commitWidth;
    int nt = cfg.numThreads;
    std::uint32_t next_tid = rrCommit;
    for (int i = 0; i < nt && budget > 0; ++i) {
        ThreadId tid = static_cast<ThreadId>(next_tid);
        if (++next_tid == static_cast<std::uint32_t>(nt))
            next_tid = 0;
        ThreadState &t = threads[tid];
        while (budget > 0 && t.commitSeq < t.dispatchSeq) {
            Slot &s = slotOf(t, t.commitSeq);
            if (s.state != SlotCompleted)
                break;
            if (s.si.isStore()) {
                // Stores drain from the store buffer at commit; the
                // access updates tags so future loads see the line.
                mem.dataAccess(tid, s.si.effAddr, true);
            }
            if (s.si.isBranch() && branchObs->fn) {
                const auto &blocks = t.gen.profile().blocks;
                CommittedBranch cb{tid, s.si.blockId,
                                   blocks[s.si.blockId].length};
                branchObs->fn(branchObs->ctx, cb);
            }
            evt->instruction(curCycle, tid, InstStage::Commit, s.seq, s.si.pc,
                             s.si.op);
            releaseResources(tid, s);
            s.state = SlotFree;
            ++statCounters.committed[tid];
            ++t.commitSeq;
            --budget;
        }
    }
    rrCommit = (rrCommit + 1) % nt;
    return budget != cfg.commitWidth;
}

void
SmtCpu::releaseResources(ThreadId tid, Slot &slot)
{
    const SlotHolds h = slot.holds;
    occ.intIq[tid] -= h.intIq;
    occT.intIq -= h.intIq;
    occ.fpIq[tid] -= h.fpIq;
    occT.fpIq -= h.fpIq;
    occ.intRegs[tid] -= h.intReg;
    occT.intRegs -= h.intReg;
    occ.fpRegs[tid] -= h.fpReg;
    occT.fpRegs -= h.fpReg;
    occ.lsq[tid] -= h.lsq;
    occT.lsq -= h.lsq;
    occ.rob[tid] -= h.rob;
    occT.rob -= h.rob;
    slot.holds = SlotHolds{};
}

// --------------------------------------------------------------------
// Completion / wakeup
// --------------------------------------------------------------------

bool
SmtCpu::doCompletions()
{
    bool popped = false;
    while (!events.empty() && events.top().at <= curCycle) {
        CompletionEvent ev = events.top();
        events.pop();
        popped = true;
        const auto tid = static_cast<ThreadId>(
            ev.slotTid & ((1u << kTidBits) - 1));
        const std::uint32_t slot = ev.slotTid >> kTidBits;
        const Slot &s = threads[tid].ring[slot];
        if (s.genId != ev.genId || s.state != SlotIssued)
            continue; // squashed incarnation
        complete(tid, slot);
    }
    return popped;
}

void
SmtCpu::complete(ThreadId tid, std::uint32_t slot_idx)
{
    ThreadState &t = threads[tid];
    Slot &s = t.ring[slot_idx];
    s.state = SlotCompleted;
    evt->instruction(curCycle, tid, InstStage::Complete, s.seq, s.si.pc,
                     s.si.op);

    // Wake register-dependent instructions. Every link names a live
    // dispatched consumer: squashes unlink theirs (unlinkSquashed).
    // The list runs newest first; issue sorts readyList, so wake
    // order cannot change results.
    for (std::uint32_t link = s.wakeHead; link != kNoLink;) {
        std::uint32_t di = link >> 1;
        Slot &d = t.ring[di];
        link = d.wakeNext[link & 1];
        if (--d.pendingSrcs == 0) {
            // Completions run before issue within a cycle, so a
            // dependent can issue back-to-back with its producer.
            readyList.push_back(
                ReadyEntry{curCycle, d.fetchCycle, tid, di, d.genId});
        }
    }
    s.wakeHead = kNoLink;

    if (s.si.isLoad()) {
        // Retire the outstanding-miss record; a DL1 hit has none.
        if (s.missedDl1) {
            auto &misses = t.misses;
            auto it = std::find_if(
                misses.begin(), misses.end(),
                [&s](const OutstandingMiss &m) { return m.seq == s.seq; });
            if (it != misses.end())
                misses.erase(it);
        }
        if (loadObs->fn) {
            loadObs->fn(loadObs->ctx,
                        LoadEvent{tid, s.seq, s.si.pc, true, s.missedDl1,
                                  s.toMemory});
        }
    }

    if (s.si.isBranch()) {
        predictors[tid].update(s.si.pc, s.bp, s.si.taken);
        if (s.si.taken)
            btb.update(s.si.pc, s.si.target);
        if (s.mispredicted) {
            predictors[tid].repairHistory(s.bp, s.si.taken);
            if (t.blockingBranch == s.seq) {
                t.blockingBranch = kNoSeq;
                t.fetchReadyAt = std::max(
                    t.fetchReadyAt, curCycle + cfg.mispredictRedirect);
            }
        }
    }
}

std::vector<SmtCpu::WakeupLink>
SmtCpu::wakeupList(ThreadId tid, InstSeq seq) const
{
    std::vector<WakeupLink> out;
    const ThreadState &t = threads.at(tid);
    const Slot &p = t.ring[seq & ringMask];
    if (p.seq != seq || (p.state != SlotDispatched && p.state != SlotIssued))
        return out;
    for (std::uint32_t link = p.wakeHead;
         link != kNoLink && out.size() <= 2 * t.ring.size();) {
        const Slot &c = t.ring[link >> 1];
        out.push_back({c.seq, static_cast<int>(link & 1)});
        link = c.wakeNext[link & 1];
    }
    return out;
}

std::string
SmtCpu::wakeupListError() const
{
    for (int i = 0; i < cfg.numThreads; ++i) {
        const ThreadState &t = threads[i];
        std::vector<std::size_t> named(t.ring.size(), 0);
        for (const Slot &p : t.ring) {
            if (p.state != SlotDispatched && p.state != SlotIssued) {
                if (p.wakeHead != kNoLink)
                    return msg("thread ", i, " seq ", p.seq,
                               " keeps a wakeup list out of flight");
                continue;
            }
            // Strictly newest first; this also catches a cycle, which
            // wakeupList() cuts off after the ring's worth of links.
            WakeupLink prev{kNoSeq, 2};
            for (WakeupLink l : wakeupList(static_cast<ThreadId>(i), p.seq)) {
                const Slot &c = t.ring[l.consumer & ringMask];
                const std::int32_t dist = c.si.srcDist[l.src];
                if (c.state != SlotDispatched || dist <= 0 ||
                    l.consumer - static_cast<InstSeq>(dist) != p.seq ||
                    l.consumer > prev.consumer ||
                    (l.consumer == prev.consumer && l.src >= prev.src))
                    return msg("thread ", i, " seq ", p.seq, " links seq ",
                               l.consumer, " source ", l.src,
                               " out of order or not waiting on it");
                ++named[l.consumer & ringMask];
                prev = l;
            }
        }
        for (std::size_t k = 0; k < t.ring.size(); ++k) {
            const Slot &c = t.ring[k];
            if (c.state == SlotDispatched && c.pendingSrcs != named[k])
                return msg("thread ", i, " seq ", c.seq, " waits on ",
                           int{c.pendingSrcs}, " sources but ", named[k],
                           " wakeup links name it");
        }
    }
    return "";
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

bool
SmtCpu::doIssue()
{
    if (readyList.empty())
        return false;

    // Oldest-first issue across all threads, by the strict total
    // order (age, tid, slot). The survivors of the last issue are
    // still sorted, so only the entries woken since need a place.
    const auto before = [](const ReadyEntry &a, const ReadyEntry &b) {
        if (a.age != b.age)
            return a.age < b.age;
        if (a.tid != b.tid)
            return a.tid < b.tid;
        return a.slot < b.slot;
    };
    for (std::size_t i = readySortedCount; i < readyList.size(); ++i) {
        const ReadyEntry e = readyList[i];
        std::size_t j = i;
        for (; j > 0 && before(e, readyList[j - 1]); --j)
            readyList[j] = readyList[j - 1];
        readyList[j] = e;
    }

    int fu[FuPoolCount] = {cfg.intAddUnits, cfg.intMulUnits, cfg.memPorts,
                           cfg.fpAddUnits, cfg.fpMulUnits};
    int budget = cfg.issueWidth;

    // Compact the entries that stay in place, keeping their order.
    std::size_t kept = 0;
    for (const ReadyEntry &e : readyList) {
        Slot &s = threads[e.tid].ring[e.slot];
        if (s.genId != e.genId || s.state != SlotDispatched)
            continue; // squashed or already handled
        const OpClass op = s.si.op;
        int &free_units = fu[kFuPool[opIndex(op)]];
        if (e.readyAt > curCycle || budget == 0 || free_units == 0) {
            readyList[kept++] = e;
            continue;
        }
        --free_units;
        --budget;

        // Leave the issue queue.
        ThreadId tid = e.tid;
        occ.intIq[tid] -= s.holds.intIq;
        occT.intIq -= s.holds.intIq;
        occ.fpIq[tid] -= s.holds.fpIq;
        occT.fpIq -= s.holds.fpIq;
        s.holds.intIq = false;
        s.holds.fpIq = false;

        Cycle lat = opLatency[opIndex(op)];
        if (op == OpClass::Load) {
            MemAccessResult res = mem.dataAccess(tid, s.si.effAddr, false);
            lat = res.latency;
            ++statCounters.loads[tid];
            s.missedDl1 = res.level != MemLevel::L1;
            s.toMemory = res.level == MemLevel::Memory;
            if (s.missedDl1) {
                threads[tid].misses.push_back(OutstandingMiss{
                    s.seq, curCycle, curCycle + lat, s.toMemory});
            }
        }

        s.state = SlotIssued;
        evt->instruction(curCycle, tid, InstStage::Issue, s.seq, s.si.pc, op);
        events.push(CompletionEvent{curCycle + std::max<Cycle>(1, lat),
                                    (e.slot << kTidBits) | tid, s.genId});
    }
    readyList.resize(kept);
    readySortedCount = kept;
    return budget != cfg.issueWidth;
}

// --------------------------------------------------------------------
// Dispatch (rename)
// --------------------------------------------------------------------

bool
SmtCpu::doDispatch()
{
    int nt = cfg.numThreads;
    int budget = cfg.issueWidth;
    // When the shared ROB is full no thread can dispatch anything —
    // skip the per-thread attempts entirely (commit drains it first
    // within the cycle, so this still fires on truly full cycles).
    if (occT.rob < cfg.robSize) {
        std::uint32_t next_tid = rrDispatch;
        for (int i = 0; i < nt && budget > 0; ++i) {
            ThreadId tid = static_cast<ThreadId>(next_tid);
            if (++next_tid == static_cast<std::uint32_t>(nt))
                next_tid = 0;
            ThreadState &t = threads[tid];
            while (budget > 0 && t.dispatchSeq < t.fetchSeq) {
                if (!dispatchOne(tid))
                    break;
                --budget;
            }
        }
    }
    rrDispatch = (rrDispatch + 1) % nt;
    return budget != cfg.issueWidth;
}

const SmtCpu::SlotHolds &
SmtCpu::dispatchHolds(OpClass op)
{
    // Every op takes a ROB entry and an issue-queue entry; FP ops use
    // the FP queue and registers, loads and stores the LSQ, and
    // everything but stores and branches writes a register.
    static constexpr std::array<SlotHolds, kNumOpClasses> kHolds = {{
        {.intIq = true, .intReg = true, .rob = true},             // IntAlu
        {.intIq = true, .intReg = true, .rob = true},             // IntMul
        {.fpIq = true, .fpReg = true, .rob = true},               // FpAlu
        {.fpIq = true, .fpReg = true, .rob = true},               // FpMul
        {.intIq = true, .intReg = true, .lsq = true, .rob = true}, // Load
        {.intIq = true, .lsq = true, .rob = true},                // Store
        {.intIq = true, .rob = true},                             // Branch
    }};
    return kHolds[opIndex(op)];
}

bool
SmtCpu::dispatchBlocked(ThreadId tid, const SlotHolds &need) const
{
    // Shared-capacity checks, against the running totals. Each term
    // is 0/1, so the whole test is one branch.
    bool full = (occT.rob >= cfg.robSize) |
                (need.intIq & (occT.intIq >= cfg.intIqSize)) |
                (need.fpIq & (occT.fpIq >= cfg.fpIqSize)) |
                (need.intReg & (occT.intRegs >= cfg.intRegs)) |
                (need.fpReg & (occT.fpRegs >= cfg.fpRegs)) |
                (need.lsq & (occT.lsq >= cfg.lsqSize));

    // Partition-limit checks (Section 3.2: a thread may not consume
    // beyond its allotment in any partitioned resource).
    if (partitionOn) {
        full |= (occ.rob[tid] >= limits.rob[tid]) |
                (need.intIq & (occ.intIq[tid] >= limits.intIq[tid])) |
                (need.intReg & (occ.intRegs[tid] >= limits.intRegs[tid]));
    }
    return full;
}

bool
SmtCpu::dispatchOne(ThreadId tid)
{
    ThreadState &t = threads[tid];
    InstSeq seq = t.dispatchSeq;
    Slot &s = slotOf(t, seq);
    const OpClass op = s.si.op;
    const SlotHolds &h = dispatchHolds(op);
    if (dispatchBlocked(tid, h))
        return false;

    // Allocate: leave the IFQ, take what the op holds.
    --occ.ifq[tid];
    --occT.ifq;
    s.holds = h;
    occ.intIq[tid] += h.intIq;
    occT.intIq += h.intIq;
    occ.fpIq[tid] += h.fpIq;
    occT.fpIq += h.fpIq;
    occ.intRegs[tid] += h.intReg;
    occT.intRegs += h.intReg;
    occ.fpRegs[tid] += h.fpReg;
    occT.fpRegs += h.fpReg;
    occ.lsq[tid] += h.lsq;
    occT.lsq += h.lsq;
    occ.rob[tid] += h.rob;
    occT.rob += h.rob;

    s.state = SlotDispatched;
    evt->instruction(curCycle, tid, InstStage::Dispatch, s.seq, s.si.pc, op);
    linkDependences(tid, seq, s);
    ++t.dispatchSeq;
    if (loadObs->fn && op == OpClass::Load) {
        loadObs->fn(loadObs->ctx,
                    LoadEvent{tid, seq, s.si.pc, false, false, false});
    }
    return true;
}

void
SmtCpu::linkDependences(ThreadId tid, InstSeq seq, Slot &slot)
{
    ThreadState &t = threads[tid];
    int pending = 0;
    std::uint32_t my_idx = slotIndex(seq);
    for (int k = 0; k < 2; ++k) {
        std::int32_t dist = slot.si.srcDist[k];
        if (dist <= 0)
            continue;
        if (static_cast<InstSeq>(dist) > seq)
            continue; // produced before the program began
        InstSeq prod = seq - static_cast<InstSeq>(dist);
        if (prod < t.commitSeq)
            continue; // producer already committed
        Slot &p = slotOf(t, prod);
        if (p.state == SlotCompleted || p.state == SlotFree)
            continue;
        // Push onto the head of the producer's wakeup list.
        slot.wakeNext[k] = p.wakeHead;
        p.wakeHead = my_idx * 2 + static_cast<std::uint32_t>(k);
        ++pending;
    }
    slot.pendingSrcs = static_cast<std::uint8_t>(pending);
    if (pending == 0) {
        readyList.push_back(
            ReadyEntry{curCycle + 1, slot.fetchCycle, tid, my_idx,
                       slot.genId});
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
SmtCpu::fetchOrder(std::array<ThreadId, kMaxThreads> &order) const
{
    int nt = cfg.numThreads;
    for (int i = 0; i < nt; ++i)
        order[i] = static_cast<ThreadId>(i);
    // Insertion sort by ascending front-end instruction count
    // (ICOUNT); stable so ties break by thread id.
    for (int i = 1; i < nt; ++i) {
        ThreadId v = order[i];
        int key = frontEndCount(v);
        int j = i - 1;
        while (j >= 0 && frontEndCount(order[j]) > key) {
            order[j + 1] = order[j];
            --j;
        }
        order[j + 1] = v;
    }
}

bool
SmtCpu::canFetch(const ThreadState &t, ThreadId) const
{
    return t.enabled && !t.policyLocked && t.blockingBranch == kNoSeq &&
           t.fetchReadyAt <= curCycle;
}

bool
SmtCpu::partitionBlocked(ThreadId tid) const
{
    if (!partitionOn)
        return false;
    return occ.intRegs[tid] >= limits.intRegs[tid] ||
           occ.intIq[tid] >= limits.intIq[tid] ||
           occ.rob[tid] >= limits.rob[tid];
}

void
SmtCpu::ensureGenerated(ThreadState &t, InstSeq seq)
{
    while (t.genSeq <= seq) {
        if (t.genSeq - t.commitSeq > ringMask)
            panic("instruction ring overflow");
        Slot &s = slotOf(t, t.genSeq);
        s.si = t.gen.next();
        s.seq = t.genSeq;
        s.state = SlotFree;
        ++t.genSeq;
    }
}

bool
SmtCpu::fetchWouldAct(std::uint32_t &charged) const
{
    // Mirrors doFetch's walk up to its first IL1 access, with nothing
    // fetched yet this cycle.
    charged = 0;
    if (cfg.fetchThreadsPerCycle <= 0 || cfg.fetchWidth <= 0)
        return false;
    std::array<ThreadId, kMaxThreads> order;
    fetchOrder(order);
    for (int oi = 0; oi < cfg.numThreads; ++oi) {
        ThreadId tid = order[oi];
        if (!canFetch(threads[tid], tid))
            continue;
        if (partitionBlocked(tid)) {
            charged |= std::uint32_t{1} << tid;
            continue;
        }
        // doFetch stops at a full IFQ; otherwise it reaches the IL1.
        return occT.ifq < cfg.ifqSize;
    }
    return false;
}

bool
SmtCpu::doFetch()
{
    std::array<ThreadId, kMaxThreads> order;
    fetchOrder(order);

    bool reached_il1 = false;
    int fetched = 0;
    int threads_used = 0;
    int nt = cfg.numThreads;

    for (int oi = 0; oi < nt; ++oi) {
        if (threads_used >= cfg.fetchThreadsPerCycle ||
            fetched >= cfg.fetchWidth)
            break;
        ThreadId tid = order[oi];
        ThreadState &t = threads[tid];
        if (!canFetch(t, tid))
            continue;
        if (partitionBlocked(tid)) {
            ++statCounters.partitionLockCycles[tid];
            continue;
        }
        if (occT.ifq >= cfg.ifqSize)
            break;

        // One I-cache access per fetch group.
        ensureGenerated(t, t.fetchSeq);
        Addr group_pc = slotOf(t, t.fetchSeq).si.pc;
        MemAccessResult il1 = mem.instAccess(tid, group_pc);
        reached_il1 = true;
        if (il1.level != MemLevel::L1) {
            t.fetchReadyAt = curCycle + il1.latency;
            continue;
        }
        ++threads_used;

        while (fetched < cfg.fetchWidth) {
            if (occT.ifq >= cfg.ifqSize)
                break;
            if (partitionBlocked(tid))
                break;
            ensureGenerated(t, t.fetchSeq);
            Slot &s = slotOf(t, t.fetchSeq);
            InstSeq seq = t.fetchSeq;

            s.fetchCycle = curCycle;
            s.state = SlotFetched;
            s.wakeHead = kNoLink;
            s.pendingSrcs = 0;
            s.mispredicted = false;

            ++occ.ifq[tid];
            ++occT.ifq;
            ++statCounters.fetched[tid];
            evt->instruction(curCycle, tid, InstStage::Fetch, s.seq, s.si.pc,
                             s.si.op);
            ++t.fetchSeq;
            ++fetched;

            if (!s.si.isBranch())
                continue;

            ++statCounters.branches[tid];
            s.bp = predictors[tid].predict(s.si.pc);
            Addr btb_target = 0;
            bool btb_hit = btb.lookup(s.si.pc, btb_target);
            bool target_ok = btb_hit && btb_target == s.si.target;
            bool correct = (s.bp.prediction == s.si.taken) &&
                           (!s.si.taken || target_ok);
            if (!correct) {
                // Wrong-path fetch is not modeled: the thread stops
                // fetching until the branch resolves and the
                // front end refills (cfg.mispredictRedirect).
                s.mispredicted = true;
                ++statCounters.mispredicts[tid];
                t.blockingBranch = seq;
                break;
            }
            if (s.si.taken)
                break; // fetch group ends at a taken branch
        }
    }
    return reached_il1;
}

// --------------------------------------------------------------------
// Squash (FLUSH policy support)
// --------------------------------------------------------------------

int
SmtCpu::squashFrom(ThreadId tid, InstSeq start)
{
    ThreadState &t = threads.at(tid);
    unlinkSquashed(t, start);
    int squashed = 0;
    for (InstSeq i = start; i < t.fetchSeq; ++i) {
        Slot &s = slotOf(t, i);
        if (s.state == SlotFree)
            continue;
        if (s.state == SlotFetched) {
            --occ.ifq[tid];
            --occT.ifq;
        }
        evt->instruction(curCycle, tid, InstStage::Squash, s.seq, s.si.pc,
                         s.si.op);
        releaseResources(tid, s);
        s.state = SlotFree;
        ++s.genId;
        s.wakeHead = kNoLink;
        ++squashed;
        // Every squash counts as flushed, whatever triggered it —
        // the fetched == committed + flushed + in-flight identity
        // must survive context resets and parks, not just policy
        // flushes.
        ++statCounters.flushed[tid];
    }

    t.fetchSeq = start;
    t.dispatchSeq = std::min(t.dispatchSeq, start);
    if (t.blockingBranch != kNoSeq && t.blockingBranch >= start)
        t.blockingBranch = kNoSeq;
    std::erase_if(t.misses, [start](const OutstandingMiss &m) {
        return m.seq >= start;
    });
    return squashed;
}

void
SmtCpu::unlinkSquashed(ThreadState &t, InstSeq start)
{
    for (InstSeq i = t.dispatchSeq; i-- > start;) {
        const Slot &c = slotOf(t, i);
        if (c.state != SlotDispatched || c.pendingSrcs == 0)
            continue; // not on any list
        const std::uint32_t idx = slotIndex(i);
        // Source 1 linked after source 0, so it sits nearer the head
        // when both name the same producer.
        for (int k = 1; k >= 0; --k) {
            std::int32_t dist = c.si.srcDist[k];
            if (dist <= 0 || static_cast<InstSeq>(dist) > i)
                continue;
            Slot &p = slotOf(t, i - static_cast<InstSeq>(dist));
            if (p.wakeHead == idx * 2 + static_cast<std::uint32_t>(k))
                p.wakeHead = c.wakeNext[k];
        }
    }
}

int
SmtCpu::flushThreadAfter(ThreadId tid, InstSeq seq)
{
    ThreadState &t = threads.at(tid);
    InstSeq start = std::max(seq + 1, t.commitSeq);
    if (start >= t.fetchSeq)
        return 0;

    int squashed = squashFrom(tid, start);
    if (evt->trace && squashed > 0) {
        Json args = Json::object();
        args.set("after_seq", seq);
        args.set("squashed", squashed);
        evt->trace->instant(curCycle, evt->pid, static_cast<int>(tid),
                            EventId::MachineFlush, std::move(args));
    }
    return squashed;
}

int
SmtCpu::idleContext(ThreadId tid)
{
    ThreadState &t = threads.at(tid);
    int squashed = squashFrom(tid, t.commitSeq);
    t.genSeq = t.commitSeq;
    t.blockingBranch = kNoSeq;
    t.policyLocked = false;
    t.enabled = false;
    t.misses.clear();
    if (evt->trace) {
        Json args = Json::object();
        args.set("squashed", squashed);
        evt->trace->instant(curCycle, evt->pid, static_cast<int>(tid),
                            EventId::MachineContextIdle, std::move(args));
    }
    return squashed;
}

int
SmtCpu::resetContext(ThreadId tid, StreamGenerator gen)
{
    ThreadState &t = threads.at(tid);
    int squashed = squashFrom(tid, t.commitSeq);
    t.gen = std::move(gen);
    // Pull the generation cursor back so the first fetch after the
    // reset synthesizes from the new stream; slots pre-generated from
    // the old occupant's generator are overwritten before use.
    t.genSeq = t.commitSeq;
    t.fetchReadyAt = curCycle;
    t.blockingBranch = kNoSeq;
    t.policyLocked = false;
    t.enabled = true;
    t.misses.clear();
    predictors[tid] = HybridPredictor(cfg.metaEntries, cfg.gshareEntries,
                                      cfg.bimodalEntries);
    if (evt->trace) {
        Json args = Json::object();
        args.set("squashed", squashed);
        evt->trace->instant(curCycle, evt->pid, static_cast<int>(tid),
                            EventId::MachineContextReset, std::move(args));
    }
    return squashed;
}

} // namespace smthill
