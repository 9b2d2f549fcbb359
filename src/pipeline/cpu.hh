/**
 * @file
 * The out-of-order SMT processor model (Figure 3).
 *
 * The core models the pipeline the paper simulates: ICOUNT-driven
 * fetch of up to 8 instructions from up to 2 threads per cycle into a
 * shared 32-entry IFQ; rename/dispatch into the integer/fp issue
 * queues, rename register files, shared ROB, and LSQ; event-driven
 * wakeup and 8-wide issue constrained by the Table 1 functional-unit
 * pools; cache-accurate load latencies; and 8-wide in-order
 * per-thread commit. Per-thread occupancy counters and partition
 * registers implement the fetch-lock partition enforcement of
 * Section 3.2; flushThreadAfter() implements the FLUSH policy's
 * squash; setThreadEnabled() implements SingleIPC sampling epochs;
 * and stallUntil() charges the hill-climber's software cost.
 *
 * SmtCpu has value semantics: copying it checkpoints the entire
 * machine (pipeline, caches, predictors, instruction generators, and
 * statistics), which is how OFF-LINE exhaustive learning, RAND-HILL,
 * and the synchronized comparisons of Figures 5, 11, and 12 work.
 * Observer links (event trace, branch and load observers) are not
 * simulated state: they follow the Attachment rule, so a copy starts
 * unobserved and an assignment keeps the target's own links.
 */

#ifndef SMTHILL_PIPELINE_CPU_HH
#define SMTHILL_PIPELINE_CPU_HH

#include <array>
#include <cstdint>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "branch/predictors.hh"
#include "common/event_trace.hh"
#include "common/types.hh"
#include "memory/hierarchy.hh"
#include "pipeline/resources.hh"
#include "pipeline/smt_config.hh"
#include "trace/instruction.hh"
#include "trace/stream_generator.hh"

namespace smthill
{

/** Cumulative per-machine statistics; read-diff across an interval. */
struct CpuStats
{
    std::array<std::uint64_t, kMaxThreads> committed{};
    std::array<std::uint64_t, kMaxThreads> fetched{};
    std::array<std::uint64_t, kMaxThreads> flushed{};
    std::array<std::uint64_t, kMaxThreads> branches{};
    std::array<std::uint64_t, kMaxThreads> mispredicts{};
    std::array<std::uint64_t, kMaxThreads> loads{};
    std::array<std::uint64_t, kMaxThreads> partitionLockCycles{};
    std::uint64_t stalledCycles = 0; ///< cycles frozen by stallUntil()
    std::uint64_t committedTotal() const;

    bool operator==(const CpuStats &) const = default;
};

/** An in-flight load that missed the DL1 (policy monitors). */
struct OutstandingMiss
{
    InstSeq seq = 0;
    Cycle issuedAt = 0;
    Cycle completesAt = 0;
    bool toMemory = false;   ///< missed the L2 as well
};

/** Per-committed-branch record handed to phase-tracking observers. */
struct CommittedBranch
{
    ThreadId tid;
    std::uint32_t blockId;
    std::uint32_t blockLength;
};

/**
 * Load lifecycle event for policy observers (e.g., PDG's cache-miss
 * predictor): fired once when a load dispatches (completed == false;
 * miss outcome unknown) and once when it completes (completed ==
 * true; missedDl1/toMemory valid).
 */
struct LoadEvent
{
    ThreadId tid;
    InstSeq seq;
    Addr pc;
    bool completed;
    bool missedDl1;
    bool toMemory;
};

/**
 * A vector whose copies keep the source's capacity, so the bounds
 * SmtCpu reserves its cycle-loop queues to survive checkpoint copies
 * (a plain vector copy shrinks capacity to size; assignment already
 * reuses the target's storage).
 */
template <typename T>
class ReservedVector : public std::vector<T>
{
  public:
    ReservedVector() = default;
    ReservedVector(const ReservedVector &other) : std::vector<T>()
    {
        this->reserve(other.capacity());
        this->assign(other.begin(), other.end());
    }
    ReservedVector(ReservedVector &&) noexcept = default;
    ReservedVector &operator=(const ReservedVector &) = default;
    ReservedVector &operator=(ReservedVector &&) noexcept = default;
};

/** The SMT processor. */
class SmtCpu
{
  public:
    /**
     * @param config machine parameters (validated)
     * @param programs one stream generator per hardware context;
     *        size must equal config.numThreads
     */
    SmtCpu(const SmtConfig &config, std::vector<StreamGenerator> programs);

    /**
     * @return a whole-machine copy of this machine's simulated state
     * that starts with no observer links (Attachment rule): the named
     * way to take a checkpoint that outlives this machine's next
     * cycle. Trial sweeps restore warm machines instead
     * (restoreFrom, core/machine_arena.hh).
     */
    SmtCpu checkpoint() const { return *this; }

    /**
     * Restore this machine to @p checkpoint's exact simulated state,
     * reusing this machine's existing allocations (instruction rings,
     * cache arrays) instead of making fresh ones — the cheap path
     * trial sweeps restore through instead of copy-constructing an
     * SmtCpu per trial. The rings hold trivially copyable slots, so
     * their part of the restore is a flat copy. This machine keeps
     * its own observer links (Attachment rule).
     */
    void restoreFrom(const SmtCpu &checkpoint);

    /**
     * Advance the machine by one cycle.
     * @return true if a stage did work (committed, completed, issued,
     *         dispatched, or reached the IL1); false for a quiet
     *         cycle, after which nextActiveCycle() is worth asking
     */
    bool step();

    /**
     * Advance the machine to cycle @p until, jumping over quiet
     * stretches with skipQuietTo(). Bit-identical to calling step()
     * until now() == @p until; no policy is involved, so this is the
     * warm-up / solo-run / fixed-partition-trial path.
     */
    void runUntil(Cycle until);

    /** Advance the machine by @p n cycles (runUntil(now() + n)). */
    void run(Cycle n);

    /**
     * @return the earliest cycle >= now() at which step() can change
     * anything beyond the per-cycle counters (now(), stalledCycles,
     * partitionLockCycles, the round-robin pointers), assuming no
     * policy intervenes; now() when this cycle is active, kNeverCycle
     * when nothing is in flight and no thread can ever fetch.
     */
    Cycle nextActiveCycle() const;

    /**
     * Jump to @p target, applying in bulk what each skipped step()
     * would have done: stalled cycles count into stalledCycles; other
     * cycles rotate the round-robin pointers and charge
     * partitionLockCycles to the threads doFetch's ICOUNT walk
     * reaches while partition-blocked. Requires now() <= @p target <=
     * nextActiveCycle(); the caller also owes every policy cycle()
     * hook in the window (see ResourcePolicy::nextWake()).
     */
    void skipQuietTo(Cycle target);

    /** @return the thread commit starts from next cycle. */
    std::uint32_t commitRoundRobin() const { return rrCommit; }

    /** @return the thread dispatch starts from next cycle. */
    std::uint32_t dispatchRoundRobin() const { return rrDispatch; }

    /** @return current simulated cycle. */
    Cycle now() const { return curCycle; }

    /** @return number of hardware contexts. */
    int numThreads() const { return cfg.numThreads; }

    const SmtConfig &config() const { return cfg; }
    const CpuStats &stats() const { return statCounters; }
    const Occupancy &occupancy() const { return occ; }
    const OccupancyTotals &occupancyTotals() const { return occT; }
    const MemoryHierarchy &memory() const { return mem; }

    // --- Partition control (Section 3.1.2 / 3.2) -------------------

    /** Enable partition enforcement and install the given shares. */
    void setPartition(const Partition &partition);

    /** Disable partition enforcement (full sharing). */
    void clearPartition();

    /** @return true when partition limits are being enforced. */
    bool partitioningEnabled() const { return partitionOn; }

    /** @return the active partition (meaningful when enabled). */
    const Partition &partition() const { return curPartition; }

    // --- Policy hooks ----------------------------------------------

    /** Fetch-lock or unlock a thread (FLUSH/STALL/DCRA control). */
    void setFetchLocked(ThreadId tid, bool locked);

    /** @return true if the policy has fetch-locked @p tid. */
    bool fetchLocked(ThreadId tid) const;

    /**
     * Squash every in-flight instruction of @p tid younger than
     * @p seq, releasing their resources; fetch resumes at seq + 1.
     * Implements FLUSH's recovery. @return instructions squashed.
     */
    int flushThreadAfter(ThreadId tid, InstSeq seq);

    /** Enable or disable a thread (SingleIPC sampling epochs). */
    void setThreadEnabled(ThreadId tid, bool enabled);

    /**
     * Rebind hardware context @p tid to a fresh instruction stream
     * (open-system job arrival on a possibly-reused context). Every
     * in-flight instruction of the old occupant is squashed, counted
     * into the flushed stats (it was fetched and discarded, and the
     * fetched == committed + flushed + in-flight flow identity must
     * survive a reset), and its resources released; the per-thread
     * branch predictor is reset so the new job
     * does not inherit the departed job's history. Cache contents
     * stay warm (a real context switch does not flash-invalidate the
     * caches). The context comes back fetch-unlocked and enabled;
     * cumulative per-thread counters keep counting, so per-job
     * accounting must snapshot deltas around the job's residency.
     * @return in-flight instructions squashed.
     */
    int resetContext(ThreadId tid, StreamGenerator gen);

    /**
     * Park hardware context @p tid after its job departed: squash any
     * in-flight instructions past the job's bound (counted as flushed,
     * like any other squash) so the idle context holds no shared
     * resources, then disable it. A later resetContext() brings it
     * back for the next job. @return in-flight instructions squashed.
     */
    int idleContext(ThreadId tid);

    /** @return true if the thread is fetching/dispatching. */
    bool threadEnabled(ThreadId tid) const;

    /** Freeze all pipeline stages until cycle @p until. */
    void stallUntil(Cycle until);

    /** In-flight DL1 misses of @p tid, oldest first. */
    const std::vector<OutstandingMiss> &
    outstandingMisses(ThreadId tid) const
    {
        return threads[tid].misses;
    }

    /** @return count of in-flight DL1 misses of @p tid. */
    int dl1MissesInFlight(ThreadId tid) const
    {
        return static_cast<int>(threads[tid].misses.size());
    }

    /** @return instructions in pre-issue stages (ICOUNT's counter). */
    int frontEndCount(ThreadId tid) const;

    // --- Observer links (Attachment rule: not simulated state) -----

    /**
     * Register an observer invoked once per committed branch (phase
     * detection BBVs). Pass nullptr to detach.
     */
    using BranchObserver = void (*)(void *ctx, const CommittedBranch &);
    void setBranchObserver(BranchObserver fn, void *ctx);

    /**
     * Register an observer invoked at load dispatch and completion
     * (PDG-style miss predictors). Pass nullptr to detach.
     */
    using LoadObserver = void (*)(void *ctx, const LoadEvent &);
    void setLoadObserver(LoadObserver fn, void *ctx);

    /**
     * Attach a cycle-level event trace (nullptr detaches), owned by
     * the caller. When the trace has instruction events on, the
     * machine also records every pipeline stage of every instruction
     * as an `inst` event.
     * @param pid trace-event process id the machine's events file
     *        under (one per workload/technique)
     */
    void
    setEventTrace(EventTrace *t, int pid)
    {
        evt.attach(EventTraceLink{t, t ? pid : 0});
    }

    /** @return the attached event trace, or nullptr. */
    EventTrace *eventTrace() const { return evt->trace; }

    /** @return the trace-event process id of the attached trace. */
    int eventTracePid() const { return evt->pid; }

    /**
     * Wakeup-list consistency for InvariantChecker::checkCpu: links
     * hang off in-flight producers, name dispatched consumers of
     * them, newest first, and each dispatched instruction's pending
     * count equals the links naming it. @return "" or the first breach
     */
    std::string wakeupListError() const;

    /** One link of a producer's wakeup list: consumer and source. */
    struct WakeupLink
    {
        InstSeq consumer;
        int src; ///< which source operand (0 or 1) the link feeds
        bool operator==(const WakeupLink &) const = default;
    };

    /**
     * The wakeup list of in-flight instruction @p seq of @p tid,
     * newest consumer first: the dispatched instructions its
     * completion will wake. Empty for an instruction that is not
     * waiting in an issue queue or executing.
     */
    std::vector<WakeupLink> wakeupList(ThreadId tid, InstSeq seq) const;

  private:
    static constexpr InstSeq kNoSeq = ~InstSeq{0};

    /**
     * Wakeup lists are intrusive: link `slot * 2 + k` is source k of
     * the consumer in ring slot `slot`, and a producer's list is a
     * LIFO chain through its consumers' `wakeNext[k]`.
     */
    static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

    /**
     * The shared structures an instruction holds, one 0/1 flag each:
     * the counters move by the flags themselves, so allocation and
     * release take no branch per structure.
     */
    struct SlotHolds
    {
        bool intIq = false;
        bool fpIq = false;
        bool intReg = false;
        bool fpReg = false;
        bool lsq = false;
        bool rob = false;
    };

    /** Dynamic state of one in-flight (or replay-buffered) inst. */
    struct Slot
    {
        SynthInst si;
        InstSeq seq = 0;
        Cycle fetchCycle = 0;
        HybridPredictor::Lookup bp;
        std::uint32_t wakeHead = kNoLink; ///< newest consumer link
        /** Next-older link on source k's producer list. */
        std::array<std::uint32_t, 2> wakeNext{kNoLink, kNoLink};
        std::uint32_t genId = 0;
        std::uint8_t pendingSrcs = 0;
        std::uint8_t state = 0;       ///< SlotState
        bool mispredicted = false;
        bool missedDl1 = false; ///< issued load missed the DL1
        bool toMemory = false;  ///< ... and the L2 as well
        SlotHolds holds;
    };
    // Ring copies (checkpoints, restoreFrom) are flat copies, and no
    // slot ever owns heap storage for the cycle loop to grow.
    static_assert(std::is_trivially_copyable_v<Slot>);

    enum SlotState : std::uint8_t
    {
        SlotFree = 0,
        SlotFetched,     ///< in the IFQ
        SlotDispatched,  ///< waiting in an issue queue
        SlotIssued,      ///< executing
        SlotCompleted    ///< awaiting commit
    };

    /** Architectural + microarchitectural state of one context. */
    struct ThreadState
    {
        explicit ThreadState(StreamGenerator g) : gen(std::move(g)) {}

        StreamGenerator gen;
        std::vector<Slot> ring;   ///< indexed by seq & ringMask

        InstSeq genSeq = 0;      ///< next seq to synthesize
        InstSeq fetchSeq = 0;    ///< next seq to fetch
        InstSeq dispatchSeq = 0; ///< next seq to dispatch
        InstSeq commitSeq = 0;   ///< next seq to commit

        Cycle fetchReadyAt = 0;   ///< IL1 miss / redirect gate
        InstSeq blockingBranch = kNoSeq; ///< unresolved mispredict
        bool policyLocked = false;
        bool enabled = true;

        /** In-flight DL1 misses; bounded by the LSQ size. */
        ReservedVector<OutstandingMiss> misses;
    };

    struct ReadyEntry
    {
        Cycle readyAt;
        Cycle age;        ///< fetch cycle (older issues first)
        ThreadId tid;
        std::uint32_t slot;
        std::uint32_t genId;
    };

    /** Bits of CompletionEvent::slotTid that hold the thread id. */
    static constexpr int kTidBits = 3;
    static_assert(kMaxThreads <= 1 << kTidBits);

    /**
     * One pending completion, 16 bytes. The heap orders by `at` alone,
     * so same-cycle events pop in the order its layout gives.
     */
    struct CompletionEvent
    {
        Cycle at;
        std::uint32_t slotTid; ///< slot << kTidBits | tid
        std::uint32_t genId;
        bool operator>(const CompletionEvent &o) const { return at > o.at; }
    };
    static_assert(sizeof(CompletionEvent) == 16);

    Slot &slotOf(ThreadState &t, InstSeq seq)
    {
        return t.ring[seq & ringMask];
    }
    std::uint32_t slotIndex(InstSeq seq) const
    {
        return static_cast<std::uint32_t>(seq & ringMask);
    }

    // Pipeline stages, in reverse order within step(). Each returns
    // true if it did work this cycle.
    bool doCommit();
    bool doCompletions();
    bool doIssue();
    bool doDispatch();
    bool doFetch();

    /** Order threads by ascending front-end count (ICOUNT). */
    void fetchOrder(std::array<ThreadId, kMaxThreads> &order) const;

    /** @return true if @p tid may fetch this cycle. */
    bool canFetch(const ThreadState &t, ThreadId tid) const;

    /** @return true if @p tid is at a partition limit (fetch gate). */
    bool partitionBlocked(ThreadId tid) const;

    /**
     * Walk doFetch's ICOUNT order as a cycle that fetches nothing
     * would. @return true if doFetch would reach the IL1 this cycle;
     * otherwise @p charged holds the bit of every thread doFetch
     * charges a partitionLockCycle.
     */
    bool fetchWouldAct(std::uint32_t &charged) const;

    /** Ensure the instruction at @p seq exists in the replay window. */
    void ensureGenerated(ThreadState &t, InstSeq seq);

    /**
     * @return true if the next instruction of @p tid, which would take
     * @p need, cannot dispatch now: a shared structure is full or the
     * thread is at a partition limit. dispatchOne() and
     * nextActiveCycle() both decide through this one predicate.
     */
    bool dispatchBlocked(ThreadId tid, const SlotHolds &need) const;

    /** @return the structures dispatch allocates to an @p op. */
    static const SlotHolds &dispatchHolds(OpClass op);

    /** Try to dispatch the next instruction of @p tid; @return ok. */
    bool dispatchOne(ThreadId tid);

    /** Hook up the dependences of a newly dispatched instruction. */
    void linkDependences(ThreadId tid, InstSeq seq, Slot &slot);

    /**
     * Take every instruction of @p tid at or after @p start off the
     * wakeup lists of the producers that survive a squash from
     * @p start. Consumers are younger than their producers and link
     * in dispatch order, so the squashed links are always the head of
     * each surviving list: walking youngest first pops them there.
     */
    void unlinkSquashed(ThreadState &t, InstSeq start);

    /** Mark a slot completed and wake its dependents. */
    void complete(ThreadId tid, std::uint32_t slot_idx);

    /** Release whatever resources a slot still holds. */
    void releaseResources(ThreadId tid, Slot &slot);

    /**
     * Squash every in-flight instruction of @p tid at or after
     * @p start, releasing resources and bumping slot generations so
     * queued wakeup/completion events go stale. Every squashed
     * instruction counts into the flushed stats, whether a policy
     * flush or a context reset/park discarded it: the
     * fetched == committed + flushed + in-flight flow identity must
     * hold across job lifetimes.
     */
    int squashFrom(ThreadId tid, InstSeq start);

    SmtConfig cfg;
    MemoryHierarchy mem;
    std::vector<ThreadState> threads;
    std::vector<HybridPredictor> predictors;
    Btb btb;

    Occupancy occ;
    OccupancyTotals occT; ///< running sums of occ, kept in lockstep
    Partition curPartition;
    DerivedLimits limits;
    bool partitionOn = false;

    Cycle curCycle = 0;
    Cycle stalledUntil = 0;
    std::uint64_t ringMask = 0;
    std::uint32_t rrDispatch = 0; ///< round-robin dispatch start
    std::uint32_t rrCommit = 0;   ///< round-robin commit start

    /**
     * Ready instructions. At each issue every entry names a distinct
     * instruction that sat in an issue queue after the previous
     * cycle's dispatch, so the issue-queue capacity bounds it.
     */
    ReservedVector<ReadyEntry> readyList;
    /**
     * readyList[0, readySortedCount) is in issue order, the strict
     * total order (age, tid, slot); wakeups append after it. Issue
     * insertion-sorts the appended entries into place and compacts
     * the survivors in order, so the list it walks is exactly the
     * fully sorted one.
     */
    std::size_t readySortedCount = 0;
    /** Execution latency per OpClass (loads: from the memory model). */
    std::array<Cycle, kNumOpClasses> opLatency{};
    /**
     * Pending completions, stale (squashed) ones included. Each was
     * issued within the longest latency, so issue width times that
     * latency bounds the heap.
     */
    std::priority_queue<CompletionEvent, ReservedVector<CompletionEvent>,
                        std::greater<CompletionEvent>>
        events;

    CpuStats statCounters;

    /** An observer callback and its context. */
    template <typename Event>
    struct ObserverLink
    {
        void (*fn)(void *ctx, const Event &) = nullptr;
        void *ctx = nullptr;
    };

    Attachment<ObserverLink<CommittedBranch>> branchObs;
    Attachment<ObserverLink<LoadEvent>> loadObs;
    Attachment<EventTraceLink> evt;
};

} // namespace smthill

#endif // SMTHILL_PIPELINE_CPU_HH
