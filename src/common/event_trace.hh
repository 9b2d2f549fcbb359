/**
 * @file
 * Cycle-level event tracing (`smthill.events.v1`): a bounded
 * ring-buffer recorder for simulator events — epochs, rounds, trial
 * samples, anchor moves, flushes, stalls, phase transitions, and
 * per-thread resource-share counter tracks — timestamped in simulated
 * cycles (never wall clock, so traces are deterministic and the
 * no-wall-clock lint rule holds by construction).
 *
 * Per-instruction pipeline events (`inst`: fetch, dispatch, issue,
 * complete, commit, squash) are opt-in per trace
 * (setInstructionEvents), since they outnumber every other category
 * by orders of magnitude.
 *
 * Two sinks:
 *  - Chrome trace-event / Perfetto JSON (toPerfettoJson): events carry
 *    `ph`/`ts`/`dur`/`pid`/`tid` in the trace-event dialect, so a
 *    trace loads directly into ui.perfetto.dev with one process per
 *    workload/technique and one track per hardware thread;
 *  - streaming JSONL (streamTo): one header line then one event
 *    object per line, written as events are recorded, for unbounded
 *    runs that would overflow any ring.
 *
 * The ring keeps the newest `capacity` events; overwritten events are
 * counted (dropped()) and mirrored into globalStats() as
 * `smthill.event_trace.dropped`. Cost when no tracer is attached is
 * zero: every instrumentation site checks its EventTrace pointer
 * before building an event.
 */

#ifndef SMTHILL_COMMON_EVENT_TRACE_HH
#define SMTHILL_COMMON_EVENT_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/catalog.hh"
#include "common/json.hh"
#include "common/types.hh"

namespace smthill
{

/**
 * Track id used for machine/policy control-plane events that belong
 * to no hardware thread (epoch slices, stalls, anchor moves). Kept
 * clear of any plausible hardware-thread index so Perfetto renders a
 * separate "control" track.
 */
inline constexpr int kControlTid = 1000;

/** One trace event in the Chrome trace-event dialect. */
struct SimEvent
{
    Cycle ts = 0;            ///< simulated cycle of the event (start)
    std::int64_t dur = -1;   ///< cycles covered; >= 0 only for 'X'
    char ph = 'i';           ///< B/E/X/i/C/M (trace-event phase)
    std::int32_t pid = 0;    ///< workload / technique id
    std::int32_t tid = 0;    ///< hardware thread, or kControlTid
    std::string cat;         ///< catalog category: epoch/hill/machine/...
    std::string name;        ///< catalog name (common/catalog.hh)
    Json args;               ///< decision-audit payload (object) or null

    bool operator==(const SimEvent &) const = default;
};

/** One-line human-readable rendering (diff reports, logs). */
std::string eventSummary(const SimEvent &event);

/** First-divergence result of comparing two event streams. */
struct EventDiff
{
    bool diverged = false;
    std::size_t index = 0;    ///< first differing position
    std::string description;  ///< what differs (empty when equal)
};

/**
 * Compare two event streams and report the first divergent event
 * (field-wise), or a length mismatch past the common prefix.
 */
EventDiff diffEvents(const std::vector<SimEvent> &a,
                     const std::vector<SimEvent> &b);

/** Bounded ring-buffer event recorder with Perfetto/JSONL export. */
class EventTrace
{
  public:
    static constexpr std::size_t kDefaultCapacity = 64 * 1024;

    explicit EventTrace(std::size_t capacity = kDefaultCapacity);

    /**
     * Record one event (ring append; oldest dropped when full). The
     * import path (fromPerfettoJson, tests): simulator code emits
     * through the catalog-typed calls below.
     */
    void record(SimEvent event);

    // --- Emission (common/catalog.hh names every event) ------------

    /** Point event ('i'). */
    void instant(Cycle ts, int pid, int tid, InstantEvent event,
                 Json args = Json());

    /** Complete slice ('X') covering [ts, ts + dur). */
    void complete(Cycle ts, std::int64_t dur, int pid, int tid,
                  SliceEvent event, Json args = Json());

    /** Complete slice of a family named by a profiler scope. */
    void complete(Cycle ts, std::int64_t dur, int pid, int tid,
                  ScopeSpanEvent family, const char *scope);

    /**
     * Counter sample ('C'): one point on the track of hardware
     * thread @p tid, named by @p family and that thread's index.
     */
    void counter(Cycle ts, int pid, int tid, ThreadTrackEvent family,
                 double value);

    /** Metadata ('M'): label process @p pid in trace viewers. */
    void processName(int pid, const std::string &name);

    /** Metadata ('M'): label thread (@p pid, @p tid). */
    void threadName(int pid, int tid, const std::string &name);

    // --- Per-instruction events ------------------------------------

    /**
     * Switch per-instruction `inst` events on or off (default off).
     * When on, an attached machine records one instant per pipeline
     * stage an instruction reaches — fetch, dispatch, issue,
     * complete, commit, squash — on the thread's track, with args
     * {seq, pc, op}. Select threads or stages by filtering events().
     */
    void setInstructionEvents(bool on) { instEvents = on; }

    /**
     * One `inst` instant of @p stage; a no-op unless instruction
     * events are on.
     */
    void
    instruction(Cycle ts, int pid, ThreadId tid, InstStage stage,
                InstSeq seq, Addr pc, OpClass op)
    {
        if (instEvents)
            recordInstruction(ts, pid, tid, stage, seq, pc, op);
    }

    // --- Inspection ------------------------------------------------

    /** Retained events, oldest first. */
    std::vector<SimEvent> events() const;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return cap; }

    /** Total events offered over the trace's lifetime. */
    std::uint64_t recorded() const { return recordedCount; }

    /** Events overwritten by ring wrap-around. */
    std::uint64_t dropped() const { return droppedCount; }

    /** Drop retained events (lifetime counters keep accumulating). */
    void clear();

    // --- Sinks -----------------------------------------------------

    /**
     * Attach a streaming JSONL sink (nullptr detaches): a
     * `smthill.events.v1` header line immediately, then one event
     * object per line as each record() lands — events survive even
     * after the ring overwrites them. The stream is owned by the
     * caller and must outlive the attachment.
     */
    void streamTo(std::ostream *sink);

    /**
     * Export the retained events as a Chrome trace-event / Perfetto
     * JSON document: {"displayTimeUnit", "otherData": {"schema":
     * "smthill.events.v1", "clock": "sim-cycles", "dropped"},
     * "traceEvents": [...]}.
     */
    Json toPerfettoJson() const;

    /** Retained events as JSONL text (header line + one per line). */
    std::string toJsonl() const;

    // --- Import (round-trip tests, trace_report) -------------------

    /** One event as a trace-event JSON object. */
    static Json eventToJson(const SimEvent &event);

    /**
     * @return false with @p error naming the first missing or
     * wrong-typed key if @p j is not an event
     */
    static bool eventFromJson(const Json &j, SimEvent &out,
                              std::string &error);

    /** The value of a counter() sample (0 if it carries none). */
    static double counterValue(const SimEvent &event);

    /** The `otherData` block recovered alongside the events. */
    struct TraceMeta
    {
        std::uint64_t dropped = 0; ///< events lost to ring overwrite
    };

    /**
     * Rebuild events from a toPerfettoJson() document. Rejects a
     * missing or wrong-typed key, and a mismatched schema or clock
     * domain (cycle timestamps from a foreign clock would silently
     * mis-align in diffs). @p meta, when non-null, receives the
     * document metadata.
     */
    static bool fromPerfettoJson(const Json &doc,
                                 std::vector<SimEvent> &out,
                                 std::string &error,
                                 TraceMeta *meta = nullptr);

    /**
     * Rebuild events from JSONL text (as written by the sink): the
     * header line, then one event per line.
     */
    static bool fromJsonlText(const std::string &text,
                              std::vector<SimEvent> &out,
                              std::string &error);

    /**
     * Load a trace from file content, auto-detecting the format:
     * a Perfetto JSON document or a JSONL stream.
     */
    static bool loadEventTraceText(const std::string &text,
                                   std::vector<SimEvent> &out,
                                   std::string &error);

  private:
    std::vector<SimEvent> ring;
    std::size_t cap;
    std::size_t head = 0;   ///< next write position
    std::size_t count = 0;  ///< retained events
    std::uint64_t recordedCount = 0;
    std::uint64_t droppedCount = 0;
    std::ostream *sink = nullptr;
    bool instEvents = false;

    void recordInstruction(Cycle ts, int pid, ThreadId tid,
                           InstStage stage, InstSeq seq, Addr pc,
                           OpClass op);
};

/**
 * Print "last N pipeline events:" and then the newest @p n `inst`
 * events of @p trace, oldest first, one line each: cycle, thread,
 * stage, seq, pc and op.
 */
void printLastInstEvents(const EventTrace &trace, std::size_t n,
                         std::FILE *out);

/**
 * The one handle for every observer link a machine or policy holds:
 * event traces, epoch tracers, branch and load observers. A link
 * belongs to the object, not to its simulated state:
 *  - a copy- or move-constructed owner starts with no links, so
 *    checkpoints, trial machines and policy clones run unobserved and
 *    never interleave into the committing run's streams (which stay
 *    bit-identical at any `jobs` count);
 *  - assigning state into an existing owner keeps that owner's own
 *    links, so a restore (`*this = checkpoint`) or a commit
 *    (`*advanced = std::move(trial)`) neither detaches nor re-wires.
 * @tparam Link the link's value; its value-initialized state is
 *         "detached"
 */
template <typename Link>
class Attachment
{
  public:
    Attachment() = default;
    Attachment(const Attachment &) noexcept {}
    Attachment(Attachment &&) noexcept {}
    Attachment &operator=(const Attachment &) noexcept { return *this; }
    Attachment &operator=(Attachment &&) noexcept { return *this; }

    /** Replace the link; a value-initialized Link detaches. */
    void attach(const Link &l) { link = l; }

    const Link &operator*() const { return link; }
    const Link *operator->() const { return &link; }

  private:
    Link link{};
};

/** An event-trace link: the trace and the process events file under. */
struct EventTraceLink
{
    EventTrace *trace = nullptr;
    int pid = 0;

    /**
     * EventTrace::instruction() on the linked trace, if any: the one
     * pointer test a machine's per-stage hook pays when detached.
     */
    void
    instruction(Cycle ts, ThreadId tid, InstStage stage, InstSeq seq,
                Addr pc, OpClass op) const
    {
        if (trace)
            trace->instruction(ts, pid, tid, stage, seq, pc, op);
    }
};

} // namespace smthill

#endif // SMTHILL_COMMON_EVENT_TRACE_HH
