/**
 * @file
 * The catalog of every trace event and every stat the simulator
 * emits, as constexpr tables, and the typed ids that EventTrace and
 * StatRegistry take in place of names. A name outside the catalog
 * has no id, so emitting or registering it fails to compile; so does
 * emitting an event through the call of another phase. Readers
 * (smthill_trace_report, printLastInstEvents) look names up here
 * instead of keeping lists.
 *
 * Adding an event or a stat is one row in SMTHILL_EVENT_CATALOG or
 * SMTHILL_COUNTER_CATALOG; counters are the only stat kind.
 */

#ifndef SMTHILL_COMMON_CATALOG_HH
#define SMTHILL_COMMON_CATALOG_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>

namespace smthill
{

/** What completes the name of a family entry. */
enum class EventParam : std::uint8_t
{
    None,        ///< a fixed name
    ThreadIndex, ///< the name followed by a hardware thread index
    ScopeName,   ///< the name of the host-profiler scope
};

/**
 * Every event: X(id, category, name, phase, parameter). Entries are
 * keyed by (category, name), so `churn.attach` is one row per
 * learner. The phase is the trace-event `ph`: 'i' instant, 'X'
 * complete slice, 'C' counter sample. A family entry's name is the
 * fixed part its parameter completes.
 */
#define SMTHILL_EVENT_CATALOG(X)                                          \
    X(Epoch, "epoch", "epoch", 'X', None)                                 \
    X(HillSampleBegin, "hill", "sample.begin", 'i', None)                 \
    X(HillTrialInstall, "hill", "trial.install", 'i', None)               \
    X(HillSingleIpcUpdate, "hill", "single_ipc.update", 'i', None)        \
    X(HillAnchorMove, "hill", "anchor.move", 'i', None)                   \
    X(HillRound, "hill", "round", 'X', None)                              \
    X(HillChurnAttach, "hill", "churn.attach", 'i', None)                 \
    X(HillChurnDetach, "hill", "churn.detach", 'i', None)                 \
    X(BanditArmPull, "bandit", "arm.pull", 'i', None)                     \
    X(BanditChurnAttach, "bandit", "churn.attach", 'i', None)             \
    X(BanditChurnDetach, "bandit", "churn.detach", 'i', None)             \
    X(RlAnchorMove, "rl", "anchor.move", 'i', None)                       \
    X(RlChurnAttach, "rl", "churn.attach", 'i', None)                     \
    X(RlChurnDetach, "rl", "churn.detach", 'i', None)                     \
    X(PhaseClassify, "phase", "classify", 'i', None)                      \
    X(PhaseTransition, "phase", "transition", 'i', None)                  \
    X(PhaseReuseDecision, "phase", "reuse.decision", 'i', None)           \
    X(OfflineBestPartition, "offline", "best.partition", 'i', None)       \
    X(MachinePartitionClear, "machine", "partition.clear", 'i', None)     \
    X(MachineThreadEnabled, "machine", "thread.enabled", 'i', None)       \
    X(MachineStall, "machine", "stall", 'X', None)                        \
    X(MachineFlush, "machine", "flush", 'i', None)                        \
    X(MachineContextIdle, "machine", "context.idle", 'i', None)           \
    X(MachineContextReset, "machine", "context.reset", 'i', None)         \
    X(JobArrive, "job", "job.arrive", 'i', None)                          \
    X(JobAttach, "job", "job.attach", 'i', None)                          \
    X(JobDepart, "job", "job.depart", 'i', None)                          \
    X(InstFetch, "inst", "fetch", 'i', None)                              \
    X(InstDispatch, "inst", "dispatch", 'i', None)                        \
    X(InstIssue, "inst", "issue", 'i', None)                              \
    X(InstComplete, "inst", "complete", 'i', None)                        \
    X(InstCommit, "inst", "commit", 'i', None)                            \
    X(InstSquash, "inst", "squash", 'i', None)                            \
    X(ShareTrack, "counter", "share.t", 'C', ThreadIndex)                 \
    X(HostSpan, "host", "", 'X', ScopeName)

/** Every counter: X(id, name). */
#define SMTHILL_COUNTER_CATALOG(X)                                        \
    X(ThreadPoolForIndices, "smthill.thread_pool.for_indices")            \
    X(EventTraceRecorded, "smthill.event_trace.recorded")                 \
    X(EventTraceDropped, "smthill.event_trace.dropped")                   \
    X(WarmMachineHits, "smthill.warm_cache.machine.hits")                 \
    X(WarmMachineMisses, "smthill.warm_cache.machine.misses")             \
    X(WarmMachineEvictions, "smthill.warm_cache.machine.evictions")       \
    X(WarmSoloIpcHits, "smthill.warm_cache.solo_ipc.hits")                \
    X(WarmSoloIpcMisses, "smthill.warm_cache.solo_ipc.misses")            \
    X(WarmSoloIpcEvictions, "smthill.warm_cache.solo_ipc.evictions")      \
    X(BanditEpochs, "smthill.bandit.epochs")                              \
    X(BanditSwitches, "smthill.bandit.switches")                          \
    X(BanditRebuilds, "smthill.bandit.rebuilds")                          \
    X(RlEpochs, "smthill.rl.epochs")                                      \
    X(RlExplores, "smthill.rl.explores")                                  \
    X(RlAnchorMoves, "smthill.rl.anchor_moves")

#define SMTHILL_CATALOG_ID(id, ...) id,

enum class EventId : std::uint8_t
{
    SMTHILL_EVENT_CATALOG(SMTHILL_CATALOG_ID)
};

enum class CounterId : std::uint8_t
{
    SMTHILL_COUNTER_CATALOG(SMTHILL_CATALOG_ID)
};

#undef SMTHILL_CATALOG_ID

/** One event row. */
struct EventSpec
{
    EventId id;
    std::string_view cat;
    std::string_view name;
    char ph;
    EventParam param;
};

#define SMTHILL_EVENT_SPEC(id, cat, name, ph, param)                      \
    {EventId::id, cat, name, ph, EventParam::param},

inline constexpr EventSpec kEventCatalog[] = {
    SMTHILL_EVENT_CATALOG(SMTHILL_EVENT_SPEC)};

#undef SMTHILL_EVENT_SPEC

constexpr const EventSpec &
eventSpec(EventId id)
{
    return kEventCatalog[static_cast<std::size_t>(id)];
}

/**
 * The entry that an event's (@p cat, @p name) belongs to: an exact
 * fixed name, or a family's name completed by its parameter (decimal
 * digits for ThreadIndex, any non-empty name for ScopeName).
 * @return nothing for a name outside the catalog
 */
constexpr std::optional<EventId>
findEvent(std::string_view cat, std::string_view name)
{
    for (const EventSpec &e : kEventCatalog) {
        if (e.cat != cat)
            continue;
        switch (e.param) {
          case EventParam::None:
            if (name == e.name)
                return e.id;
            break;
          case EventParam::ThreadIndex: {
            if (name.size() <= e.name.size() || !name.starts_with(e.name))
                break;
            bool digits = true;
            for (char c : name.substr(e.name.size()))
                digits = digits && c >= '0' && c <= '9';
            if (digits)
                return e.id;
            break;
          }
          case EventParam::ScopeName:
            if (!name.empty())
                return e.id;
            break;
        }
    }
    return std::nullopt;
}

namespace detail
{
/** Never defined: a consteval check that reaches it fails to compile. */
void eventHasAnotherPhaseOrParameter();
} // namespace detail

/**
 * A catalog event that an emission call of phase @p Ph and parameter
 * @p P accepts. It converts from an EventId only at compile time, and
 * only when the entry has that phase and parameter.
 */
template <char Ph, EventParam P>
struct EventKey
{
    consteval EventKey(EventId event) : id(event)
    {
        if (eventSpec(event).ph != Ph || eventSpec(event).param != P)
            detail::eventHasAnotherPhaseOrParameter();
    }

    EventId id;
};

using InstantEvent = EventKey<'i', EventParam::None>;
using SliceEvent = EventKey<'X', EventParam::None>;
using ScopeSpanEvent = EventKey<'X', EventParam::ScopeName>;
using ThreadTrackEvent = EventKey<'C', EventParam::ThreadIndex>;

/** The pipeline stages an `inst` event names, in catalog order. */
enum class InstStage : std::uint8_t
{
    Fetch,
    Dispatch,
    Issue,
    Complete,
    Commit,
    Squash,
};

constexpr EventId
instStageEvent(InstStage stage)
{
    return static_cast<EventId>(static_cast<int>(EventId::InstFetch) +
                                static_cast<int>(stage));
}

/** @return whether @p id is one of the per-instruction stage events. */
constexpr bool
isInstStage(EventId id)
{
    return id >= EventId::InstFetch && id <= EventId::InstSquash;
}

static_assert(instStageEvent(InstStage::Squash) == EventId::InstSquash);

#define SMTHILL_COUNTER_NAME(id, name) name,

/** Every stat's name, in CounterId order. */
inline constexpr std::string_view kStatCatalog[] = {
    SMTHILL_COUNTER_CATALOG(SMTHILL_COUNTER_NAME)};

#undef SMTHILL_COUNTER_NAME

inline constexpr std::size_t kStatCount = std::size(kStatCatalog);

/** Position of a stat in kStatCatalog. */
constexpr std::size_t
statIndex(CounterId id)
{
    return static_cast<std::size_t>(id);
}

namespace detail
{

/** `smthill.` then dot-separated runs of [a-z0-9_]. */
constexpr bool
wellFormedStatName(std::string_view name)
{
    constexpr std::string_view prefix = "smthill.";
    if (!name.starts_with(prefix) || name.size() == prefix.size() ||
        name.back() == '.')
        return false;
    bool prevDot = true; // the prefix ends in one
    for (char c : name.substr(prefix.size())) {
        bool word = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
        if (!word && (c != '.' || prevDot))
            return false;
        prevDot = c == '.';
    }
    return true;
}

constexpr bool
statNamesWellFormedAndUnique()
{
    for (std::size_t i = 0; i < kStatCount; ++i) {
        if (!wellFormedStatName(kStatCatalog[i]))
            return false;
        for (std::size_t j = 0; j < i; ++j)
            if (kStatCatalog[i] == kStatCatalog[j])
                return false;
    }
    return true;
}

constexpr bool
eventKeysUnique()
{
    for (const EventSpec &a : kEventCatalog)
        for (const EventSpec &b : kEventCatalog)
            if (a.id != b.id && a.cat == b.cat && a.name == b.name)
                return false;
    return true;
}

} // namespace detail

static_assert(detail::statNamesWellFormedAndUnique(),
              "every stat name is smthill.* dotted-lowercase, and no "
              "name appears twice");
static_assert(detail::eventKeysUnique(),
              "no (category, name) pair appears twice");

} // namespace smthill

#endif // SMTHILL_COMMON_CATALOG_HH
