/**
 * @file
 * Tests for the event catalog (common/catalog.hh): every entry, and
 * one member of each family, emits through the typed EventTrace
 * calls, survives both export forms, and is known to the lookup the
 * trace report uses, which still rejects names outside the catalog.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/catalog.hh"
#include "common/event_trace.hh"

namespace smthill
{
namespace
{

/** Emit catalog entry @p I through the call its phase selects. */
template <std::size_t I>
void
emitEntry(EventTrace &trace)
{
    constexpr EventId id = static_cast<EventId>(I);
    constexpr EventSpec spec = eventSpec(id);
    constexpr Cycle ts = 10 * I;
    if constexpr (spec.param == EventParam::ThreadIndex) {
        trace.counter(ts, 0, 3, id, 42.0);
    } else if constexpr (spec.param == EventParam::ScopeName) {
        trace.complete(ts, 5, 0, 0, id, "runner.epoch");
    } else if constexpr (spec.ph == 'X') {
        trace.complete(ts, 5, 0, kControlTid, id);
    } else if constexpr (isInstStage(id)) {
        constexpr auto stage = static_cast<InstStage>(
            I - static_cast<std::size_t>(EventId::InstFetch));
        trace.instruction(ts, 0, 1, stage, 7, 0x40, OpClass::IntAlu);
    } else {
        trace.instant(ts, 0, kControlTid, id);
    }
}

TEST(EventCatalog, EveryEntryRoundTripsAndIsKnown)
{
    constexpr std::size_t n = std::size(kEventCatalog);
    EventTrace trace;
    trace.setInstructionEvents(true);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (emitEntry<I>(trace), ...);
    }(std::make_index_sequence<n>{});

    const std::vector<SimEvent> events = trace.events();
    ASSERT_EQ(events.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const EventSpec &spec = kEventCatalog[i];
        const SimEvent &e = events[i];
        EXPECT_EQ(e.cat, spec.cat) << i;
        EXPECT_EQ(e.ph, spec.ph) << e.cat << "/" << e.name;
        EXPECT_EQ(findEvent(e.cat, e.name), spec.id)
            << e.cat << "/" << e.name;
    }
    // The families' members carry their parameter in the name.
    EXPECT_EQ(events[static_cast<std::size_t>(EventId::ShareTrack)].name,
              "share.t3");
    EXPECT_EQ(events[static_cast<std::size_t>(EventId::HostSpan)].name,
              "runner.epoch");

    std::vector<SimEvent> back;
    std::string error;
    ASSERT_TRUE(
        EventTrace::fromPerfettoJson(trace.toPerfettoJson(), back, error))
        << error;
    EXPECT_EQ(back, events);
    ASSERT_TRUE(EventTrace::fromJsonlText(trace.toJsonl(), back, error))
        << error;
    EXPECT_EQ(back, events);

    // The lookup rejects names outside the catalog.
    EXPECT_FALSE(findEvent("hill", "anchor.mvoe"));
    // Keys are (category, name): a real name under another category
    // is not an entry.
    EXPECT_FALSE(findEvent("machine", "anchor.move"));
    EXPECT_EQ(findEvent("rl", "anchor.move"), EventId::RlAnchorMove);
    // A thread-index family takes digits only.
    EXPECT_FALSE(findEvent("counter", "share.t"));
    EXPECT_FALSE(findEvent("counter", "share.tx"));
    EXPECT_EQ(findEvent("counter", "share.t12"), EventId::ShareTrack);
    // A scope-name family takes any non-empty name.
    EXPECT_FALSE(findEvent("host", ""));
    EXPECT_FALSE(findEvent("test", "ev"));
}

} // namespace
} // namespace smthill
