/**
 * @file
 * The typed twin of rejects_strings.cc: the same event and stat named
 * by catalog ids. The CatalogRejectsStrings ctest requires this file
 * to build, so the failure it expects of rejects_strings.cc comes from
 * the API and not from a broken fixture.
 */

#include "common/event_trace.hh"
#include "common/stat_registry.hh"

namespace smthill
{

void
emitById(EventTrace &trace)
{
    trace.instant(0, 0, kControlTid, EventId::HillAnchorMove);
    globalStats().counter(CounterId::ThreadPoolForIndices).inc();
}

} // namespace smthill
