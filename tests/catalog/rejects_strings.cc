/**
 * @file
 * Must not compile: an event and a stat named by string literals
 * instead of catalog ids (common/catalog.hh). The CatalogRejectsStrings
 * ctest builds this file and passes only if the build fails;
 * accepts_ids.cc is the same code in the typed form, and must build.
 */

#include "common/event_trace.hh"
#include "common/stat_registry.hh"

namespace smthill
{

void
emitByName(EventTrace &trace)
{
    trace.instant(0, 0, kControlTid, "hill", "anchor.move");
    globalStats().counter("smthill.thread_pool.for_indices").inc();
}

} // namespace smthill
