#include "common/event_trace.hh"

#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <utility>

#include "common/stat_registry.hh"

namespace smthill
{

namespace
{

/** Process-wide lifetime accounting, mirrored from every trace. */
StatCounter &
recordedStat()
{
    static StatCounter &c =
        globalStats().counter(CounterId::EventTraceRecorded);
    return c;
}

StatCounter &
droppedStat()
{
    static StatCounter &c =
        globalStats().counter(CounterId::EventTraceDropped);
    return c;
}

/** An event of catalog entry @p id, its name not yet completed. */
SimEvent
catalogEvent(Cycle ts, int pid, int tid, EventId id)
{
    const EventSpec &spec = eventSpec(id);
    SimEvent e;
    e.ts = ts;
    e.ph = spec.ph;
    e.pid = pid;
    e.tid = tid;
    e.cat = spec.cat;
    e.name = spec.name;
    return e;
}

constexpr char kSchema[] = "smthill.events.v1";
constexpr char kClock[] = "sim-cycles";
constexpr char kTimeUnit[] = "ns";

/** An event's name, and the label in a metadata event's args. */
constexpr char kNameKey[] = "name";
/** A counter sample's value in its args. */
constexpr char kValueKey[] = "value";
/** The events array of a Perfetto document (also its format tag). */
constexpr char kTraceEventsKey[] = "traceEvents";
/** Per-instruction `inst` event args. */
constexpr char kSeqKey[] = "seq";
constexpr char kPcKey[] = "pc";
constexpr char kOpKey[] = "op";

constexpr JsonField<SimEvent> kEventFields[] = {
    jsonField<&SimEvent::name>(kNameKey),
    jsonField<&SimEvent::cat>("cat"),
    {"ph",
     [](const SimEvent &e, Json &v) {
         v = Json(std::string(1, e.ph));
         return true;
     },
     [](const Json &v, SimEvent &e, std::string &error) {
         if (!v.isString() || v.asString().size() != 1) {
             error = "expected a one-character string";
             return false;
         }
         e.ph = v.asString()[0];
         return true;
     }},
    jsonField<&SimEvent::ts>("ts"),
    // Only complete slices ('X') carry a duration.
    {"dur",
     [](const SimEvent &e, Json &v) {
         v = Json(e.dur);
         return e.dur >= 0;
     },
     [](const Json &v, SimEvent &e, std::string &error) {
         return scalarFromJson(v, e.dur, error);
     },
     true},
    jsonField<&SimEvent::pid>("pid"),
    jsonField<&SimEvent::tid>("tid"),
    {"args",
     [](const SimEvent &e, Json &v) {
         v = e.args;
         return !e.args.isNull();
     },
     [](const Json &v, SimEvent &e, std::string &error) {
         if (!v.isObject()) {
             error = "expected an object";
             return false;
         }
         e.args = v;
         return true;
     },
     true},
};

/** `otherData`; its first two rows are also the JSONL header line. */
constexpr JsonField<EventTrace::TraceMeta> kMetaFields[] = {
    jsonSchema<EventTrace::TraceMeta, kSchema>(),
    jsonConstant<EventTrace::TraceMeta, kClock>("clock"),
    jsonField<&EventTrace::TraceMeta::dropped>("dropped"),
};

constexpr std::span<const JsonField<EventTrace::TraceMeta>, 2>
    kHeaderFields(kMetaFields, 2);

/** A whole Perfetto document. */
struct PerfettoDoc
{
    EventTrace::TraceMeta meta;
    std::vector<SimEvent> events;
};

constexpr JsonField<PerfettoDoc> kDocFields[] = {
    jsonConstant<PerfettoDoc, kTimeUnit>("displayTimeUnit"),
    jsonRecord<&PerfettoDoc::meta, kMetaFields>("otherData"),
    jsonRecords<&PerfettoDoc::events, kEventFields>(kTraceEventsKey),
};

Json
jsonlHeader()
{
    return writeFields(kHeaderFields, EventTrace::TraceMeta{});
}

} // namespace

std::string
eventSummary(const SimEvent &event)
{
    std::ostringstream os;
    os << "ts=" << event.ts << " ph=" << event.ph << " pid=" << event.pid
       << " tid=" << event.tid << " " << event.cat << "/" << event.name;
    if (event.dur >= 0)
        os << " dur=" << event.dur;
    if (!event.args.isNull())
        os << " args=" << event.args.dump();
    return os.str();
}

EventDiff
diffEvents(const std::vector<SimEvent> &a, const std::vector<SimEvent> &b)
{
    EventDiff d;
    std::size_t common = a.size() < b.size() ? a.size() : b.size();
    for (std::size_t i = 0; i < common; ++i) {
        if (a[i] == b[i])
            continue;
        d.diverged = true;
        d.index = i;
        d.description = "event " + std::to_string(i) + " differs:\n  a: " +
                        eventSummary(a[i]) + "\n  b: " + eventSummary(b[i]);
        return d;
    }
    if (a.size() != b.size()) {
        d.diverged = true;
        d.index = common;
        const auto &longer = a.size() > b.size() ? a : b;
        d.description =
            "stream lengths differ (a=" + std::to_string(a.size()) +
            ", b=" + std::to_string(b.size()) + "); first extra in " +
            (a.size() > b.size() ? "a" : "b") + ": " +
            eventSummary(longer[common]);
    }
    return d;
}

EventTrace::EventTrace(std::size_t capacity)
    : cap(capacity > 0 ? capacity : 1)
{
}

void
EventTrace::record(SimEvent event)
{
    ++recordedCount;
    recordedStat().inc();
    if (sink)
        *sink << eventToJson(event).dump() << '\n';
    if (ring.size() < cap) {
        ring.push_back(std::move(event));
        count = ring.size();
        head = count % cap;
        return;
    }
    // Full ring: the slot at head holds the oldest event.
    ++droppedCount;
    droppedStat().inc();
    ring[head] = std::move(event);
    head = (head + 1) % cap;
}

void
EventTrace::instant(Cycle ts, int pid, int tid, InstantEvent event,
                    Json args)
{
    SimEvent e = catalogEvent(ts, pid, tid, event.id);
    e.args = std::move(args);
    record(std::move(e));
}

void
EventTrace::complete(Cycle ts, std::int64_t dur, int pid, int tid,
                     SliceEvent event, Json args)
{
    SimEvent e = catalogEvent(ts, pid, tid, event.id);
    e.dur = dur >= 0 ? dur : 0;
    e.args = std::move(args);
    record(std::move(e));
}

void
EventTrace::complete(Cycle ts, std::int64_t dur, int pid, int tid,
                     ScopeSpanEvent family, const char *scope)
{
    SimEvent e = catalogEvent(ts, pid, tid, family.id);
    e.dur = dur >= 0 ? dur : 0;
    e.name = scope;
    record(std::move(e));
}

void
EventTrace::counter(Cycle ts, int pid, int tid, ThreadTrackEvent family,
                    double value)
{
    SimEvent e = catalogEvent(ts, pid, tid, family.id);
    e.name += std::to_string(tid);
    e.args = Json::object();
    e.args.set(kValueKey, value);
    record(std::move(e));
}

void
EventTrace::processName(int pid, const std::string &name)
{
    SimEvent e;
    e.ph = 'M';
    e.pid = pid;
    e.cat = "__metadata";
    e.name = "process_name";
    e.args = Json::object();
    e.args.set(kNameKey, name);
    record(std::move(e));
}

void
EventTrace::threadName(int pid, int tid, const std::string &name)
{
    SimEvent e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.cat = "__metadata";
    e.name = "thread_name";
    e.args = Json::object();
    e.args.set(kNameKey, name);
    record(std::move(e));
}

void
EventTrace::recordInstruction(Cycle ts, int pid, ThreadId tid,
                              InstStage stage, InstSeq seq, Addr pc,
                              OpClass op)
{
    SimEvent e =
        catalogEvent(ts, pid, static_cast<int>(tid), instStageEvent(stage));
    e.args = Json::object();
    e.args.set(kSeqKey, seq);
    e.args.set(kPcKey, pc);
    e.args.set(kOpKey, opClassName(op));
    record(std::move(e));
}

void
printLastInstEvents(const EventTrace &trace, std::size_t n,
                    std::FILE *out)
{
    std::vector<SimEvent> insts;
    for (SimEvent &e : trace.events()) {
        std::optional<EventId> id = findEvent(e.cat, e.name);
        if (id && isInstStage(*id))
            insts.push_back(std::move(e));
    }
    std::size_t first = insts.size() > n ? insts.size() - n : 0;
    std::fprintf(out, "last %zu pipeline events:\n", insts.size() - first);
    for (std::size_t i = first; i < insts.size(); ++i) {
        const SimEvent &e = insts[i];
        std::fprintf(
            out, "%10llu t%d %-8s seq=%llu pc=0x%llx %s\n",
            static_cast<unsigned long long>(e.ts), e.tid, e.name.c_str(),
            static_cast<unsigned long long>(e.args.at(kSeqKey).asDouble()),
            static_cast<unsigned long long>(e.args.at(kPcKey).asDouble()),
            e.args.at(kOpKey).asString().c_str());
    }
}

std::vector<SimEvent>
EventTrace::events() const
{
    std::vector<SimEvent> out;
    out.reserve(count);
    std::size_t start = count == cap ? head : 0;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(start + i) % cap]);
    return out;
}

void
EventTrace::clear()
{
    ring.clear();
    head = 0;
    count = 0;
}

void
EventTrace::streamTo(std::ostream *s)
{
    sink = s;
    if (sink)
        *sink << jsonlHeader().dump() << '\n';
}

double
EventTrace::counterValue(const SimEvent &event)
{
    const Json *v = event.args.find(kValueKey);
    return v && v->isNumber() ? v->asDouble() : 0.0;
}

Json
EventTrace::eventToJson(const SimEvent &event)
{
    return writeFields(kEventFields, event);
}

bool
EventTrace::eventFromJson(const Json &j, SimEvent &out, std::string &error)
{
    return readFields(kEventFields, j, out, error);
}

Json
EventTrace::toPerfettoJson() const
{
    return writeFields(kDocFields, PerfettoDoc{{droppedCount}, events()});
}

std::string
EventTrace::toJsonl() const
{
    std::string out = jsonlHeader().dump() + "\n";
    std::size_t start = count == cap ? head : 0;
    for (std::size_t i = 0; i < count; ++i)
        out += eventToJson(ring[(start + i) % cap]).dump() + "\n";
    return out;
}

bool
EventTrace::fromPerfettoJson(const Json &doc, std::vector<SimEvent> &out,
                             std::string &error, TraceMeta *meta)
{
    out.clear();
    PerfettoDoc d;
    if (!readFields(kDocFields, doc, d, error))
        return false;
    out = std::move(d.events);
    if (meta)
        *meta = d.meta;
    return true;
}

bool
EventTrace::fromJsonlText(const std::string &text,
                          std::vector<SimEvent> &out, std::string &error)
{
    out.clear();
    std::istringstream is(text);
    std::string line;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        Json j;
        bool ok = Json::parse(line, j, error);
        if (ok && !sawHeader) {
            TraceMeta header;
            ok = readFields(kHeaderFields, j, header, error);
            sawHeader = true;
        } else if (ok) {
            SimEvent e;
            ok = eventFromJson(j, e, error);
            out.push_back(std::move(e));
        }
        if (!ok) {
            out.clear();
            error = "line " + std::to_string(lineNo) + ": " + error;
            return false;
        }
    }
    return true;
}

bool
EventTrace::loadEventTraceText(const std::string &text,
                               std::vector<SimEvent> &out,
                               std::string &error)
{
    // A Perfetto export is one JSON document; a JSONL stream is one
    // object per line. Try the document form first — a JSONL file
    // with more than one line fails whole-text parsing, so the two
    // never alias.
    Json doc;
    std::string docError;
    if (Json::parse(text, doc, docError) &&
        doc.contains(kTraceEventsKey)) {
        return fromPerfettoJson(doc, out, error);
    }
    return fromJsonlText(text, out, error);
}

} // namespace smthill
