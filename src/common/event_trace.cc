#include "common/event_trace.hh"

#include <ostream>
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
        globalStats().counter("smthill.event_trace.recorded");
    return c;
}

StatCounter &
droppedStat()
{
    static StatCounter &c =
        globalStats().counter("smthill.event_trace.dropped");
    return c;
}

constexpr const char *kSchema = "smthill.events.v1";
constexpr const char *kClock = "sim-cycles";

Json
jsonlHeader()
{
    Json h = Json::object();
    h.set("schema", kSchema);
    h.set("clock", kClock);
    return h;
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
EventTrace::instant(Cycle ts, int pid, int tid, std::string cat,
                    std::string name, Json args)
{
    SimEvent e;
    e.ts = ts;
    e.ph = 'i';
    e.pid = pid;
    e.tid = tid;
    e.cat = std::move(cat);
    e.name = std::move(name);
    e.args = std::move(args);
    record(std::move(e));
}

void
EventTrace::complete(Cycle ts, std::int64_t dur, int pid, int tid,
                     std::string cat, std::string name, Json args)
{
    SimEvent e;
    e.ts = ts;
    e.dur = dur >= 0 ? dur : 0;
    e.ph = 'X';
    e.pid = pid;
    e.tid = tid;
    e.cat = std::move(cat);
    e.name = std::move(name);
    e.args = std::move(args);
    record(std::move(e));
}

void
EventTrace::counter(Cycle ts, int pid, int tid, std::string name,
                    double value)
{
    SimEvent e;
    e.ts = ts;
    e.ph = 'C';
    e.pid = pid;
    e.tid = tid;
    e.cat = "counter";
    e.name = std::move(name);
    e.args = Json::object();
    e.args.set("value", value);
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
    e.args.set("name", name);
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
    e.args.set("name", name);
    record(std::move(e));
}

void
EventTrace::recordInstruction(Cycle ts, int pid, ThreadId tid,
                              const char *stage, InstSeq seq, Addr pc,
                              OpClass op)
{
    Json args = Json::object();
    args.set("seq", seq);
    args.set("pc", pc);
    args.set("op", opClassName(op));
    instant(ts, pid, static_cast<int>(tid), "inst", stage,
            std::move(args));
}

void
printLastInstEvents(const EventTrace &trace, std::size_t n,
                    std::FILE *out)
{
    std::vector<SimEvent> insts;
    for (SimEvent &e : trace.events())
        if (e.cat == "inst")
            insts.push_back(std::move(e));
    std::size_t first = insts.size() > n ? insts.size() - n : 0;
    std::fprintf(out, "last %zu pipeline events:\n", insts.size() - first);
    for (std::size_t i = first; i < insts.size(); ++i) {
        const SimEvent &e = insts[i];
        std::fprintf(
            out, "%10llu t%d %-8s seq=%llu pc=0x%llx %s\n",
            static_cast<unsigned long long>(e.ts), e.tid, e.name.c_str(),
            static_cast<unsigned long long>(e.args.at("seq").asDouble()),
            static_cast<unsigned long long>(e.args.at("pc").asDouble()),
            e.args.at("op").asString().c_str());
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

Json
EventTrace::eventToJson(const SimEvent &event)
{
    Json j = Json::object();
    j.set("name", event.name);
    j.set("cat", event.cat);
    j.set("ph", std::string(1, event.ph));
    j.set("ts", event.ts);
    if (event.dur >= 0)
        j.set("dur", event.dur);
    j.set("pid", event.pid);
    j.set("tid", event.tid);
    if (!event.args.isNull())
        j.set("args", event.args);
    return j;
}

bool
EventTrace::eventFromJson(const Json &j, SimEvent &out, std::string &error)
{
    if (!j.isObject()) {
        error = "event is not an object";
        return false;
    }
    for (const char *key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
        if (!j.contains(key)) {
            error = std::string("event missing '") + key + "'";
            return false;
        }
    }
    const Json &ph = j.at("ph");
    if (!ph.isString() || ph.asString().size() != 1) {
        error = "event 'ph' must be a one-character string";
        return false;
    }
    out = SimEvent{};
    out.name = j.at("name").asString();
    out.cat = j.at("cat").asString();
    out.ph = ph.asString()[0];
    out.ts = static_cast<Cycle>(j.at("ts").asInt());
    out.pid = static_cast<std::int32_t>(j.at("pid").asInt());
    out.tid = static_cast<std::int32_t>(j.at("tid").asInt());
    if (j.contains("dur"))
        out.dur = j.at("dur").asInt();
    if (j.contains("args"))
        out.args = j.at("args");
    return true;
}

Json
EventTrace::toPerfettoJson() const
{
    Json other = Json::object();
    other.set("schema", kSchema);
    other.set("clock", kClock);
    other.set("dropped", droppedCount);

    Json evs = Json::array();
    std::size_t start = count == cap ? head : 0;
    for (std::size_t i = 0; i < count; ++i)
        evs.push(eventToJson(ring[(start + i) % cap]));

    Json doc = Json::object();
    doc.set("displayTimeUnit", "ns");
    doc.set("otherData", std::move(other));
    doc.set("traceEvents", std::move(evs));
    return doc;
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
    if (!doc.isObject() || !doc.contains("traceEvents")) {
        error = "not a trace document (no traceEvents)";
        return false;
    }
    TraceMeta m;
    if (doc.contains("displayTimeUnit"))
        m.displayTimeUnit = doc.at("displayTimeUnit").asString();
    if (doc.contains("otherData")) {
        const Json &other = doc.at("otherData");
        if (other.contains("schema") &&
            other.at("schema").asString() != kSchema) {
            error = "unsupported trace schema '" +
                    other.at("schema").asString() + "'";
            return false;
        }
        if (other.contains("clock")) {
            m.clock = other.at("clock").asString();
            // Timestamps are raw cycle counts; mixing clock domains
            // would mis-align every diff without any other symptom.
            if (m.clock != kClock) {
                error = "unsupported trace clock '" + m.clock + "'";
                return false;
            }
        }
        if (other.contains("dropped"))
            m.dropped = other.at("dropped").asInt();
    }
    if (meta)
        *meta = m;
    const Json &evs = doc.at("traceEvents");
    if (!evs.isArray()) {
        error = "traceEvents is not an array";
        return false;
    }
    for (const Json &j : evs.items()) {
        SimEvent e;
        if (!eventFromJson(j, e, error))
            return false;
        out.push_back(std::move(e));
    }
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
        if (!Json::parse(line, j, error)) {
            error = "line " + std::to_string(lineNo) + ": " + error;
            return false;
        }
        if (!sawHeader && j.isObject() && j.contains("schema")) {
            sawHeader = true;
            if (j.at("schema").asString() != kSchema) {
                error = "unsupported trace schema '" +
                        j.at("schema").asString() + "'";
                return false;
            }
            continue;
        }
        SimEvent e;
        if (!eventFromJson(j, e, error)) {
            error = "line " + std::to_string(lineNo) + ": " + error;
            return false;
        }
        out.push_back(std::move(e));
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
    if (Json::parse(text, doc, docError) && doc.isObject() &&
        doc.contains("traceEvents")) {
        return fromPerfettoJson(doc, out, error);
    }
    return fromJsonlText(text, out, error);
}

} // namespace smthill
