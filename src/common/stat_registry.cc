#include "common/stat_registry.hh"

#include <algorithm>

namespace smthill
{

void
StatRegistry::enroll(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (std::find(order.begin(), order.end(), index) == order.end())
        order.push_back(index);
}

StatCounter &
StatRegistry::counter(CounterId id)
{
    enroll(statIndex(id));
    return counters[static_cast<std::size_t>(id)];
}

StatGauge &
StatRegistry::gauge(GaugeId id)
{
    enroll(statIndex(id));
    return gauges[static_cast<std::size_t>(id)];
}

Json
StatRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex);
    Json out = Json::object();
    for (std::size_t i : order) {
        const StatSpec &spec = kStatCatalog[i];
        if (spec.kind == StatKind::Counter)
            out.set(std::string(spec.name), Json(counters[i].value()));
        else
            out.set(std::string(spec.name),
                    Json(gauges[i - kCounterCount].value()));
    }
    return out;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::string> out;
    out.reserve(order.size());
    for (std::size_t i : order)
        out.emplace_back(kStatCatalog[i].name);
    return out;
}

void
StatRegistry::resetValues()
{
    for (StatCounter &c : counters)
        c.reset();
    for (StatGauge &g : gauges)
        g.reset();
}

StatRegistry &
globalStats()
{
    static StatRegistry registry;
    return registry;
}

} // namespace smthill
