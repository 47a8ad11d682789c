#include "obs/trace.hpp"

#include "obs/stats.hpp"

#include <algorithm>
#include <chrono>

#include "util/json.hpp"

namespace coolair {
namespace obs {

namespace {

std::atomic<int> g_nextAutoTrack{1000};

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// -1 = unassigned; lazily replaced with a process-unique id on first
// read so untracked threads still get distinct tracks.
thread_local int t_track = -1;

// The thread's active trace context (0 = no request attribution).
thread_local uint64_t t_traceId = 0;

} // anonymous namespace

void
setThreadTrack(int tid)
{
    t_track = tid;
}

int
threadTrack()
{
    if (t_track < 0)
        t_track = g_nextAutoTrack.fetch_add(1, std::memory_order_relaxed);
    return t_track;
}

uint64_t
currentTraceId()
{
    return t_traceId;
}

void
setCurrentTraceId(uint64_t id)
{
    t_traceId = id;
}

Tracer::Tracer() : _epochNs(steadyNowNs())
{
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::nowUs() const
{
    return (steadyNowNs() - _epochNs) / 1000;
}

void
Tracer::recordComplete(const std::string &name, const std::string &cat,
                       int64_t tsUs, int64_t durUs, int tid,
                       uint64_t traceId)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    if (_maxEvents > 0 && _events.size() >= _maxEvents) {
        // Shed the oldest quarter in one move, so a saturated daemon
        // pays the erase rarely instead of per event.
        const size_t drop = std::max<size_t>(1, _maxEvents / 4);
        _events.erase(_events.begin(),
                      _events.begin() + std::min(drop, _events.size()));
        _dropped += drop;
    }
    _events.push_back(TraceEvent{name, cat, tsUs, durUs, tid, traceId});
}

void
Tracer::setMaxEvents(size_t cap)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _maxEvents = cap;
}

size_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _dropped;
}

std::vector<TraceEvent>
Tracer::takeTrace(uint64_t traceId)
{
    std::vector<TraceEvent> out;
    if (traceId == 0)
        return out;
    std::lock_guard<std::mutex> lock(_mutex);
    auto keep = _events.begin();
    for (auto it = _events.begin(); it != _events.end(); ++it) {
        if (it->traceId == traceId) {
            out.push_back(std::move(*it));
        } else {
            if (keep != it)
                *keep = std::move(*it);
            ++keep;
        }
    }
    _events.erase(keep, _events.end());
    return out;
}

std::vector<std::pair<int, std::string>>
Tracer::trackNames() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _trackNames;
}

void
Tracer::nameTrack(int tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &entry : _trackNames) {
        if (entry.first == tid) {
            entry.second = name;
            return;
        }
    }
    _trackNames.emplace_back(tid, name);
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _events.size();
}

void
writeTraceEventsJson(std::ostream &os, std::vector<TraceEvent> events,
                     std::vector<std::pair<int, std::string>> tracks)
{
    // Stable order: by start time, then track; makes the export
    // reproducible for a given set of events.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         return a.tid < b.tid;
                     });
    std::sort(tracks.begin(), tracks.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    os << "{\n  \"traceEvents\": [";
    bool first = true;
    for (const auto &[tid, name] : tracks) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1"
           << ", \"tid\": " << tid
           << ", \"args\": {\"name\": " << util::jsonQuote(name) << "}}";
    }
    for (const TraceEvent &e : events) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    {\"name\": " << util::jsonQuote(e.name)
           << ", \"cat\": " << util::jsonQuote(e.cat)
           << ", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << e.tid
           << ", \"ts\": " << e.tsUs
           << ", \"dur\": " << e.durUs;
        if (e.traceId != 0)
            os << ", \"args\": {\"trace_id\": " << e.traceId << "}";
        os << "}";
    }
    if (!first)
        os << "\n  ";
    os << "],\n  \"displayTimeUnit\": \"ms\"\n}\n";
}

void
Tracer::writeJson(std::ostream &os) const
{
    std::vector<TraceEvent> events;
    std::vector<std::pair<int, std::string>> tracks;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        events = _events;
        tracks = _trackNames;
    }
    writeTraceEventsJson(os, std::move(events), std::move(tracks));
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _events.clear();
    _trackNames.clear();
    _dropped = 0;
}

} // namespace obs
} // namespace coolair
