#include "obs/trace.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "obs/registry.hh"

namespace mech::obs {

namespace {

/** Process-wide count of events refused by any recorder. */
Counter &
droppedEventsCounter()
{
    static Counter &dropped =
        MetricsRegistry::global().counter(
            "trace.dropped_events", "Trace events refused by a full recorder");
    return dropped;
}

} // namespace

std::atomic<TraceRecorder *> TraceRecorder::installed{nullptr};

TraceRecorder::TraceRecorder()
    : epoch(std::chrono::steady_clock::now())
{
    events.reserve(4096);
    // Register up front so a traced run exports the series at 0.
    droppedEventsCounter();
}

TraceRecorder::~TraceRecorder()
{
    // Uninstall defensively: a recorder must never dangle as the
    // process-wide target.
    TraceRecorder *self = this;
    installed.compare_exchange_strong(self, nullptr);
}

void
TraceRecorder::install(TraceRecorder *recorder)
{
    installed.store(recorder, std::memory_order_release);
}

TraceRecorder *
TraceRecorder::current()
{
    return installed.load(std::memory_order_acquire);
}

void
TraceRecorder::complete(const char *name, const char *category,
                        std::uint64_t ts_us, std::uint64_t dur_us)
{
    const std::uint32_t tid = threadOrdinal();
    std::unique_lock<std::mutex> lock(mtx);
    if (events.size() >= kMaxEvents) {
        ++dropped;
        lock.unlock();
        droppedEventsCounter().inc();
        return;
    }
    TraceEvent ev;
    ev.name = name;
    ev.category = category;
    ev.tsUs = ts_us;
    ev.durUs = dur_us;
    ev.tid = tid;
    events.push_back(std::move(ev));
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return events.size();
}

std::uint64_t
TraceRecorder::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return dropped;
}

void
TraceRecorder::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &ev = events[i];
        if (i)
            os << ",";
        os << "\n{\"name\": ";
        json::writeString(os, ev.name);
        os << ", \"cat\": ";
        json::writeString(os, ev.category);
        os << ", \"ph\": \"X\", \"ts\": " << ev.tsUs
           << ", \"dur\": " << ev.durUs
           << ", \"pid\": 1, \"tid\": " << ev.tid << "}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
          "{\"generator\": \"mechsim\", \"dropped_events\": "
       << dropped << "}}\n";
}

bool
TraceRecorder::writeJsonFile(const std::string &path,
                             std::string *error) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    writeJson(os);
    os.flush();
    if (!os) {
        if (error)
            *error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

} // namespace mech::obs
