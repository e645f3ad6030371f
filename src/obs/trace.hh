/**
 * @file
 * Chrome Trace Event recording for the serve/search/bench tools.
 *
 * A TraceRecorder collects complete ("ph":"X") events — name,
 * category, microsecond timestamp and duration, thread id — and
 * writes them as Chrome Trace Event Format JSON that loads directly
 * in chrome://tracing or Perfetto.  Recording is opt-in: tools
 * construct a recorder when --trace-out is given and install() it as
 * the process-wide current recorder; instrumented code guards every
 * span behind TraceRecorder::active(), a single relaxed atomic load,
 * so an untraced run pays one branch per span site and nothing else.
 *
 * TraceSpan is the RAII form: it timestamps construction and records
 * one complete event on destruction.  Spans are cheap enough for
 * per-request and per-chunk scopes but are still two clock reads —
 * keep them off per-instruction paths.
 *
 * The event buffer is bounded (kMaxEvents); once full, further
 * events are counted as dropped rather than growing without limit —
 * a trace of a saturation run must not become the OOM it was
 * debugging.  Drops also advance the registry counter
 * `trace.dropped_events`, so a scrape shows a truncated trace
 * before anyone opens the file.
 */

#ifndef MECH_OBS_TRACE_HH
#define MECH_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace mech::obs {

/** One complete trace event (Chrome "ph":"X"). */
struct TraceEvent
{
    std::string name;
    const char *category = "mech";
    std::uint64_t tsUs = 0;  ///< start, microseconds since trace begin
    std::uint64_t durUs = 0; ///< duration, microseconds
    std::uint32_t tid = 0;   ///< recording thread's threadOrdinal()
};

/** Bounded collector of trace events (see file comment). */
class TraceRecorder
{
  public:
    /** Event cap; beyond it events are dropped (and counted). */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    TraceRecorder();
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;
    ~TraceRecorder();

    /** Make this recorder the process-wide target (null uninstalls).
     *  Install before spawning instrumented threads and uninstall
     *  after joining them; installation is not itself synchronized
     *  against in-flight spans. */
    static void install(TraceRecorder *recorder);

    /** The installed recorder, or null. */
    static TraceRecorder *current();

    /** True when a recorder is installed (one relaxed load). */
    static bool
    active()
    {
        return installed.load(std::memory_order_acquire) != nullptr;
    }

    /** Microseconds since this recorder was constructed. */
    std::uint64_t
    nowUs() const
    {
        return tsOf(std::chrono::steady_clock::now());
    }

    /** @p t on this recorder's trace timeline (µs since epoch). */
    std::uint64_t
    tsOf(std::chrono::steady_clock::time_point t) const
    {
        if (t <= epoch)
            return 0;
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                t - epoch)
                .count());
    }

    /** Record one complete event starting at @p ts_us. */
    void complete(const char *name, const char *category,
                  std::uint64_t ts_us, std::uint64_t dur_us);

    /** Events recorded so far (excluding dropped ones). */
    std::size_t eventCount() const;

    /** Events refused because the buffer was full. */
    std::uint64_t droppedCount() const;

    /** Write the Chrome Trace Event Format JSON document. */
    void writeJson(std::ostream &os) const;

    /** writeJson() to @p path; false plus @p error on I/O failure. */
    bool writeJsonFile(const std::string &path,
                       std::string *error) const;

  private:
    static std::atomic<TraceRecorder *> installed;

    const std::chrono::steady_clock::time_point epoch;

    mutable std::mutex mtx;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
};

/**
 * RAII complete-event span.  Construction snapshots the start time
 * when a recorder is active; destruction records the event.  The
 * name and category must outlive the span (string literals).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, const char *category = "mech")
        : name(name), category(category),
          recorder(TraceRecorder::current())
    {
        if (recorder)
            startUs = recorder->nowUs();
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (recorder) {
            recorder->complete(name, category, startUs,
                               recorder->nowUs() - startUs);
        }
    }

  private:
    const char *name;
    const char *category;
    TraceRecorder *recorder;
    std::uint64_t startUs = 0;
};

} // namespace mech::obs

#endif // MECH_OBS_TRACE_HH
