/**
 * @file
 * Shared machinery of the repository benchmark: options, the metric
 * catalog, the result report, the in-memory span recorder, and small
 * statistics and host helpers.
 *
 * The benchmark links mechsim like any other client and times calls
 * into each layer's public functions from outside; nothing here adds
 * instrumentation inside the library.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the Chrome trace is written to (trace runs). */
    std::string outDir = ".bench_out";
};

/** A derived seed: @p seed mixed with a per-use @p salt. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set size of this process in MB (VmHWM). */
double peakRssMb();

/** Logical cores available to this process. */
unsigned logicalCores();

/**
 * Worker count for mechsim's pools so that workers plus the calling
 * thread (which joins every parallelFor) stay within the logical
 * cores: cores - 1 workers, or the serial inline path on one core.
 */
unsigned poolThreads();

/** Current value of a MetricsRegistry counter. */
std::uint64_t registryCount(const std::string &name);

/** Current snapshot of a MetricsRegistry latency histogram. */
mech::obs::HistogramSnapshot registryHist(const std::string &name);

/** A metric of the catalog: name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run reports. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics every traced run reports. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * Result of one run: metrics, operation accounting, exact counts and
 * provenance.  emit() prints the provenance record line and then the
 * result object as the last line of standard output.
 */
class Report
{
  public:
    /** Set metric @p name (must be in the catalog of this run). */
    void set(const std::string &name, double value);

    /** Count @p n operations attempted. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failed operation and log why to stderr. */
    void fail(const std::string &what);

    /** attempt(); fail(@p what) unless @p ok.  Returns @p ok. */
    bool check(bool ok, const std::string &what);

    /** Record a count that must repeat exactly for a fixed seed. */
    void exact(const std::string &name, double value);

    /** Record a provenance field. */
    void note(const std::string &key, const std::string &value);

    /**
     * Take over @p other's operation counts and those of its metrics
     * whose names start with one of @p prefixes.
     */
    void absorb(const Report &other,
                const std::vector<std::string> &prefixes);

    /** Print the record line and then the result line. */
    void emit(const Options &opts);

  private:
    std::map<std::string, double> metrics;
    std::map<std::string, double> exacts;
    std::map<std::string, std::string> notes;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One recorded span (times in ns since the recorder's epoch). */
struct SpanRecord
{
    const char *name;
    /** Shared by every span of one request, sweep or search. */
    std::uint64_t traceId;
    std::uint64_t spanId;
    /** Enclosing span on the same thread (0 for a root). */
    std::uint64_t parentId;
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint32_t tid;
};

/**
 * In-memory span store for the traced run.  Disabled recorders make
 * every Span a no-op, so the untraced run pays one branch per span
 * site.  Spans are kept until the run ends, then written as a Chrome
 * trace and summarised per name.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return on; }
    void setEnabled(bool enabled) { on = enabled; }

    /** Nanoseconds since the recorder was made. */
    std::int64_t nowNs() const;

    /** A fresh id for a span or a trace. */
    std::uint64_t newId();

    /** Store a finished span. */
    void add(const SpanRecord &rec);

    /** Total duration in seconds of spans named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Durations in seconds of spans named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time in seconds of spans named @p name: each span's
     * duration minus the part its child spans cover.
     */
    double selfSeconds(const std::string &name) const;

    /** Write a Chrome Trace Event document; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on;
    const Clock::time_point epoch;
    mutable std::mutex mtx;
    std::vector<SpanRecord> recs;
    std::uint64_t nextId = 1;
};

/**
 * RAII span around one layer call.  Nested spans on one thread get
 * the enclosing span as parent and inherit its trace id unless one
 * is given.
 */
class Span
{
  public:
    Span(SpanRecorder &rec, const char *name, std::uint64_t trace_id = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder &rec;
    SpanRecord record{};
    Span *outer = nullptr;
};

/** Entry points of the three workloads. */
void runExplore(const Options &opts, Report &report, SpanRecorder &spans);
void runValidate(const Options &opts, Report &report, SpanRecorder &spans);
void runServe(const Options &opts, Report &report, SpanRecorder &spans);

/**
 * The serve workload's traced run as a layer probe: sets the serve.*
 * and admission.* per-layer metrics of @p report and counts its
 * operations, leaving every other metric alone.
 */
void probeServeLayers(const Options &opts, Report &report,
                      SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
