#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include <sched.h>

#include "common/json.hh"
#include "obs/registry.hh"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over the pair: decorrelates nearby seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z ? z : 1;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

unsigned
logicalCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
poolThreads()
{
    const unsigned cores = logicalCores();
    return cores > 2 ? cores - 1 : cores;
}

std::uint64_t
registryCount(const std::string &name)
{
    return mech::obs::MetricsRegistry::global().counter(name).value();
}

mech::obs::HistogramSnapshot
registryHist(const std::string &name)
{
    return mech::obs::MetricsRegistry::global().histogram(name).snapshot();
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"evals_per_s", "1/s"},
        {"search_evals_per_s", "1/s"},
        {"requests_per_s", "1/s"},
        {"p50_ms", "ms"},
        {"p95_ms", "ms"},
        {"cpi_error_mean_pct", "%"},
        {"cpi_error_max_pct", "%"},
        {"ooo_cpi_error_mean_pct", "%"},
        {"heldout_cpi_error_mean_pct", "%"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workload.trace_s", "s"},
        {"profiler.profile_s", "s"},
        {"profiler.insns_per_s", "1/s"},
        {"cache.prepare_s", "s"},
        {"cache.geometries", "count"},
        {"setup.self_s", "s"},
        {"model.eval_us", "us"},
        {"model.evals", "count"},
        {"ooo.eval_us", "us"},
        {"sim.cycles_per_s", "1/s"},
        {"sim.busy_s", "s"},
        {"sim.calls", "count"},
        {"oosim.cycles_per_s", "1/s"},
        {"oosim.busy_s", "s"},
        {"oosim.calls", "count"},
        {"dse.sweep_s", "s"},
        {"dse.serial_sweep_s", "s"},
        {"dse.parallel_efficiency", "ratio"},
        {"dse.points_evaluated", "count"},
        {"pool.chunk_us_p50", "us"},
        {"search.run_s", "s"},
        {"search.requested", "count"},
        {"search.misses", "count"},
        {"search.cache_hit_ratio", "ratio"},
        {"search.frontier_size", "count"},
        {"serve.parse_us", "us"},
        {"serve.flush_us", "us"},
        {"serve.requests_per_flush", "count"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.misses", "count"},
        {"serve.session_us_per_request", "us"},
        {"serve.tcp_us_per_request", "us"},
        {"serve.frontend_us_per_request", "us"},
        {"admission.queue_wait_us_p50", "us"},
        {"serve.shed", "count"},
        {"serve.p99_ms", "ms"},
        {"trace_overhead_pct", "%"},
    };
    return defs;
}

void
Report::set(const std::string &name, double value)
{
    metrics[name] = value;
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
}

bool
Report::check(bool ok, const std::string &what)
{
    attempt();
    if (!ok)
        fail(what);
    return ok;
}

void
Report::exact(const std::string &name, double value)
{
    exacts[name] = value;
}

void
Report::note(const std::string &key, const std::string &value)
{
    notes[key] = value;
}

void
Report::absorb(const Report &other, const std::vector<std::string> &prefixes)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &[name, value] : other.metrics) {
        for (const std::string &p : prefixes) {
            if (name.rfind(p, 0) == 0)
                metrics[name] = value;
        }
    }
}

namespace {

/** A metric value with all its digits (JSON has no NaN/Inf). */
void
writeValue(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0)
        os << static_cast<std::int64_t>(v);
    else
        mech::json::writeNumber(os, v);
}

} // namespace

void
Report::emit(const Options &opts)
{
    const auto &catalog = opts.trace ? perLayerMetrics() : endToEndMetrics();
    // A catalog metric the workload did not set is a benchmark bug;
    // report it as a failed operation rather than print a made-up 0.
    // Per-layer metrics of layers a workload never calls are 0 by
    // definition (no work done), so only end-to-end ones must be set.
    for (const MetricDef &def : catalog) {
        if (!metrics.count(def.name)) {
            if (opts.trace)
                metrics[def.name] = 0.0;
            else
                fail(std::string("metric not measured: ") + def.name);
        }
    }

    std::ostringstream rec;
    rec << "{\"record\": {\"workload\": ";
    mech::json::writeString(rec, opts.workload);
    rec << ", \"seed\": " << opts.seed << ", \"trace\": "
        << (opts.trace ? 1 : 0) << ", \"host\": {";
    bool first = true;
    for (const auto &[k, v] : notes) {
        rec << (first ? "" : ", ");
        first = false;
        mech::json::writeString(rec, k);
        rec << ": ";
        mech::json::writeString(rec, v);
    }
    rec << "}, \"exact_counts\": {";
    first = true;
    for (const auto &[k, v] : exacts) {
        rec << (first ? "" : ", ");
        first = false;
        mech::json::writeString(rec, k);
        rec << ": ";
        writeValue(rec, v);
    }
    rec << "}}}";

    std::ostringstream res;
    res << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
        << ", \"failed\": " << failed_ << ", \"metrics\": {";
    first = true;
    for (const MetricDef &def : catalog) {
        res << (first ? "" : ", ");
        first = false;
        mech::json::writeString(res, def.name);
        res << ": {\"value\": ";
        writeValue(res, metrics[def.name]);
        res << ", \"unit\": ";
        mech::json::writeString(res, def.unit);
        res << "}";
    }
    res << "}}";

    std::cout << rec.str() << "\n" << res.str() << "\n" << std::flush;
}

SpanRecorder::SpanRecorder(bool enabled)
    : on(enabled), epoch(Clock::now())
{
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

std::uint64_t
SpanRecorder::newId()
{
    std::lock_guard<std::mutex> lock(mtx);
    return nextId++;
}

void
SpanRecorder::add(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lock(mtx);
    recs.push_back(rec);
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mtx);
    for (const SpanRecord &r : recs) {
        if (name == r.name)
            out.push_back(static_cast<double>(r.endNs - r.startNs) * 1e-9);
    }
    return out;
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (double d : durations(name))
        total += d;
    return total;
}

double
SpanRecorder::selfSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::map<std::uint64_t, std::int64_t> self;
    for (const SpanRecord &r : recs) {
        if (name == r.name)
            self[r.spanId] += r.endNs - r.startNs;
    }
    // Children of one span run on its thread one after another, so
    // their durations do not overlap and simply subtract.
    for (const SpanRecord &r : recs) {
        auto it = self.find(r.parentId);
        if (it != self.end())
            it->second -= r.endNs - r.startNs;
    }
    std::int64_t total = 0;
    for (const auto &[id, ns] : self)
        total += ns;
    return static_cast<double>(total) * 1e-9;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mtx);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SpanRecord &r = recs[i];
        os << (i ? ",\n" : "") << "{\"name\": ";
        mech::json::writeString(os, r.name);
        os << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << r.tid << std::fixed << std::setprecision(3)
           << ", \"ts\": " << static_cast<double>(r.startNs) * 1e-3
           << ", \"dur\": "
           << static_cast<double>(r.endNs - r.startNs) * 1e-3
           << std::defaultfloat << ", \"args\": {\"trace_id\": "
           << r.traceId << ", \"span_id\": " << r.spanId
           << ", \"parent_id\": " << r.parentId << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

namespace {

thread_local Span *innermost = nullptr;

std::uint32_t
threadOrdinal()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id = next.fetch_add(1);
    return id;
}

} // namespace

Span::Span(SpanRecorder &rec, const char *name, std::uint64_t trace_id)
    : rec(rec)
{
    if (!rec.enabled())
        return;
    outer = innermost;
    innermost = this;
    record.name = name;
    record.spanId = rec.newId();
    record.parentId = outer ? outer->record.spanId : 0;
    record.traceId = trace_id   ? trace_id
                     : outer    ? outer->record.traceId
                                : record.spanId;
    record.tid = threadOrdinal();
    record.startNs = rec.nowNs();
}

Span::~Span()
{
    if (!record.name)
        return;
    record.endNs = rec.nowNs();
    innermost = outer;
    rec.add(record);
}

} // namespace perfbench
