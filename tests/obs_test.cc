/**
 * @file
 * Tests for the observability layer: metrics primitives (log2 bucket
 * math, merge associativity, quantile edge cases, concurrent
 * recording), the metrics registry, the Prometheus exposition
 * renderer and validator, the Chrome-trace recorder, and the leveled
 * logging gate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace {

using namespace mech;

TEST(ObsHistogram, BucketBoundaries)
{
    // Bucket 0 holds exactly 0; bucket i >= 1 holds values whose bit
    // width is i, i.e. [2^(i-1), 2^i - 1].
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(0), 0u);
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(1), 1u);
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(2), 2u);
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(3), 2u);
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(4), 3u);
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(7), 3u);
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(8), 4u);
    EXPECT_EQ(obs::LatencyHistogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(obs::LatencyHistogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(obs::LatencyHistogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(obs::LatencyHistogram::bucketUpperBound(10), 1023u);

    // Every nonzero value lands in the bucket whose bounds bracket it.
    for (std::uint64_t v : {1ull, 2ull, 5ull, 100ull, 4095ull,
                            4096ull, 123456789ull}) {
        const std::size_t i = obs::LatencyHistogram::bucketIndex(v);
        EXPECT_LE(v, obs::LatencyHistogram::bucketUpperBound(i));
        ASSERT_GE(i, 1u);
        EXPECT_GT(v, obs::LatencyHistogram::bucketUpperBound(i - 1));
    }

    // Values beyond the top bucket's range clamp into it.
    const std::size_t top = obs::LatencyHistogram::kBuckets - 1;
    EXPECT_EQ(obs::LatencyHistogram::bucketIndex(~0ull), top);
}

TEST(ObsHistogram, RecordAndSnapshot)
{
    obs::LatencyHistogram h;
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(5);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count(), 4u);
    EXPECT_EQ(snap.sum, 11u);
    EXPECT_EQ(snap.buckets.at(0), 1u);
    EXPECT_EQ(snap.buckets.at(1), 1u);
    EXPECT_EQ(snap.buckets.at(3), 2u); // 5 has bit width 3
}

TEST(ObsHistogram, MergeAssociativityAndCommutativity)
{
    obs::LatencyHistogram ha, hb, hc;
    for (std::uint64_t v : {1ull, 3ull, 7ull})
        ha.record(v);
    for (std::uint64_t v : {10ull, 100ull})
        hb.record(v);
    for (std::uint64_t v : {0ull, 1000000ull})
        hc.record(v);

    // (a + b) + c
    obs::HistogramSnapshot left = ha.snapshot();
    left.merge(hb.snapshot());
    left.merge(hc.snapshot());
    // a + (b + c)
    obs::HistogramSnapshot bc = hb.snapshot();
    bc.merge(hc.snapshot());
    obs::HistogramSnapshot right = ha.snapshot();
    right.merge(bc);
    // c + b + a (commuted)
    obs::HistogramSnapshot commuted = hc.snapshot();
    commuted.merge(hb.snapshot());
    commuted.merge(ha.snapshot());

    EXPECT_EQ(left.count(), 7u);
    EXPECT_EQ(left.sum, right.sum);
    EXPECT_EQ(left.sum, commuted.sum);
    for (std::uint64_t k = 0; k <= left.buckets.maxKey(); ++k) {
        EXPECT_EQ(left.buckets.at(k), right.buckets.at(k)) << k;
        EXPECT_EQ(left.buckets.at(k), commuted.buckets.at(k)) << k;
    }
}

TEST(ObsHistogram, QuantileEmpty)
{
    obs::LatencyHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(ObsHistogram, QuantileSingleSample)
{
    obs::LatencyHistogram h;
    h.record(100); // bucket 7: [64, 127]
    const std::uint64_t bound =
        obs::LatencyHistogram::bucketUpperBound(
            obs::LatencyHistogram::bucketIndex(100));
    EXPECT_EQ(h.quantile(0.0), bound);
    EXPECT_EQ(h.quantile(0.5), bound);
    EXPECT_EQ(h.quantile(1.0), bound);
}

TEST(ObsHistogram, QuantileClampsArgument)
{
    obs::LatencyHistogram h;
    h.record(1);
    h.record(1000);
    EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(ObsHistogram, QuantileOverflowBucket)
{
    obs::LatencyHistogram h;
    h.record(~0ull); // clamps into the top bucket
    const std::size_t top = obs::LatencyHistogram::kBuckets - 1;
    EXPECT_EQ(h.quantile(0.99),
              obs::LatencyHistogram::bucketUpperBound(top));
}

TEST(ObsHistogram, QuantileOrdering)
{
    obs::LatencyHistogram h;
    for (int i = 0; i < 90; ++i)
        h.record(10); // bucket 4, bound 15
    for (int i = 0; i < 10; ++i)
        h.record(100000); // bucket 17, bound 131071
    EXPECT_EQ(h.quantile(0.5), 15u);
    EXPECT_EQ(h.quantile(0.99), 131071u);
    EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
    EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(ObsHistogram, ConcurrentIncrementStress)
{
    // Relaxed-atomic recording must lose no observations under
    // contention (run under TSan in CI).
    obs::LatencyHistogram h;
    obs::Counter counter;
    obs::Gauge gauge;
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                h.record(static_cast<std::uint64_t>(t * kIters + i));
                counter.inc();
                gauge.add(1);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(h.snapshot().count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(gauge.value(),
              static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(ObsCounter, ConcurrentIncrementsAreExact)
{
    // Twice as many threads as stripes, so stripes are shared and
    // every stripe sees both inc() and inc(n) (run under TSan in CI).
    obs::Counter counter;
    constexpr int kThreads = 2 * static_cast<int>(obs::Counter::kStripes);
    constexpr int kIters = 1000000;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&counter, &go, t] {
            // Start together so threads sharing a stripe overlap.
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kIters; ++i) {
                if (i % 2)
                    counter.inc(static_cast<std::uint64_t>(t) + 2);
                else
                    counter.inc();
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &w : workers)
        w.join();
    std::uint64_t expected = 0;
    for (int t = 0; t < kThreads; ++t)
        expected += (kIters / 2) * (1 + static_cast<std::uint64_t>(t) + 2);
    EXPECT_EQ(counter.value(), expected);
}

TEST(ObsRegistry, ReturnsStableReferences)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("test.hits", "help a");
    obs::Counter &b = reg.counter("test.hits");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);

    // Many registrations must not invalidate earlier references.
    for (int i = 0; i < 100; ++i)
        reg.counter("test.filler" + std::to_string(i));
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(reg.size(), 101u);
}

TEST(ObsRegistry, LaterHelpFillsAnEarlyLookup)
{
    // A reader (a test, the perfbench program) may look an instrument up
    // before the code that owns it registers it with help text.
    obs::MetricsRegistry reg;
    reg.counter("x");
    reg.counter("x", "help");
    reg.counter("x", "other help"); // the first help text stays

    std::ostringstream os;
    reg.renderPrometheus(os);
    EXPECT_NE(os.str().find("# HELP mech_x help\n"), std::string::npos)
        << os.str();
}

TEST(ObsRegistry, CollectsAllKinds)
{
    obs::MetricsRegistry reg;
    reg.counter("c.one", "a counter").inc(7);
    reg.gauge("g.one", "a gauge").set(-5);
    reg.histogram("h.one", "a histogram").record(42);

    const auto samples = reg.collect();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "c.one");
    EXPECT_EQ(samples[0].kind, obs::MetricKind::CounterKind);
    EXPECT_EQ(samples[0].value, 7);
    EXPECT_EQ(samples[1].name, "g.one");
    EXPECT_EQ(samples[1].value, -5);
    EXPECT_EQ(samples[2].kind, obs::MetricKind::HistogramKind);
    EXPECT_EQ(samples[2].hist.count(), 1u);
}

TEST(ObsRegistry, PrometheusNameMapping)
{
    EXPECT_EQ(obs::prometheusName("serve.latency.result"),
              "mech_serve_latency_result");
    EXPECT_EQ(obs::prometheusName("evalcache.shard3.hits"),
              "mech_evalcache_shard3_hits");
    EXPECT_EQ(obs::prometheusName("weird-name!x"),
              "mech_weird_name_x");
}

TEST(ObsRegistry, RenderedExpositionValidates)
{
    obs::MetricsRegistry reg;
    reg.counter("serve.requests", "Requests answered").inc(12);
    reg.gauge("serve.inflight", "In-flight requests").set(3);
    obs::LatencyHistogram &h =
        reg.histogram("serve.latency", "Latency \\ \"us\"\nmultiline");
    h.record(0);
    h.record(5);
    h.record(1000);

    std::ostringstream os;
    reg.renderPrometheus(os);
    const std::string text = os.str();

    std::string error;
    EXPECT_TRUE(obs::validateExposition(text, &error)) << error;
    EXPECT_NE(text.find("# TYPE mech_serve_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("mech_serve_requests 12"), std::string::npos);
    EXPECT_NE(text.find("# TYPE mech_serve_inflight gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE mech_serve_latency histogram"),
              std::string::npos);
    EXPECT_NE(text.find("mech_serve_latency_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("mech_serve_latency_sum 1005"),
              std::string::npos);
    EXPECT_NE(text.find("mech_serve_latency_count 3"),
              std::string::npos);
}

TEST(ObsRegistry, EmptyRegistryRendersValidEmptyExposition)
{
    obs::MetricsRegistry reg;
    std::ostringstream os;
    reg.renderPrometheus(os);
    std::string error;
    EXPECT_TRUE(obs::validateExposition(os.str(), &error)) << error;
}

TEST(ObsExposition, ValidatorAcceptsKnownGoodPayload)
{
    const std::string good =
        "# HELP http_requests_total The total number of requests.\n"
        "# TYPE http_requests_total counter\n"
        "http_requests_total{method=\"post\",code=\"200\"} 1027\n"
        "# TYPE rpc_duration_seconds histogram\n"
        "rpc_duration_seconds_bucket{le=\"0.05\"} 24054\n"
        "rpc_duration_seconds_bucket{le=\"0.1\"} 33444\n"
        "rpc_duration_seconds_bucket{le=\"+Inf\"} 34488\n"
        "rpc_duration_seconds_sum 53423\n"
        "rpc_duration_seconds_count 34488\n";
    std::string error;
    EXPECT_TRUE(obs::validateExposition(good, &error)) << error;
}

TEST(ObsExposition, ValidatorRejectsMalformedLines)
{
    std::string error;
    EXPECT_FALSE(obs::validateExposition("not a metric line\n",
                                         &error));
    EXPECT_FALSE(obs::validateExposition("123bad_name 1\n", &error));
    EXPECT_FALSE(obs::validateExposition("name notanumber\n", &error));
    EXPECT_FALSE(
        obs::validateExposition("# TYPE x notakind\n", &error));
    EXPECT_FALSE(obs::validateExposition(
        "name{unclosed=\"value\" 1\n", &error));
}

TEST(ObsExposition, ValidatorRejectsBrokenHistograms)
{
    // Non-cumulative buckets.
    const std::string decreasing =
        "# TYPE h histogram\n"
        "h_bucket{le=\"1\"} 10\n"
        "h_bucket{le=\"2\"} 5\n"
        "h_bucket{le=\"+Inf\"} 10\n"
        "h_sum 1\n"
        "h_count 10\n";
    std::string error;
    EXPECT_FALSE(obs::validateExposition(decreasing, &error));

    // Missing the +Inf bucket.
    const std::string noInf = "# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 10\n"
                              "h_sum 1\n"
                              "h_count 10\n";
    EXPECT_FALSE(obs::validateExposition(noInf, &error));

    // +Inf disagrees with _count.
    const std::string mismatch = "# TYPE h histogram\n"
                                 "h_bucket{le=\"+Inf\"} 10\n"
                                 "h_sum 1\n"
                                 "h_count 11\n";
    EXPECT_FALSE(obs::validateExposition(mismatch, &error));
}

TEST(ObsTrace, InactiveByDefault)
{
    EXPECT_EQ(obs::TraceRecorder::current(), nullptr);
    EXPECT_FALSE(obs::TraceRecorder::active());
    // Spans with no recorder are no-ops.
    { obs::TraceSpan span("noop", "test"); }
}

TEST(ObsTrace, RecordsSpansAndWritesValidChromeTrace)
{
    auto recorder = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::install(recorder.get());
    {
        obs::TraceSpan outer("outer", "test");
        obs::TraceSpan inner("inner", "test");
    }
    recorder->complete("explicit", "test", 10, 5);
    obs::TraceRecorder::install(nullptr);

    EXPECT_EQ(recorder->eventCount(), 3u);
    EXPECT_EQ(recorder->droppedCount(), 0u);

    std::ostringstream os;
    recorder->writeJson(os);
    std::string error;
    auto doc = json::parse(os.str(), &error);
    ASSERT_TRUE(doc) << error;

    const json::Value *events = doc->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    ASSERT_EQ(events->array.size(), 3u);
    for (const json::Value &ev : events->array) {
        const json::Value *ph = ev.get("ph");
        ASSERT_TRUE(ph && ph->isString());
        EXPECT_EQ(ph->string, "X");
        EXPECT_TRUE(ev.get("name") && ev.get("name")->isString());
        EXPECT_TRUE(ev.get("cat") && ev.get("cat")->isString());
        EXPECT_TRUE(ev.get("ts") && ev.get("ts")->isNumber());
        EXPECT_TRUE(ev.get("dur") && ev.get("dur")->isNumber());
        EXPECT_TRUE(ev.get("pid") && ev.get("pid")->isNumber());
        EXPECT_TRUE(ev.get("tid") && ev.get("tid")->isNumber());
    }
    // The explicit event round-trips its timestamps.
    const json::Value &last = events->array[2];
    EXPECT_EQ(last.get("name")->string, "explicit");
    EXPECT_EQ(last.get("ts")->number, 10.0);
    EXPECT_EQ(last.get("dur")->number, 5.0);
}

TEST(ObsTrace, ConcurrentSpansAreAllRecorded)
{
    auto recorder = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::install(recorder.get());
    constexpr int kThreads = 4;
    constexpr int kSpans = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kSpans; ++i)
                obs::TraceSpan span("work", "test");
        });
    }
    for (std::thread &w : workers)
        w.join();
    obs::TraceRecorder::install(nullptr);
    EXPECT_EQ(recorder->eventCount(),
              static_cast<std::size_t>(kThreads) * kSpans);
}

TEST(ObsTrace, DroppedEventsAdvanceTheRegistryCounter)
{
    obs::TraceRecorder recorder;
    obs::Counter &dropped =
        obs::MetricsRegistry::global().counter("trace.dropped_events");
    const std::uint64_t before = dropped.value();
    constexpr std::size_t kOver = 5;
    for (std::size_t i = 0; i < obs::TraceRecorder::kMaxEvents + kOver; ++i)
        recorder.complete("fill", "test", i, 1);
    EXPECT_EQ(recorder.eventCount(), obs::TraceRecorder::kMaxEvents);
    EXPECT_EQ(recorder.droppedCount(), kOver);
    EXPECT_EQ(dropped.value() - before, recorder.droppedCount());
}

TEST(ObsLogging, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("trace"), LogLevel::Trace);
    EXPECT_FALSE(parseLogLevel("loud").has_value());
    EXPECT_FALSE(parseLogLevel("").has_value());
}

TEST(ObsLogging, VerbosityGate)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    setLogLevel(LogLevel::Trace);
    EXPECT_TRUE(logEnabled(LogLevel::Trace));
    setLogLevel(before);
}

TEST(ObsLogging, RateLimiterThrottlesAndCounts)
{
    detail::LogRateLimiter limiter(1000 * 60 * 60); // one per hour
    std::uint64_t suppressed = 123;
    EXPECT_TRUE(limiter.allow(&suppressed));
    EXPECT_EQ(suppressed, 0u);
    // Every further call inside the interval is swallowed.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(limiter.allow(&suppressed));
}

} // namespace
