/**
 * @file
 * Tests for the benchmark harness: the measurement core
 * (src/common/bench.hh) and the JSON artifact / baseline-comparison
 * layer (bench/harness.hh).
 */

#include <chrono>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/bench.hh"
#include "harness.hh"

namespace mech::bench {
namespace {

// ---- measurement core -------------------------------------------------------

TEST(BenchTiming, MonotonicClockNeverGoesBackwards)
{
    double last = monotonicSeconds();
    for (int i = 0; i < 1000; ++i) {
        double now = monotonicSeconds();
        ASSERT_GE(now, last);
        last = now;
    }
}

TEST(BenchTiming, MeasureCountsEveryRepetition)
{
    MeasureOptions opts;
    opts.repetitions = 4;
    opts.minSeconds = 0.0;  // no calibration growth
    opts.warmupIters = 2;

    int calls = 0;
    Measurement m = measure([&] { ++calls; }, opts);

    EXPECT_EQ(m.itersPerRep, 1u);
    EXPECT_EQ(m.repSecondsPerIter.size(), 4u);
    // warmup (2) + calibration-as-first-rep (1) + 3 further reps.
    EXPECT_EQ(calls, 6);
}

TEST(BenchTiming, MinOfNSelectsTheFastestRepetition)
{
    MeasureOptions opts;
    opts.repetitions = 5;
    opts.minSeconds = 0.0;

    Measurement m = measure(
        [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); },
        opts);

    ASSERT_EQ(m.repSecondsPerIter.size(), 5u);
    double min_rep = m.repSecondsPerIter.front();
    for (double s : m.repSecondsPerIter)
        min_rep = std::min(min_rep, s);
    EXPECT_DOUBLE_EQ(m.secondsPerIter, min_rep);
    // A 200us sleep can never complete faster than 200us.
    EXPECT_GE(m.secondsPerIter, 200e-6);
}

TEST(BenchTiming, CalibrationMeetsTheTimeFloor)
{
    MeasureOptions opts;
    opts.repetitions = 1;
    opts.minSeconds = 0.005;

    // The optimizer barrier keeps the body at a real (sub-us) cost,
    // so the calibration loop must raise the iteration count to
    // reach the floor.
    Measurement m = measure(
        [] {
            for (int i = 0; i < 256; ++i)
                doNotOptimize(i);
        },
        opts);

    EXPECT_GT(m.itersPerRep, 1u);
    // One repetition of itersPerRep iterations must have lasted at
    // least the floor (halved for clock noise).
    EXPECT_GE(m.secondsPerIter * static_cast<double>(m.itersPerRep),
              opts.minSeconds * 0.5);
}

TEST(BenchTiming, RateInvertsSecondsPerIteration)
{
    Measurement m;
    m.secondsPerIter = 0.25;
    EXPECT_DOUBLE_EQ(m.rate(100.0), 400.0);
    Measurement zero;
    EXPECT_DOUBLE_EQ(zero.rate(100.0), 0.0);
}

// ---- JSON artifacts ---------------------------------------------------------

BenchReport
sampleReport()
{
    BenchReport r;
    r.generator = "unit-test";
    r.gitSha = "abc1234";
    r.compiler = "gcc 12.2.0";
    r.buildType = "Release";
    r.add("suiteA", "bench1", "throughput", 1.25e8, "insns/s");
    r.add("suiteA", "bench2", "latency", 3.5e-6, "s");
    r.add("suiteB", "we\"ird\\name", "value", -42.5, "x");
    return r;
}

TEST(BenchArtifact, JsonRoundTripPreservesEverything)
{
    BenchReport before = sampleReport();
    std::stringstream ss;
    writeReportJson(before, ss);

    BenchReport after = parseReportJson(ss);
    EXPECT_EQ(after.schemaVersion, kBenchSchemaVersion);
    EXPECT_EQ(after.generator, before.generator);
    EXPECT_EQ(after.gitSha, before.gitSha);
    EXPECT_EQ(after.compiler, before.compiler);
    EXPECT_EQ(after.buildType, before.buildType);
    ASSERT_EQ(after.results.size(), before.results.size());
    for (std::size_t i = 0; i < before.results.size(); ++i) {
        EXPECT_EQ(after.results[i].suite, before.results[i].suite);
        EXPECT_EQ(after.results[i].benchmark,
                  before.results[i].benchmark);
        EXPECT_EQ(after.results[i].metric, before.results[i].metric);
        // 17 significant digits round-trip doubles exactly.
        EXPECT_EQ(after.results[i].value, before.results[i].value);
        EXPECT_EQ(after.results[i].unit, before.results[i].unit);
    }
}

TEST(BenchArtifact, EmptyResultsRoundTrip)
{
    BenchReport before = makeReport("empty");
    std::stringstream ss;
    writeReportJson(before, ss);
    BenchReport after = parseReportJson(ss);
    EXPECT_TRUE(after.results.empty());
    EXPECT_EQ(after.generator, "empty");
}

TEST(BenchArtifact, MakeReportFillsProvenance)
{
    BenchReport r = makeReport("prov");
    EXPECT_EQ(r.generator, "prov");
    EXPECT_FALSE(r.gitSha.empty());
    EXPECT_FALSE(r.compiler.empty());
    EXPECT_FALSE(r.buildType.empty());
}

TEST(BenchArtifact, RejectsMalformedJson)
{
    std::stringstream ss("{ not json ]");
    EXPECT_THROW(parseReportJson(ss), BenchIoError);
}

TEST(BenchArtifact, RejectsMissingSchemaVersion)
{
    std::stringstream ss(R"({"generator": "x", "results": []})");
    EXPECT_THROW(parseReportJson(ss), BenchIoError);
}

TEST(BenchArtifact, RejectsFutureSchemaVersions)
{
    std::stringstream ss(
        R"({"schema_version": 999, "generator": "x", "git_sha": "s",
            "compiler": "c", "build_type": "b", "results": []})");
    EXPECT_THROW(parseReportJson(ss), BenchIoError);
}

TEST(BenchArtifact, RejectsNonObjectResults)
{
    std::stringstream ss(
        R"({"schema_version": 1, "generator": "x", "git_sha": "s",
            "compiler": "c", "build_type": "b", "results": [1, 2]})");
    EXPECT_THROW(parseReportJson(ss), BenchIoError);
}

TEST(BenchArtifact, SaveAndLoadThroughAFile)
{
    BenchReport before = sampleReport();
    std::string path =
        ::testing::TempDir() + "/bench_harness_roundtrip.json";
    saveReport(before, path);
    BenchReport after = loadReport(path);
    ASSERT_EQ(after.results.size(), before.results.size());
    EXPECT_EQ(after.results[2].benchmark, "we\"ird\\name");
    EXPECT_EQ(after.results[2].value, -42.5);
}

TEST(BenchArtifact, HostFieldsRoundTrip)
{
    BenchReport before = sampleReport();
    recordHost(before);
    EXPECT_GT(before.logicalCores, 0u);
    EXPECT_FALSE(before.cpuModel.empty());
    std::stringstream ss;
    writeReportJson(before, ss);
    BenchReport after = parseReportJson(ss);
    EXPECT_EQ(after.logicalCores, before.logicalCores);
    EXPECT_EQ(after.cpuModel, before.cpuModel);
}

TEST(BenchArtifact, ReportsWithoutHostFieldsStayHostless)
{
    // Figure artifacts never record the host, and baselines written
    // before the host fields existed must still load.
    std::stringstream ss;
    writeReportJson(sampleReport(), ss);
    EXPECT_EQ(ss.str().find("logical_cores"), std::string::npos);
    BenchReport after = parseReportJson(ss);
    EXPECT_EQ(after.logicalCores, 0u);
    EXPECT_TRUE(after.cpuModel.empty());
}

TEST(BenchArtifact, CheckedInBaselineLoads)
{
    BenchReport base =
        loadReport(std::string(MECHSIM_SOURCE_DIR) + "/bench/baseline.json");
    EXPECT_EQ(base.generator, "mech_bench");
    EXPECT_FALSE(base.results.empty());
}

TEST(BenchArtifact, LoadOfMissingFileThrows)
{
    EXPECT_THROW(loadReport("/nonexistent/bench.json"), BenchIoError);
}

// ---- baseline comparison ----------------------------------------------------

TEST(BenchBaseline, UnitEncodesTheComparisonDirection)
{
    BenchRecord rate{"s", "b", "m", 1.0, "insns/s"};
    BenchRecord cost{"s", "b", "m", 1.0, "s"};
    BenchRecord speedup{"s", "b", "m", 2.0, "speedup"};
    BenchRecord ratio{"s", "b", "m", 2.0, "x"};
    EXPECT_TRUE(rate.higherIsBetter());
    EXPECT_FALSE(cost.higherIsBetter());
    // Speedups improve upward; bare "x" ratios (e.g. normalized
    // cycles) are costs.
    EXPECT_TRUE(speedup.higherIsBetter());
    EXPECT_FALSE(ratio.higherIsBetter());
}

TEST(BenchBaseline, ImprovedSpeedupNeverRegresses)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "parallel_speedup", 2.0, "speedup");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "parallel_speedup", 5.0, "speedup");

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_FALSE(cmp.compared[0].regressed);

    // And a collapse in scaling does regress.
    auto rev = compareToBaseline(base, cur, 2.0);
    ASSERT_EQ(rev.compared.size(), 1u);
    EXPECT_TRUE(rev.compared[0].regressed);
}

TEST(BenchBaseline, RateSlowdownComputedAsBaselineOverCurrent)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "throughput", 100.0, "evals/s");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "throughput", 40.0, "evals/s");

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_DOUBLE_EQ(cmp.compared[0].slowdown, 2.5);
    EXPECT_TRUE(cmp.compared[0].regressed);
    EXPECT_TRUE(cmp.anyRegression());
}

TEST(BenchBaseline, GenerousThresholdToleratesNoise)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "throughput", 100.0, "evals/s");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "throughput", 60.0, "evals/s"); // 1.67x slower

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_FALSE(cmp.compared[0].regressed);
    EXPECT_FALSE(cmp.anyRegression());
}

TEST(BenchBaseline, CostMetricsRegressWhenTheyGrow)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "wall", 1.0, "s");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "wall", 2.5, "s");

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_DOUBLE_EQ(cmp.compared[0].slowdown, 2.5);
    EXPECT_TRUE(cmp.compared[0].regressed);
}

TEST(BenchBaseline, SpeedupsNeverRegress)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "throughput", 100.0, "evals/s");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "throughput", 500.0, "evals/s");

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_DOUBLE_EQ(cmp.compared[0].slowdown, 0.2);
    EXPECT_FALSE(cmp.anyRegression());
}

TEST(BenchBaseline, UnitMismatchIsAlwaysARegression)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "throughput", 100.0, "evals/s");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "throughput", 100.0, "points/s");

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_TRUE(cmp.compared[0].regressed);
}

TEST(BenchBaseline, DegenerateValuesNeverGate)
{
    BenchReport base = makeReport("t");
    base.add("s", "b", "throughput", 0.0, "evals/s");
    BenchReport cur = makeReport("t");
    cur.add("s", "b", "throughput", 50.0, "evals/s");

    auto cmp = compareToBaseline(cur, base, 2.0);
    ASSERT_EQ(cmp.compared.size(), 1u);
    EXPECT_FALSE(cmp.compared[0].regressed);
}

TEST(BenchBaseline, UnmatchedRecordsAreReportedNotGated)
{
    BenchReport base = makeReport("t");
    base.add("s", "gone", "throughput", 1.0, "evals/s");
    BenchReport cur = makeReport("t");
    cur.add("s", "new", "throughput", 1.0, "evals/s");

    auto cmp = compareToBaseline(cur, base, 2.0);
    EXPECT_TRUE(cmp.compared.empty());
    ASSERT_EQ(cmp.missingInBaseline.size(), 1u);
    EXPECT_EQ(cmp.missingInBaseline[0].benchmark, "new");
    ASSERT_EQ(cmp.missingInCurrent.size(), 1u);
    EXPECT_EQ(cmp.missingInCurrent[0].benchmark, "gone");
    EXPECT_FALSE(cmp.anyRegression());
}

} // namespace
} // namespace mech::bench
