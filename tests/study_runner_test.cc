/**
 * @file
 * Tests for the parallel batch-evaluation engine: determinism of
 * evaluateAll across worker counts over the full 192-point Table 2
 * space, agreement with the plain serial DseStudy loop, ordering,
 * profile reuse across calls, registry-selected backend sets, and one
 * digest pinning every field of a wide model/ooo sweep.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "dse/study_runner.hh"
#include "eval/registry.hh"
#include "model/cpi_stack.hh"
#include "obs/registry.hh"
#include "search/space_spec.hh"
#include "test_util.hh"
#include "workload/suites.hh"

namespace {

using namespace mech;

constexpr InstCount kLen = 20000;

/** Exact (bitwise) equality of two backend results. */
void
expectSameResult(const EvalResult &a, const EvalResult &b,
                 const std::string &where)
{
    EXPECT_EQ(a.backend, b.backend) << where;
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.edp, b.edp) << where;
    EXPECT_EQ(a.hasStack, b.hasStack) << where;
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        auto comp = static_cast<CpiComponent>(c);
        EXPECT_EQ(a.stack[comp], b.stack[comp])
            << where << " component " << cpiComponentName(comp);
    }
    EXPECT_EQ(a.detail != nullptr, b.detail != nullptr) << where;
    if (a.detail && b.detail) {
        EXPECT_EQ(a.detail->cycles, b.detail->cycles) << where;
        EXPECT_EQ(a.detail->mispredicts, b.detail->mispredicts)
            << where;
    }
}

/**
 * expectSameResult plus every activity, energy and out-of-order
 * diagnostic field.
 */
void
expectSameFields(const EvalResult &a, const EvalResult &b,
                 const std::string &where)
{
    expectSameResult(a, b, where);
    const ActivityCounts &x = a.activity;
    const ActivityCounts &y = b.activity;
    EXPECT_EQ(x.cycles, y.cycles) << where;
    EXPECT_EQ(x.instructions, y.instructions) << where;
    EXPECT_EQ(x.l1iAccesses, y.l1iAccesses) << where;
    EXPECT_EQ(x.l1dAccesses, y.l1dAccesses) << where;
    EXPECT_EQ(x.l2Accesses, y.l2Accesses) << where;
    EXPECT_EQ(x.memAccesses, y.memAccesses) << where;
    EXPECT_EQ(x.branches, y.branches) << where;
    EXPECT_EQ(a.energy.coreDynamicJ, b.energy.coreDynamicJ) << where;
    EXPECT_EQ(a.energy.cacheDynamicJ, b.energy.cacheDynamicJ) << where;
    EXPECT_EQ(a.energy.memoryDynamicJ, b.energy.memoryDynamicJ) << where;
    EXPECT_EQ(a.energy.staticJ, b.energy.staticJ) << where;
    if (a.detail && b.detail) {
        EXPECT_EQ(a.detail->retired, b.detail->retired) << where;
        EXPECT_EQ(a.detail->dependencyStallCycles,
                  b.detail->dependencyStallCycles)
            << where;
    }
    EXPECT_EQ(static_cast<bool>(a.oooDetail),
              static_cast<bool>(b.oooDetail))
        << where;
    if (a.oooDetail && b.oooDetail) {
        EXPECT_EQ(a.oooDetail->cycles, b.oooDetail->cycles) << where;
        EXPECT_EQ(a.oooDetail->retired, b.oooDetail->retired) << where;
        EXPECT_EQ(a.oooDetail->mispredicts, b.oooDetail->mispredicts)
            << where;
        EXPECT_EQ(a.oooDetail->maxRobOccupancy,
                  b.oooDetail->maxRobOccupancy)
            << where;
    }
}

void
expectSameEvaluations(const std::vector<StudyResult> &a,
                      const std::vector<StudyResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].benchmark, b[r].benchmark);
        ASSERT_EQ(a[r].evals.size(), b[r].evals.size());
        for (std::size_t i = 0; i < a[r].evals.size(); ++i) {
            const PointEvaluation &ea = a[r].evals[i];
            const PointEvaluation &eb = b[r].evals[i];
            std::string where = a[r].benchmark + " point " +
                                std::to_string(i) + " (" +
                                ea.point.label() + ")";
            // Ordering: both sides must hold the same design point in
            // the same slot.
            EXPECT_EQ(ea.point.label(), eb.point.label()) << where;
            ASSERT_EQ(ea.results.size(), eb.results.size()) << where;
            for (std::size_t k = 0; k < ea.results.size(); ++k)
                expectSameResult(ea.results[k], eb.results[k], where);
        }
    }
}

TEST(StudyRunner, ParallelMatchesSerialOverFullTable2Space)
{
    auto space = table2Space();
    ASSERT_EQ(space.size(), 192u);

    StudyRunner serial({profileByName("sha")}, kLen);
    StudyRunner parallel({profileByName("sha")}, kLen);

    auto one = serial.evaluateAll(space, 1);
    auto many = parallel.evaluateAll(space, 4);

    expectSameEvaluations(one, many);
}

TEST(StudyRunner, MatchesThePlainSerialStudyLoop)
{
    auto space = table2Space();
    const BenchmarkProfile &bench = profileByName("dijkstra");

    // The pre-existing serial path: one study, one explicit loop.
    DseStudy study(bench, kLen);
    std::vector<PointEvaluation> loop;
    loop.reserve(space.size());
    for (const auto &point : space)
        loop.push_back(study.evaluate(point));

    StudyRunner runner({bench}, kLen);
    auto batched = runner.evaluateAll(space, 4);

    ASSERT_EQ(batched.size(), 1u);
    ASSERT_EQ(batched[0].evals.size(), loop.size());
    for (std::size_t i = 0; i < loop.size(); ++i) {
        expectSameResult(loop[i].model(), batched[0].evals[i].model(),
                         "point " + std::to_string(i));
    }
}

TEST(StudyRunner, ShardsMultipleBenchmarksDeterministically)
{
    // A small point list exercises the multi-benchmark sharding
    // without paying for the full space three times.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 24);

    std::vector<BenchmarkProfile> benches = {
        profileByName("sha"), profileByName("adpcm_d"),
        profileByName("patricia")};

    StudyRunner serial(benches, kLen);
    StudyRunner parallel(benches, kLen);

    auto one = serial.evaluateAll(points, 1);
    auto many = parallel.evaluateAll(points, 8);

    ASSERT_EQ(one.size(), benches.size());
    for (std::size_t b = 0; b < benches.size(); ++b)
        EXPECT_EQ(one[b].benchmark, benches[b].name);
    expectSameEvaluations(one, many);
}

TEST(StudyRunner, BitIdenticalAcrossTheThreadLadderOnOneRunner)
{
    // The dse_scaling benchmark's shape: ONE runner swept repeatedly
    // at 1, 2 and 8 workers, so the persistent pool is torn down and
    // rebuilt between calls and every ladder step reuses the same
    // warmed studies.  Every step must be bit-identical to the serial
    // sweep — the invariant the scaling fix must not bend.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 48);

    StudyRunner runner({profileByName("sha"), profileByName("gsm_c")},
                       kLen);
    auto one = runner.evaluateAll(points, 1);
    for (unsigned threads : {2u, 8u, 1u}) {
        auto step = runner.evaluateAll(points, threads);
        expectSameEvaluations(one, step);
    }
}

TEST(StudyRunner, ReusesProfilesAcrossCalls)
{
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 8);

    StudyRunner runner({profileByName("stringsearch")}, kLen);
    auto first = runner.evaluateAll(points, 2);
    auto second = runner.evaluateAll(points, 1);
    expectSameEvaluations(first, second);
}

TEST(StudyRunner, SimulationResultsAreDeterministicToo)
{
    // Detailed simulation replays the shared trace; a handful of
    // points keeps runtime modest while covering the sim path.
    auto space = table2Space();
    std::vector<DesignPoint> points = {space.front(), space[95],
                                       space.back()};

    StudyRunner serial({profileByName("qsort")}, kLen,
                       backendSet("model,sim"));
    StudyRunner parallel({profileByName("qsort")}, kLen,
                         backendSet("model,sim"));

    auto one = serial.evaluateAll(points, 1);
    auto many = parallel.evaluateAll(points, 4);

    ASSERT_EQ(many[0].evals.size(), 3u);
    for (const auto &ev : many[0].evals) {
        EXPECT_TRUE(ev.has(kSimBackend));
        EXPECT_NE(ev.sim()->detail, nullptr);
        EXPECT_TRUE(ev.cpiError().has_value());
    }
    expectSameEvaluations(one, many);
}

TEST(StudyRunner, RegistrySelectedBackendSetIsDeterministic)
{
    // Any registry-selected combination must shard deterministically:
    // here both mechanistic models ("model,ooo") over a slice of the
    // space, 1 vs N threads.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 16);

    StudyRunner serial({profileByName("tiffdither")}, kLen,
                       backendSet("model,ooo"));
    StudyRunner parallel({profileByName("tiffdither")}, kLen,
                         backendSet("model,ooo"));

    auto one = serial.evaluateAll(points, 1);
    auto many = parallel.evaluateAll(points, 8);

    // Result order mirrors backend-set order.
    ASSERT_EQ(one[0].evals[0].results.size(), 2u);
    EXPECT_EQ(one[0].evals[0].results[0].backend, kModelBackend);
    EXPECT_EQ(one[0].evals[0].results[1].backend, kOooBackend);
    EXPECT_TRUE(one[0].evals[0].results[1].hasStack);
    // No sim ran, so the model/sim error must be absent, not 0.
    EXPECT_FALSE(one[0].evals[0].cpiError().has_value());
    expectSameEvaluations(one, many);
}

TEST(StudyRunner, FreshSweepMatchesEvaluateIntoReusedSlots)
{
    // A fresh evaluateAll builds its slots itself; evaluateInto into
    // slots already used by another backend set (longer first, then
    // shorter) must give the same results field by field, in
    // backend-set order.
    auto space = table2Space();
    const std::vector<DesignPoint> points = {space[0], space[77],
                                             space[150], space.back()};
    const BenchmarkProfile &bench = profileByName("qsort");
    DseStudy study(bench, kLen);
    std::vector<PointEvaluation> slots(points.size());
    for (const char *csv : {"model,sim,ooo,oosim", "model",
                            "model,sim,ooo,oosim"}) {
        SCOPED_TRACE(csv);
        const BackendSet set = backendSet(csv);
        StudyRunner runner({bench}, kLen, set);
        const auto fresh = runner.evaluateAll(points, 2);
        ASSERT_EQ(fresh.size(), 1u);
        ASSERT_EQ(fresh[0].evals.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            study.evaluateInto(slots[i], points[i], set);
            const PointEvaluation &a = fresh[0].evals[i];
            const PointEvaluation &b = slots[i];
            EXPECT_TRUE(a.point == points[i]);
            EXPECT_TRUE(b.point == points[i]);
            ASSERT_EQ(a.results.size(), set.size());
            ASSERT_EQ(b.results.size(), set.size());
            for (std::size_t k = 0; k < set.size(); ++k) {
                const std::string where =
                    points[i].label() + " backend " + std::to_string(k);
                EXPECT_EQ(a.results[k].backend, set[k]->name()) << where;
                expectSameFields(a.results[k], b.results[k], where);
            }
        }
    }
}

/** Fold every field of @p r into the FNV digest @p hash. */
std::uint64_t
foldResult(std::uint64_t hash, const EvalResult &r)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    std::vector<std::uint64_t> fields;
    for (char ch : r.backend)
        fields.push_back(static_cast<unsigned char>(ch));
    fields.push_back(bits(r.cycles));
    for (std::size_t c = 0; c < kNumCpiComponents; ++c)
        fields.push_back(bits(r.stack[static_cast<CpiComponent>(c)]));
    fields.push_back(r.hasStack);
    fields.push_back(r.instructions);
    const ActivityCounts &a = r.activity;
    const EnergyBreakdown &e = r.energy;
    for (double v : {a.cycles, a.instructions, a.l1iAccesses, a.l1dAccesses,
                     a.l2Accesses, a.memAccesses, a.branches, e.coreDynamicJ,
                     e.cacheDynamicJ, e.memoryDynamicJ, e.staticJ, r.edp})
        fields.push_back(bits(v));
    fields.push_back(r.detail != nullptr);
    fields.push_back(r.oooDetail != nullptr);
    return test::fnvFold(hash, fields);
}

TEST(StudyRunner, ModelSweepDigestPinned)
{
    // Every bit of every closed-form result over the wide preset:
    // a change to how results are derived (or to what the backends
    // count around them) must leave this digest, and the exact
    // per-backend evaluation counts, untouched.
    constexpr std::uint64_t kPinned = 2559593438626608402ull;
    const SpaceSpec wide = SpaceSpec::wide();
    std::vector<DesignPoint> points;
    points.reserve(wide.size());
    for (std::uint64_t i = 0; i < wide.size(); ++i)
        points.push_back(wide.at(i));

    const std::vector<BenchmarkProfile> benches = {
        profileByName("sha"), profileByName("dijkstra"),
        profileByName("qsort"), profileByName("mcf")};
    StudyRunner runner(benches, 30000, backendSet("model,ooo"));
    auto &reg = obs::MetricsRegistry::global();
    obs::Counter &model_evals = reg.counter("eval.backend.model.evals");
    obs::Counter &ooo_evals = reg.counter("eval.backend.ooo.evals");
    const std::uint64_t per_backend = benches.size() * wide.size();

    for (unsigned threads : {1u, 4u}) {
        const std::uint64_t model_before = model_evals.value();
        const std::uint64_t ooo_before = ooo_evals.value();
        const auto results = runner.evaluateAll(points, threads);
        std::uint64_t hash = test::kFnvBasis;
        for (const StudyResult &study : results) {
            for (const PointEvaluation &ev : study.evals) {
                for (const EvalResult &r : ev.results)
                    hash = foldResult(hash, r);
            }
        }
        EXPECT_EQ(hash, kPinned) << "at " << threads << " thread(s)";
        EXPECT_EQ(model_evals.value() - model_before, per_backend);
        EXPECT_EQ(ooo_evals.value() - ooo_before, per_backend);
    }
}

} // namespace
