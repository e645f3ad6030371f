/**
 * @file
 * Tests for the cycle-accurate out-of-order pipeline (src/oosim/):
 * micro-trace tests that isolate one mechanism at a time (dynamic
 * scheduling, FU-port and result-bus contention, ROB/issue-queue
 * limits, branch handling, memory-level parallelism) against exact
 * hand-derived cycle counts, determinism and full-workload checks
 * against the in-order reference, and the golden validation of the
 * out-of-order interval model against this simulator over a seeded
 * design-space sample.
 */

#include <algorithm>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "test_util.hh"

namespace mech {
namespace {

using test::TraceBuilder;
using test::idealCycles;
using test::idealSim;

/**
 * Idealized out-of-order configuration: perfect memory, no predictor
 * noise, and enough ALU issue ports and result buses to sustain the
 * requested width (the OooParams defaults are a balanced 4-wide
 * machine but only carry three simple ALUs).
 */
OoOSimConfig
idealOoO(std::uint32_t width = 4, std::uint32_t frontend_depth = 2)
{
    OoOSimConfig cfg;
    cfg.core = idealSim(width, frontend_depth);
    cfg.ooo.fuAlu = std::max(cfg.ooo.fuAlu, width);
    cfg.ooo.resultBuses = std::max(cfg.ooo.resultBuses, width);
    return cfg;
}

// ---- ideal streaming -------------------------------------------------------

class OoOIdealStreaming
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(OoOIdealStreaming, HazardFreeTraceRunsAtFullWidth)
{
    auto [w, n] = GetParam();
    Trace tr = TraceBuilder().filler(n).build();
    OoOSimResult res = simulateOutOfOrder(tr, idealOoO(w, 2));
    // Fetch, dispatch, schedule, execute and retire all sustain W per
    // cycle, so the out-of-order pipeline matches the in-order ideal:
    // ceil(N/W) issue groups plus the same fill.
    EXPECT_EQ(res.cycles, idealCycles(n, w, 2));
    EXPECT_EQ(res.retired, static_cast<InstCount>(n));
    EXPECT_EQ(res.robStallCycles, 0u);
    EXPECT_EQ(res.iqStallCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLengths, OoOIdealStreaming,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1, 4, 7, 64, 400)));

TEST(OoOSim, DeeperFrontEndOnlyAddsFill)
{
    Trace tr = TraceBuilder().filler(100).build();
    Cycles d2 = simulateOutOfOrder(tr, idealOoO(4, 2)).cycles;
    Cycles d6 = simulateOutOfOrder(tr, idealOoO(4, 6)).cycles;
    EXPECT_EQ(d6, d2 + 4);
}

TEST(OoOSim, EmptyTraceIsZeroCycles)
{
    Trace tr;
    OoOSimResult res = simulateOutOfOrder(tr, idealOoO());
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.retired, 0u);
}

// ---- dynamic scheduling ----------------------------------------------------

TEST(OoOSim, SerialChainIssuesBackToBack)
{
    // Every instruction consumes the previous one: issue is bound to
    // one per cycle, but the writeback-before-select half-cycle rule
    // means a unit-latency producer feeds its consumer in the very
    // next cycle — the chain costs N cycles plus fill, the same as an
    // independent stream at W=1.
    TraceBuilder b;
    b.alu(8);
    for (int i = 1; i < 100; ++i)
        b.alu(static_cast<RegIndex>(8 + i % 20),
              static_cast<RegIndex>(8 + (i - 1) % 20));
    Trace tr = b.build();
    OoOSimResult res = simulateOutOfOrder(tr, idealOoO(4, 2));
    EXPECT_EQ(res.cycles, 100u + 4u);
}

TEST(OoOSim, IndependentLongLatencyOpsOverlap)
{
    // Four independent long multiplies issue together (four
    // multiplier ports) and overlap completely: the group costs one
    // latency at the in-order retire point, not four.  The in-order
    // pipeline serializes them in the execute stage — the defining
    // contrast with dynamic scheduling.
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.core.machine.latIntMult = 16;
    cfg.ooo.fuMul = 4;
    TraceBuilder b;
    for (int i = 0; i < 4; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(24 + i));
    Trace tr = b.filler(77).build();
    Trace plain = TraceBuilder().filler(81).build();
    Cycles with_mul = simulateOutOfOrder(tr, cfg).cycles;
    Cycles without = simulateOutOfOrder(plain, cfg).cycles;
    // The overlapped group exposes at most one latency end to end.
    EXPECT_LE(with_mul, without + 16 + 2);

    SimConfig in_order = idealSim(4, 2);
    in_order.machine.latIntMult = 16;
    // In order, the three serialized extra latencies are all exposed.
    EXPECT_GE(simulateInOrder(tr, in_order).cycles, with_mul + 2 * 16);
}

// ---- functional-unit ports -------------------------------------------------

TEST(OoOSim, MultipliesPipelineThroughOneUnit)
{
    // Fully pipelined issue ports: one multiplier accepts one new
    // multiply per cycle, so N independent multiplies of latency L
    // finish in N + L + fill cycles, not N*L.
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.core.machine.latIntMult = 4;
    cfg.ooo.fuMul = 1;
    TraceBuilder b;
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i));
    Trace tr = b.build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    EXPECT_EQ(res.cycles, 10u + 4u + 3u);
    EXPECT_GT(res.fuStallEvents, 0u);
}

TEST(OoOSim, SecondMultiplierDoublesIssueBandwidth)
{
    OoOSimConfig one = idealOoO(4, 2);
    one.core.machine.latIntMult = 4;
    one.ooo.fuMul = 1;
    OoOSimConfig two = one;
    two.ooo.fuMul = 2;
    TraceBuilder b;
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i));
    Trace tr = b.build();
    // Two units issue two per cycle: ceil(N/2) + L + fill.
    EXPECT_EQ(simulateOutOfOrder(tr, two).cycles, 5u + 4u + 3u);
    EXPECT_LT(simulateOutOfOrder(tr, two).cycles,
              simulateOutOfOrder(tr, one).cycles);
}

// ---- result buses ----------------------------------------------------------

TEST(OoOSim, ResultBusContentionBoundsCompletion)
{
    // Four ALUs complete per cycle but a single result bus grants one
    // writeback per cycle (oldest first): throughput collapses to one
    // retirement per cycle.
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.ooo.resultBuses = 1;
    Trace tr = TraceBuilder().filler(40).build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    EXPECT_EQ(res.cycles, 40u + 4u);
    EXPECT_GT(res.busStallEvents, 0u);
}

// ---- ROB / issue-queue limits ----------------------------------------------

TEST(OoOSim, SingleEntryIssueQueueSerializesDispatch)
{
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.ooo.iqSize = 1;
    Trace tr = TraceBuilder().filler(50).build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    // One reservation-station slot admits one instruction per cycle.
    EXPECT_EQ(res.cycles, 50u + 4u);
    EXPECT_GT(res.iqStallCycles, 0u);
    EXPECT_EQ(res.maxIqOccupancy, 1u);
}

TEST(OoOSim, TinyRobThrottlesThroughput)
{
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.ooo.robSize = 4;
    Trace tr = TraceBuilder().filler(64).build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    EXPECT_GT(res.cycles, idealCycles(64, 4, 2));
    EXPECT_GT(res.robStallCycles, 0u);
    EXPECT_EQ(res.maxRobOccupancy, 4u);
    EXPECT_EQ(res.retired, 64u);
}

// ---- memory-level parallelism ----------------------------------------------

TEST(OoOSim, IndependentMissesOverlapInTheWindow)
{
    // Two independent cold misses to different lines issue together
    // (two memory ports) and overlap almost completely — MLP emerges
    // from the window, with no MLP constant anywhere.
    SimConfig core;
    core.machine = idealSim(4, 2).machine;
    core.perfectICache = true;
    core.perfectTlbs = true;
    OoOSimConfig cfg;
    cfg.core = core;

    Trace two = TraceBuilder()
                    .load(8, 0x10000000)
                    .load(9, 0x20000000)
                    .filler(8)
                    .build();
    Trace one = TraceBuilder()
                    .load(8, 0x10000000)
                    .alu(9)
                    .filler(8)
                    .build();
    Cycles c_two = simulateOutOfOrder(two, cfg).cycles;
    Cycles c_one = simulateOutOfOrder(one, cfg).cycles;
    EXPECT_LE(c_two, c_one + 2);
}

TEST(OoOSim, DependentMissesSerialize)
{
    // A pointer-chase pair (the second load's address register is the
    // first load's result) pays both latencies end to end.
    SimConfig core;
    core.machine = idealSim(4, 2).machine;
    core.perfectICache = true;
    core.perfectTlbs = true;
    OoOSimConfig cfg;
    cfg.core = core;

    Trace chased = TraceBuilder()
                       .load(8, 0x10000000)
                       .load(9, 0x20000000, 8)
                       .filler(8)
                       .build();
    Trace indep = TraceBuilder()
                      .load(8, 0x10000000)
                      .load(9, 0x20000000)
                      .filler(8)
                      .build();
    Cycles miss = core.machine.l2HitCycles + core.machine.memCycles;
    EXPECT_GE(simulateOutOfOrder(chased, cfg).cycles,
              simulateOutOfOrder(indep, cfg).cycles + miss - 2);
}

TEST(OoOSim, StoresNeverBlockRetirement)
{
    SimConfig core;
    core.machine = idealSim(4, 2).machine;
    core.perfectICache = true;
    core.perfectTlbs = true;
    OoOSimConfig cfg;
    cfg.core = core;
    Trace with_store =
        TraceBuilder().filler(10).store(0x10000000).filler(10).build();
    Trace with_alu = TraceBuilder().filler(10).alu(8).filler(10).build();
    EXPECT_EQ(simulateOutOfOrder(with_store, cfg).cycles,
              simulateOutOfOrder(with_alu, cfg).cycles);
}

// ---- branches --------------------------------------------------------------

TEST(OoOSim, CorrectTakenBranchCostsOneBubble)
{
    OoOSimConfig cfg = idealOoO(1, 2);
    cfg.core.predictor = PredictorKind::Taken;
    Trace with_branch =
        TraceBuilder().filler(20).branch(true).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    OoOSimResult res = simulateOutOfOrder(with_branch, cfg);
    EXPECT_EQ(res.cycles,
              simulateOutOfOrder(plain, cfg).cycles + 1);
    EXPECT_EQ(res.predictedTakenCorrect, 1u);
    EXPECT_EQ(res.mispredicts, 0u);
    EXPECT_GT(res.takenBubbleCycles, 0u);
}

TEST(OoOSim, MispredictStallsFetchUntilWriteback)
{
    // A ready mispredicted branch traverses dispatch (D-1 cycles
    // behind fetch), one schedule cycle and one execute cycle before
    // its writeback restarts the front end: D+1 lost fetch cycles.
    for (std::uint32_t d : {2u, 4u, 6u}) {
        OoOSimConfig cfg = idealOoO(1, d);
        cfg.core.predictor = PredictorKind::NotTaken;
        Trace with_miss =
            TraceBuilder().filler(20).branch(true).filler(20).build();
        Trace plain =
            TraceBuilder().filler(20).alu(8).filler(20).build();
        OoOSimResult res = simulateOutOfOrder(with_miss, cfg);
        EXPECT_EQ(res.mispredicts, 1u);
        EXPECT_EQ(res.cycles,
                  simulateOutOfOrder(plain, cfg).cycles + d + 1)
            << "at front-end depth " << d;
        EXPECT_GT(res.mispredictStallCycles, 0u);
    }
}

// ---- determinism and full workloads ----------------------------------------

TEST(OoOSim, BitIdenticalAcrossRuns)
{
    Trace tr = generateTrace(profileByName("sha"), 10000);
    OoOSimConfig cfg = oooSimConfigFor(defaultDesignPoint());
    OoOSimResult a = simulateOutOfOrder(tr, cfg);
    OoOSimResult b = simulateOutOfOrder(tr, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.robStallCycles, b.robStallCycles);
    EXPECT_EQ(a.iqStallCycles, b.iqStallCycles);
    EXPECT_EQ(a.fuStallEvents, b.fuStallEvents);
    EXPECT_EQ(a.busStallEvents, b.busStallEvents);
    EXPECT_EQ(a.maxRobOccupancy, b.maxRobOccupancy);
    EXPECT_EQ(a.maxIqOccupancy, b.maxIqOccupancy);
}

TEST(OoOSim, OutOfOrderNeverSlowerThanInOrder)
{
    // Same trace, same core parameters: the window can only hide
    // latency the in-order pipeline exposes.
    for (const char *bench : {"sha", "tiffdither", "adpcm_d"}) {
        Trace tr = generateTrace(profileByName(bench), 15000);
        DesignPoint point = defaultDesignPoint();
        OoOSimResult ooo = simulateOutOfOrder(tr, oooSimConfigFor(point));
        SimResult in_order = simulateInOrder(tr, simConfigFor(point));
        EXPECT_EQ(ooo.retired, tr.size()) << bench;
        EXPECT_LE(ooo.cycles, in_order.cycles) << bench;
    }
}

TEST(OoOSimDeathTest, StructurallyInvalidConfigIsAFatalUserError)
{
    Trace tr = TraceBuilder().filler(4).build();
    OoOSimConfig no_rob = idealOoO();
    no_rob.ooo.robSize = 0;
    EXPECT_EXIT(simulateOutOfOrder(tr, no_rob),
                ::testing::ExitedWithCode(1), "issue queue");
    OoOSimConfig no_fu = idealOoO();
    no_fu.ooo.fuMem = 0;
    EXPECT_EXIT(simulateOutOfOrder(tr, no_fu),
                ::testing::ExitedWithCode(1), "functional-unit");
    OoOSimConfig no_bus = idealOoO();
    no_bus.ooo.resultBuses = 0;
    EXPECT_EXIT(simulateOutOfOrder(tr, no_bus),
                ::testing::ExitedWithCode(1), "result bus");
}

// ---- backend integration ----------------------------------------------------

TEST(OoOSimBackend, RegisteredAndMatchesSimulateOutOfOrder)
{
    BackendRegistry &reg = BackendRegistry::global();
    ASSERT_NE(reg.find(kOoOSimBackend), nullptr);
    EXPECT_TRUE(reg.find("oosim")->isDetailed());
    EXPECT_TRUE(reg.find("oosim")->needsTrace());
    EXPECT_TRUE(reg.find("oosim")->usesOoo());
    EXPECT_TRUE(reg.find("ooo")->usesOoo());
    EXPECT_FALSE(reg.find("model")->usesOoo());
    EXPECT_FALSE(reg.find("sim")->usesOoo());

    DseStudy study(profileByName("sha"), 10000);
    DesignPoint point = defaultDesignPoint();
    point.ooo.robSize = 64;
    PointEvaluation ev =
        study.evaluate(point, backendSet("oosim"));
    OoOSimResult direct =
        simulateOutOfOrder(study.trace(), oooSimConfigFor(point));
    ASSERT_EQ(ev.results.size(), 1u);
    const EvalResult &res = ev.results[0];
    EXPECT_EQ(res.backend, kOoOSimBackend);
    EXPECT_EQ(res.cycles, static_cast<double>(direct.cycles));
    EXPECT_EQ(res.instructions, direct.retired);
    ASSERT_NE(res.oooDetail, nullptr);
    EXPECT_EQ(res.oooDetail->cycles, direct.cycles);
    EXPECT_EQ(res.oooDetail->mispredicts, direct.mispredicts);
    EXPECT_EQ(res.oooDetail->maxRobOccupancy, direct.maxRobOccupancy);
    EXPECT_FALSE(res.hasStack);
}

TEST(OoOSimBackend, OooCpiErrorComparesModelAgainstSimulator)
{
    DseStudy study(profileByName("sha"), 10000);
    PointEvaluation ev =
        study.evaluate(defaultDesignPoint(), backendSet("ooo,oosim"));
    ASSERT_TRUE(ev.has(kOooBackend));
    ASSERT_TRUE(ev.has(kOoOSimBackend));
    auto err = ev.oooCpiError();
    ASSERT_TRUE(err.has_value());
    EXPECT_GE(*err, 0.0);
    // The in-order pair is absent, so the in-order error is too.
    EXPECT_FALSE(ev.cpiError().has_value());
}

TEST(SearchDeathTest, OooAxesWithoutOooBackendAreRejected)
{
    ThreadPool pool(0);
    SpaceSpec spec = SpaceSpec::parse("rob=64,128");
    SearchEvaluator model_only({profileByName("sha")}, 5000,
                               parseObjectives("delay"),
                               backendSet("model"));
    EXPECT_EXIT(model_only.prepare(spec, pool),
                ::testing::ExitedWithCode(1), "out-of-order");
}

TEST(Search, OooBackendAcceptsOooAxes)
{
    ThreadPool pool(0);
    SpaceSpec spec = SpaceSpec::parse("rob=64,128");
    SearchEvaluator ooo({profileByName("sha")}, 5000,
                        parseObjectives("delay"), backendSet("ooo"));
    ooo.prepare(spec, pool);
    EvalCache cache;
    SearchStats stats;
    std::vector<DesignPoint> points = {spec.at(0), spec.at(1)};
    auto evals = ooo.evaluateBatch(points, cache, pool, stats);
    ASSERT_EQ(evals.size(), 2u);
    // Different ROB sizes must reach the backend: the two points may
    // not collapse to one cached evaluation.
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_NE(evals[0], evals[1]);
}

// ---- golden validation ------------------------------------------------------

TEST(OoOGolden, IntervalModelTracksCycleAccurateSimulator)
{
    // The PR-3 case study in reverse: the out-of-order interval model
    // is validated against the cycle-accurate out-of-order pipeline
    // over a seeded sample of the out-of-order design space.  The
    // sampled axes keep the machine balanced (issue queue, buses and
    // FU mix sized for the width), which is the regime the interval
    // model assumes; docs/oosim.md documents the thresholds and the
    // calibration behind them.
    SpaceSpec spec = SpaceSpec::parse(
        "width=1,2,4; rob=64,128,256; iq=32,64; buses=4,8");
    std::mt19937_64 rng(20120401); // ISPASS'12, seeded once
    std::set<std::uint64_t> picked;
    while (picked.size() < 8)
        picked.insert(rng() % spec.size());

    double total_err = 0.0;
    double max_err = 0.0;
    std::size_t samples = 0;
    for (const char *bench : {"sha", "tiffdither"}) {
        DseStudy study(profileByName(bench), 20000);
        for (std::uint64_t index : picked) {
            PointEvaluation ev = study.evaluate(
                spec.at(index), backendSet("ooo,oosim"));
            auto err = ev.oooCpiError();
            ASSERT_TRUE(err.has_value()) << bench << " #" << index;
            total_err += *err;
            max_err = std::max(max_err, *err);
            ++samples;
        }
    }
    const double mean_err = total_err / static_cast<double>(samples);
    // Thresholds from the calibration sweep in docs/oosim.md (MiBench
    // x widths {1,2,4}: mean 10.5%, max 35.2%), with headroom so the
    // gate flags modeling regressions rather than sampling noise.
    EXPECT_LT(mean_err, 0.15) << "mean CPI error over " << samples
                              << " samples";
    EXPECT_LT(max_err, 0.40);
}

// ---- golden pins ------------------------------------------------------------

// Full-field pins of the simulator on real workload traces, including
// the arbitration counters and high-water marks: any change in which
// cycle an instruction issues, completes or is granted a bus moves at
// least one of them.

/** Every OoOSimResult field, in declaration order. */
std::vector<std::uint64_t>
oooSimFields(const OoOSimResult &r)
{
    return {r.cycles,
            r.retired,
            r.fetchMissStallCycles,
            r.takenBubbleCycles,
            r.mispredictStallCycles,
            r.robStallCycles,
            r.iqStallCycles,
            r.fuStallEvents,
            r.busStallEvents,
            r.mispredicts,
            r.predictedTakenCorrect,
            r.maxRobOccupancy,
            r.maxIqOccupancy};
}

/** The corner configurations pinned field by field. */
std::vector<std::pair<std::string, OoOSimConfig>>
oooSimCorners()
{
    using test::goldenPoint;
    const auto gshare = PredictorKind::Gshare1K;
    const auto hybrid = PredictorKind::Hybrid3K5;
    std::vector<std::pair<std::string, OoOSimConfig>> corners = {
        {"w1 d5@0.6 gshare 128K/8",
         oooSimConfigFor(goldenPoint(1, 5, 0.6, gshare, 128, 8))},
        {"w4 d9@1.0 hybrid 1M/16",
         oooSimConfigFor(goldenPoint(4, 9, 1.0, hybrid, 1024, 16))},
        {"w4 d5@0.6 gshare 1M/16",
         oooSimConfigFor(goldenPoint(4, 5, 0.6, gshare, 1024, 16))},
    };
    const auto tweaked = [&](const char *name, auto &&tweak) {
        OoOSimConfig cfg = oooSimConfigFor(defaultDesignPoint());
        tweak(cfg);
        corners.emplace_back(name, cfg);
    };
    tweaked("perfect-icache",
            [](OoOSimConfig &c) { c.core.perfectICache = true; });
    tweaked("perfect-dcache",
            [](OoOSimConfig &c) { c.core.perfectDCache = true; });
    tweaked("perfect-tlbs",
            [](OoOSimConfig &c) { c.core.perfectTlbs = true; });
    tweaked("rob=8", [](OoOSimConfig &c) { c.ooo.robSize = 8; });
    tweaked("iq=1", [](OoOSimConfig &c) { c.ooo.iqSize = 1; });
    tweaked("buses=1", [](OoOSimConfig &c) { c.ooo.resultBuses = 1; });
    tweaked("fualu=1 fumul=1", [](OoOSimConfig &c) {
        c.ooo.fuAlu = 1;
        c.ooo.fuMul = 1;
    });
    tweaked("fumem=1", [](OoOSimConfig &c) { c.ooo.fuMem = 1; });
    return corners;
}

TEST(OoOSimGolden, CornerCasesPinnedFieldByField)
{
    // Rows: oooSimCorners() on sha, then on mcf, at 10k instructions.
    const std::vector<std::vector<std::uint64_t>> expected = {
        {10501, 10058, 264, 133, 0, 0, 0, 32, 0, 0, 134, 44, 17},
        {3741, 10058, 444, 133, 0, 577, 273, 12521, 887, 0, 134, 128, 32},
        {3124, 10058, 264, 133, 0, 129, 138, 11697, 793, 0, 134, 128, 32},
        {3357, 10058, 0, 133, 0, 643, 291, 12826, 894, 0, 134, 128, 32},
        {3191, 10058, 444, 133, 0, 0, 639, 15832, 1040, 0, 134, 55, 32},
        {3711, 10058, 414, 133, 0, 577, 273, 12521, 887, 0, 134, 128, 32},
        {5692, 10058, 444, 133, 0, 4824, 0, 140, 0, 0, 134, 8, 6},
        {11272, 10058, 444, 133, 0, 0, 10868, 0, 0, 0, 134, 21, 1},
        {10456, 10058, 444, 133, 0, 0, 9899, 123, 157064, 0, 134, 69, 32},
        {8594, 10058, 444, 133, 0, 0, 8070, 71765, 0, 0, 134, 89, 32},
        {3756, 10058, 444, 133, 0, 592, 273, 13217, 219, 0, 134, 128, 32},
        {13352, 10027, 387, 821, 1506, 0, 0, 13, 0, 539, 822, 107, 18},
        {12534, 10027, 651, 823, 6468, 3247, 42, 402, 57, 539, 824, 128, 32},
        {8041, 10027, 387, 821, 2396, 1305, 3, 521, 72, 539, 822, 128, 32},
        {11935, 10027, 0, 821, 6548, 3284, 65, 408, 65, 539, 822, 128, 32},
        {8889, 10027, 651, 821, 3669, 0, 0, 573, 264, 539, 822, 35, 15},
        {10769, 10027, 621, 821, 5259, 1393, 0, 499, 63, 539, 822, 128, 27},
        {76391, 10027, 651, 821, 53737, 68923, 0, 340, 0, 539, 822, 8, 7},
        {67750, 10027, 651, 821, 49582, 0, 62181, 0, 0, 539, 822, 95, 1},
        {15188, 10027, 651, 821, 9391, 1185, 823, 125, 34352, 539, 822, 128,
         32},
        {12638, 10027, 651, 821, 6556, 3173, 130, 8346, 0, 539, 822, 128, 32},
        {12552, 10027, 651, 821, 6496, 3257, 43, 734, 56, 539, 822, 128, 32},
    };
    std::size_t row = 0;
    for (const char *bench : {"sha", "mcf"}) {
        Trace tr = generateTrace(profileByName(bench), 10000);
        for (const auto &[name, cfg] : oooSimCorners()) {
            auto got = oooSimFields(simulateOutOfOrder(tr, cfg));
            EXPECT_EQ(got, row < expected.size()
                               ? expected[row]
                               : std::vector<std::uint64_t>{})
                << bench << " " << name << ": " << test::fieldList(got);
            ++row;
        }
    }
    EXPECT_EQ(row, expected.size());
}

TEST(OoOSimGolden, Table2DigestPinned)
{
    // One FNV-1a digest over every field of every result: all 192
    // Table 2 points (default out-of-order structures) on four
    // workloads at 10k instructions.
    std::uint64_t digest = test::kFnvBasis;
    for (const char *bench : {"sha", "dijkstra", "qsort", "mcf"}) {
        Trace tr = generateTrace(profileByName(bench), 10000);
        for (const DesignPoint &point : table2Space()) {
            digest = test::fnvFold(
                digest, oooSimFields(simulateOutOfOrder(
                            tr, oooSimConfigFor(point))));
        }
    }
    EXPECT_EQ(digest, 4501346195852598090ull) << digest;
}

} // namespace
} // namespace mech
