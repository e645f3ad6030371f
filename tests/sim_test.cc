/**
 * @file
 * Micro-trace tests for the cycle-accurate in-order pipeline: each
 * test isolates one mechanism (ideal streaming, stall-on-use,
 * long-latency blocking, memory-stage blocking, branch penalties) and
 * checks exact cycle counts against hand-derived expectations.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace mech {
namespace {

using test::TraceBuilder;
using test::idealCycles;
using test::idealSim;

// ---- ideal streaming ---------------------------------------------------------

class IdealStreaming
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(IdealStreaming, HazardFreeTraceRunsAtFullWidth)
{
    auto [w, n] = GetParam();
    Trace tr = TraceBuilder().filler(n).build();
    SimResult res = simulateInOrder(tr, idealSim(w, 2));
    EXPECT_EQ(res.cycles, idealCycles(n, w, 2));
    EXPECT_EQ(res.retired, static_cast<InstCount>(n));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLengths, IdealStreaming,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(1, 4, 7, 64, 400)));

TEST(Sim, DeeperFrontEndOnlyAddsFill)
{
    Trace tr = TraceBuilder().filler(100).build();
    Cycles d2 = simulateInOrder(tr, idealSim(4, 2)).cycles;
    Cycles d6 = simulateInOrder(tr, idealSim(4, 6)).cycles;
    EXPECT_EQ(d6, d2 + 4);
}

TEST(Sim, EmptyTraceIsZeroCycles)
{
    Trace tr;
    SimResult res = simulateInOrder(tr, idealSim());
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.retired, 0u);
}

// ---- stall-on-use on unit producers -------------------------------------------

TEST(Sim, SerialChainRunsAtOneIpc)
{
    // Every instruction consumes the previous one: W cannot help.
    TraceBuilder b;
    b.alu(8);
    for (int i = 1; i < 100; ++i)
        b.alu(static_cast<RegIndex>(8 + i % 20),
              static_cast<RegIndex>(8 + (i - 1) % 20));
    Trace tr = b.build();
    SimResult res = simulateInOrder(tr, idealSim(4, 2));
    // One instruction per cycle + pipeline fill.
    EXPECT_EQ(res.cycles, 100u + 2u + 2u);
}

TEST(Sim, ForwardingAllowsBackToBackAcrossCycles)
{
    // Dependent pairs in *different* issue groups do not stall: at
    // W=1 a serial chain is indistinguishable from independent work.
    TraceBuilder b;
    b.alu(8);
    for (int i = 1; i < 50; ++i)
        b.alu(static_cast<RegIndex>(8 + i % 20),
              static_cast<RegIndex>(8 + (i - 1) % 20));
    Trace tr = b.build();
    Trace indep = TraceBuilder().filler(50).build();
    EXPECT_EQ(simulateInOrder(tr, idealSim(1, 2)).cycles,
              simulateInOrder(indep, idealSim(1, 2)).cycles);
}

TEST(Sim, IndependentPairsIssueTogether)
{
    // Pairs of independent instructions at W=2: full throughput.
    TraceBuilder b;
    for (int i = 0; i < 50; ++i) {
        b.alu(static_cast<RegIndex>(8 + (2 * i) % 20));
        b.alu(static_cast<RegIndex>(8 + (2 * i + 1) % 20));
    }
    Trace tr = b.build();
    SimResult res = simulateInOrder(tr, idealSim(2, 2));
    EXPECT_EQ(res.cycles, idealCycles(100, 2, 2));
}

// ---- long-latency blocking -------------------------------------------------------

TEST(Sim, MultiplyBlocksThePipeline)
{
    // N independent multiplies, latency L: the execute stage admits
    // one at a time and each holds it L cycles.
    SimConfig cfg = idealSim(4, 2);
    cfg.machine.latIntMult = 4;
    TraceBuilder b;
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i));
    Trace tr = b.build();
    SimResult res = simulateInOrder(tr, cfg);
    // Each multiply occupies execute for 4 cycles, serialized: the
    // k-th issues 4 cycles after the (k-1)-th, plus pipeline fill.
    EXPECT_EQ(res.cycles, 10u * 4u + 4u);
}

TEST(Sim, MultiplyLatencyScalesCost)
{
    SimConfig fast = idealSim(4, 2);
    fast.machine.latIntMult = 2;
    SimConfig slow = idealSim(4, 2);
    slow.machine.latIntMult = 8;
    TraceBuilder b;
    for (int i = 0; i < 20; ++i) {
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i % 20));
        b.filler(3);
    }
    Trace tr = b.build();
    Cycles cf = simulateInOrder(tr, fast).cycles;
    Cycles cs = simulateInOrder(tr, slow).cycles;
    // Six extra cycles per multiply, fully exposed in-order.
    EXPECT_EQ(cs - cf, 20u * 6u);
}

TEST(Sim, DivideCostsMoreThanMultiply)
{
    SimConfig cfg = idealSim(4, 2);
    cfg.machine.latIntMult = 4;
    cfg.machine.latIntDiv = 20;
    TraceBuilder bm, bd;
    for (int i = 0; i < 10; ++i) {
        bm.op(OpClass::IntMult, static_cast<RegIndex>(8 + i)).filler(4);
        bd.op(OpClass::IntDiv, static_cast<RegIndex>(8 + i)).filler(4);
    }
    Trace tm = bm.build(), td = bd.build();
    EXPECT_GT(simulateInOrder(td, cfg).cycles,
              simulateInOrder(tm, cfg).cycles + 100);
}

// ---- load-use behaviour -------------------------------------------------------------

TEST(Sim, LoadUseBubbleIsOneCycle)
{
    // W=1: load -> dependent consumer costs exactly one extra cycle
    // versus load -> independent instruction.
    Trace dep = TraceBuilder()
                    .load(8, 0x10000000)
                    .alu(9, 8)
                    .filler(20)
                    .build();
    Trace indep = TraceBuilder()
                      .load(8, 0x10000000)
                      .alu(9)
                      .filler(20)
                      .build();
    SimConfig cfg = idealSim(1, 2);
    EXPECT_EQ(simulateInOrder(dep, cfg).cycles,
              simulateInOrder(indep, cfg).cycles + 1);
}

TEST(Sim, LoadUseGapHidesBubble)
{
    // An independent instruction between load and use hides the
    // bubble completely at W=1.
    Trace spaced = TraceBuilder()
                       .load(8, 0x10000000)
                       .alu(10)
                       .alu(9, 8)
                       .filler(20)
                       .build();
    Trace indep = TraceBuilder()
                      .load(8, 0x10000000)
                      .alu(10)
                      .alu(9)
                      .filler(20)
                      .build();
    SimConfig cfg = idealSim(1, 2);
    EXPECT_EQ(simulateInOrder(spaced, cfg).cycles,
              simulateInOrder(indep, cfg).cycles);
}

TEST(Sim, DCacheMissBlocksMemoryStage)
{
    // One load with a cold D-cache (real cache, perfect I-side):
    // the L2+memory latency appears in the total.
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectICache = true;
    cfg.perfectTlbs = true;
    cfg.perfectDCache = false;
    Trace tr = TraceBuilder()
                   .filler(8)
                   .load(8, 0x10000000)
                   .filler(8)
                   .build();
    Trace nold = TraceBuilder().filler(8).alu(8).filler(8).build();
    Cycles with_miss = simulateInOrder(tr, cfg).cycles;
    Cycles without = simulateInOrder(nold, cfg).cycles;
    Cycles expected_extra =
        cfg.machine.l2HitCycles + cfg.machine.memCycles - 1;
    EXPECT_GE(with_miss, without + expected_extra - 2);
    EXPECT_LE(with_miss, without + expected_extra + 2);
}

TEST(Sim, SecondLoadToSameLineHits)
{
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectICache = true;
    cfg.perfectTlbs = true;
    Trace two_same = TraceBuilder()
                         .load(8, 0x10000000)
                         .filler(4)
                         .load(9, 0x10000008)
                         .filler(4)
                         .build();
    Trace two_diff = TraceBuilder()
                         .load(8, 0x10000000)
                         .filler(4)
                         .load(9, 0x10010000)
                         .filler(4)
                         .build();
    EXPECT_LT(simulateInOrder(two_same, cfg).cycles,
              simulateInOrder(two_diff, cfg).cycles);
}

TEST(Sim, StoresNeverBlock)
{
    // A cold-missing store costs nothing beyond its slot.
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectICache = true;
    cfg.perfectTlbs = true;
    Trace with_store =
        TraceBuilder().filler(10).store(0x10000000).filler(10).build();
    Trace with_alu = TraceBuilder().filler(10).alu(8).filler(10).build();
    EXPECT_EQ(simulateInOrder(with_store, cfg).cycles,
              simulateInOrder(with_alu, cfg).cycles);
}

// ---- branch penalties ------------------------------------------------------------------

TEST(Sim, CorrectNotTakenBranchIsFree)
{
    SimConfig cfg = idealSim(4, 2);
    cfg.predictor = PredictorKind::NotTaken;
    Trace with_branch =
        TraceBuilder().filler(20).branch(false).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    EXPECT_EQ(simulateInOrder(with_branch, cfg).cycles,
              simulateInOrder(plain, cfg).cycles);
}

TEST(Sim, CorrectTakenBranchCostsOneBubble)
{
    SimConfig cfg = idealSim(1, 2);
    cfg.predictor = PredictorKind::Taken;
    Trace with_branch =
        TraceBuilder().filler(20).branch(true).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    SimResult res = simulateInOrder(with_branch, cfg);
    EXPECT_EQ(res.cycles, simulateInOrder(plain, cfg).cycles + 1);
    EXPECT_EQ(res.predictedTakenCorrect, 1u);
    EXPECT_EQ(res.mispredicts, 0u);
}

TEST(Sim, MispredictCostsFrontEndDepth)
{
    // Not-taken predictor on a taken branch: flush penalty ~= D.
    for (std::uint32_t d : {2u, 4u, 6u}) {
        SimConfig cfg = idealSim(1, d);
        cfg.predictor = PredictorKind::NotTaken;
        Trace with_miss =
            TraceBuilder().filler(20).branch(true).filler(20).build();
        Trace plain =
            TraceBuilder().filler(20).alu(8).filler(20).build();
        SimResult res = simulateInOrder(with_miss, cfg);
        EXPECT_EQ(res.mispredicts, 1u);
        EXPECT_EQ(res.cycles,
                  simulateInOrder(plain, cfg).cycles + d)
            << "at front-end depth " << d;
    }
}

TEST(Sim, MispredictedNotTakenAlsoFlushes)
{
    // Taken predictor on a not-taken branch.
    SimConfig cfg = idealSim(1, 4);
    cfg.predictor = PredictorKind::Taken;
    Trace with_miss =
        TraceBuilder().filler(20).branch(false).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    SimResult res = simulateInOrder(with_miss, cfg);
    EXPECT_EQ(res.mispredicts, 1u);
    EXPECT_EQ(res.cycles, simulateInOrder(plain, cfg).cycles + 4);
}

TEST(Sim, MispredictCounterMatchesPredictorBehaviour)
{
    // A loop-shaped alternating branch (one static PC) under gshare:
    // after warmup, few mispredicts.
    SimConfig cfg = idealSim(4, 2);
    cfg.predictor = PredictorKind::Gshare1K;
    Trace tr;
    for (int i = 0; i < 200; ++i) {
        for (int k = 0; k < 3; ++k) {
            DynInstr di;
            di.pc = 0x1000 + 4 * static_cast<Addr>(k);
            di.op = OpClass::IntAlu;
            di.dst = static_cast<RegIndex>(8 + k);
            tr.push(di);
        }
        DynInstr br;
        br.pc = 0x100c;
        br.op = OpClass::Branch;
        br.taken = i % 2 == 0;
        br.targetPc = br.taken ? 0x1000 : 0;
        tr.push(br);
    }
    SimResult res = simulateInOrder(tr, cfg);
    EXPECT_LT(res.mispredicts, 20u);
}

// ---- I-cache behaviour ---------------------------------------------------------------------

TEST(Sim, ICacheMissStallsFetch)
{
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectDCache = true;
    cfg.perfectTlbs = true;
    Trace tr = TraceBuilder().filler(64).build();
    SimResult res = simulateInOrder(tr, cfg);
    // 64 instructions x 4B = 4 lines -> 4 cold misses to memory.
    Cycles per_miss = cfg.machine.l2HitCycles + cfg.machine.memCycles;
    Cycles ideal = idealCycles(64, 4, 2);
    EXPECT_GE(res.cycles, ideal + 4 * per_miss - 4);
    EXPECT_LE(res.cycles, ideal + 4 * per_miss + 4);
    EXPECT_GT(res.fetchMissStallCycles, 0u);
}

TEST(Sim, WarmICacheRunsIdeally)
{
    // Loop-shaped PCs: after one pass the lines are resident; a
    // second identical pass adds no fetch stalls.
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectDCache = true;
    cfg.perfectTlbs = true;

    auto one_pass = [] {
        TraceBuilder b;
        return b.filler(64).build();
    };
    Trace once = one_pass();
    // Two passes over the same 4 lines.
    Trace twice;
    for (int r = 0; r < 2; ++r) {
        for (const auto &di : once)
            twice.push(di);
    }
    Cycles c1 = simulateInOrder(once, cfg).cycles;
    Cycles c2 = simulateInOrder(twice, cfg).cycles;
    EXPECT_EQ(c2 - c1, 64u / 4u); // second pass: pure issue cycles
}

// ---- diagnostics -----------------------------------------------------------------------------

TEST(Sim, CpiAndSecondsHelpers)
{
    SimResult r;
    r.cycles = 500;
    r.retired = 250;
    EXPECT_DOUBLE_EQ(r.cpi(), 2.0);
    EXPECT_DOUBLE_EQ(r.seconds(1.0), 500e-9);
}

TEST(Sim, GuardPanicsOnImpossibleTraceAreAbsent)
{
    // A full workload trace must always terminate.
    Trace tr = generateTrace(profileByName("sha"), 5000);
    SimConfig cfg = idealSim(4, 6);
    SimResult res = simulateInOrder(tr, cfg);
    EXPECT_EQ(res.retired, tr.size());
}

// ---- golden pins -----------------------------------------------------------------------------

// Full-field pins of the simulator on real workload traces.  The
// mechanism tests above check one effect each; these catch any change
// in *which* counter a cycle is charged to, anywhere in the pipeline.

/** Every SimResult field, in declaration order. */
std::vector<std::uint64_t>
simFields(const SimResult &r)
{
    return {r.cycles,
            r.retired,
            r.fetchMissStallCycles,
            r.takenBubbleCycles,
            r.mispredictStallCycles,
            r.dependencyStallCycles,
            r.backPressureStallCycles,
            r.mispredicts,
            r.predictedTakenCorrect};
}

/** The corner configurations pinned field by field. */
std::vector<std::pair<std::string, SimConfig>>
simCorners()
{
    using test::goldenPoint;
    const auto gshare = PredictorKind::Gshare1K;
    const auto hybrid = PredictorKind::Hybrid3K5;
    std::vector<std::pair<std::string, SimConfig>> corners = {
        {"w1 d5@0.6 gshare 128K/8",
         simConfigFor(goldenPoint(1, 5, 0.6, gshare, 128, 8))},
        {"w4 d9@1.0 hybrid 1M/16",
         simConfigFor(goldenPoint(4, 9, 1.0, hybrid, 1024, 16))},
        {"w4 d5@0.6 gshare 1M/16",
         simConfigFor(goldenPoint(4, 5, 0.6, gshare, 1024, 16))},
        {"w1 d9@1.0 hybrid 128K/8",
         simConfigFor(goldenPoint(1, 9, 1.0, hybrid, 128, 8))},
    };
    SimConfig base = simConfigFor(defaultDesignPoint());
    base.perfectICache = true;
    corners.emplace_back("default perfect-icache", base);
    base = simConfigFor(defaultDesignPoint());
    base.perfectDCache = true;
    corners.emplace_back("default perfect-dcache", base);
    base = simConfigFor(defaultDesignPoint());
    base.perfectTlbs = true;
    corners.emplace_back("default perfect-tlbs", base);
    return corners;
}

TEST(SimGolden, CornerCasesPinnedFieldByField)
{
    // Rows: simCorners() on sha, then on mcf, at 10k instructions.
    const std::vector<std::vector<std::uint64_t>> expected = {
        {11138, 10058, 264, 133, 0, 0, 673, 0, 134},
        {5559, 10058, 444, 133, 0, 133, 1117, 0, 134},
        {4949, 10058, 264, 133, 0, 133, 657, 0, 134},
        {11782, 10058, 444, 133, 0, 0, 1133, 0, 134},
        {5217, 10058, 0, 133, 0, 134, 1186, 0, 134},
        {4471, 10058, 444, 133, 0, 133, 0, 0, 134},
        {5529, 10058, 414, 133, 0, 133, 1088, 0, 134},
        {63928, 10027, 387, 821, 2627, 22892, 28858, 539, 822},
        {95120, 10027, 651, 823, 69069, 54597, 31241, 539, 824},
        {58582, 10027, 387, 821, 22560, 32941, 18612, 539, 822},
        {100196, 10027, 651, 823, 26506, 37951, 48353, 539, 824},
        {94819, 10027, 0, 821, 68773, 54667, 31247, 539, 822},
        {10423, 10027, 651, 821, 4552, 915, 0, 539, 822},
        {66715, 10027, 621, 821, 46803, 35463, 21948, 539, 822},
    };
    std::size_t row = 0;
    for (const char *bench : {"sha", "mcf"}) {
        Trace tr = generateTrace(profileByName(bench), 10000);
        for (const auto &[name, cfg] : simCorners()) {
            auto got = simFields(simulateInOrder(tr, cfg));
            EXPECT_EQ(got, row < expected.size()
                               ? expected[row]
                               : std::vector<std::uint64_t>{})
                << bench << " " << name << ": " << test::fieldList(got);
            ++row;
        }
    }
    EXPECT_EQ(row, expected.size());
}

TEST(SimGolden, Table2DigestPinned)
{
    // One FNV-1a digest over every field of every result: all 192
    // Table 2 points on four workloads at 10k instructions.
    std::uint64_t digest = test::kFnvBasis;
    for (const char *bench : {"sha", "dijkstra", "qsort", "mcf"}) {
        Trace tr = generateTrace(profileByName(bench), 10000);
        for (const DesignPoint &point : table2Space()) {
            digest = test::fnvFold(
                digest, simFields(simulateInOrder(tr, simConfigFor(point))));
        }
    }
    EXPECT_EQ(digest, 5186293817123802841ull) << digest;
}

} // namespace
} // namespace mech
