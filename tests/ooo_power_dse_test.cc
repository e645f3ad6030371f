/**
 * @file
 * Tests for the out-of-order interval model, the power model, and the
 * Table 2 design-space machinery.
 */

#include <gtest/gtest.h>

#include <set>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "ooo/ooo_model.hh"
#include "power/power_model.hh"
#include "workload/suites.hh"

namespace mech {
namespace {

ProgramStats
plainProgram(InstCount n)
{
    ProgramStats p;
    p.n = n;
    p.mix.counts[static_cast<std::size_t>(OpClass::IntAlu)] = n;
    p.mix.total = n;
    return p;
}

// ---- exposedMissPenalty ---------------------------------------------------------

TEST(OooMlp, EmptyStreamIsFree)
{
    EXPECT_DOUBLE_EQ(exposedMissPenalty({}, 60, 128, 4), 0.0);
}

TEST(OooMlp, IsolatedMissPaysLatencyMinusHiddenWork)
{
    // One miss at index 400: 400/4 = 100 cycles of work precede it,
    // more than the 60-cycle latency: fully hidden.
    EXPECT_DOUBLE_EQ(exposedMissPenalty({400}, 60, 128, 4), 0.0);
    // One miss right at the start: fully exposed.
    EXPECT_DOUBLE_EQ(exposedMissPenalty({0}, 60, 128, 4), 60.0);
}

TEST(OooMlp, OverlappingMissesAreOneGroup)
{
    // Two misses within the window: followers ride the leader.
    double two = exposedMissPenalty({0, 50}, 60, 128, 4);
    double one = exposedMissPenalty({0}, 60, 128, 4);
    EXPECT_DOUBLE_EQ(two, one);
}

TEST(OooMlp, SerialChainsPayPerMiss)
{
    // Misses spaced beyond the window but close in instructions:
    // pointer chasing pays nearly full latency each time.
    std::vector<std::uint64_t> chain;
    for (int i = 0; i < 10; ++i)
        chain.push_back(static_cast<std::uint64_t>(i) * 140);
    double p = exposedMissPenalty(chain, 60, 128, 4);
    // First fully exposed; each next hides 140/4 = 35 cycles.
    EXPECT_DOUBLE_EQ(p, 60.0 + 9.0 * 25.0);
}

TEST(OooMlp, WiderDispatchShortensTheGapAndExposesMore)
{
    // The inter-miss work of `gap` instructions takes gap/W cycles; a
    // wider core burns through it faster, exposing more of the next
    // miss's latency (interval analysis, not a hiding bonus).
    std::vector<std::uint64_t> misses = {0, 200, 400};
    EXPECT_GT(exposedMissPenalty(misses, 60, 128, 8),
              exposedMissPenalty(misses, 60, 128, 2));
}

// ---- OoO vs in-order model ------------------------------------------------------

TEST(OooModel, HidesDependenciesAndLongLatencies)
{
    ProgramStats prog = plainProgram(10000);
    prog.mix.counts[static_cast<std::size_t>(OpClass::IntMult)] = 1000;
    prog.deps.of(OpClass::IntAlu).add(1, 3000);
    MachineParams m;
    m.width = 4;
    ModelResult io =
        evaluateInOrder(prog, MemoryStats{}, BranchProfile{}, m);
    ModelResult ooo = evaluateOutOfOrder(prog, MemoryStats{},
                                         BranchProfile{}, m, OooParams{});
    EXPECT_DOUBLE_EQ(ooo.stack.dependencies(), 0.0);
    EXPECT_DOUBLE_EQ(ooo.stack[CpiComponent::LongLat], 0.0);
    EXPECT_GT(io.cycles, ooo.cycles);
}

TEST(OooModel, BranchesCostMoreThanInOrder)
{
    ProgramStats prog = plainProgram(10000);
    BranchProfile bp;
    bp.mispredicts = 100;
    MachineParams m;
    m.width = 4;
    m.frontendDepth = 6;
    ModelResult io = evaluateInOrder(prog, MemoryStats{}, bp, m);
    ModelResult ooo =
        evaluateOutOfOrder(prog, MemoryStats{}, bp, m, OooParams{});
    EXPECT_GT(ooo.stack[CpiComponent::BpredMiss],
              io.stack[CpiComponent::BpredMiss]);
}

TEST(OooModel, IFetchPenaltyIdenticalToInOrder)
{
    ProgramStats prog = plainProgram(10000);
    MemoryStats mem;
    mem.iFetchL2Hits = 50;
    mem.iFetchMemory = 10;
    MachineParams m;
    m.width = 4;
    ModelResult io =
        evaluateInOrder(prog, mem, BranchProfile{}, m);
    ModelResult ooo = evaluateOutOfOrder(prog, mem, BranchProfile{}, m,
                                         OooParams{});
    EXPECT_DOUBLE_EQ(ooo.stack.ifetch(), io.stack.ifetch());
}

TEST(OooModel, StreamingMissesOverlapUnlikeInOrder)
{
    ProgramStats prog = plainProgram(10000);
    MemoryStats mem;
    // 50 misses spaced 64 instructions apart (streaming).
    for (int i = 0; i < 50; ++i)
        mem.loadMemoryIdx.push_back(static_cast<std::uint64_t>(i) * 64);
    mem.loadMemory = 50;
    MachineParams m;
    m.width = 4;
    ModelResult io = evaluateInOrder(prog, mem, BranchProfile{}, m);
    ModelResult ooo = evaluateOutOfOrder(prog, mem, BranchProfile{}, m,
                                         OooParams{});
    EXPECT_LT(ooo.stack[CpiComponent::L2Miss],
              0.5 * io.stack[CpiComponent::L2Miss]);
}

// ---- power model ------------------------------------------------------------------

ActivityCounts
someActivity()
{
    ActivityCounts a;
    a.cycles = 1e6;
    a.instructions = 2e6;
    a.l1iAccesses = 2e6;
    a.l1dAccesses = 6e5;
    a.l2Accesses = 3e4;
    a.memAccesses = 2e3;
    a.branches = 2.5e5;
    return a;
}

TEST(Power, EnergyPositiveAndDecomposed)
{
    DesignPoint p = defaultDesignPoint();
    PowerModel pm(machineFor(p), hierarchyFor(p), p.predictor);
    EnergyBreakdown e = pm.energy(someActivity());
    EXPECT_GT(e.coreDynamicJ, 0.0);
    EXPECT_GT(e.cacheDynamicJ, 0.0);
    EXPECT_GT(e.memoryDynamicJ, 0.0);
    EXPECT_GT(e.staticJ, 0.0);
    EXPECT_NEAR(e.totalJ(),
                e.coreDynamicJ + e.cacheDynamicJ + e.memoryDynamicJ +
                    e.staticJ,
                1e-15);
}

TEST(Power, WiderCoreBurnsMore)
{
    DesignPoint narrow = defaultDesignPoint();
    narrow.width = 1;
    DesignPoint wide = defaultDesignPoint();
    wide.width = 4;
    ActivityCounts a = someActivity();
    PowerModel pn(machineFor(narrow), hierarchyFor(narrow),
                  narrow.predictor);
    PowerModel pw(machineFor(wide), hierarchyFor(wide), wide.predictor);
    EXPECT_GT(pw.energy(a).coreDynamicJ, pn.energy(a).coreDynamicJ);
}

TEST(Power, BiggerL2LeaksMore)
{
    DesignPoint small = defaultDesignPoint();
    small.l2KB = 128;
    DesignPoint big = defaultDesignPoint();
    big.l2KB = 1024;
    PowerModel ps(machineFor(small), hierarchyFor(small),
                  small.predictor);
    PowerModel pb(machineFor(big), hierarchyFor(big), big.predictor);
    EXPECT_GT(pb.staticPowerW(), ps.staticPowerW());
}

TEST(Power, LowerFrequencyLowersVoltage)
{
    DesignPoint fast = defaultDesignPoint(); // 9 stages @ 1 GHz
    DesignPoint slow = defaultDesignPoint();
    slow.depth = 5;
    slow.freqGHz = 0.6;
    PowerModel pf(machineFor(fast), hierarchyFor(fast), fast.predictor);
    PowerModel ps(machineFor(slow), hierarchyFor(slow), slow.predictor);
    EXPECT_LT(ps.voltageScale(), pf.voltageScale());
}

TEST(Power, EdpIsEnergyTimesDelay)
{
    DesignPoint p = defaultDesignPoint();
    PowerModel pm(machineFor(p), hierarchyFor(p), p.predictor);
    ActivityCounts a = someActivity();
    double seconds = a.cycles / (p.freqGHz * 1e9);
    EXPECT_NEAR(pm.edp(pm.energy(a), a.cycles),
                pm.energy(a).totalJ() * seconds, 1e-15);
}

// ---- design space -------------------------------------------------------------------

TEST(DesignSpace, Has192DistinctPoints)
{
    auto space = table2Space();
    EXPECT_EQ(space.size(), 192u);
    std::set<std::string> labels;
    for (const auto &p : space)
        labels.insert(p.label());
    EXPECT_EQ(labels.size(), 192u);
}

TEST(DesignSpace, DepthTiesFrequency)
{
    for (const auto &p : table2Space()) {
        if (p.depth == 5) {
            EXPECT_DOUBLE_EQ(p.freqGHz, 0.6);
        }
        if (p.depth == 9) {
            EXPECT_DOUBLE_EQ(p.freqGHz, 1.0);
        }
    }
}

TEST(DesignSpace, NsToCyclesScalesWithFrequency)
{
    DesignPoint fast = defaultDesignPoint(); // 1 GHz
    DesignPoint slow = fast;
    slow.depth = 5;
    slow.freqGHz = 0.6;
    MachineParams mf = machineFor(fast);
    MachineParams ms = machineFor(slow);
    EXPECT_EQ(mf.l2HitCycles, 10u); // 10 ns at 1 GHz
    EXPECT_EQ(ms.l2HitCycles, 6u);  // 10 ns at 600 MHz
    EXPECT_EQ(mf.memCycles, 60u);
    EXPECT_EQ(ms.memCycles, 36u);
    EXPECT_EQ(mf.frontendDepth, 6u);
    EXPECT_EQ(ms.frontendDepth, 2u);
}

TEST(DesignSpace, HierarchyMatchesPoint)
{
    DesignPoint p = defaultDesignPoint();
    p.l2KB = 256;
    p.l2Assoc = 16;
    HierarchyConfig h = hierarchyFor(p);
    EXPECT_EQ(h.l2.sizeBytes, 256u * 1024u);
    EXPECT_EQ(h.l2.assoc, 16u);
    EXPECT_EQ(h.l1i.sizeBytes, 32u * 1024u); // L1 fixed per Table 2
}

// ---- DseStudy -------------------------------------------------------------------------

TEST(DseStudy, ModelOnlyEvaluationIsCheapAndConsistent)
{
    DseStudy study(profileByName("tiffdither"), 20000);
    DesignPoint p = defaultDesignPoint();
    PointEvaluation ev = study.evaluate(p);
    EXPECT_FALSE(ev.has(kSimBackend));
    EXPECT_GT(ev.model().cycles, 0.0);
    EXPECT_GT(ev.model().edp, 0.0);
    // No simulation ran: the error must be absent, not "perfect".
    EXPECT_FALSE(ev.cpiError().has_value());
    // Deterministic.
    PointEvaluation ev2 = study.evaluate(p);
    EXPECT_DOUBLE_EQ(ev2.model().cycles, ev.model().cycles);
}

TEST(DseStudy, SimulationBackedEvaluation)
{
    DseStudy study(profileByName("sha"), 20000);
    PointEvaluation ev = study.evaluate(defaultDesignPoint(),
                                        backendSet("model,sim"));
    ASSERT_TRUE(ev.has(kSimBackend));
    EXPECT_GT(ev.sim()->cycles, 0.0);
    EXPECT_GT(ev.sim()->edp, 0.0);
    ASSERT_TRUE(ev.sim()->detail.has_value());
    EXPECT_GT(ev.sim()->detail->cycles, 0u);
    ASSERT_TRUE(ev.cpiError().has_value());
    EXPECT_LT(*ev.cpiError(), 0.25);
}

TEST(DseStudy, L2SweepChangesMemoryStats)
{
    DseStudy study(profileByName("gcc"), 30000);
    DesignPoint big = defaultDesignPoint();
    big.l2KB = 1024;
    DesignPoint small = defaultDesignPoint();
    small.l2KB = 128;
    double cyc_big = study.evaluate(big).model().cycles;
    double cyc_small = study.evaluate(small).model().cycles;
    EXPECT_GE(cyc_small, cyc_big);
}

TEST(DseStudy, PredictorSwapUsesItsProfile)
{
    DseStudy study(profileByName("patricia"), 30000);
    DesignPoint gshare = defaultDesignPoint();
    DesignPoint hybrid = defaultDesignPoint();
    hybrid.predictor = PredictorKind::Hybrid3K5;
    double cg = study.evaluate(gshare).model().cycles;
    double ch = study.evaluate(hybrid).model().cycles;
    EXPECT_NE(cg, ch); // the two predictors behave differently
}

} // namespace
} // namespace mech
