/**
 * @file
 * Unit tests for the profiling pass: dependency-distance measurement
 * (shortest-distance rule, producer classification), miss counting
 * against the cache hierarchy, branch statistics, the captured-L2
 * resweep equivalence property, and the L2 sweep's pins and LRU
 * properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>

#include "profiler/profiler.hh"
#include "test_util.hh"
#include "workload/executor.hh"
#include "workload/suites.hh"

namespace mech {
namespace {

using test::TraceBuilder;

ProfilerConfig
tinyConfig()
{
    ProfilerConfig cfg;
    cfg.predictors = {PredictorKind::NotTaken};
    return cfg;
}

// ---- dependency measurement ----------------------------------------------------

TEST(ProfilerDeps, DistanceCountsDynamicInstructions)
{
    // producer r8; two fillers; consumer of r8 -> distance 3.
    Trace tr = TraceBuilder()
                   .alu(8)
                   .alu(9)
                   .alu(10)
                   .alu(11, 8)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(3), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 1u);
}

TEST(ProfilerDeps, ShortestDistanceWins)
{
    // consumer reads r8 (distance 3) and r9 (distance 1): count one
    // entry at distance 1.
    Trace tr = TraceBuilder()
                   .alu(8)
                   .alu(10)
                   .alu(9)
                   .alu(11, 8, 9)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(3), 0u);
}

TEST(ProfilerDeps, TieBreakPrefersLoad)
{
    // Load writes r8 and ALU writes r9 at the same distance: the
    // consumer entry lands in the load histogram.
    Trace tr = TraceBuilder()
                   .load(8, 0x10000000)
                   .alu(9)
                   .alu(11, 8, 9) // both at distance 2 and 1...
                   .build();
    // Rebuild precisely: load at distance 2, alu at distance 1 ->
    // shortest is the alu.  For the tie we need equal distances via
    // two sources written at the same position - impossible; instead
    // check: load at d=1, alu at d=1 cannot happen, so test priority
    // with distances equal by using a single dual-source consumer
    // whose producers sit at the same instruction? Registers are
    // written by distinct instructions, so a *true* tie cannot occur;
    // the rule only matters for equal distances measured from
    // different sources.  Verify the load classification itself:
    Trace tr2 = TraceBuilder()
                    .load(8, 0x10000000)
                    .alu(9, 8)
                    .build();
    WorkloadProfile p2 = profileTrace(tr2, tinyConfig());
    EXPECT_EQ(p2.program.deps.of(OpClass::Load).at(1), 1u);
    (void)tr;
}

TEST(ProfilerDeps, ProducerClassDecidesHistogram)
{
    Trace tr = TraceBuilder()
                   .op(OpClass::IntMult, 8)
                   .alu(9, 8)
                   .op(OpClass::FpDiv, 10)
                   .alu(11, 10)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntMult).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::FpDiv).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 0u);
}

TEST(ProfilerDeps, OverwrittenProducerUsesLatestWriter)
{
    // r8 written twice; consumer distance measured to the second.
    Trace tr = TraceBuilder()
                   .alu(8)
                   .op(OpClass::IntMult, 8)
                   .alu(9, 8)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntMult).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 0u);
}

TEST(ProfilerDeps, UnwrittenSourcesDontCount)
{
    Trace tr = TraceBuilder().alu(8, 0).alu(9, 1).build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    for (OpClass oc : kAllOpClasses)
        EXPECT_EQ(p.program.deps.of(oc).total(), 0u);
}

TEST(ProfilerDeps, BranchesAndStoresAreConsumers)
{
    Trace tr = TraceBuilder()
                   .alu(8)
                   .branch(false, 0, 8)
                   .alu(9)
                   .store(0x10000000, 9)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(1), 2u);
}

TEST(ProfilerDeps, MaxDistanceCapRespected)
{
    ProfilerConfig cfg = tinyConfig();
    cfg.maxDepDistance = 2;
    Trace tr = TraceBuilder()
                   .alu(8)
                   .alu(9)
                   .alu(10)
                   .alu(11, 8) // distance 3 > cap
                   .build();
    WorkloadProfile p = profileTrace(tr, cfg);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 0u);
}

// ---- mix and branch statistics ----------------------------------------------------

TEST(Profiler, MixCountsClasses)
{
    Trace tr = TraceBuilder()
                   .alu(8)
                   .op(OpClass::IntMult, 9)
                   .load(10, 0x10000000)
                   .store(0x10000040)
                   .branch(true)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.n, 5u);
    EXPECT_EQ(p.program.mix.of(OpClass::IntAlu), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::IntMult), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::Load), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::Store), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::Branch), 1u);
}

TEST(Profiler, BranchCounts)
{
    Trace tr = TraceBuilder()
                   .branch(true)
                   .branch(false)
                   .branch(true)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.branches, 3u);
    EXPECT_EQ(p.program.takenBranches, 2u);
    EXPECT_EQ(p.branchProfiles.size(), 1u);
    EXPECT_EQ(p.branchProfileFor(PredictorKind::NotTaken).mispredicts,
              2u);
}

// ---- memory statistics ----------------------------------------------------------------

TEST(ProfilerMemory, LoadClassification)
{
    // Two loads to the same line: first goes to memory, second hits
    // L1.  A load to a far line misses again.
    Trace tr = TraceBuilder()
                   .load(8, 0x10000000)
                   .load(9, 0x10000008)
                   .load(10, 0x10200000)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.loadMemory, 2u);
    EXPECT_EQ(p.memory.loadL2Hits, 0u);
    EXPECT_EQ(p.memory.loadMemoryIdx.size(), 2u);
    EXPECT_EQ(p.memory.loadMemoryIdx[0], 0u);
    EXPECT_EQ(p.memory.loadMemoryIdx[1], 2u);
}

TEST(ProfilerMemory, StoreMissesAreInformationalOnly)
{
    Trace tr = TraceBuilder().store(0x10000000).build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.storeL1Misses, 1u);
    EXPECT_EQ(p.memory.loadMemory, 0u);
}

TEST(ProfilerMemory, TlbMissesCounted)
{
    TraceBuilder b;
    // 40 loads, each on its own page: thrashes the 32-entry D-TLB.
    for (int i = 0; i < 40; ++i)
        b.load(static_cast<RegIndex>(8 + i % 20),
               0x10000000 + static_cast<Addr>(i) * 4096);
    Trace tr = b.build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.dtlbMisses, 40u);
    EXPECT_GE(p.memory.itlbMisses, 1u);
}

TEST(ProfilerMemory, IFetchMissesPerLine)
{
    // 32 sequential instructions = two 64B lines, cold.
    Trace tr = TraceBuilder().filler(32).build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.iFetchMemory, 2u);
    EXPECT_EQ(p.memory.iFetchL2Hits, 0u);
}

// ---- L2 stream capture and resweep ------------------------------------------------------

TEST(ProfilerResweep, SameGeometryReproducesCounts)
{
    Trace tr = generateTrace(profileByName("tiffmedian"), 30000);
    ProfilerConfig cfg;
    cfg.predictors = {PredictorKind::Gshare1K};
    cfg.captureL2Stream = true;
    WorkloadProfile p = profileTrace(tr, cfg);

    MemoryStats redo = resweepL2(p, cfg.hierarchy.l2);
    EXPECT_EQ(redo.loadL2Hits, p.memory.loadL2Hits);
    EXPECT_EQ(redo.loadMemory, p.memory.loadMemory);
    EXPECT_EQ(redo.iFetchL2Hits, p.memory.iFetchL2Hits);
    EXPECT_EQ(redo.iFetchMemory, p.memory.iFetchMemory);
    EXPECT_EQ(redo.loadMemoryIdx, p.memory.loadMemoryIdx);
}

TEST(ProfilerResweep, MatchesDirectProfilingAtOtherGeometry)
{
    // Replaying the captured stream into a different L2 must equal a
    // from-scratch profile with that L2 (the L2 input stream depends
    // only on the fixed L1s).
    Trace tr = generateTrace(profileByName("bzip2"), 30000);
    ProfilerConfig base;
    base.predictors = {PredictorKind::Gshare1K};
    base.captureL2Stream = true;
    WorkloadProfile captured = profileTrace(tr, base);

    CacheConfig small_l2{128 * 1024, 16, 64};
    MemoryStats swept = resweepL2(captured, small_l2);

    ProfilerConfig direct = base;
    direct.hierarchy.l2 = small_l2;
    WorkloadProfile reference = profileTrace(tr, direct);

    EXPECT_EQ(swept.loadL2Hits, reference.memory.loadL2Hits);
    EXPECT_EQ(swept.loadMemory, reference.memory.loadMemory);
    EXPECT_EQ(swept.iFetchL2Hits, reference.memory.iFetchL2Hits);
    EXPECT_EQ(swept.iFetchMemory, reference.memory.iFetchMemory);
}

TEST(ProfilerResweep, SmallerL2MissesMore)
{
    Trace tr = generateTrace(profileByName("gcc"), 40000);
    ProfilerConfig cfg;
    cfg.predictors = {PredictorKind::Gshare1K};
    cfg.captureL2Stream = true;
    WorkloadProfile p = profileTrace(tr, cfg);

    MemoryStats big = resweepL2(p, {1024 * 1024, 8, 64});
    MemoryStats small = resweepL2(p, {128 * 1024, 8, 64});
    EXPECT_GE(small.loadMemory, big.loadMemory);
}

// ---- L2 sweep pins ---------------------------------------------------------------------

/** A study-style profile of @p bench: default hierarchy, L2 stream kept. */
WorkloadProfile
capturedProfile(const char *bench, InstCount n)
{
    ProfilerConfig cfg;
    cfg.hierarchy = hierarchyFor(defaultDesignPoint());
    cfg.predictors = {PredictorKind::Gshare1K};
    cfg.captureL2Stream = true;
    return profileTrace(generateTrace(profileByName(bench), n), cfg);
}

/** Every MemoryStats field, both index vectors included, as one list. */
std::vector<std::uint64_t>
memoryFields(const MemoryStats &m)
{
    std::vector<std::uint64_t> out = {
        m.iFetchL2Hits, m.iFetchMemory, m.loadL2Hits,
        m.loadMemory,   m.storeL1Misses, m.itlbMisses,
        m.dtlbMisses,   m.loadMemoryIdx.size(), m.loadL2HitIdx.size()};
    out.insert(out.end(), m.loadMemoryIdx.begin(), m.loadMemoryIdx.end());
    out.insert(out.end(), m.loadL2HitIdx.begin(), m.loadL2HitIdx.end());
    return out;
}

/**
 * The reference L2 sweep: replay the captured stream through a fresh
 * SetAssocCache of geometry @p l2, one simulation per geometry.
 */
MemoryStats
replayL2(const WorkloadProfile &p, const CacheConfig &l2)
{
    MemoryStats out;
    out.itlbMisses = p.memory.itlbMisses;
    out.dtlbMisses = p.memory.dtlbMisses;
    out.storeL1Misses = p.memory.storeL1Misses;
    SetAssocCache cache(l2);
    for (const L2Ref &ref : p.l2Stream) {
        const bool hit = cache.access(ref.addr, ref.kind == L2RefKind::Store);
        if (ref.kind == L2RefKind::Ifetch) {
            ++(hit ? out.iFetchL2Hits : out.iFetchMemory);
        } else if (ref.kind == L2RefKind::Load) {
            ++(hit ? out.loadL2Hits : out.loadMemory);
            (hit ? out.loadL2HitIdx : out.loadMemoryIdx)
                .push_back(ref.instrIdx);
        }
    }
    return out;
}

TEST(L2Resweep, WideDigestPinned)
{
    // One FNV-1a digest over every MemoryStats field of the wide
    // preset's 56 L2 geometries on four workloads at 30k instructions.
    const std::vector<DesignPoint> geoms = SpaceSpec::wide().l2Geometries();
    ASSERT_EQ(geoms.size(), 56u);
    std::uint64_t digest = test::kFnvBasis;
    for (const char *bench : {"sha", "dijkstra", "qsort", "mcf"}) {
        WorkloadProfile p = capturedProfile(bench, 30000);
        for (const DesignPoint &g : geoms) {
            digest = test::fnvFold(
                digest,
                memoryFields(resweepL2(p, {g.l2KB * 1024, g.l2Assoc, 64})));
        }
    }
    EXPECT_EQ(digest, 8784211002221498665ull) << digest;
}

TEST(L2Resweep, CornerGeometriesMatchCacheReplay)
{
    // One set of 1024 ways, 2^20 direct-mapped sets, and two
    // mid-range geometries.
    const std::vector<CacheConfig> corners = {
        {64 * 1024, 1024, 64},
        {64ull * 1024 * 1024, 1, 64},
        {128 * 1024, 8, 64},
        {1024 * 1024, 16, 64},
    };
    for (const char *bench : {"sha", "dijkstra", "qsort", "mcf"}) {
        WorkloadProfile p = capturedProfile(bench, 30000);
        for (const CacheConfig &l2 : corners) {
            EXPECT_EQ(memoryFields(resweepL2(p, l2)),
                      memoryFields(replayL2(p, l2)))
                << bench << " " << l2.sizeBytes << " B " << l2.assoc
                << "-way";
        }
    }
}

TEST(L2Resweep, SharedDepthPassServesEverySetCountGroup)
{
    // DseStudy::prepare()'s grouping: one depth pass per set count,
    // capped at the group's widest associativity, must give every
    // geometry of the group its own one-geometry sweep.
    WorkloadProfile p = capturedProfile("mcf", 30000);
    std::map<std::uint64_t, std::vector<CacheConfig>> groups;
    for (const DesignPoint &g : SpaceSpec::wide().l2Geometries()) {
        const CacheConfig l2{g.l2KB * 1024, g.l2Assoc, 64};
        groups[l2.numSets()].push_back(l2);
    }
    EXPECT_EQ(groups.size(), 14u);
    for (const auto &[sets, geoms] : groups) {
        std::uint32_t widest = 0;
        for (const CacheConfig &l2 : geoms)
            widest = std::max(widest, l2.assoc);
        const std::vector<std::uint32_t> depths =
            l2StackDepths(p, sets, 64, widest);
        for (const CacheConfig &l2 : geoms) {
            EXPECT_EQ(memoryFields(resweepL2FromDepths(p, depths, l2.assoc)),
                      memoryFields(resweepL2(p, l2)))
                << sets << " sets, " << l2.assoc << "-way";
        }
    }
}

TEST(L2Resweep, PreparedStudyMatchesColdStudy)
{
    // A study warmed by prepare() and one memoizing each geometry on
    // first use evaluate every wide geometry identically, including
    // the OoO model, which reads the per-load index vectors.
    const BenchmarkProfile &bench = profileByName("qsort");
    DseStudy warm(bench, 20000);
    DseStudy cold(bench, 20000);
    const std::vector<DesignPoint> geoms = SpaceSpec::wide().l2Geometries();
    warm.prepare(geoms);
    const BackendSet backends = backendSet("model,ooo");
    for (const DesignPoint &g : geoms) {
        const PointEvaluation a = warm.evaluate(g, backends);
        const PointEvaluation b = cold.evaluate(g, backends);
        for (std::size_t i = 0; i < backends.size(); ++i) {
            EXPECT_EQ(a.results[i].cycles, b.results[i].cycles)
                << a.results[i].backend << " " << g.l2KB << " KiB "
                << g.l2Assoc << "-way";
        }
    }
}

TEST(L2Resweep, FullyAssociative64MiBMissesOnlyColdBlocks)
{
    // SpaceSpec::check() admits a single set of 2^20 ways, and serve
    // runs client points through that check.  Nothing is ever
    // evicted, so exactly the first reference to each block misses.
    DesignPoint point = defaultDesignPoint();
    point.l2KB = SpaceSpec::kMaxL2KB;
    point.l2Assoc = 1u << 20;
    ASSERT_EQ(SpaceSpec::single(point).check(), "");
    const CacheConfig l2{point.l2KB * 1024, point.l2Assoc, 64};
    ASSERT_EQ(l2.numSets(), 1u);

    WorkloadProfile p = capturedProfile("mcf", 30000);
    MemoryStats expected;
    expected.itlbMisses = p.memory.itlbMisses;
    expected.dtlbMisses = p.memory.dtlbMisses;
    expected.storeL1Misses = p.memory.storeL1Misses;
    std::unordered_set<std::uint64_t> blocks;
    std::uint64_t cold_stores = 0;
    for (const L2Ref &ref : p.l2Stream) {
        const bool cold = blocks.insert(ref.addr / 64).second;
        if (ref.kind == L2RefKind::Ifetch) {
            ++(cold ? expected.iFetchMemory : expected.iFetchL2Hits);
        } else if (ref.kind == L2RefKind::Load) {
            ++(cold ? expected.loadMemory : expected.loadL2Hits);
            (cold ? expected.loadMemoryIdx : expected.loadL2HitIdx)
                .push_back(ref.instrIdx);
        } else if (cold) {
            ++cold_stores;
        }
    }

    const MemoryStats got = resweepL2(p, l2);
    EXPECT_EQ(got.iFetchMemory + got.loadMemory + cold_stores,
              blocks.size());
    EXPECT_EQ(memoryFields(got), memoryFields(expected));
}

// ---- L2 sweep properties ---------------------------------------------------------------

TEST(L2ResweepProperty, MoreWaysOrMoreSetsNeverAddMisses)
{
    // Seeded random (profile, set count, associativity) triples.  A
    // reference that hits at (S, A) also hits at (S, 2A), by LRU
    // inclusion, and at (2S, A), by set refinement under bit-select
    // indexing.  Loads are checked per reference through their
    // instruction indices (ascending, one L2 reference per load),
    // instruction fetches through their counts.  Nothing is claimed
    // for more ways at a fixed size.
    Rng rng(2012);
    const std::vector<BenchmarkProfile> &suite = mibenchSuite();
    for (int trial = 0; trial < 16; ++trial) {
        const BenchmarkProfile &bench = suite[rng.below(suite.size())];
        const InstCount n = 10000 + rng.below(20000);
        WorkloadProfile p = capturedProfile(bench.name.c_str(), n);
        for (int k = 0; k < 8; ++k) {
            const std::uint64_t sets = 1ull << rng.below(15);
            const std::uint32_t assoc = 1u << rng.below(7);
            const std::uint64_t bytes = sets * assoc * 64;
            const MemoryStats base = resweepL2(p, {bytes, assoc, 64});
            const MemoryStats wider = resweepL2(p, {2 * bytes, 2 * assoc, 64});
            const MemoryStats more_sets = resweepL2(p, {2 * bytes, assoc, 64});
            for (const MemoryStats *big : {&wider, &more_sets}) {
                const char *what = big == &wider ? "2A" : "2S";
                EXPECT_TRUE(std::includes(
                    big->loadL2HitIdx.begin(), big->loadL2HitIdx.end(),
                    base.loadL2HitIdx.begin(), base.loadL2HitIdx.end()))
                    << bench.name << " S=" << sets << " A=" << assoc
                    << " vs " << what;
                EXPECT_LE(big->loadMemory, base.loadMemory);
                EXPECT_GE(big->iFetchL2Hits, base.iFetchL2Hits);
                EXPECT_LE(big->iFetchMemory, base.iFetchMemory)
                    << bench.name << " S=" << sets << " A=" << assoc
                    << " vs " << what;
            }
        }
    }
}

// ---- whole-suite sanity -------------------------------------------------------------------

TEST(Profiler, DeterministicAcrossRuns)
{
    Trace tr = generateTrace(profileByName("sha"), 20000);
    WorkloadProfile a = profileTrace(tr, tinyConfig());
    WorkloadProfile b = profileTrace(tr, tinyConfig());
    EXPECT_EQ(a.program.n, b.program.n);
    EXPECT_EQ(a.memory.loadL2Hits, b.memory.loadL2Hits);
    EXPECT_EQ(a.program.deps.of(OpClass::IntAlu).total(),
              b.program.deps.of(OpClass::IntAlu).total());
}

} // namespace
} // namespace mech
