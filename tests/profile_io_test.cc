/**
 * @file
 * Tests for the `.mprof` profile artifact codec: bit-identical model
 * results across a save/load round trip over the full 192-point
 * Table 2 space (the acceptance contract of the artifact workflow),
 * lossless field-level round trips, and rejection of truncated files,
 * bad magic, and future format versions.
 */

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "profiler/profile_io.hh"
#include "workload/suites.hh"

namespace {

using namespace mech;
using namespace std::string_literals;

constexpr InstCount kLen = 20000;

std::string
encode(const ProfileArtifact &artifact)
{
    return encodeProfileArtifact(artifact);
}

/** One shared in-memory artifact encoding for the format tests. */
const std::string &
encodedArtifact()
{
    static const std::string encoded = [] {
        DseStudy study(profileByName("patricia"), kLen);
        ProfileArtifact artifact;
        artifact.name = study.name();
        artifact.profile = study.profile();
        artifact.trace = study.trace();
        artifact.hasTrace = true;
        return encode(artifact);
    }();
    return encoded;
}

ProfileArtifact
decode(const std::string &bytes)
{
    return decodeProfileArtifact(bytes);
}

// ---- golden equality: artifact path vs in-process path --------------------------

TEST(ProfileIo, ModelResultsBitIdenticalAcrossFullTable2Space)
{
    const std::string path =
        testing::TempDir() + "profile_io_roundtrip.mprof";

    DseStudy fresh(profileByName("tiffdither"), kLen);
    fresh.save(path);
    DseStudy loaded = DseStudy::load(path);

    EXPECT_EQ(loaded.name(), fresh.name());
    ASSERT_TRUE(loaded.hasTrace());

    auto space = table2Space();
    ASSERT_EQ(space.size(), 192u);
    for (const auto &point : space) {
        EvalResult a = fresh.evaluate(point).model();
        EvalResult b = loaded.evaluate(point).model();
        // Bitwise equality: the artifact round trip must be exact,
        // not approximately equal.
        ASSERT_EQ(a.cycles, b.cycles) << point.label();
        ASSERT_EQ(a.instructions, b.instructions) << point.label();
        ASSERT_EQ(a.edp, b.edp) << point.label();
        for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
            auto comp = static_cast<CpiComponent>(c);
            ASSERT_EQ(a.stack[comp], b.stack[comp])
                << point.label() << " component "
                << cpiComponentName(comp);
        }
    }
}

TEST(ProfileIo, SimulationBitIdenticalFromLoadedTrace)
{
    const std::string path =
        testing::TempDir() + "profile_io_sim.mprof";

    DseStudy fresh(profileByName("sha"), kLen);
    fresh.save(path);
    DseStudy loaded = DseStudy::load(path);

    const BackendSet backends = backendSet("sim");
    DesignPoint point = defaultDesignPoint();
    EvalResult a = fresh.evaluate(point, backends).of(kSimBackend);
    EvalResult b = loaded.evaluate(point, backends).of(kSimBackend);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.detail->cycles, b.detail->cycles);
    EXPECT_EQ(a.detail->mispredicts, b.detail->mispredicts);
    EXPECT_EQ(a.detail->dependencyStallCycles,
              b.detail->dependencyStallCycles);
}

// ---- lossless field round trip ---------------------------------------------------

TEST(ProfileIo, FieldsRoundTripLosslessly)
{
    ProfileArtifact artifact = decode(encodedArtifact());
    ProfileArtifact again;
    {
        const std::string reencoded = encode(artifact);
        ASSERT_EQ(reencoded, encodedArtifact())
            << "re-encoding must be byte-identical";
        again = decode(reencoded);
    }

    const WorkloadProfile &p = artifact.profile;
    const WorkloadProfile &q = again.profile;
    EXPECT_EQ(artifact.name, again.name);
    EXPECT_EQ(p.program.n, q.program.n);
    EXPECT_EQ(p.program.branches, q.program.branches);
    EXPECT_EQ(p.program.takenBranches, q.program.takenBranches);
    for (std::size_t oc = 0; oc < kNumOpClasses; ++oc) {
        EXPECT_EQ(p.program.mix.counts[oc], q.program.mix.counts[oc]);
        const Histogram &ha =
            p.program.deps.of(static_cast<OpClass>(oc));
        const Histogram &hb =
            q.program.deps.of(static_cast<OpClass>(oc));
        EXPECT_EQ(ha.total(), hb.total());
        EXPECT_EQ(ha.maxKey(), hb.maxKey());
        for (std::uint64_t k = 0; k <= ha.maxKey(); ++k)
            EXPECT_EQ(ha.at(k), hb.at(k));
    }
    EXPECT_EQ(p.memory.loadMemoryIdx, q.memory.loadMemoryIdx);
    EXPECT_EQ(p.memory.loadL2HitIdx, q.memory.loadL2HitIdx);
    EXPECT_EQ(p.l2Stream.size(), q.l2Stream.size());
    ASSERT_EQ(p.branchProfiles.size(), q.branchProfiles.size());
    for (std::size_t i = 0; i < p.branchProfiles.size(); ++i) {
        EXPECT_EQ(p.branchProfiles[i].kind, q.branchProfiles[i].kind);
        EXPECT_EQ(p.branchProfiles[i].mispredicts,
                  q.branchProfiles[i].mispredicts);
        EXPECT_EQ(p.branchProfiles[i].predictedTakenCorrect,
                  q.branchProfiles[i].predictedTakenCorrect);
    }
    ASSERT_EQ(artifact.trace.size(), again.trace.size());
    for (std::size_t i = 0; i < artifact.trace.size(); ++i) {
        EXPECT_EQ(artifact.trace[i].pc, again.trace[i].pc);
        EXPECT_EQ(artifact.trace[i].op, again.trace[i].op);
        EXPECT_EQ(artifact.trace[i].taken, again.trace[i].taken);
    }
}

TEST(ProfileIo, TracelessArtifactSupportsModelOnly)
{
    const std::string path =
        testing::TempDir() + "profile_io_notrace.mprof";

    DseStudy fresh(profileByName("qsort"), kLen);
    fresh.save(path, /*include_trace=*/false);
    DseStudy loaded = DseStudy::load(path);

    EXPECT_FALSE(loaded.hasTrace());
    EvalResult a = fresh.evaluate(defaultDesignPoint()).model();
    EvalResult b = loaded.evaluate(defaultDesignPoint()).model();
    EXPECT_EQ(a.cycles, b.cycles);
}

// ---- malformed input rejection ---------------------------------------------------

TEST(ProfileIo, RejectsBadMagic)
{
    std::string bytes = encodedArtifact();
    bytes[0] = 'X';
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsFutureVersion)
{
    std::string bytes = encodedArtifact();
    // The version is the little-endian u32 right after the magic.
    bytes[4] = static_cast<char>(kProfileFormatVersion + 1);
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsVersionZero)
{
    std::string bytes = encodedArtifact();
    bytes[4] = 0;
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsTruncation)
{
    const std::string &bytes = encodedArtifact();
    // Cut everywhere interesting: inside the header, inside each
    // section, and one byte short of complete.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{3}, std::size_t{6},
          std::size_t{16}, bytes.size() / 4, bytes.size() / 2,
          bytes.size() - 1}) {
        ASSERT_LT(cut, bytes.size());
        EXPECT_THROW(decode(bytes.substr(0, cut)), ProfileIoError)
            << "cut at " << cut;
    }
}

TEST(ProfileIo, RejectsTrailingCorruption)
{
    std::string bytes = encodedArtifact();
    // Damage the end marker: everything parses but the file cannot
    // be trusted.
    bytes[bytes.size() - 1] = '?';
    EXPECT_THROW(decode(bytes), ProfileIoError);
}

TEST(ProfileIo, RejectsTrailingBytes)
{
    // `cat a.mprof b.mprof` must not load silently as a.
    EXPECT_THROW(decode(encodedArtifact() + encodedArtifact()),
                 ProfileIoError);
    EXPECT_THROW(decode(encodedArtifact() + '\0'), ProfileIoError);
}

TEST(ProfileIo, MissingFileThrows)
{
    EXPECT_THROW(
        loadProfileArtifact(testing::TempDir() +
                            "profile_io_does_not_exist.mprof"),
        ProfileIoError);
}

TEST(ProfileIo, SaveReplacesTargetAtomically)
{
    const std::string dir = testing::TempDir() + "profile_io_atomic";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directory(dir));
    const std::string path = profileArtifactPath(dir, "shared");

    DseStudy(profileByName("sha"), kLen).save(path);
    DseStudy second(profileByName("qsort"), kLen);
    second.save(path, /*include_trace=*/false);

    DseStudy loaded = DseStudy::load(path);
    EXPECT_EQ(loaded.name(), second.name());
    EXPECT_FALSE(loaded.hasTrace());
    EXPECT_EQ(loaded.evaluate(defaultDesignPoint()).model().cycles,
              second.evaluate(defaultDesignPoint()).model().cycles);

    // The replaced artifact is the only file: no staging file remains.
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"shared.mprof"});
    std::filesystem::remove_all(dir);
}

// ---- format pin ------------------------------------------------------------------

/**
 * The smallest artifact that touches every section: a 2-char name, a
 * few counters, one dependency histogram, 2 L2 references and 2
 * trace instructions.  Multi-byte values pin the byte order.
 */
ProfileArtifact
minimalArtifact()
{
    ProfileArtifact a;
    a.name = "ab";
    ProgramStats &p = a.profile.program;
    p.n = 2;
    p.mix.counts[static_cast<std::size_t>(OpClass::Load)] = 1;
    p.mix.counts[static_cast<std::size_t>(OpClass::Branch)] = 1;
    p.mix.total = 2;
    p.deps.of(OpClass::Load).add(1);
    p.branches = 0x0102;
    p.takenBranches = 0x0304;

    MemoryStats &m = a.profile.memory;
    m.iFetchL2Hits = 1;
    m.iFetchMemory = 2;
    m.loadL2Hits = 3;
    m.loadMemory = 4;
    m.storeL1Misses = 5;
    m.itlbMisses = 6;
    m.dtlbMisses = 7;
    m.loadMemoryIdx = {1};

    BranchProfile bp;
    bp.kind = PredictorKind::Hybrid3K5;
    bp.branches = 1;
    bp.mispredicts = 0;
    bp.predictedTaken = 1;
    bp.predictedTakenCorrect = 1;
    a.profile.branchProfiles = {bp};

    a.profile.l2Stream = {{0x1000, 0, L2RefKind::Ifetch},
                          {0x2040, 1, L2RefKind::Load}};

    DynInstr branch;
    branch.pc = 0x400000;
    branch.targetPc = 0x400010;
    branch.src1 = 2;
    branch.op = OpClass::Branch;
    branch.taken = true;
    DynInstr load;
    load.pc = 0x400010;
    load.effAddr = 0x1122334455667788;
    load.dst = 3;
    load.src1 = 1;
    load.op = OpClass::Load;
    a.trace.push(branch);
    a.trace.push(load);
    return a;
}

/** minimalArtifact() encoded, spelled out byte by byte (format v1). */
const std::string kMinimalArtifactBytes =
    "MPRF"
    "\x01\x00\x00\x00"                 // version 1
    "\x01\x00\x00\x00"                 // flags: trace present
    "\x02\x00\x00\x00\x00\x00\x00\x00" // name length (u64)
    "ab"
    // program: n, op-class count (u32), 10 mix counts, mix total
    "\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x0a\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00" // IntAlu
    "\x00\x00\x00\x00\x00\x00\x00\x00" // IntMult
    "\x00\x00\x00\x00\x00\x00\x00\x00" // IntDiv
    "\x00\x00\x00\x00\x00\x00\x00\x00" // FpAlu
    "\x00\x00\x00\x00\x00\x00\x00\x00" // FpMult
    "\x00\x00\x00\x00\x00\x00\x00\x00" // FpDiv
    "\x01\x00\x00\x00\x00\x00\x00\x00" // Load
    "\x00\x00\x00\x00\x00\x00\x00\x00" // Store
    "\x01\x00\x00\x00\x00\x00\x00\x00" // Branch
    "\x00\x00\x00\x00\x00\x00\x00\x00" // Nop
    "\x02\x00\x00\x00\x00\x00\x00\x00" // total
    // program: one dependency histogram per op class (u64 size +
    // counts); only Load's is non-empty: {0, 1}
    "\x00\x00\x00\x00\x00\x00\x00\x00" // IntAlu
    "\x00\x00\x00\x00\x00\x00\x00\x00" // IntMult
    "\x00\x00\x00\x00\x00\x00\x00\x00" // IntDiv
    "\x00\x00\x00\x00\x00\x00\x00\x00" // FpAlu
    "\x00\x00\x00\x00\x00\x00\x00\x00" // FpMult
    "\x00\x00\x00\x00\x00\x00\x00\x00" // FpDiv
    "\x02\x00\x00\x00\x00\x00\x00\x00" // Load: size 2
    "\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00" // Store
    "\x00\x00\x00\x00\x00\x00\x00\x00" // Branch
    "\x00\x00\x00\x00\x00\x00\x00\x00" // Nop
    "\x02\x01\x00\x00\x00\x00\x00\x00" // branches
    "\x04\x03\x00\x00\x00\x00\x00\x00" // taken branches
    // memory: 7 counters, then two u64-length index vectors
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x03\x00\x00\x00\x00\x00\x00\x00"
    "\x04\x00\x00\x00\x00\x00\x00\x00"
    "\x05\x00\x00\x00\x00\x00\x00\x00"
    "\x06\x00\x00\x00\x00\x00\x00\x00"
    "\x07\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00" // loadMemoryIdx = {1}
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00" // loadL2HitIdx = {}
    // branch profiles: u32 count; kind (u8) + 4 counters each
    "\x01\x00\x00\x00"
    "\x05"                             // Hybrid3K5
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    // L2 stream: u64 count; addr, instrIdx, kind (u8) each
    "\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x10\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00"                             // Ifetch
    "\x40\x20\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x01"                             // Load
    // trace: u64 count; pc, effAddr, targetPc, dst/src1/src2 (u16),
    // op (u8), taken (u8) each
    "\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x40\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x10\x00\x40\x00\x00\x00\x00\x00"
    "\xff\xff\x02\x00\xff\xff"
    "\x08\x01"                         // Branch, taken
    "\x10\x00\x40\x00\x00\x00\x00\x00"
    "\x88\x77\x66\x55\x44\x33\x22\x11"
    "\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x03\x00\x01\x00\xff\xff"
    "\x06\x00"                         // Load, not taken
    "MEND"s;

TEST(ProfileIo, FormatPinnedByteForByte)
{
    const std::string bytes = encode(minimalArtifact());
    ASSERT_EQ(bytes, kMinimalArtifactBytes);

    ProfileArtifact back = decode(kMinimalArtifactBytes);
    EXPECT_EQ(encode(back), kMinimalArtifactBytes);
    EXPECT_EQ(back.name, "ab");
    EXPECT_TRUE(back.hasTrace);
    EXPECT_EQ(back.profile.program.takenBranches, 0x0304u);
    EXPECT_EQ(back.profile.program.deps.of(OpClass::Load).at(1), 1u);
    EXPECT_EQ(back.profile.memory.loadMemoryIdx,
              std::vector<std::uint64_t>{1});
    ASSERT_EQ(back.profile.l2Stream.size(), 2u);
    EXPECT_EQ(back.profile.l2Stream[1].addr, 0x2040u);
    EXPECT_EQ(back.profile.l2Stream[1].kind, L2RefKind::Load);
    ASSERT_EQ(back.trace.size(), 2u);
    EXPECT_TRUE(back.trace[0].taken);
    EXPECT_EQ(back.trace[1].effAddr, 0x1122334455667788u);
    EXPECT_EQ(back.trace[1].op, OpClass::Load);

    for (std::size_t len = 0; len < kMinimalArtifactBytes.size(); ++len) {
        EXPECT_THROW(decode(kMinimalArtifactBytes.substr(0, len)),
                     ProfileIoError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(ProfileIo, ArtifactPathJoinsDirAndName)
{
    EXPECT_EQ(profileArtifactPath("profiles", "sha"),
              "profiles/sha.mprof");
    EXPECT_EQ(profileArtifactPath("profiles/", "sha"),
              "profiles/sha.mprof");
}

} // namespace
