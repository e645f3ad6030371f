#include "profiler/profiler.hh"

#include <array>
#include <limits>

#include "cache/stack_sim.hh"
#include "common/logging.hh"

namespace mech {

namespace {

/**
 * Tie-break priority of producer classes at equal dependency
 * distance: prefer the costlier hazard.  Loads rank highest (they
 * produce latest, in the memory stage), then the longer-latency
 * arithmetic classes.
 */
int
producerPriority(OpClass oc)
{
    switch (oc) {
      case OpClass::Load: return 6;
      case OpClass::IntDiv: return 5;
      case OpClass::FpDiv: return 5;
      case OpClass::IntMult: return 4;
      case OpClass::FpMult: return 4;
      case OpClass::FpAlu: return 3;
      default: return 1;
    }
}

} // namespace

WorkloadProfile
profileTrace(const Trace &trace, const ProfilerConfig &config)
{
    WorkloadProfile out;
    out.program.n = trace.size();

    CacheHierarchy hier(config.hierarchy);
    BranchProfiler branches(config.predictors);

    struct LastWrite
    {
        std::uint64_t idx = 0;
        OpClass op = OpClass::IntAlu;
        bool valid = false;
    };
    std::array<LastWrite, kNumArchRegs> last_write{};

    const std::uint64_t max_d = config.maxDepDistance;

    // The instruction mix is accumulated inside the main walk instead
    // of a separate trace.mix() pass.
    InstMix &mix = out.program.mix;

    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const DynInstr &di = trace[i];

        ++mix.counts[static_cast<std::size_t>(di.op)];

        // ---- instruction-side memory behaviour -------------------------
        HierAccess ifetch = hier.fetch(di.pc);
        if (ifetch.tlbMiss)
            ++out.memory.itlbMisses;
        if (ifetch.level == MemLevel::L2) {
            ++out.memory.iFetchL2Hits;
            if (config.captureL2Stream)
                out.l2Stream.push_back({di.pc, i, L2RefKind::Ifetch});
        } else if (ifetch.level == MemLevel::Memory) {
            ++out.memory.iFetchMemory;
            if (config.captureL2Stream)
                out.l2Stream.push_back({di.pc, i, L2RefKind::Ifetch});
        }

        // ---- dependency measurement (shortest distance wins) -----------
        std::uint64_t best_d = std::numeric_limits<std::uint64_t>::max();
        OpClass best_op = OpClass::IntAlu;
        for (RegIndex src : {di.src1, di.src2}) {
            if (src == kNoReg)
                continue;
            const LastWrite &lw = last_write[src];
            if (!lw.valid)
                continue;
            std::uint64_t d = i - lw.idx;
            if (d < best_d ||
                (d == best_d &&
                 producerPriority(lw.op) > producerPriority(best_op))) {
                best_d = d;
                best_op = lw.op;
            }
        }
        if (best_d <= max_d)
            out.program.deps.of(best_op).add(best_d);

        // ---- data-side memory behaviour ---------------------------------
        if (di.op == OpClass::Load) {
            HierAccess acc = hier.data(di.effAddr, false);
            if (acc.tlbMiss)
                ++out.memory.dtlbMisses;
            if (acc.level == MemLevel::L2) {
                ++out.memory.loadL2Hits;
                out.memory.loadL2HitIdx.push_back(i);
                if (config.captureL2Stream)
                    out.l2Stream.push_back({di.effAddr, i, L2RefKind::Load});
            } else if (acc.level == MemLevel::Memory) {
                ++out.memory.loadMemory;
                out.memory.loadMemoryIdx.push_back(i);
                if (config.captureL2Stream)
                    out.l2Stream.push_back({di.effAddr, i, L2RefKind::Load});
            }
        } else if (di.op == OpClass::Store) {
            // Stores allocate but never block; TLB misses on stores are
            // absorbed by the ideal store buffer (DESIGN.md §3).
            HierAccess acc = hier.data(di.effAddr, true);
            if (acc.level != MemLevel::L1) {
                ++out.memory.storeL1Misses;
                if (config.captureL2Stream) {
                    out.l2Stream.push_back(
                        {di.effAddr, i, L2RefKind::Store});
                }
            }
        }

        // ---- branch behaviour -------------------------------------------
        if (isBranch(di.op)) {
            ++out.program.branches;
            if (di.taken)
                ++out.program.takenBranches;
            branches.observe(di.pc, di.taken);
        }

        // ---- producer side ------------------------------------------------
        if (di.hasDst())
            last_write[di.dst] = {i, di.op, true};
    }

    mix.total = trace.size();
    out.branchProfiles = branches.profiles();
    return out;
}

std::vector<std::uint32_t>
l2StackDepths(const WorkloadProfile &profile, std::uint64_t num_sets,
              std::uint32_t block_bytes, std::uint32_t max_assoc)
{
    MECH_ASSERT(!profile.l2Stream.empty() ||
                    (profile.memory.iFetchL2Hits +
                     profile.memory.iFetchMemory +
                     profile.memory.loadL2Hits + profile.memory.loadMemory +
                     profile.memory.storeL1Misses) == 0,
                "L2 sweeps require a profile captured with "
                "captureL2Stream=true");

    // Stores take part: they allocate like any other reference.
    StackDistanceSimulator stack(num_sets, block_bytes, max_assoc);
    stack.reserve(profile.l2Stream.size());
    std::vector<std::uint32_t> depths;
    depths.reserve(profile.l2Stream.size());
    for (const auto &ref : profile.l2Stream)
        depths.push_back(stack.access(ref.addr));
    return depths;
}

MemoryStats
resweepL2FromDepths(const WorkloadProfile &profile,
                    const std::vector<std::uint32_t> &depths,
                    std::uint32_t assoc)
{
    MECH_ASSERT(depths.size() == profile.l2Stream.size(),
                "depths do not match the profile's L2 stream");

    MemoryStats out;
    // L1/TLB statistics are unaffected by L2 geometry.
    out.itlbMisses = profile.memory.itlbMisses;
    out.dtlbMisses = profile.memory.dtlbMisses;
    out.storeL1Misses = profile.memory.storeL1Misses;

    for (std::size_t i = 0; i < depths.size(); ++i) {
        const L2Ref &ref = profile.l2Stream[i];
        const bool hit = depths[i] != 0 && depths[i] <= assoc;
        switch (ref.kind) {
          case L2RefKind::Ifetch:
            hit ? ++out.iFetchL2Hits : ++out.iFetchMemory;
            break;
          case L2RefKind::Load:
            if (hit) {
                ++out.loadL2Hits;
                out.loadL2HitIdx.push_back(ref.instrIdx);
            } else {
                ++out.loadMemory;
                out.loadMemoryIdx.push_back(ref.instrIdx);
            }
            break;
          case L2RefKind::Store:
            break; // stores never block; allocation already applied
        }
    }
    return out;
}

MemoryStats
resweepL2(const WorkloadProfile &profile, const CacheConfig &l2_config)
{
    l2_config.validate();
    return resweepL2FromDepths(
        profile,
        l2StackDepths(profile, l2_config.numSets(), l2_config.blockBytes,
                      l2_config.assoc),
        l2_config.assoc);
}

} // namespace mech
