/**
 * @file
 * The profiling pass: one walk over a dynamic trace collecting every
 * model input (paper Fig. 2 "profiling run").
 *
 * Program statistics (mix, dependency distances) are machine
 * independent; the same pass also runs the trace through a concrete
 * cache hierarchy and a set of branch predictors to collect the mixed
 * program-machine statistics.  Re-profiling is only needed when the
 * L1/TLB geometry changes; predictor sweeps are all collected in this
 * single pass.
 *
 * L2 geometry sweeps reuse the captured L2 stream.  One
 * stack-distance pass over it (l2StackDepths) records every
 * reference's LRU depth for one L2 set count, and each associativity
 * sharing that set count is then a linear pass over the depths
 * (resweepL2FromDepths).  resweepL2 is the one-geometry case.
 */

#ifndef MECH_PROFILER_PROFILER_HH
#define MECH_PROFILER_PROFILER_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "profiler/profile_data.hh"
#include "trace/trace.hh"

namespace mech {

/** Options for one profiling pass. */
struct ProfilerConfig
{
    /** Hierarchy to collect miss statistics for. */
    HierarchyConfig hierarchy;

    /** Predictors to train simultaneously. */
    std::vector<PredictorKind> predictors = {PredictorKind::Gshare1K,
                                             PredictorKind::Hybrid3K5};

    /** Capture the L2 input stream for later geometry sweeps. */
    bool captureL2Stream = false;

    /** Longest dependency distance recorded in the histograms. */
    std::uint64_t maxDepDistance = 63;
};

/** Run the profiling pass over @p trace. */
WorkloadProfile profileTrace(const Trace &trace,
                             const ProfilerConfig &config);

/**
 * LRU stack depth of every reference in @p profile's captured L2
 * stream, in stream order, for an L2 of @p num_sets sets of
 * @p block_bytes lines.  Depths are 1-based; 0 means cold or deeper
 * than @p max_assoc.  One pass serves every associativity up to
 * @p max_assoc (see resweepL2FromDepths).
 *
 * @pre profile was collected with captureL2Stream = true.
 */
std::vector<std::uint32_t> l2StackDepths(const WorkloadProfile &profile,
                                         std::uint64_t num_sets,
                                         std::uint32_t block_bytes,
                                         std::uint32_t max_assoc);

/**
 * MemoryStats of an @p assoc-way L2 with the set count @p depths was
 * recorded at: a reference hits when its depth is nonzero and at most
 * @p assoc.
 *
 * L1 and TLB statistics are geometry-invariant under this sweep and
 * are copied through.
 *
 * @param depths l2StackDepths() of @p profile, with max_assoc >= assoc.
 */
MemoryStats resweepL2FromDepths(const WorkloadProfile &profile,
                                const std::vector<std::uint32_t> &depths,
                                std::uint32_t assoc);

/**
 * Re-derive MemoryStats for a different unified-L2 geometry from the
 * captured L2 stream of @p profile: one depth pass capped at the
 * geometry's associativity, then resweepL2FromDepths().
 *
 * @pre profile was collected with captureL2Stream = true.
 */
MemoryStats resweepL2(const WorkloadProfile &profile,
                      const CacheConfig &l2_config);

} // namespace mech

#endif // MECH_PROFILER_PROFILER_HH
