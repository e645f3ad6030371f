/**
 * @file
 * The one batch-evaluation core: design points x studies x backends x
 * objectives, memoized through an EvalCache.  SearchEvaluator and the
 * serve layer's EvalService are thin callers.
 *
 * evaluateCached() is where the memoized cache and the thread pool
 * meet, in a deterministic three-phase dance:
 *
 *   1. on the coordinating thread, classify each requested point as
 *      a cache hit, an intra-batch duplicate (also a hit), or a
 *      fresh miss — counts are taken here, in request order, so
 *      hit/miss numbers never depend on worker scheduling;
 *   2. misses are sharded across the pool (shared studies, const
 *      evaluation) — the only parallel phase;
 *   3. results insert into the cache in request order, again on the
 *      coordinating thread, so cache entry order is deterministic.
 *
 * The studies need no preparation and no lock: a DseStudy memoizes
 * each L2 geometry itself, safely under any concurrency, so several
 * coordinators may run batches over overlapping studies at once.
 *
 * SearchEval layout, for NB studies, NBE backends and K objectives:
 * aggregate[be * K + k] is the mean over studies of objective k
 * through backend be, and perBench[(b * NBE + be) * K + k] the value
 * for study b.  With one backend this is aggregate[k] and
 * perBench[b * K + k].
 */

#ifndef MECH_SEARCH_BATCH_EVAL_HH
#define MECH_SEARCH_BATCH_EVAL_HH

#include <cstdint>
#include <vector>

#include "dse/design_space.hh"
#include "eval/registry.hh"
#include "search/eval_cache.hh"
#include "search/objective.hh"

namespace mech {

class DseStudy;
class ThreadPool;

/** The outcome of one evaluateCached() call. */
struct CachedBatch
{
    /**
     * One entry per requested point, in request order (duplicates
     * map to the same entry).  The pointers alias cache entries and
     * stay valid for the cache's lifetime.
     */
    std::vector<const SearchEval *> evals;

    /** wasHit[i]: point i needed no fresh evaluation. */
    std::vector<bool> wasHit;

    /** Cache hits plus intra-batch duplicates. */
    std::uint64_t hits = 0;

    /** Fresh evaluations. */
    std::uint64_t misses = 0;
};

/**
 * Evaluate @p points on every study through every backend, scoring
 * each result with every objective; cached points are served from
 * @p cache, fresh ones computed across @p pool and inserted.
 */
CachedBatch evaluateCached(const std::vector<DesignPoint> &points,
                           const std::vector<const DseStudy *> &studies,
                           const BackendSet &backends,
                           const std::vector<Objective> &objectives,
                           EvalCache &cache, ThreadPool &pool);

} // namespace mech

#endif // MECH_SEARCH_BATCH_EVAL_HH
