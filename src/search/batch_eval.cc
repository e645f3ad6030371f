#include "search/batch_eval.hh"

#include <unordered_set>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "dse/study.hh"

namespace mech {

CachedBatch
evaluateCached(const std::vector<DesignPoint> &points,
               const std::vector<const DseStudy *> &studies,
               const BackendSet &backends,
               const std::vector<Objective> &objectives,
               EvalCache &cache, ThreadPool &pool)
{
    MECH_ASSERT(!studies.empty(), "no studies to evaluate");

    // Phase 1 (coordinating thread): classify hits, intra-batch
    // duplicates and fresh misses, counting in request order.
    CachedBatch out;
    out.evals.assign(points.size(), nullptr);
    out.wasHit.assign(points.size(), false);
    std::vector<std::size_t> missIdx;
    std::unordered_set<DesignPoint, DesignPointHash> fresh;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (const SearchEval *hit = cache.find(points[i])) {
            out.evals[i] = hit;
            out.wasHit[i] = true;
        } else if (!fresh.insert(points[i]).second) {
            out.wasHit[i] = true; // duplicate within this batch
        } else {
            missIdx.push_back(i);
        }
    }
    out.misses = missIdx.size();
    out.hits = points.size() - out.misses;

    // Phase 2 (pool): evaluate the misses through one bulk
    // index-range job — no per-task futures or allocations, and a
    // per-chunk scratch PointEvaluation reused across every
    // (point, study) evaluation of the chunk.  The inline pool takes
    // the whole range as one chunk.
    std::vector<SearchEval> computed(missIdx.size());
    if (!missIdx.empty()) {
        pool.parallelFor(
            missIdx.size(), pool.bulkChunk(missIdx.size()),
            [&](std::size_t begin, std::size_t end) {
                const std::size_t n_be = backends.size();
                const std::size_t k_objs = objectives.size();
                const std::size_t n_bench = studies.size();
                PointEvaluation scratch;
                for (std::size_t j = begin; j < end; ++j) {
                    SearchEval &eval = computed[j];
                    eval.point = points[missIdx[j]];
                    eval.aggregate.assign(n_be * k_objs, 0.0);
                    eval.perBench.resize(n_bench * n_be * k_objs);
                    for (std::size_t b = 0; b < n_bench; ++b) {
                        studies[b]->evaluateInto(scratch, eval.point,
                                                 backends);
                        for (std::size_t be = 0; be < n_be; ++be) {
                            const EvalResult &res = scratch.results[be];
                            for (std::size_t k = 0; k < k_objs; ++k) {
                                double v =
                                    objectives[k].value(res, eval.point);
                                eval.perBench[(b * n_be + be) * k_objs +
                                              k] = v;
                                eval.aggregate[be * k_objs + k] += v;
                            }
                        }
                    }
                    const double n = static_cast<double>(n_bench);
                    for (double &v : eval.aggregate)
                        v /= n;
                }
            });
    }

    // Phase 3 (coordinating thread): publish in request order.
    for (SearchEval &eval : computed)
        cache.insert(std::move(eval));
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!out.evals[i]) {
            out.evals[i] = cache.find(points[i]);
            MECH_ASSERT(out.evals[i],
                        "fresh evaluation missing from cache");
        }
    }
    return out;
}

} // namespace mech
