/**
 * @file
 * Batched, cache-aware design-point evaluation for search strategies.
 *
 * SearchEvaluator owns the expensive per-benchmark state — one
 * DseStudy each (trace + profiling pass, or a loaded .mprof
 * artifact) — and turns batches of DesignPoints into SearchEvals:
 * per-benchmark objective values plus their cross-benchmark
 * aggregate, computed through a registry-selected backend (the
 * analytical model by default).  evaluateBatch() runs the shared
 * batch-evaluation core (search/batch_eval.hh) over those studies.
 */

#ifndef MECH_SEARCH_EVALUATOR_HH
#define MECH_SEARCH_EVALUATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "search/eval_cache.hh"
#include "search/objective.hh"
#include "search/space_spec.hh"
#include "workload/profile.hh"

namespace mech {

/** Evaluation-traffic counters for one search run. */
struct SearchStats
{
    /** Point lookups requested by the strategy. */
    std::uint64_t requested = 0;

    /** Lookups served from the memo (zero model evaluations). */
    std::uint64_t hits = 0;

    /** Fresh evaluations (the quantity --budget bounds). */
    std::uint64_t misses = 0;

    /** evaluateBatch() calls. */
    std::uint64_t batches = 0;
};

/** Shared evaluation engine behind every search strategy. */
class SearchEvaluator
{
  public:
    /**
     * @param benches Benchmarks the search optimizes over.
     * @param trace_len Dynamic instructions per benchmark trace.
     * @param objectives Objective set (first = scalar objective).
     * @param backends Backend set of exactly one backend, whose
     *        result feeds the objectives (default: the analytical
     *        model).  Larger sets are rejected with fatal() — their
     *        extra results could only be discarded, and e.g. "sim"
     *        would turn the search into a silent simulation
     *        campaign.  Validate winners against other backends
     *        after the search.
     */
    SearchEvaluator(std::vector<BenchmarkProfile> benches,
                    InstCount trace_len,
                    std::vector<Objective> objectives,
                    BackendSet backends = defaultBackends());
    ~SearchEvaluator();

    SearchEvaluator(const SearchEvaluator &) = delete;
    SearchEvaluator &operator=(const SearchEvaluator &) = delete;

    /**
     * Load studies from `.mprof` artifacts under @p dir when they
     * exist (see StudyRunner::useProfileDir).  Call before the first
     * prepare().
     */
    void useProfileDir(const std::string &dir);

    /**
     * Build the studies (once; parallel across @p pool) and warm
     * every L2 geometry of @p spec, so timed evaluations never meet
     * a cold geometry.  Also verifies the spec only uses profiled
     * predictors — a clear error beats a worker panic.  Idempotent
     * and cumulative across specs.
     */
    void prepare(const SpaceSpec &spec, ThreadPool &pool);

    /**
     * Evaluate @p points through the memo.  Returns one SearchEval
     * pointer per requested point, in request order (duplicates map
     * to the same entry).  @p stats is updated deterministically.
     * The pointers alias cache entries and stay valid for the
     * cache's lifetime.
     * @pre prepare() has built the studies.
     */
    std::vector<const SearchEval *>
    evaluateBatch(const std::vector<DesignPoint> &points,
                  EvalCache &cache, ThreadPool &pool,
                  SearchStats &stats) const;

    /** Benchmark names, in construction order. */
    std::vector<std::string> benchmarkNames() const;

    /** Number of benchmarks. */
    std::size_t benchmarkCount() const { return benches.size(); }

    /** The objective set. */
    const std::vector<Objective> &objectives() const { return objs; }

  private:
    std::vector<BenchmarkProfile> benches;
    InstCount traceLen;
    std::vector<Objective> objs;
    BackendSet backends_;
    std::string profileDir;
    std::vector<std::unique_ptr<DseStudy>> studies;

    /** The studies, as the batch core takes them. */
    std::vector<const DseStudy *> studyView;
};

/**
 * Why @p spec may not run on @p backend: it sweeps out-of-order axes
 * the backend ignores, so every swept value would be a paid-for
 * evaluation collapsing to the same result.  Empty when admissible;
 * otherwise a clause for the caller to prefix with its own subject
 * ("sweeps out-of-order axes ... but backend 'model' ignores them;
 * ...").
 */
std::string oooAxesIgnoredReason(const SpaceSpec &spec,
                                 const EvalBackend &backend);

/**
 * Why @p study cannot evaluate every predictor in @p kinds: the first
 * one it never profiled, which would otherwise panic deep inside a
 * worker.  Empty when every predictor is profiled.
 */
std::string
unprofiledPredictorReason(const DseStudy &study,
                          const std::vector<PredictorKind> &kinds);

} // namespace mech

#endif // MECH_SEARCH_EVALUATOR_HH
