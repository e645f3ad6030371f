#include "search/evaluator.hh"

#include <utility>

#include "common/logging.hh"
#include "search/batch_eval.hh"

namespace mech {

SearchEvaluator::SearchEvaluator(std::vector<BenchmarkProfile> benches,
                                 InstCount trace_len,
                                 std::vector<Objective> objectives,
                                 BackendSet backends)
    : benches(std::move(benches)), traceLen(trace_len),
      objs(std::move(objectives)), backends_(std::move(backends))
{
    MECH_ASSERT(!this->benches.empty(), "no benchmarks to search over");
    MECH_ASSERT(!objs.empty(), "no objectives");
    MECH_ASSERT(!backends_.empty(), "empty backend set");
    // Only the first backend's result can feed the objectives;
    // evaluating the rest of a set would be paid-for, discarded
    // work (a "model,sim" set would run a silent simulation
    // campaign).  Reject it loudly instead.
    if (backends_.size() != 1) {
        fatal("search evaluation uses exactly one backend (got ",
              backends_.size(),
              "); validate winners against other backends "
              "afterwards");
    }
}

SearchEvaluator::~SearchEvaluator() = default;

void
SearchEvaluator::useProfileDir(const std::string &dir)
{
    MECH_ASSERT(studies.empty(),
                "useProfileDir must precede the first prepare()");
    profileDir = dir;
}

void
SearchEvaluator::prepare(const SpaceSpec &spec, ThreadPool &pool)
{
    if (studies.empty()) {
        studies = DseStudy::loadOrProfileAll(profileDir, benches,
                                             traceLen, pool);
        studyView.assign(studies.size(), nullptr);
        for (std::size_t b = 0; b < studies.size(); ++b)
            studyView[b] = studies[b].get();
    }

    // Reject configurations that would waste or crash the sweep
    // loudly, before any evaluation.
    if (std::string why = oooAxesIgnoredReason(spec, *backends_[0]);
        !why.empty()) {
        fatal("the space ", why);
    }
    if (std::string why =
            unprofiledPredictorReason(*studies[0], spec.predictor);
        !why.empty()) {
        fatal(why);
    }

    // Warm every L2 geometry the spec can produce, one task per
    // study, so the re-sweeps run in parallel before the search.
    const std::vector<DesignPoint> reps = spec.l2Geometries();
    pool.parallelFor(studies.size(), 1,
                     [this, &reps](std::size_t begin, std::size_t end) {
                         for (std::size_t b = begin; b < end; ++b)
                             studies[b]->prepare(reps);
                     });
}

std::string
oooAxesIgnoredReason(const SpaceSpec &spec, const EvalBackend &backend)
{
    // The in-order model and simulator ignore OooParams entirely.
    if (!spec.hasOooAxes() || backend.usesOoo())
        return "";
    return "sweeps out-of-order axes (rob/iq/fu*/buses) but backend '" +
           std::string(backend.name()) +
           "' ignores them; use an out-of-order backend (ooo, oosim)";
}

std::string
unprofiledPredictorReason(const DseStudy &study,
                          const std::vector<PredictorKind> &kinds)
{
    for (PredictorKind kind : kinds) {
        if (!study.profiles(kind)) {
            return "predictor '" + std::string(predictorKey(kind)) +
                   "' is outside the profiled design space "
                   "(profiled: gshare1k, hybrid3k5)";
        }
    }
    return "";
}

std::vector<const SearchEval *>
SearchEvaluator::evaluateBatch(const std::vector<DesignPoint> &points,
                               EvalCache &cache, ThreadPool &pool,
                               SearchStats &stats) const
{
    MECH_ASSERT(!studies.empty(),
                "prepare() must run before evaluateBatch()");
    CachedBatch batch =
        evaluateCached(points, studyView, backends_, objs, cache, pool);
    ++stats.batches;
    stats.requested += points.size();
    stats.hits += batch.hits;
    stats.misses += batch.misses;
    return std::move(batch.evals);
}

std::vector<std::string>
SearchEvaluator::benchmarkNames() const
{
    std::vector<std::string> names;
    names.reserve(benches.size());
    for (const auto &bench : benches)
        names.push_back(bench.name);
    return names;
}

} // namespace mech
