#include "dse/study_runner.hh"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace mech {

namespace {

/** One point per distinct L2 geometry of @p points, first seen first. */
std::vector<DesignPoint>
l2Geometries(const std::vector<DesignPoint> &points)
{
    std::vector<DesignPoint> reps;
    std::set<std::pair<std::uint64_t, std::uint32_t>> seen;
    for (const DesignPoint &p : points) {
        if (seen.insert({p.l2KB, p.l2Assoc}).second)
            reps.push_back(p);
    }
    return reps;
}

} // namespace

StudyRunner::StudyRunner(std::vector<BenchmarkProfile> benches,
                         InstCount trace_len, BackendSet backends)
    : benches(std::move(benches)), traceLen(trace_len),
      backends_(std::move(backends))
{
    MECH_ASSERT(!backends_.empty(), "empty backend set");
}

StudyRunner::~StudyRunner() = default;

void
StudyRunner::useProfileDir(const std::string &dir)
{
    MECH_ASSERT(studies.empty(),
                "useProfileDir must precede the first evaluateAll");
    profileDir = dir;
}

const DseStudy &
StudyRunner::study(std::size_t bench_idx) const
{
    MECH_ASSERT(bench_idx < studies.size() && studies[bench_idx],
                "study not built; call evaluateAll first");
    return *studies[bench_idx];
}

ThreadPool &
StudyRunner::poolFor(unsigned nthreads)
{
    // nthreads <= 1 maps to a zero-worker pool that runs everything
    // inline on the calling thread — the strictly serial path.
    const unsigned workers = nthreads <= 1 ? 0 : nthreads;
    if (!pool_ || poolThreads_ != workers) {
        pool_.reset(); // join the old workers before spawning anew
        pool_ = std::make_unique<ThreadPool>(workers);
        poolThreads_ = workers;
    }
    return *pool_;
}

std::vector<StudyResult>
StudyRunner::evaluateAll(const std::vector<DesignPoint> &points,
                         unsigned nthreads)
{
    obs::TraceSpan span("study.evaluateAll", "dse");
    {
        static obs::Counter &sweeps =
            obs::MetricsRegistry::global().counter(
                "dse.sweeps", "evaluateAll sweeps run");
        static obs::Counter &evals =
            obs::MetricsRegistry::global().counter(
                "dse.points_evaluated",
                "(benchmark x point) evaluations requested of "
                "evaluateAll");
        sweeps.inc();
        evals.inc(benches.size() * points.size());
    }
    std::vector<StudyResult> results(benches.size());
    ThreadPool &pool = poolFor(nthreads);

    // Phase 1: obtain each benchmark's study — loaded from its saved
    // artifact when a profile directory supplies one, otherwise built
    // in-process (trace generation + the single profiling pass).
    // Then, one task per benchmark: warm every L2 geometry the sweep
    // will touch, so the re-sweeps run in parallel ahead of phase 2,
    // and build that benchmark's result slots.  The sweep's distinct
    // geometries are found once here, not by every study.  Building
    // the slots in the pool spreads their construction and first
    // touch (about 140 MB for the wide preset over 29 profiles)
    // across the workers instead of leaving it to this thread.
    if (studies.empty()) {
        studies = DseStudy::loadOrProfileAll(profileDir, benches,
                                             traceLen, pool);
    }
    const std::vector<DesignPoint> geometries = l2Geometries(points);
    pool.parallelFor(
        studies.size(), 1,
        [this, &geometries, &results,
         npts = points.size()](std::size_t begin, std::size_t end) {
            for (std::size_t b = begin; b < end; ++b) {
                studies[b]->prepare(geometries);
                results[b].benchmark = benches[b].name;
                results[b].evals.resize(npts);
            }
        });

    // Phase 2: one parallelFor over the flattened (benchmark x point)
    // matrix.  Each chunk evaluates against the shared studies and
    // writes its preassigned slots in place, so aggregation is
    // deterministic in design-space order regardless of worker count
    // or scheduling, and a model-speed evaluation allocates nothing.
    //
    // Granularity: a model-only evaluation is microseconds, so the
    // matrix is chunked to ~8 chunks per pool participant — enough
    // slack for load balance, few enough that claim traffic is
    // negligible.  Detailed (trace-replaying) backends are orders of
    // magnitude slower per point and shard per point.
    if (points.empty())
        return results;

    const bool detailed =
        std::any_of(backends_.begin(), backends_.end(),
                    [](const EvalBackend *b) { return b->isDetailed(); });
    const std::size_t matrix = benches.size() * points.size();
    const std::size_t chunk = detailed ? 1 : pool.bulkChunk(matrix);

    StudyResult *res = results.data();
    const DesignPoint *pts = points.data();
    const std::size_t npts = points.size();
    const BackendSet &set = backends_;
    pool.parallelFor(
        matrix, chunk,
        [this, res, pts, npts, &set](std::size_t begin,
                                     std::size_t end) {
            for (std::size_t t = begin; t < end; ++t) {
                const std::size_t b = t / npts;
                const std::size_t i = t % npts;
                studies[b]->evaluateInto(res[b].evals[i], pts[i], set);
            }
        });

    return results;
}

} // namespace mech
