/**
 * @file
 * Batched design-space evaluation across benchmarks and design points.
 *
 * The paper's workflow is profile-once / predict-everywhere: per
 * benchmark one trace generation and one profiling pass, then model
 * evaluations at microseconds per design point.  The (benchmark x
 * design point) evaluation matrix is embarrassingly parallel, so
 * StudyRunner shards it across a ThreadPool:
 *
 *   phase 1  DseStudy::loadOrProfileAll() builds one study per
 *            benchmark in parallel (trace + single profiling pass — or
 *            a load from a saved .mprof artifact when a profile
 *            directory is configured), then one task per study
 *            prepare()s every distinct L2 geometry of the requested
 *            point list, so no timed evaluation meets a cold geometry,
 *            and builds that benchmark's result slots;
 *   phase 2  one parallelFor over the flattened (benchmark, point)
 *            matrix evaluates the configured backend set against the
 *            shared studies, each chunk writing its preassigned
 *            slots in place.
 *
 * The pool persists across evaluateAll() calls (rebuilt only when the
 * requested worker count changes): spawning and joining workers per
 * sweep used to dominate model-speed sweeps entirely and made the
 * dse_scaling ladder go backwards with threads.
 *
 * Which evaluation engines run is a registry-selected BackendSet
 * (eval/registry.hh): `backendSet("model")` for the pure analytical
 * sweep, `backendSet("model,sim")` to validate each point against the
 * detailed simulator, any other combination for custom backends.
 *
 * Results are aggregated deterministically: slot (b, i) of the output
 * always holds benchmark b at points[i], independent of worker count
 * or scheduling.  With nthreads <= 1 no threads are spawned at all
 * (the pool runs tasks inline), so the serial path produces
 * bit-identical results through the very same code.
 */

#ifndef MECH_DSE_STUDY_RUNNER_HH
#define MECH_DSE_STUDY_RUNNER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "workload/profile.hh"

namespace mech {

class ThreadPool;

/** All point evaluations for one benchmark, in design-space order. */
struct StudyResult
{
    /** Benchmark name. */
    std::string benchmark;

    /** evals[i] is the evaluation of points[i]. */
    std::vector<PointEvaluation> evals;
};

/** Parallel batch evaluator for (benchmark x design point) sweeps. */
class StudyRunner
{
  public:
    /**
     * @param benches Benchmarks to study (profiled once each).
     * @param trace_len Dynamic instructions per benchmark trace.
     * @param backends Evaluation backends to run per point (default:
     *        the analytical model only).
     */
    StudyRunner(std::vector<BenchmarkProfile> benches,
                InstCount trace_len,
                BackendSet backends = defaultBackends());
    ~StudyRunner();

    StudyRunner(const StudyRunner &) = delete;
    StudyRunner &operator=(const StudyRunner &) = delete;

    /**
     * Load studies from `.mprof` artifacts under @p dir instead of
     * re-profiling: a benchmark whose artifact exists is loaded, the
     * rest are profiled in-process as usual.  Call before the first
     * evaluateAll().  Artifacts are produced by tools/mech_profile or
     * DseStudy::save().
     */
    void useProfileDir(const std::string &dir);

    /**
     * Evaluate every benchmark at every design point.
     *
     * @param points Design points, evaluated in the given order.
     * @param nthreads Worker threads; <= 1 runs fully serial (and
     *        bit-identical) on the calling thread.
     * @return One StudyResult per benchmark, in suite order; each
     *         holds one PointEvaluation per point, in @p points
     *         order.  Deterministic for any @p nthreads.
     *
     * Profiles are built on first use and cached: a second
     * evaluateAll() on the same runner reuses them.
     */
    std::vector<StudyResult>
    evaluateAll(const std::vector<DesignPoint> &points,
                unsigned nthreads);

    /** Number of benchmarks under study. */
    std::size_t benchmarkCount() const { return benches.size(); }

    /** The configured backend set. */
    const BackendSet &backendSet() const { return backends_; }

    /** The per-benchmark study (built by evaluateAll), for drills. */
    const DseStudy &study(std::size_t bench_idx) const;

  private:
    /** The persistent pool for @p nthreads workers, (re)built only
     *  when the requested count changes. */
    ThreadPool &poolFor(unsigned nthreads);

    std::vector<BenchmarkProfile> benches;
    InstCount traceLen;
    BackendSet backends_;
    std::string profileDir;

    /** Built lazily by evaluateAll, then reused. */
    std::vector<std::unique_ptr<DseStudy>> studies;

    /** Kept across calls so sweeps never pay thread spawn/join. */
    std::unique_ptr<ThreadPool> pool_;
    unsigned poolThreads_ = 0;
};

} // namespace mech

#endif // MECH_DSE_STUDY_RUNNER_HH
