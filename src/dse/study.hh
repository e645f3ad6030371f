/**
 * @file
 * Design-space study driver: the paper's "profile once, predict the
 * whole space" workflow (Figs. 3, 5, 9).
 *
 * Per benchmark: one trace generation, one profiling pass (capturing
 * the L2 input stream and training both Table 2 predictors), then
 * evaluation at any design point through any set of registered
 * EvalBackends — the analytical model at microseconds per point,
 * optionally backed by the detailed simulator or the out-of-order
 * interval model for the same point.
 *
 * A study is also a serializable artifact: save() persists the
 * profile (and trace) as an `.mprof` file, and load() reconstitutes
 * an equivalent study in another process, producing bit-identical
 * model results (see profiler/profile_io.hh).
 */

#ifndef MECH_DSE_STUDY_HH
#define MECH_DSE_STUDY_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dse/design_space.hh"
#include "eval/registry.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "workload/executor.hh"
#include "workload/profile.hh"
#include "workload/program.hh"

namespace mech {

class ThreadPool;

/**
 * Outcome of evaluating one design point for one benchmark: one
 * EvalResult per requested backend, in backend-set order.
 */
struct PointEvaluation
{
    DesignPoint point;

    /** results[i] comes from the i-th backend of the requested set. */
    std::vector<EvalResult> results;

    /** Result of backend @p backend, or null when it did not run. */
    const EvalResult *
    find(std::string_view backend) const
    {
        for (const auto &res : results) {
            if (res.backend == backend)
                return &res;
        }
        return nullptr;
    }

    /** True when backend @p backend ran. */
    bool has(std::string_view backend) const { return find(backend); }

    /** Result of backend @p backend; panics when it did not run. */
    const EvalResult &
    of(std::string_view backend) const
    {
        if (const EvalResult *res = find(backend))
            return *res;
        panic("no result from backend '", backend,
              "' in this evaluation");
    }

    /** The analytical model's result; panics when "model" did not run. */
    const EvalResult &model() const { return of(kModelBackend); }

    /** The detailed simulation's result, or null when "sim" did not run. */
    const EvalResult *sim() const { return find(kSimBackend); }

    /**
     * Absolute relative CPI error of backend @p predicted against
     * backend @p reference.
     *
     * Empty unless both backends ran — callers must not conflate "no
     * reference" with "perfect prediction".
     */
    std::optional<double>
    cpiErrorOf(std::string_view predicted, std::string_view reference)
        const
    {
        const EvalResult *m = find(predicted);
        const EvalResult *s = find(reference);
        if (!m || !s || s->cycles == 0.0)
            return std::nullopt;
        return std::abs(m->cycles - s->cycles) / s->cycles;
    }

    /**
     * Absolute relative CPI error of the in-order model vs the
     * in-order simulation ("model" vs "sim").
     */
    std::optional<double>
    cpiError() const
    {
        return cpiErrorOf(kModelBackend, kSimBackend);
    }

    /**
     * Absolute relative CPI error of the out-of-order interval model
     * vs the out-of-order simulation ("ooo" vs "oosim").
     */
    std::optional<double>
    oooCpiError() const
    {
        return cpiErrorOf(kOooBackend, kOoOSimBackend);
    }
};

/**
 * Per-benchmark design-space study.
 *
 * Holds the generated trace and the captured profile; evaluations of
 * individual points are cheap (model backends) or trace-replaying
 * (simulator backends).  A study is safe to share across threads as
 * is: the only state evaluation fills in, the per-L2-geometry
 * MemoryStats memo, synchronizes itself.
 */
class DseStudy
{
  public:
    /**
     * @param bench Benchmark profile to study.
     * @param trace_len Dynamic instructions to generate.
     * @param program Optional pre-transformed program (compiler case
     *        study); defaults to the profile's own program.
     */
    DseStudy(const BenchmarkProfile &bench, InstCount trace_len);
    DseStudy(const BenchmarkProfile &bench, InstCount trace_len,
             const Program &program);

    /** Reconstitute a study from a loaded profile artifact. */
    explicit DseStudy(ProfileArtifact artifact);

    ~DseStudy();
    DseStudy(DseStudy &&) noexcept;
    DseStudy &operator=(DseStudy &&) noexcept;

    /**
     * Obtain a study for @p bench: loaded from its `.mprof` artifact
     * under @p dir when one exists (a damaged artifact is a fatal()
     * user error), otherwise profiled in-process at @p trace_len.
     * An empty @p dir always profiles.
     */
    static DseStudy loadOrProfile(const std::string &dir,
                                  const BenchmarkProfile &bench,
                                  InstCount trace_len);

    /**
     * Build one study per benchmark in parallel across @p pool, each
     * via loadOrProfile(@p dir, bench, @p trace_len).  Slot b holds
     * @p benches[b].  Every task is drained before the first error
     * (if any) is rethrown, so no task outlives the call.
     */
    static std::vector<std::unique_ptr<DseStudy>>
    loadOrProfileAll(const std::string &dir,
                     const std::vector<BenchmarkProfile> &benches,
                     InstCount trace_len, ThreadPool &pool);

    /**
     * Evaluate one design point with every backend in @p backends
     * (default: the analytical model only).  Thread-safe: any number
     * of threads may evaluate (and prepare()) one study at once.
     */
    PointEvaluation
    evaluate(const DesignPoint &point,
             const BackendSet &backends = defaultBackends()) const;

    /**
     * evaluate() into a caller-owned result: bit-identical, but
     * reuses @p out's storage instead of constructing a fresh
     * PointEvaluation.  Sweep hot loops pass a per-worker scratch
     * (or the preassigned output slot), so a model-speed evaluation
     * performs no heap allocation once the scratch has warmed up.
     */
    void evaluateInto(PointEvaluation &out, const DesignPoint &point,
                      const BackendSet &backends =
                          defaultBackends()) const;

    /**
     * Warm the L2-geometry memo for every distinct geometry in
     * @p points.  Optional: evaluation memoizes a cold geometry on
     * first use.  Callers warm up front so the re-sweeps run in
     * parallel across studies, ahead of the timed evaluations.
     *
     * Cold geometries are grouped by L2 set count.  Each group costs
     * one stack-distance pass over the captured L2 stream, capped at
     * the group's widest associativity; every geometry in the group
     * is then a linear pass over the recorded depths.  The depths
     * are dropped once their group is memoized.
     */
    void prepare(const std::vector<DesignPoint> &points) const;

    /** True when the study profiled branch predictor @p kind. */
    bool profiles(PredictorKind kind) const;

    /**
     * Snapshot the study as a serializable artifact.
     *
     * @param include_trace Also embed the dynamic trace so detailed
     *        (trace-replaying) backends work on the loaded study.
     */
    ProfileArtifact artifact(bool include_trace = true) const;

    /** Persist the study as a profile artifact at @p path. */
    void save(const std::string &path, bool include_trace = true) const;

    /** Load a study saved with save().  Throws ProfileIoError. */
    static DseStudy load(const std::string &path);

    /** The workload profile (collected on the default hierarchy). */
    const WorkloadProfile &profile() const { return prof; }

    /** The generated trace (empty for trace-less loaded artifacts). */
    const Trace &trace() const { return dynTrace; }

    /** True when trace-replaying backends can run on this study. */
    bool hasTrace() const { return !dynTrace.empty(); }

    /** Benchmark name. */
    const std::string &name() const { return benchName; }

  private:
    /** Self-synchronizing MemoryStats memo per L2 geometry. */
    class L2Memo;

    /** Create the memo, seeded with the default geometry. */
    void seedMemo();

    /** The memoized MemoryStats of @p point's L2 geometry. */
    const MemoryStats &memoryFor(const DesignPoint &point) const;

    std::string benchName;
    Trace dynTrace;
    WorkloadProfile prof;

    /** Behind a pointer so the study stays movable. */
    std::unique_ptr<L2Memo> l2Memo;
};

} // namespace mech

#endif // MECH_DSE_STUDY_HH
