/**
 * @file
 * Layer probes shared by the workloads: direct, span-wrapped calls
 * into the workload, profiler, cache and simulator layers, registry
 * bookkeeping for the evaluation backends, and CPI-error tallies.
 */
#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "dse/study.hh"
#include "search/space_spec.hh"
#include "workload/profile.hh"

namespace perfbench {

/** Mean and maximum of absolute relative CPI errors, in percent. */
struct ErrorTally
{
    double sum = 0.0;
    double max = 0.0;
    std::size_t n = 0;

    /** Add one relative error (a fraction, not a percentage). */
    void add(double rel_error);
    double meanPct() const { return n ? 100.0 * sum / double(n) : 0.0; }
    double maxPct() const { return 100.0 * max; }
};

/** Registry readings of the backends and the DSE layer at one time. */
struct RegistryMark
{
    std::uint64_t modelEvals = 0;
    std::uint64_t simCalls = 0;
    std::uint64_t oosimCalls = 0;
    std::uint64_t pointsEvaluated = 0;
    std::uint64_t simUs = 0;
    std::uint64_t oosimUs = 0;

    static RegistryMark now();
    /** Component-wise this - @p earlier. */
    RegistryMark since(const RegistryMark &earlier) const;
};

/**
 * Record the exact counts of a fixed unit of work (@p unit = end
 * minus start marks) and, in traced runs, the matching per-layer
 * counters.
 */
void reportCounts(Report &report, const RegistryMark &unit,
                  std::uint64_t search_misses);

/**
 * Per-layer simulator busy times of the run so far (sim.busy_s,
 * oosim.busy_s) from the registry readings in @p mark.
 */
void reportBackendBusy(Report &report, const RegistryMark &mark);

/**
 * The set-up layers one benchmark at a time: generateTrace,
 * profileTrace (with the configuration DseStudy uses) and
 * DseStudy::prepare over @p points, each in its own span under one
 * "setup" root.  Sets the workload, profiler, cache and setup.self_s
 * per-layer metrics and returns the studies it built.
 */
std::vector<std::unique_ptr<mech::DseStudy>>
probeSetupLayers(const std::vector<mech::BenchmarkProfile> &benches,
                 mech::InstCount trace_len,
                 const std::vector<mech::DesignPoint> &points,
                 Report &report, SpanRecorder &spans);

/**
 * Direct calls into the evaluation layers, each in its own span: the
 * const DseStudy::evaluate with the model and with the ooo backend on
 * every (study, @p model_points) pair, and simulateInOrder and
 * simulateOutOfOrder on every (study, @p sim_points) pair.  Sets
 * model.eval_us and ooo.eval_us (mean over every span of that name,
 * so a workload's own model.evaluate spans count too) and
 * sim.cycles_per_s and oosim.cycles_per_s (simulated cycles per host
 * second).
 */
void probeEvalLayers(const std::vector<const mech::DseStudy *> &studies,
                     const std::vector<mech::DesignPoint> &model_points,
                     const std::vector<mech::DesignPoint> &sim_points,
                     Report &report, SpanRecorder &spans);

/** All 29 suite profiles: the MiBench-like ones, then the SPEC-like. */
std::vector<mech::BenchmarkProfile> suiteProfiles();

/** Distinct L2 geometries among @p points. */
std::size_t countGeometries(const std::vector<mech::DesignPoint> &points);

/** One representative point per distinct L2 geometry of @p points. */
std::vector<mech::DesignPoint>
geometryRepresentatives(const std::vector<mech::DesignPoint> &points);

/** Every point of a SpaceSpec, in enumeration order. */
std::vector<mech::DesignPoint> enumerate(const mech::SpaceSpec &spec);

/** True when two evaluations agree bit for bit on every backend. */
bool sameEvaluation(const mech::PointEvaluation &a,
                    const mech::PointEvaluation &b);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
