#include "layers.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "oosim/oosim.hh"
#include "profiler/profiler.hh"
#include "search/space_spec.hh"
#include "sim/inorder_sim.hh"
#include "workload/executor.hh"
#include "workload/suites.hh"

namespace perfbench {

using namespace mech;

void
ErrorTally::add(double rel_error)
{
    sum += rel_error;
    max = std::max(max, rel_error);
    ++n;
}

RegistryMark
RegistryMark::now()
{
    RegistryMark m;
    m.modelEvals = registryCount("eval.backend.model.evals");
    m.simCalls = registryCount("eval.backend.sim.evals");
    m.oosimCalls = registryCount("eval.backend.oosim.evals");
    m.pointsEvaluated = registryCount("dse.points_evaluated");
    m.simUs = registryHist("eval.backend.sim.us").sum;
    m.oosimUs = registryHist("eval.backend.oosim.us").sum;
    return m;
}

RegistryMark
RegistryMark::since(const RegistryMark &e) const
{
    RegistryMark d;
    d.modelEvals = modelEvals - e.modelEvals;
    d.simCalls = simCalls - e.simCalls;
    d.oosimCalls = oosimCalls - e.oosimCalls;
    d.pointsEvaluated = pointsEvaluated - e.pointsEvaluated;
    d.simUs = simUs - e.simUs;
    d.oosimUs = oosimUs - e.oosimUs;
    return d;
}

void
reportCounts(Report &report, const RegistryMark &unit,
             std::uint64_t search_misses)
{
    const std::pair<const char *, double> counts[] = {
        {"model.evals", double(unit.modelEvals)},
        {"sim.calls", double(unit.simCalls)},
        {"oosim.calls", double(unit.oosimCalls)},
        {"dse.points_evaluated", double(unit.pointsEvaluated)},
        {"search.misses", double(search_misses)},
    };
    for (const auto &[name, value] : counts) {
        report.exact(name, value);
        report.set(name, value);
    }
}

void
reportBackendBusy(Report &report, const RegistryMark &mark)
{
    report.set("sim.busy_s", double(mark.simUs) * 1e-6);
    report.set("oosim.busy_s", double(mark.oosimUs) * 1e-6);
}

namespace {

/** The profiling configuration DseStudy applies to its traces. */
ProfilerConfig
studyProfilerConfig()
{
    ProfilerConfig cfg;
    cfg.hierarchy = hierarchyFor(defaultDesignPoint());
    cfg.predictors = {PredictorKind::Gshare1K, PredictorKind::Hybrid3K5};
    cfg.captureL2Stream = true;
    return cfg;
}

} // namespace

std::vector<std::unique_ptr<DseStudy>>
probeSetupLayers(const std::vector<BenchmarkProfile> &benches,
                 InstCount trace_len,
                 const std::vector<DesignPoint> &points, Report &report,
                 SpanRecorder &spans)
{
    std::vector<std::unique_ptr<DseStudy>> studies;
    double instructions = 0.0;
    {
        Span setup(spans, "setup");
        for (const BenchmarkProfile &bench : benches) {
            ProfileArtifact art;
            art.name = bench.name;
            {
                Span s(spans, "workload.generateTrace");
                art.trace = generateTrace(bench, trace_len);
            }
            {
                Span s(spans, "profiler.profileTrace");
                art.profile = profileTrace(art.trace, studyProfilerConfig());
            }
            instructions += double(art.trace.size());
            auto study = std::make_unique<DseStudy>(std::move(art));
            {
                Span s(spans, "cache.prepare");
                study->prepare(points);
            }
            studies.push_back(std::move(study));
        }
    }
    const double profile_s = spans.totalSeconds("profiler.profileTrace");
    report.set("workload.trace_s",
               spans.totalSeconds("workload.generateTrace"));
    report.set("profiler.profile_s", profile_s);
    report.set("profiler.insns_per_s",
               profile_s > 0 ? instructions / profile_s : 0.0);
    report.set("cache.prepare_s", spans.totalSeconds("cache.prepare"));
    report.set("cache.geometries", double(countGeometries(points)));
    report.set("setup.self_s", spans.selfSeconds("setup"));
    return studies;
}

namespace {

/** Mean duration in microseconds of the spans named @p name. */
double
meanSpanUs(const SpanRecorder &spans, const std::string &name)
{
    const auto d = spans.durations(name);
    double total = 0.0;
    for (double s : d)
        total += s;
    return d.empty() ? 0.0 : 1e6 * total / double(d.size());
}

} // namespace

void
probeEvalLayers(const std::vector<const DseStudy *> &studies,
                const std::vector<DesignPoint> &model_points,
                const std::vector<DesignPoint> &sim_points, Report &report,
                SpanRecorder &spans)
{
    const BackendSet model = backendSet("model");
    const BackendSet ooo = backendSet("ooo");
    double sink = 0.0;
    double sim_cycles = 0.0;
    double oosim_cycles = 0.0;
    for (const DseStudy *study : studies) {
        for (const DesignPoint &p : model_points) {
            {
                Span s(spans, "model.evaluate");
                sink += study->evaluate(p, model).results[0].cycles;
            }
            {
                Span s(spans, "ooo.evaluate");
                sink += study->evaluate(p, ooo).results[0].cycles;
            }
        }
        for (const DesignPoint &p : sim_points) {
            {
                Span s(spans, "sim.simulateInOrder");
                sim_cycles += double(
                    simulateInOrder(study->trace(), simConfigFor(p)).cycles);
            }
            {
                Span s(spans, "oosim.simulateOutOfOrder");
                oosim_cycles += double(
                    simulateOutOfOrder(study->trace(), oooSimConfigFor(p))
                        .cycles);
            }
        }
    }
    if (!(sink > 0.0))
        report.fail("layer probe: the models predicted no cycles");
    const double sim_s = spans.totalSeconds("sim.simulateInOrder");
    const double oosim_s = spans.totalSeconds("oosim.simulateOutOfOrder");
    report.set("model.eval_us", meanSpanUs(spans, "model.evaluate"));
    report.set("ooo.eval_us", meanSpanUs(spans, "ooo.evaluate"));
    report.set("sim.cycles_per_s", sim_s > 0 ? sim_cycles / sim_s : 0.0);
    report.set("oosim.cycles_per_s",
               oosim_s > 0 ? oosim_cycles / oosim_s : 0.0);
}

std::vector<BenchmarkProfile>
suiteProfiles()
{
    std::vector<BenchmarkProfile> benches = mibenchSuite();
    const auto &spec = specLikeSuite();
    benches.insert(benches.end(), spec.begin(), spec.end());
    return benches;
}

std::vector<DesignPoint>
geometryRepresentatives(const std::vector<DesignPoint> &points)
{
    std::set<std::pair<std::uint64_t, std::uint32_t>> seen;
    std::vector<DesignPoint> reps;
    for (const DesignPoint &p : points) {
        if (seen.insert({p.l2KB, p.l2Assoc}).second)
            reps.push_back(p);
    }
    return reps;
}

std::size_t
countGeometries(const std::vector<DesignPoint> &points)
{
    return geometryRepresentatives(points).size();
}

std::vector<DesignPoint>
enumerate(const SpaceSpec &spec)
{
    std::vector<DesignPoint> out;
    out.reserve(spec.size());
    for (std::uint64_t i = 0; i < spec.size(); ++i)
        out.push_back(spec.at(i));
    return out;
}

bool
sameEvaluation(const PointEvaluation &a, const PointEvaluation &b)
{
    if (!(a.point == b.point) || a.results.size() != b.results.size())
        return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const EvalResult &x = a.results[i];
        const EvalResult &y = b.results[i];
        if (x.backend != y.backend || x.cycles != y.cycles ||
            x.instructions != y.instructions || x.edp != y.edp)
            return false;
    }
    return true;
}

} // namespace perfbench
