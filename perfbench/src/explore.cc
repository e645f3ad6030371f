/**
 * @file
 * The explore workload: an offline design-space session, the paper's
 * profile-once, predict-everywhere flow.
 *
 * Set-up profiles all 29 suite profiles (19 MiBench-like, 10
 * SPEC-like) for a StudyRunner and a SearchEvaluator.  A round is one
 * model-backend sweep of SpaceSpec::wide() (12,544 points x 29), one
 * genetic search on energy,delay, and a burst of single-point
 * what-if queries; the run repeats rounds for the measured time.  No
 * simulator runs in a round and no socket is opened; the simulators
 * only run afterwards, on a fixed sample, to check accuracy.
 */
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "dse/study_runner.hh"
#include "layers.hh"
#include "search/objective.hh"
#include "search/strategy.hh"
#include "workload/suites.hh"

namespace perfbench {

using namespace mech;

namespace {

constexpr InstCount kTraceLen = 100000;
constexpr int kSetupReps = 5;
constexpr std::uint64_t kSearchBudget = 4000;
constexpr unsigned kSearchPopulation = 32;
constexpr std::size_t kQueriesPerRound = 400;
constexpr std::size_t kAccuracyPoints = 8;

/** FNV-1a digest of every result of a sweep, in slot order. */
std::uint64_t
sweepDigest(const std::vector<StudyResult> &results)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    for (const StudyResult &bench : results) {
        for (const PointEvaluation &pe : bench.evals) {
            for (const EvalResult &r : pe.results) {
                mix(&r.cycles, sizeof(r.cycles));
                mix(&r.edp, sizeof(r.edp));
                mix(&r.instructions, sizeof(r.instructions));
            }
        }
    }
    return h;
}

/** Points and objective values of a search frontier, in order. */
std::vector<std::pair<std::string, std::vector<double>>>
frontierOf(const SearchResult &res)
{
    std::vector<std::pair<std::string, std::vector<double>>> out;
    for (std::size_t i : res.frontier)
        out.emplace_back(res.evaluated[i]->point.toKey(),
                         res.evaluated[i]->aggregate);
    return out;
}

struct Session
{
    std::unique_ptr<StudyRunner> runner;
    std::unique_ptr<SearchEvaluator> evaluator;
};

/** One timed round's figures. */
struct RoundFigures
{
    double sweepS = 0.0;
    double searchS = 0.0;
    std::uint64_t searchMisses = 0;
    std::vector<double> queryMs;
    double wallS = 0.0;
};

class Explore
{
  public:
    Explore(const Options &opts, Report &report, SpanRecorder &spans)
        : opts(opts), report(report), spans(spans), benches(suiteProfiles()),
          wide(SpaceSpec::wide()), points(enumerate(wide)),
          threads(poolThreads()), modelSet(backendSet("model")),
          queryRng(mixSeed(opts.seed, 1))
    {
        report.note("trace_length", std::to_string(kTraceLen));
        report.note("workload_seed", std::to_string(opts.seed));
    }

    void
    run()
    {
        std::vector<double> setups;
        for (int rep = 0; rep < kSetupReps; ++rep)
            setups.push_back(setUp());
        report.set("setup_s", median(setups));

        if (opts.trace)
            tracedRounds();
        else
            timedRounds();
        report.set("peak_rss_mb", peakRssMb());
        checks();
    }

  private:
    /** Build the session from nothing to its first answers. */
    double
    setUp()
    {
        session = Session{};
        const auto t0 = Clock::now();
        session.runner = std::make_unique<StudyRunner>(benches, kTraceLen,
                                                       modelSet);
        // One point per L2 geometry: builds every study and memoizes
        // all 56 geometries of the space; the results are the session's
        // first answers.
        const auto first =
            session.runner->evaluateAll(geometryRepresentatives(points),
                                        threads);
        report.check(first.size() == benches.size(),
                     "explore: first answers cover no profiles");
        session.evaluator = std::make_unique<SearchEvaluator>(
            benches, kTraceLen, parseObjectives("energy,delay"), modelSet);
        {
            ThreadPool pool(threads <= 1 ? 0 : threads);
            session.evaluator->prepare(wide, pool);
        }
        return secondsSince(t0);
    }

    SearchOptions
    searchOptions(std::uint64_t round) const
    {
        SearchOptions so;
        so.seed = mixSeed(opts.seed, 100 + round);
        so.budget = kSearchBudget;
        so.population = kSearchPopulation;
        // On the calling thread: a generation is under a millisecond
        // of model work, so at pool width its hand-offs, not the
        // search, set the time, and they swing with host load.  The
        // sweep covers the pool.
        so.threads = 1;
        return so;
    }

    RoundFigures
    round(std::uint64_t idx)
    {
        RoundFigures f;
        const auto t_round = Clock::now();
        Span root(spans, "explore.round");
        {
            Span s(spans, "dse.sweep");
            const auto t0 = Clock::now();
            auto results = session.runner->evaluateAll(points, threads);
            f.sweepS = secondsSince(t0);
            lastSweepDigest = sweepDigest(results);
            rememberSample(results);
        }
        report.attempt();
        {
            Span s(spans, "search.run");
            const auto t0 = Clock::now();
            SearchResult res = runSearch(wide, "genetic", *session.evaluator,
                                         searchOptions(idx));
            f.searchS = secondsSince(t0);
            f.searchMisses = res.stats.misses;
            if (idx == 0)
                firstFrontier = frontierOf(res);
        }
        report.attempt();
        f.queryMs.reserve(kQueriesPerRound);
        for (std::size_t q = 0; q < kQueriesPerRound; ++q) {
            const DesignPoint &p = points[queryRng.below(points.size())];
            const auto t0 = Clock::now();
            query(p);
            f.queryMs.push_back(secondsSince(t0) * 1e3);
        }
        report.attempt(kQueriesPerRound);
        f.wallS = secondsSince(t_round);
        return f;
    }

    /** A what-if query: one point over every profile. */
    void
    query(const DesignPoint &p)
    {
        Span q(spans, "explore.query", spans.enabled() ? spans.newId() : 0);
        double sink = 0.0;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            Span s(spans, "model.evaluate");
            sink += session.runner->study(b).evaluate(p, modelSet)
                        .model()
                        .cycles;
        }
        if (sink <= 0.0)
            report.fail("query returned no cycles for " + p.toKey());
    }

    void
    timedRounds()
    {
        std::vector<double> sweep_rates, search_rates, query_rates;
        std::vector<double> query_ms;
        const double per_sweep = double(points.size() * benches.size());
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i == 0 || secondsSince(t0) < opts.seconds;
             ++i) {
            RoundFigures f = round(i);
            sweep_rates.push_back(per_sweep / f.sweepS);
            search_rates.push_back(double(f.searchMisses * benches.size()) /
                                   f.searchS);
            double query_s = 0.0;
            for (double ms : f.queryMs)
                query_s += ms * 1e-3;
            query_rates.push_back(double(f.queryMs.size()) / query_s);
            query_ms.insert(query_ms.end(), f.queryMs.begin(),
                            f.queryMs.end());
        }
        report.set("evals_per_s", median(sweep_rates));
        report.set("search_evals_per_s", median(search_rates));
        report.set("requests_per_s", median(query_rates));
        report.set("p50_ms", quantile(query_ms, 0.50));
        report.set("p95_ms", quantile(query_ms, 0.95));
    }

    void
    tracedRounds()
    {
        // The set-up layers one call at a time, then rounds that
        // alternate untraced and traced so their difference is the
        // tracing overhead.
        auto studies = probeSetupLayers(benches, kTraceLen,
                                        geometryRepresentatives(points),
                                        report, spans);
        std::vector<double> plain, traced;
        spans.setEnabled(false);
        round(0); // warm caches and allocators before comparing
        const auto t0 = Clock::now();
        for (std::uint64_t i = 1;
             traced.size() < 2 || secondsSince(t0) < opts.seconds; ++i) {
            spans.setEnabled(i % 2 == 0);
            (i % 2 ? plain : traced).push_back(round(i).wallS);
        }
        spans.setEnabled(true);
        const double base = median(plain);
        report.set("trace_overhead_pct",
                   100.0 * (median(traced) - base) / base);
        report.set("dse.sweep_s", median(spans.durations("dse.sweep")));
        report.set("search.run_s", median(spans.durations("search.run")));
        report.set("pool.chunk_us_p50",
                   double(registryHist("pool.chunk_us").quantile(0.5)));
        probeEvalLayers({studies[0].get(), studies[19].get()},
                        {points.begin(), points.begin() + 192},
                        {accuracyPoints()[0], accuracyPoints()[1]}, report,
                        spans);
        // The serve layers have no workload of their own in
        // BENCHMARK.json (see README.md); their traced run rides here.
        probeServeLayers(opts, report, spans);
    }

    /** The fixed accuracy sample: evenly spaced points of the space. */
    std::vector<DesignPoint>
    accuracyPoints() const
    {
        std::vector<DesignPoint> out;
        const std::size_t stride = points.size() / kAccuracyPoints;
        for (std::size_t i = 0; i < kAccuracyPoints; ++i)
            out.push_back(points[i * stride + stride / 2]);
        return out;
    }

    /** Keep the sweep's model cycles at the accuracy sample. */
    void
    rememberSample(const std::vector<StudyResult> &results)
    {
        sampleCycles.clear();
        const std::size_t stride = points.size() / kAccuracyPoints;
        for (const StudyResult &bench : results) {
            for (std::size_t i = 0; i < kAccuracyPoints; ++i) {
                sampleCycles.push_back(
                    bench.evals[i * stride + stride / 2].model().cycles);
            }
        }
    }

    void
    checks()
    {
        Span root(spans, "explore.checks");
        const RegistryMark start = RegistryMark::now();

        // 1. The parallel sweep is bit-identical to the serial one.
        {
            Span s(spans, "dse.serial_sweep");
            const std::uint64_t parallel = lastSweepDigest;
            const std::vector<double> parallel_sample = sampleCycles;
            const auto t0 = Clock::now();
            auto serial = session.runner->evaluateAll(points, 1);
            const double serial_s = secondsSince(t0);
            report.check(sweepDigest(serial) == parallel,
                         "explore: serial sweep differs from the " +
                             std::to_string(threads) + "-thread sweep");
            rememberSample(serial);
            report.check(sampleCycles == parallel_sample,
                         "explore: sample cycles differ across threads");
            report.set("dse.serial_sweep_s", serial_s);
            const double parallel_s = spans.enabled()
                                          ? median(spans.durations(
                                                "dse.sweep"))
                                          : 0.0;
            if (parallel_s > 0.0) {
                report.set("dse.parallel_efficiency",
                           serial_s / (double(logicalCores()) * parallel_s));
            }
        }

        // 2. The same search seed gives the same frontier.
        SearchResult again = runSearch(wide, "genetic", *session.evaluator,
                                       searchOptions(0));
        report.check(frontierOf(again) == firstFrontier,
                     "explore: repeated search changed its frontier");
        const SearchStats &st = again.stats;
        report.set("search.requested", double(st.requested));
        report.set("search.cache_hit_ratio",
                   st.requested ? double(st.hits) / double(st.requested)
                                : 0.0);
        report.set("search.frontier_size", double(again.frontier.size()));

        // 3. Accuracy at the fixed sample against the simulators; the
        //    model must also reproduce the sweep's numbers there.
        accuracy();

        reportCounts(report, RegistryMark::now().since(start), st.misses);
        reportBackendBusy(report, RegistryMark::now());
    }

    void
    accuracy()
    {
        const std::vector<DesignPoint> sample = accuracyPoints();
        const BackendSet all = backendSet("model,sim,ooo,oosim");
        const std::size_t n = benches.size() * sample.size();
        std::vector<PointEvaluation> evals(n);
        {
            ThreadPool pool(threads <= 1 ? 0 : threads);
            pool.parallelFor(n, 1, [&](std::size_t begin, std::size_t end) {
                for (std::size_t t = begin; t < end; ++t) {
                    session.runner->study(t / sample.size())
                        .evaluateInto(evals[t], sample[t % sample.size()],
                                      all);
                }
            });
        }
        const std::size_t n_mibench = mibenchSuite().size();
        ErrorTally model, ooo, heldout;
        bool consistent = true;
        for (std::size_t t = 0; t < n; ++t) {
            const PointEvaluation &pe = evals[t];
            consistent = consistent && pe.model().cycles == sampleCycles[t];
            const bool mibench = t / sample.size() < n_mibench;
            (mibench ? model : heldout).add(pe.cpiError().value_or(1.0));
            if (mibench)
                ooo.add(pe.oooCpiError().value_or(1.0));
        }
        report.check(consistent,
                     "explore: model results at the accuracy sample differ "
                     "from the sweep");
        report.set("cpi_error_mean_pct", model.meanPct());
        report.set("cpi_error_max_pct", model.maxPct());
        report.set("ooo_cpi_error_mean_pct", ooo.meanPct());
        report.set("heldout_cpi_error_mean_pct", heldout.meanPct());
    }

    const Options &opts;
    Report &report;
    SpanRecorder &spans;
    const std::vector<BenchmarkProfile> benches;
    const SpaceSpec wide;
    const std::vector<DesignPoint> points;
    const unsigned threads;
    const BackendSet modelSet;
    Rng queryRng;
    Session session;
    std::uint64_t lastSweepDigest = 0;
    std::vector<double> sampleCycles;
    std::vector<std::pair<std::string, std::vector<double>>> firstFrontier;
};

} // namespace

void
runExplore(const Options &opts, Report &report, SpanRecorder &spans)
{
    Explore(opts, report, spans).run();
}

} // namespace perfbench
