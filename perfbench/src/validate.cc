/**
 * @file
 * The validate workload: a Fig. 5-style accuracy campaign.
 *
 * A request validates one Table 2 design point: StudyRunner evaluates
 * it on all 29 profiles with the model, sim, ooo and oosim backends.
 * The run walks the 192 points in a seeded order, pass after pass,
 * for the measured time (at least one full pass), and runs a
 * sim-backed genetic search after every 48 requests.  The first pass
 * gives
 * the CPI errors: model vs sim and ooo vs oosim over the 19
 * MiBench-like profiles, and model vs sim over the 10 SPEC-like
 * profiles, which no model tuning has targeted (held-out data).
 */
#include <algorithm>
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

constexpr InstCount kTraceLen = 30000;
constexpr int kSetupReps = 7;
constexpr std::uint64_t kSearchBudget = 32;
constexpr unsigned kSearchPopulation = 8;
constexpr std::size_t kCheckPoints = 6;
constexpr std::size_t kRoundRequests = 48;
constexpr std::size_t kSliceRequests = 12;

class Validate
{
  public:
    Validate(const Options &opts, Report &report, SpanRecorder &spans)
        : opts(opts), report(report), spans(spans),
          mibench(mibenchSuite()), benches(suiteProfiles()),
          table2(SpaceSpec::table2()),
          points(table2Space()), threads(poolThreads()),
          allBackends(backendSet("model,sim,ooo,oosim")),
          orderRng(mixSeed(opts.seed, 2))
    {
        report.note("trace_length", std::to_string(kTraceLen));
        report.note("workload_seed", std::to_string(opts.seed));
    }

    void
    run()
    {
        order = shuffled();
        std::vector<double> setups;
        for (int rep = 0; rep < kSetupReps; ++rep)
            setups.push_back(setUp());
        report.set("setup_s", median(setups));

        if (opts.trace)
            tracedRounds();
        else
            timedPasses();
        report.set("peak_rss_mb", peakRssMb());
        checks();
    }

  private:
    /** The Table 2 points in a fresh seeded order. */
    std::vector<std::size_t>
    shuffled()
    {
        std::vector<std::size_t> idx(points.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        for (std::size_t i = idx.size(); i > 1; --i)
            std::swap(idx[i - 1], idx[orderRng.below(i)]);
        return idx;
    }

    double
    setUp()
    {
        runner.reset();
        evaluator.reset();
        const auto t0 = Clock::now();
        runner = std::make_unique<StudyRunner>(benches, kTraceLen,
                                               allBackends);
        // The first request builds every study; its answer ends set-up.
        report.check(request(points[order[0]]).size() == benches.size(),
                     "validate: first request answered no profiles");
        evaluator = std::make_unique<SearchEvaluator>(
            mibench, kTraceLen, parseObjectives("energy,delay"),
            backendSet("sim"));
        {
            ThreadPool pool(threads <= 1 ? 0 : threads);
            evaluator->prepare(table2, pool);
        }
        return secondsSince(t0);
    }

    /** Validate one point on every profile with every backend. */
    std::vector<StudyResult>
    request(const DesignPoint &p)
    {
        Span s(spans, "validate.request",
               spans.enabled() ? spans.newId() : 0);
        Span sweep(spans, "dse.sweep");
        return runner->evaluateAll({p}, threads);
    }

    SearchOptions
    searchOptions(std::uint64_t idx) const
    {
        SearchOptions so;
        so.seed = mixSeed(opts.seed, 200 + idx);
        so.budget = kSearchBudget;
        so.population = kSearchPopulation;
        so.threads = threads;
        return so;
    }

    /** One sim-backed search; returns (fresh evals x benches) / s. */
    double
    search(std::uint64_t idx)
    {
        Span s(spans, "search.run");
        const auto t0 = Clock::now();
        SearchResult res =
            runSearch(table2, "genetic", *evaluator, searchOptions(idx));
        const double secs = secondsSince(t0);
        if (idx == 0)
            firstFrontier = frontierKeys(res);
        report.attempt();
        return double(res.stats.misses * mibench.size()) / secs;
    }

    static std::vector<std::string>
    frontierKeys(const SearchResult &res)
    {
        std::vector<std::string> keys;
        for (std::size_t i : res.frontier)
            keys.push_back(res.evaluated[i]->point.toKey());
        return keys;
    }

    void
    timedPasses()
    {
        // Request rates are medians over slices of kSliceRequests
        // requests, so a burst of host noise moves one slice only.
        std::vector<double> latency_ms, search_rates, slice_rates;
        double slice_s = 0.0;
        std::size_t done = 0;
        firstPass.assign(points.size(), {});
        const auto t0 = Clock::now();
        while (done < points.size() || secondsSince(t0) < opts.seconds) {
            const std::size_t pos = done % points.size();
            if (done > 0 && done % kRoundRequests == 0)
                search_rates.push_back(search(search_rates.size()));
            if (pos == 0 && done > 0)
                order = shuffled();
            const std::size_t pi = order[pos];
            const auto tr = Clock::now();
            auto res = request(points[pi]);
            const double secs = secondsSince(tr);
            latency_ms.push_back(secs * 1e3);
            slice_s += secs;
            if ((done + 1) % kSliceRequests == 0) {
                slice_rates.push_back(double(kSliceRequests) / slice_s);
                slice_s = 0.0;
            }
            report.attempt();
            if (done < points.size())
                firstPass[pi] = std::move(res);
            ++done;
        }
        if (search_rates.empty())
            search_rates.push_back(search(0));
        const double rate = median(slice_rates);
        report.set("requests_per_s", rate);
        report.set("evals_per_s", rate * double(benches.size()));
        report.set("p50_ms", quantile(latency_ms, 0.50));
        report.set("p95_ms", quantile(latency_ms, 0.95));
        report.set("search_evals_per_s", median(search_rates));
        errors();
    }

    /** CPI errors of the first full pass. */
    void
    errors()
    {
        ErrorTally model, ooo, heldout;
        for (const auto &res : firstPass) {
            for (std::size_t b = 0; b < benches.size(); ++b) {
                const PointEvaluation &pe = res[b].evals[0];
                if (b < mibench.size()) {
                    model.add(pe.cpiError().value_or(1.0));
                    ooo.add(pe.oooCpiError().value_or(1.0));
                } else {
                    heldout.add(pe.cpiError().value_or(1.0));
                }
            }
        }
        report.set("cpi_error_mean_pct", model.meanPct());
        report.set("cpi_error_max_pct", model.maxPct());
        report.set("ooo_cpi_error_mean_pct", ooo.meanPct());
        report.set("heldout_cpi_error_mean_pct", heldout.meanPct());
        report.exact("cpi_error_mean_pct", model.meanPct());
        report.exact("cpi_error_max_pct", model.maxPct());
        report.exact("ooo_cpi_error_mean_pct", ooo.meanPct());
        report.exact("heldout_cpi_error_mean_pct", heldout.meanPct());
    }

    void
    tracedRounds()
    {
        auto studies =
            probeSetupLayers(benches, kTraceLen, points, report, spans);
        // A round is a quarter pass plus one search; rounds alternate
        // untraced and traced.
        std::vector<double> plain, traced;
        const auto t0 = Clock::now();
        std::size_t next = 0;
        for (std::uint64_t i = 0;
             traced.size() < 2 || secondsSince(t0) < opts.seconds; ++i) {
            // Round 0 warms caches and allocators and is not compared.
            spans.setEnabled(i % 2 == 0 && i > 0);
            const auto tr = Clock::now();
            {
                Span root(spans, "validate.round");
                for (std::size_t r = 0; r < kRoundRequests; ++r) {
                    request(points[order[next++ % points.size()]]);
                    report.attempt();
                }
                search(i);
            }
            if (i > 0)
                (i % 2 ? plain : traced).push_back(secondsSince(tr));
        }
        spans.setEnabled(true);
        const double base = median(plain);
        report.set("trace_overhead_pct",
                   100.0 * (median(traced) - base) / base);
        report.set("dse.sweep_s", median(spans.durations("dse.sweep")));
        report.set("search.run_s", median(spans.durations("search.run")));
        report.set("pool.chunk_us_p50",
                   double(registryHist("pool.chunk_us").quantile(0.5)));
        probeEvalLayers({studies[0].get(), studies[19].get()}, points,
                        {points[0], points[points.size() - 1]}, report,
                        spans);
    }

    void
    checks()
    {
        Span root(spans, "validate.checks");
        const RegistryMark start = RegistryMark::now();

        // Results at 1 thread and at the pool width agree bit for bit
        // on a seeded sample, and with the timed pass where it ran.
        std::vector<DesignPoint> sample;
        for (std::size_t i = 0; i < kCheckPoints; ++i)
            sample.push_back(points[order[i]]);
        auto t0 = Clock::now();
        auto parallel = runner->evaluateAll(sample, threads);
        const double parallel_s = secondsSince(t0);
        t0 = Clock::now();
        auto serial = runner->evaluateAll(sample, 1);
        const double serial_s = secondsSince(t0);
        bool same = true;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            for (std::size_t i = 0; i < sample.size(); ++i) {
                same = same && sameEvaluation(parallel[b].evals[i],
                                              serial[b].evals[i]);
            }
        }
        report.check(same, "validate: 1-thread results differ from " +
                               std::to_string(threads) + "-thread ones");
        if (!firstPass.empty()) {
            bool pass_same = true;
            for (std::size_t i = 0; i < sample.size(); ++i) {
                const auto &pass = firstPass[order[i]];
                for (std::size_t b = 0; b < benches.size() && !pass.empty();
                     ++b) {
                    pass_same = pass_same &&
                                sameEvaluation(pass[b].evals[0],
                                               serial[b].evals[i]);
                }
            }
            report.check(pass_same,
                         "validate: sample results differ from the pass");
        }
        report.set("dse.serial_sweep_s", serial_s);
        report.set("dse.parallel_efficiency",
                   serial_s / (double(logicalCores()) * parallel_s));

        // The same search seed gives the same frontier.
        SearchResult again =
            runSearch(table2, "genetic", *evaluator, searchOptions(0));
        report.check(frontierKeys(again) == firstFrontier,
                     "validate: repeated search changed its frontier");
        const SearchStats &st = again.stats;
        report.set("search.requested", double(st.requested));
        report.set("search.cache_hit_ratio",
                   st.requested ? double(st.hits) / double(st.requested)
                                : 0.0);
        report.set("search.frontier_size", double(again.frontier.size()));

        reportCounts(report, RegistryMark::now().since(start), st.misses);
        reportBackendBusy(report, RegistryMark::now());
    }

    const Options &opts;
    Report &report;
    SpanRecorder &spans;
    const std::vector<BenchmarkProfile> mibench;
    const std::vector<BenchmarkProfile> benches;
    const SpaceSpec table2;
    const std::vector<DesignPoint> points;
    const unsigned threads;
    const BackendSet allBackends;
    Rng orderRng;
    std::vector<std::size_t> order;
    std::unique_ptr<StudyRunner> runner;
    std::unique_ptr<SearchEvaluator> evaluator;
    std::vector<std::vector<StudyResult>> firstPass;
    std::vector<std::string> firstFrontier;
};

} // namespace

void
runValidate(const Options &opts, Report &report, SpanRecorder &spans)
{
    Validate(opts, report, spans).run();
}

} // namespace perfbench
