/**
 * @file
 * The evaluation service behind mech_serve: resolve client requests
 * against the live registries and answer them through shared studies,
 * a shared thread pool, and per-group memoized evaluation caches.
 *
 * The unit of work here is a *client request*, not a study: requests
 * arrive naming arbitrary (benchmarks, backends, objectives)
 * combinations, so the service keeps
 *
 *   - a study pool: one DseStudy per benchmark name, profiled once
 *     (or loaded from a .mprof artifact) on first use and shared by
 *     every request that names the benchmark;
 *   - evaluation groups: one per distinct
 *     (benchmarks, backends, objectives) combination, each owning a
 *     PR-4 EvalCache keyed by DesignPoint identity — repeat requests
 *     are answered from the memo without touching the pool;
 *   - one ThreadPool shared by every group, used only to compute
 *     cache misses (and to build studies).
 *
 * Concurrency: handleFlush() is safe to call from any number of
 * dispatcher threads at once (the epoll front end runs several).
 * Registry maps sit behind a resolve mutex and traffic counters
 * behind a stats mutex.  Studies need no lock at all: a DseStudy
 * memoizes each L2 geometry itself, computing a cold one exactly
 * once however many flushes ask for it, so concurrent flushes over
 * overlapping study sets simply evaluate side by side.
 *
 * Determinism: within one flush, hits and misses are classified and
 * inserted on the calling thread in request order — the three-phase
 * dance of the shared batch core (search/batch_eval.hh) — so for a
 * single client session response bodies are byte-identical at any
 * worker count.  Across concurrent sessions the "cached" flags
 * truthfully reflect arrival interleaving (a point another session
 * just computed is a hit), which is inherently timing-dependent;
 * every numeric result is interleaving-independent.
 *
 * Warm-cache persistence: with a cache directory configured, each
 * group's EvalCache can be spilled on drain (persistCaches) and is
 * transparently reloaded when the group re-materializes after a
 * restart — see search/cache_io.hh for the format and its
 * invalidation rules.
 */

#ifndef MECH_SERVE_SERVICE_HH
#define MECH_SERVE_SERVICE_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "common/types.hh"
#include "serve/protocol.hh"

namespace mech {
class DseStudy;
struct CachedBatch;
struct SearchEval;
}

namespace mech::serve {

/** Server-side configuration shared by every session. */
struct ServeConfig
{
    /** Dynamic instructions per benchmark trace when profiling. */
    InstCount traceLen = 50000;

    /** Directory of .mprof artifacts to load instead of profiling. */
    std::string profileDir;

    /** Worker threads (already sanitized); <= 1 evaluates inline. */
    unsigned threads = 1;

    /** Largest SpaceSpec a batch request may fan out. */
    std::uint64_t maxSpacePoints = 100000;

    /**
     * Directory of .mcache warm-cache spills: groups reload their
     * memo from here on first use, persistCaches() writes spills
     * back on drain.  Empty disables persistence.
     */
    std::string cacheDir;

    /** Benchmark set for requests that name none. */
    std::vector<std::string> defaultBench{"jpeg_c", "sha"};

    /** Backend set for requests that name none. */
    std::vector<std::string> defaultBackends{"model"};

    /** Objective set for requests that name none. */
    std::vector<std::string> defaultObjectives{"cpi"};

    /**
     * Optional `.mdesc` machine description to serve: loaded at
     * construction and installed as the process-wide latency spec,
     * so every backend evaluates the described machine.  Empty
     * serves the built-in Table 1 parameters.
     */
    std::string mdescPath;
};

/** Service-wide evaluation-traffic accounting (all deterministic). */
struct ServiceStats
{
    /** Point lookups requested (eval requests + batch fan-outs). */
    std::uint64_t requested = 0;

    /** Lookups served from a group's memo. */
    std::uint64_t hits = 0;

    /** Fresh evaluations computed. */
    std::uint64_t misses = 0;

    /** Data-plane requests answered, by kind. */
    std::uint64_t evalRequests = 0;
    std::uint64_t batchRequests = 0;

    /** Requests answered with an error response. */
    std::uint64_t errors = 0;

    /** Of those errors, requests shed by admission control. */
    std::uint64_t shed = 0;

    /** Distinct (bench, backends, objectives) groups materialized. */
    std::uint64_t groups = 0;

    /** Memoized design points across all groups. */
    std::uint64_t cachedPoints = 0;

    /** Points reloaded from warm-cache spills (--cache-dir). */
    std::uint64_t restored = 0;

    /** Hits over requested (0 before any request). */
    double
    hitRate() const
    {
        return requested
                   ? static_cast<double>(hits) /
                         static_cast<double>(requested)
                   : 0.0;
    }
};

/** The long-running evaluation engine behind every server session. */
class EvalService
{
  public:
    explicit EvalService(ServeConfig cfg);
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Answer one coalesced flush of data-plane (eval/batch) requests.
     *
     * Returns exactly one response body per request, in request
     * order: a "result" line per eval, a "frontier" line per batch,
     * or an "error" line for any request that fails resolution.
     * Bodies carry no latency fields (the ResponseWriter appends
     * those) and no thread-count-dependent data.  Callable
     * concurrently from multiple dispatcher threads.
     */
    std::vector<std::string>
    handleFlush(const std::vector<ServeRequest> &requests);

    /** Answer an info request (registries, defaults, limits). */
    std::string infoResponse(const std::string &id_json) const;

    /**
     * Answer a stats request, or — for @p type Shutdown — the final
     * "bye" accounting line of a graceful drain.  The response
     * carries the traffic counters, uptime, and per-group cache
     * occupancy/hit-rate; with @p timing set (the server's
     * non-deterministic mode) it additionally reports wall-clock
     * latency-histogram quantiles.  With @p timing false every field
     * is deterministic (uptime_ms reads 0), so golden streams stay
     * byte-identical.
     */
    std::string statsResponse(const std::string &id_json,
                              RequestType type, bool timing) const;

    /**
     * Account @p n requests rejected by admission control (they were
     * answered with "overloaded" errors at the server layer and never
     * reached handleFlush).
     */
    void noteShedRequests(std::uint64_t n);

    /**
     * Spill every group's EvalCache to the configured cache
     * directory (no-op without one).  Returns the number of spill
     * files written; failures warn and continue.  The front ends
     * call this once on graceful drain.
     */
    std::size_t persistCaches(std::ostream *log = nullptr) const;

    /** Current accounting snapshot. */
    ServiceStats stats() const;

    /** The service configuration. */
    const ServeConfig &config() const { return cfg; }

  private:
    struct Group;

    /** Resolve names; null plus @p error on failure. */
    Group *resolveGroup(const ServeRequest &req, std::string *error);

    /** Build the study-pool entries @p names still lacks. */
    void buildStudies(const std::vector<std::string> &names);

    /** Reload @p group's memo from its spill file, if one is valid. */
    void loadSpill(Group &group);

    /**
     * Evaluate @p points through @p group's memo with the shared
     * batch core, and account the call's traffic.
     */
    CachedBatch evaluatePoints(Group &group,
                               const std::vector<DesignPoint> &points);

    std::string evalResponse(const ServeRequest &req, Group &group,
                             const SearchEval &eval, bool was_hit);

    /** @p ok reports whether the body is a frontier (vs an error). */
    std::string batchResponse(const ServeRequest &req, Group &group,
                              bool *ok);

    ServeConfig cfg;
    ThreadPool pool;

    /** Guards studies, groupList and groupIndex (a leaf-ward lock:
     *  statsMtx may nest inside it, never the reverse). */
    mutable std::mutex resolveMtx;
    std::map<std::string, std::unique_ptr<DseStudy>> studies;
    std::vector<std::unique_ptr<Group>> groupList;
    std::map<std::string, Group *> groupIndex;

    /** Guards counters and per-group traffic; strictly a leaf lock. */
    mutable std::mutex statsMtx;
    ServiceStats counters;

    /** Service construction time, for the stats uptime field. */
    const std::chrono::steady_clock::time_point startTime =
        std::chrono::steady_clock::now();
};

} // namespace mech::serve

#endif // MECH_SERVE_SERVICE_HH
