/**
 * @file
 * Sharded scatter-gather over mech_serve instances, plus the small
 * loopback client the tools, benchmarks and smokes drive servers
 * with.
 *
 * mech_shard splits a SpaceSpec across N server processes by
 * DesignPoint hash (shardOf), pipelines one eval request per point to
 * the owning shard, gathers the objective values back, and assembles
 * the exact frontier response one server would have produced for the
 * whole batch.  Byte-identity holds because (a) every shard computes
 * the same deterministic objective values, (b) json::writeNumber
 * round-trips doubles exactly, so values gathered over the wire
 * re-serialize to the same bytes, and (c) the response body itself is
 * built by frontierResponse() — the same function the in-process
 * batch path uses.
 *
 * The LoopbackClient is deliberately windowed: it keeps at most
 * `window` requests outstanding per connection so a large scatter
 * never trips the server's admission control (window must stay at or
 * below the server's per-session in-flight bound).
 */

#ifndef MECH_SERVE_SHARD_HH
#define MECH_SERVE_SHARD_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dse/design_space.hh"
#include "search/objective.hh"

namespace mech::serve {

/** The shard (of @p shards) that owns @p point, by stable hash. */
inline std::size_t
shardOf(const DesignPoint &point, std::size_t shards)
{
    return shards ? static_cast<std::size_t>(point.hash() % shards)
                  : 0;
}

/** One evaluated point of a frontier response, in response layout. */
struct FrontierEntry
{
    std::string pointKey;
    std::string label;

    /** Aggregate objective values, one per objective, in order. */
    std::vector<double> objectives;
};

/**
 * Emit `{ "<obj>": v, ... }` for one objective-value slice starting
 * at @p base of @p values (shared by the eval and frontier paths so
 * their number formatting cannot drift).
 */
void writeObjectiveObject(std::ostream &os,
                          const std::vector<Objective> &objs,
                          const std::vector<double> &values,
                          std::size_t base);

/** Emit @p names as a JSON array of strings. */
void writeNameArray(std::ostream &os,
                    const std::vector<std::string> &names);

/** Cache accounting of one gathered batch. */
struct GatherCounts
{
    std::uint64_t requested = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * Serialize the "frontier" response for @p entries (the whole
 * enumerated space, in enumeration order).  Computes normalized
 * costs, the Pareto frontier and the best-by-first-objective entry
 * internally; both the in-process batch path and mech_shard's gather
 * path call this, which is what keeps them byte-identical.
 */
std::string frontierResponse(const std::string &id_json,
                             const std::string &space_describe,
                             std::uint64_t space_size,
                             const std::string &backend_name,
                             const std::vector<Objective> &objectives,
                             const std::vector<std::string> &bench,
                             const std::vector<FrontierEntry> &entries,
                             const GatherCounts &cache);

/**
 * A blocking loopback NDJSON client with windowed pipelining: sends
 * @p lines (newlines appended) keeping at most @p window outstanding,
 * and collects one response line per request line.
 */
class LoopbackClient
{
  public:
    /** Connect to 127.0.0.1:@p port; false + error on failure. */
    bool connect(unsigned short port, std::string *error);

    /** Close the connection (also done by the destructor). */
    void close();

    ~LoopbackClient();

    /**
     * Pipeline @p lines and collect exactly one response line each,
     * in order.  Returns false (with the responses gathered so far)
     * on a connection error or a premature server close.
     *
     * With @p latencies_us, additionally records one client-observed
     * send-to-receive latency (microseconds) per gathered response,
     * in response order — the client half of the replay summary
     * table.  Purely observational: the request/response byte
     * streams are identical either way.
     */
    bool run(const std::vector<std::string> &lines,
             std::vector<std::string> *responses, std::string *error,
             std::size_t window = 64,
             std::vector<double> *latencies_us = nullptr);

    /**
     * Flood mode: write every line immediately, half-close, and read
     * until the server closes — no windowing, no response counting.
     * This is what overload smokes use to slam admission control.
     */
    bool flood(const std::vector<std::string> &lines,
               std::vector<std::string> *responses,
               std::string *error);

  private:
    int fd = -1;
};

} // namespace mech::serve

#endif // MECH_SERVE_SHARD_HH
