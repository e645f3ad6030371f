/**
 * @file
 * The mech_serve wire protocol: newline-delimited JSON requests and
 * responses (one object per line, UTF-8, schema-versioned).
 *
 * Request lines name what to evaluate; the service resolves names
 * against the live registries and answers with result lines in
 * request order.  Five request types:
 *
 *   eval      evaluate one design point ("point": a
 *             DesignPoint::toKey() string or an explicit-axes object)
 *             for a benchmark set, through one or more registered
 *             backends, reporting the named objectives;
 *   batch     fan out a whole SpaceSpec ("space": preset or axis
 *             grammar) and return its Pareto frontier;
 *   info      describe the server (benchmarks, backends, objectives,
 *             defaults);
 *   stats     report evaluation-traffic accounting (cache hit/miss
 *             counters, group and memo sizes);
 *   shutdown  drain pending requests, answer with a final "bye"
 *             accounting line, and stop the server.
 *
 * Parsing is total: any malformed line — truncated JSON, a missing
 * or unknown type, a bad point key — becomes a structured
 * `{"type": "error"}` response carrying the echoed request id when
 * one could be recovered.  The server never crashes or silently
 * drops a line on bad input.
 *
 * Responses are deterministic: same request stream, same
 * configuration => byte-identical response stream at any worker
 * count, except for the optional per-response "latency_us" field
 * (suppressed by mech_serve --deterministic).
 */

#ifndef MECH_SERVE_PROTOCOL_HH
#define MECH_SERVE_PROTOCOL_HH

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dse/design_space.hh"

namespace mech::serve {

/** Current serve-protocol schema version. */
inline constexpr int kServeSchemaVersion = 1;

/** Request lines beyond this size are rejected with an error. */
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/** The request types of the protocol. */
enum class RequestType { Eval, Batch, Info, Stats, Shutdown };

/**
 * True for the control requests (info, stats, shutdown): they are
 * answered on drained state, never coalesced and never shed.
 */
inline bool
isControl(RequestType type)
{
    return type == RequestType::Info || type == RequestType::Stats ||
           type == RequestType::Shutdown;
}

/** One request line as received, with its arrival time. */
struct QueuedLine
{
    std::string line;
    std::chrono::steady_clock::time_point received;
};

/** True for a line of only spaces, tabs and CRs: never answered. */
bool isBlank(const std::string &line);

/** One parsed (but not yet name-resolved) client request. */
struct ServeRequest
{
    /**
     * The request's "id" re-serialized as JSON for echoing (a quoted
     * string or a number literal); empty when the request had none.
     */
    std::string idJson;

    RequestType type = RequestType::Eval;

    /** The design point of an eval request. */
    std::optional<DesignPoint> point;

    /** The space grammar/preset of a batch request. */
    std::string space;

    /** Benchmark names; empty means the server's default set. */
    std::vector<std::string> bench;

    /** Backend names; empty means the server's default set. */
    std::vector<std::string> backends;

    /** Objective names; empty means the server's default set. */
    std::vector<std::string> objectives;
};

/** Outcome of parsing one request line. */
struct ParseOutcome
{
    /** The parsed request; empty on failure. */
    std::optional<ServeRequest> request;

    /** Parse failure message ("" on success). */
    std::string error;

    /** Echo id recovered from the line, even when parsing failed. */
    std::string idJson;

    bool ok() const { return request.has_value(); }
};

/**
 * Parse one request line.  Never throws and never terminates: every
 * malformed input yields an ParseOutcome with a message suitable for
 * an error response.  Unknown top-level fields are tolerated (future
 * schema minors must stay speakable); unknown fields inside a
 * "point" axes object are errors, because a typoed axis silently
 * evaluating the default point would be a wrong answer.
 */
ParseOutcome parseRequest(const std::string &line);

/** Serialize an error response for @p id_json (may be empty). */
std::string errorResponse(const std::string &id_json,
                          const std::string &message);

/**
 * Machine-readable error code of an admission-control rejection.
 * Clients match on "code" (the human-readable "error" text may
 * change); any other error kind omits the field.
 */
inline constexpr const char *kOverloadedCode = "overloaded";

/**
 * Serialize an error response carrying a machine-readable "code"
 * field (e.g. kOverloadedCode for a shed request).
 */
std::string codedErrorResponse(const std::string &id_json,
                               const std::string &code,
                               const std::string &message);

/**
 * Start a response body: `{"schema_version": 1, "id": <id>,
 * "type": "<type>"` with the id omitted when @p id_json is empty.
 * Callers append further `, "k": v` fields and the closing brace.
 */
std::string responseHead(const std::string &id_json,
                         const std::string &type);

} // namespace mech::serve

#endif // MECH_SERVE_PROTOCOL_HH
