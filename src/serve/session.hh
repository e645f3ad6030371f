/**
 * @file
 * The request pipeline shared by the stdio and TCP front ends, and
 * the stdio session that drives it.
 *
 * answerLines() is the one parse-coalesce-evaluate-respond loop: it
 * takes an ordered batch of request lines, coalesces the data
 * requests into EvalService::handleFlush(), answers control requests
 * on drained state, and writes one response per line, in line order,
 * through a ResponseWriter that appends per-response latency and
 * keeps traffic accounting.  The TCP dispatcher calls it once per
 * admitted batch (server.hh); a ServerSession calls it once per batch
 * it reads from a stream.
 *
 * Stdio coalescing policy: keep reading while more input is
 * immediately available and the batch cap is not reached; answer the
 * batch when the source would block (an interactive client gets its
 * answer right away), at the cap, and at EOF.  Because the service's
 * accounting is flush-boundary independent, this is purely a
 * throughput knob: the response stream is byte-identical however the
 * input was paced or chunked.
 */

#ifndef MECH_SERVE_SESSION_HH
#define MECH_SERVE_SESSION_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/service.hh"

namespace mech::serve {

/** Request lines from a std::istream (stdin, test stringstreams). */
class IstreamLineSource
{
  public:
    explicit IstreamLineSource(std::istream &is) : is(is) {}

    /**
     * Read the next line (without its newline) into @p line.
     * Returns false at end of stream.  Oversized lines (beyond
     * kMaxRequestBytes) are truncated to the cap plus one byte, with
     * the rest of the physical line consumed and discarded; the
     * pipeline turns the truncation into an error response.
     */
    bool nextLine(std::string &line);

    /** True when another line can be read without blocking. */
    bool moreBuffered();

  private:
    std::istream &is;
};

/** Per-session knobs (the server's --max-batch / --deterministic). */
struct SessionOptions
{
    /** Most requests coalesced into one service flush. */
    std::size_t maxBatch = 64;

    /** Append "latency_us" to responses (off => fully reproducible). */
    bool latencyFields = true;
};

/** One session's traffic counters. */
struct SessionStats
{
    std::uint64_t lines = 0;     ///< non-blank lines answered
    std::uint64_t responses = 0; ///< response lines written
    std::uint64_t errors = 0;    ///< of which error responses
    bool shutdownRequested = false;
};

/**
 * Response serializer: one JSON line per response, with optional
 * latency annotation.
 *
 * Latency is measured from line arrival to response write — it
 * includes the coalescing wait, which is the number a client
 * experiences.  The field is appended by this writer (bodies arrive
 * latency-free from the service), so switching it off yields the
 * deterministic stream CI diffs against a golden file.
 */
class ResponseWriter
{
  public:
    ResponseWriter(std::ostream &os, bool latency_fields)
        : os(os), latencyFields(latency_fields)
    {
    }

    /**
     * Write one response body for a line that arrived at
     * @p received, annotating its latency if enabled.
     */
    void write(const std::string &body,
               std::chrono::steady_clock::time_point received);

    /** Flush the underlying stream (once per batch). */
    void flush();

    /** True when responses carry latency (the non-deterministic mode). */
    bool timing() const { return latencyFields; }

    std::uint64_t written() const { return count; }
    std::uint64_t errorsWritten() const { return errorCount; }

  private:
    std::ostream &os;
    bool latencyFields;
    std::uint64_t count = 0;
    std::uint64_t errorCount = 0;
};

/** What answerLines() did with one batch. */
struct BatchOutcome
{
    /** Lines answered: the whole batch, or through a shutdown. */
    std::size_t consumed = 0;

    /** The batch held a shutdown request (later lines are dropped). */
    bool shutdown = false;
};

/**
 * Answer @p lines, in order, through @p writer: the request pipeline
 * both front ends share.  Over-cap and malformed lines become error
 * responses in their slot; data requests coalesce into one
 * EvalService::handleFlush() per run between control requests; a
 * control request first answers everything before it, then itself.
 * Stops after a shutdown request, whose "bye" line is the last one
 * written.
 */
BatchOutcome answerLines(EvalService &service,
                         const std::vector<QueuedLine> &lines,
                         ResponseWriter &writer);

/** The request/response loop for one client over a stream (stdio). */
class ServerSession
{
  public:
    ServerSession(EvalService &service, IstreamLineSource &source,
                  std::ostream &out, SessionOptions opts);

    /**
     * Serve until end of stream or a shutdown request (which drains
     * pending requests and answers with a final "bye" line).
     */
    SessionStats run();

  private:
    EvalService &service;
    IstreamLineSource &source;
    std::ostream &out;
    SessionOptions opts;
};

} // namespace mech::serve

#endif // MECH_SERVE_SESSION_HH
