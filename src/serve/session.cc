#include "serve/session.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "serve/serve_obs.hh"

namespace mech::serve {

bool
IstreamLineSource::nextLine(std::string &line)
{
    if (!std::getline(is, line))
        return false;
    if (line.size() > kMaxRequestBytes) {
        // Keep the cap's worth so the session can report the
        // overflow; the getline above already consumed the rest.
        line.resize(kMaxRequestBytes + 1);
    }
    return true;
}

bool
IstreamLineSource::moreBuffered()
{
    // in_avail() counts bytes already sitting in the stream buffer: a
    // piped file keeps it positive until the buffer drains, while an
    // interactive client leaves it at zero between requests — exactly
    // the "flush now or coalesce more?" signal we need.
    return is.good() && is.rdbuf()->in_avail() > 0;
}

namespace {

double
microsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

void
ResponseWriter::write(const std::string &body,
                      std::chrono::steady_clock::time_point received)
{
    MECH_ASSERT(!body.empty() && body.back() == '}',
                "response body must be a JSON object");
    const double latency_us = microsSince(received);
    ++count;
    recordResponseLatency(body, latency_us);
    // A cheap, structural check: every error body starts with the
    // same head the protocol serializer produced.
    if (body.find("\"type\": \"error\"") != std::string::npos &&
        body.find("\"error\": ") != std::string::npos) {
        ++errorCount;
    }
    if (!latencyFields) {
        os << body << '\n';
        return;
    }
    os.write(body.data(),
             static_cast<std::streamsize>(body.size() - 1));
    os << ", \"latency_us\": ";
    json::writeNumber(os, latency_us);
    os << "}\n";
}

void
ResponseWriter::flush()
{
    os.flush();
}

BatchOutcome
answerLines(EvalService &service, const std::vector<QueuedLine> &lines,
            ResponseWriter &writer)
{
    // The data requests since the last control request, answered as
    // one coalesced flush.  A line that failed the cap or the parse
    // keeps its slot (with its error) so response N answers line N.
    struct Slot
    {
        std::chrono::steady_clock::time_point received;
        std::string error;
        std::string idJson;
    };
    std::vector<Slot> slots;
    std::vector<ServeRequest> requests;
    auto flush = [&] {
        if (slots.empty())
            return;
        std::vector<std::string> bodies = service.handleFlush(requests);
        obs::TraceSpan span("request.serialize", "serve");
        std::size_t next = 0;
        for (const Slot &slot : slots) {
            if (slot.error.empty())
                writer.write(bodies[next++], slot.received);
            else
                writer.write(errorResponse(slot.idJson, slot.error),
                             slot.received);
        }
        slots.clear();
        requests.clear();
    };

    BatchOutcome outcome;
    for (const QueuedLine &line : lines) {
        ++outcome.consumed;
        Slot slot{line.received, {}, {}};
        if (line.line.size() > kMaxRequestBytes) {
            slot.error = "request line exceeds " +
                         std::to_string(kMaxRequestBytes) + " bytes";
            slots.push_back(std::move(slot));
            continue;
        }
        ParseOutcome parsed = [&] {
            obs::TraceSpan span("request.parse", "serve");
            return parseRequest(line.line);
        }();
        if (!parsed.ok()) {
            slot.error = std::move(parsed.error);
            slot.idJson = std::move(parsed.idJson);
        } else if (isControl(parsed.request->type)) {
            // Control requests act on drained state.
            flush();
            const ServeRequest &req = *parsed.request;
            const std::string body =
                req.type == RequestType::Info
                    ? service.infoResponse(req.idJson)
                    : service.statsResponse(req.idJson, req.type,
                                            writer.timing());
            writer.write(body, line.received);
            if (req.type == RequestType::Shutdown) {
                outcome.shutdown = true;
                break;
            }
            continue;
        } else {
            requests.push_back(std::move(*parsed.request));
        }
        slots.push_back(std::move(slot));
    }
    flush();
    return outcome;
}

ServerSession::ServerSession(EvalService &service, IstreamLineSource &source,
                             std::ostream &out, SessionOptions opts)
    : service(service), source(source), out(out), opts(opts)
{
}

SessionStats
ServerSession::run()
{
    const std::size_t cap = std::max<std::size_t>(opts.maxBatch, 1);
    ResponseWriter writer(out, opts.latencyFields);
    SessionStats stats;
    std::vector<QueuedLine> batch;
    std::string line;
    bool eof = false;
    while (!eof && !stats.shutdownRequested) {
        batch.clear();
        while (batch.size() < cap) {
            if (!source.nextLine(line)) {
                eof = true;
                break;
            }
            if (!isBlank(line)) {
                const auto now = std::chrono::steady_clock::now();
                batch.push_back(QueuedLine{std::move(line), now});
            }
            if (!source.moreBuffered())
                break;
        }
        if (batch.empty())
            continue;
        const BatchOutcome outcome = answerLines(service, batch, writer);
        writer.flush();
        stats.lines += outcome.consumed;
        stats.shutdownRequested = outcome.shutdown;
    }
    stats.responses = writer.written();
    stats.errors = writer.errorsWritten();
    return stats;
}

} // namespace mech::serve
