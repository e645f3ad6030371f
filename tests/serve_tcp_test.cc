/**
 * @file
 * Tests for the concurrent serve front end: AdmissionQueue bounds and
 * fairness, the in-process epoll TcpServer (pipelining, dispatcher
 * byte-identity, overload shedding, graceful drain), the warm-cache
 * restart path, and frontierResponse equivalence between the
 * in-process batch path and a mech_shard-style scatter-gather.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "obs/registry.hh"
#include "search/space_spec.hh"
#include "serve/admission.hh"
#include "serve/protocol.hh"
#include "serve/serve_obs.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/shard.hh"

namespace mech::serve {
namespace {

constexpr InstCount kTraceLen = 10000;

ServeConfig
testConfig(unsigned threads = 1)
{
    ServeConfig cfg;
    cfg.traceLen = kTraceLen;
    cfg.threads = threads;
    cfg.defaultBench = {"jpeg_c"};
    return cfg;
}

QueuedLine
line(const std::string &text)
{
    return QueuedLine{text, std::chrono::steady_clock::now()};
}

std::string
evalLine(int id, const DesignPoint &point)
{
    return "{\"id\": " + std::to_string(id) +
           ", \"type\": \"eval\", \"point\": \"" + point.toKey() +
           "\"}";
}

// ---------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------

TEST(Admission, GlobalQueueBoundSheds)
{
    AdmissionConfig cfg;
    cfg.maxQueue = 3;
    cfg.maxInflight = 100;
    AdmissionQueue q(cfg);
    q.addSession(1);
    EXPECT_TRUE(q.offer(1, line("a")));
    EXPECT_TRUE(q.offer(1, line("b")));
    EXPECT_TRUE(q.offer(1, line("c")));
    EXPECT_FALSE(q.offer(1, line("d"))) << "queue bound ignored";
    EXPECT_EQ(q.pending(), 3u);
}

TEST(Admission, PerSessionBoundLeavesRoomForOthers)
{
    AdmissionConfig cfg;
    cfg.maxQueue = 100;
    cfg.maxInflight = 2;
    AdmissionQueue q(cfg);
    q.addSession(1);
    q.addSession(2);
    EXPECT_TRUE(q.offer(1, line("a")));
    EXPECT_TRUE(q.offer(1, line("b")));
    EXPECT_FALSE(q.offer(1, line("c"))) << "session bound ignored";
    EXPECT_TRUE(q.offer(2, line("x")))
        << "one greedy session starved another";
}

TEST(Admission, ForceBypassesBoundsButNotStop)
{
    AdmissionConfig cfg;
    cfg.maxQueue = 1;
    AdmissionQueue q(cfg);
    q.addSession(1);
    EXPECT_TRUE(q.offer(1, line("a")));
    EXPECT_FALSE(q.offer(1, line("b")));
    EXPECT_TRUE(q.force(1, line("stats"))) << "control line shed";
    q.stop();
    EXPECT_FALSE(q.force(1, line("late")))
        << "force admitted after stop";
    EXPECT_FALSE(q.offer(1, line("late")));
}

TEST(Admission, RoundRobinAcrossSessions)
{
    AdmissionConfig cfg;
    cfg.maxBatch = 1;
    AdmissionQueue q(cfg);
    q.addSession(1);
    q.addSession(2);
    ASSERT_TRUE(q.offer(1, line("a1")));
    ASSERT_TRUE(q.offer(1, line("a2")));
    ASSERT_TRUE(q.offer(2, line("b1")));
    ASSERT_TRUE(q.offer(2, line("b2")));

    // Session 1 armed first, but after its batch completes session 2
    // goes next — a deep session cannot monopolize the dispatchers.
    std::vector<std::uint64_t> order;
    AdmissionQueue::Batch batch;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.nextBatch(&batch));
        order.push_back(batch.sid);
        ASSERT_EQ(batch.lines.size(), 1u);
        q.completed(batch.sid);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 1, 2}));
    EXPECT_EQ(q.pending(), 0u);
}

TEST(Admission, OneBatchInFlightPerSession)
{
    AdmissionConfig cfg;
    cfg.maxBatch = 2;
    AdmissionQueue q(cfg);
    q.addSession(1);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.offer(1, line("l" + std::to_string(i))));

    AdmissionQueue::Batch batch;
    ASSERT_TRUE(q.nextBatch(&batch));
    EXPECT_EQ(batch.lines.size(), 2u);

    // With the session's only batch in flight nothing is dispatchable:
    // a second nextBatch() must block until completed() re-arms it.
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        AdmissionQueue::Batch next;
        if (q.nextBatch(&next))
            got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(got.load())
        << "two batches of one session in flight at once";
    q.completed(1);
    waiter.join();
    EXPECT_TRUE(got.load());
}

TEST(Admission, StopDrainsAdmittedLinesThenReleases)
{
    AdmissionConfig cfg;
    cfg.maxBatch = 64;
    AdmissionQueue q(cfg);
    q.addSession(1);
    ASSERT_TRUE(q.offer(1, line("a")));
    ASSERT_TRUE(q.offer(1, line("b")));
    q.stop();

    AdmissionQueue::Batch batch;
    ASSERT_TRUE(q.nextBatch(&batch)) << "admitted lines dropped";
    EXPECT_EQ(batch.lines.size(), 2u);
    q.completed(1);
    EXPECT_FALSE(q.nextBatch(&batch)) << "drained queue still blocks";
}

TEST(Admission, HoldFreezesDispatchUntilReleased)
{
    AdmissionQueue q({});
    q.addSession(1);
    q.holdDispatch(true);
    ASSERT_TRUE(q.offer(1, line("a")));

    std::atomic<bool> got{false};
    std::thread waiter([&] {
        AdmissionQueue::Batch batch;
        if (q.nextBatch(&batch))
            got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(got.load()) << "hold did not freeze dispatch";
    q.holdDispatch(false);
    waiter.join();
    EXPECT_TRUE(got.load());
}

// ---------------------------------------------------------------------
// TcpServer (in-process, ephemeral port)
// ---------------------------------------------------------------------

/** A started server + the service behind it, torn down in order. */
struct ServerFixture
{
    explicit ServerFixture(TcpServerConfig tcp = {},
                           ServeConfig cfg = testConfig())
        : service(cfg), server(service, tcp, log, sessionOpts())
    {
        std::string error;
        if (!server.start(&error))
            ADD_FAILURE() << "server start failed: " << error;
    }

    static SessionOptions
    sessionOpts()
    {
        SessionOptions opts;
        opts.latencyFields = false;
        return opts;
    }

    ~ServerFixture()
    {
        server.requestStop();
        server.wait();
    }

    std::ostringstream log;
    EvalService service;
    TcpServer server;
};

std::vector<std::string>
runClient(unsigned short port, const std::vector<std::string> &lines,
          std::size_t window = 64)
{
    LoopbackClient client;
    std::vector<std::string> responses;
    std::string error;
    EXPECT_TRUE(client.connect(port, &error)) << error;
    EXPECT_TRUE(client.run(lines, &responses, &error, window))
        << error;
    return responses;
}

TEST(ServeTcp, PipelinedSessionAnswersInOrder)
{
    ServerFixture fx;
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 40; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    const auto responses = runClient(fx.server.port(), lines, 8);
    ASSERT_EQ(responses.size(), lines.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
        std::string error;
        auto v = json::parse(responses[i], &error);
        ASSERT_TRUE(v) << error;
        EXPECT_EQ(v->get("id")->asU64(), i);
        EXPECT_EQ(v->get("type")->string, "result");
    }
}

TEST(ServeTcp, ResponsesByteIdenticalAcrossDispatcherCounts)
{
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 32; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    std::vector<std::vector<std::string>> runs;
    for (unsigned dispatchers : {1u, 4u}) {
        TcpServerConfig tcp;
        tcp.dispatchers = dispatchers;
        ServerFixture fx(tcp, testConfig(2));
        runs.push_back(runClient(fx.server.port(), lines));
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(ServeTcp, ConcurrentSessionsAllComplete)
{
    TcpServerConfig tcp;
    tcp.dispatchers = 4;
    ServerFixture fx(tcp, testConfig(2));
    SpaceSpec spec = SpaceSpec::table2();

    constexpr int kClients = 8;
    constexpr int kPerClient = 16;
    std::vector<std::thread> clients;
    std::atomic<int> bad{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<std::string> lines;
            for (int i = 0; i < kPerClient; ++i) {
                lines.push_back(evalLine(
                    c * kPerClient + i,
                    spec.at((c * kPerClient + i) % spec.size())));
            }
            LoopbackClient client;
            std::vector<std::string> responses;
            std::string error;
            if (!client.connect(fx.server.port(), &error) ||
                !client.run(lines, &responses, &error) ||
                responses.size() != lines.size()) {
                bad.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(bad.load(), 0);
}

TEST(ServeTcp, OverloadShedsStructuredErrorsOnly)
{
    TcpServerConfig tcp;
    tcp.maxQueue = 4;
    tcp.maxInflight = 4;
    tcp.dispatchHoldMs = 400;
    ServerFixture fx(tcp);
    SpaceSpec spec = SpaceSpec::table2();

    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    LoopbackClient client;
    std::vector<std::string> responses;
    std::string error;
    ASSERT_TRUE(client.connect(fx.server.port(), &error)) << error;
    ASSERT_TRUE(client.flood(lines, &responses, &error)) << error;

    // Every request line got exactly one well-formed response: the
    // four admitted before the held queue filled evaluate, the rest
    // come back as structured overloaded errors — nothing dropped,
    // nothing corrupted.
    ASSERT_EQ(responses.size(), lines.size());
    int results = 0, overloaded = 0;
    for (const std::string &r : responses) {
        auto v = json::parse(r, &error);
        ASSERT_TRUE(v) << error << ": " << r;
        const std::string type = v->get("type")->string;
        if (type == "result") {
            ++results;
        } else {
            ASSERT_EQ(type, "error");
            ASSERT_NE(v->get("code"), nullptr);
            EXPECT_EQ(v->get("code")->string, kOverloadedCode);
            ++overloaded;
        }
    }
    EXPECT_EQ(results, 4);
    EXPECT_EQ(overloaded, 8);
}

TEST(ServeTcp, ShutdownRequestDrainsGracefully)
{
    SpaceSpec spec = SpaceSpec::table2();
    std::ostringstream log;
    EvalService service(testConfig());
    TcpServer server(service, {}, log, ServerFixture::sessionOpts());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::vector<std::string> lines = {
        evalLine(1, spec.at(0)),
        evalLine(2, spec.at(1)),
        "{\"id\": 3, \"type\": \"shutdown\"}",
    };
    const auto responses = runClient(server.port(), lines);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_NE(responses[2].find("\"type\": \"bye\""),
              std::string::npos);

    server.wait(); // the shutdown request alone must end the server
    EXPECT_TRUE(server.drainedByShutdown());
}

// ---------------------------------------------------------------------
// Warm cache across a service restart
// ---------------------------------------------------------------------

TEST(ServeTcp, WarmCacheRestartServesFromSpill)
{
    const std::string dir = ::testing::TempDir() + "serve_warm_cache";
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i)
        lines.push_back(evalLine(i, spec.at(i)));

    std::vector<std::string> cold, warm;
    {
        ServeConfig cfg = testConfig();
        cfg.cacheDir = dir;
        ServerFixture fx({}, cfg);
        cold = runClient(fx.server.port(), lines);
        EXPECT_EQ(fx.service.persistCaches(nullptr), 1u);
    }
    {
        ServeConfig cfg = testConfig();
        cfg.cacheDir = dir;
        ServerFixture fx({}, cfg);
        warm = runClient(fx.server.port(), lines);

        const ServiceStats stats = fx.service.stats();
        EXPECT_EQ(stats.restored, 12u);
        EXPECT_EQ(stats.hits, 12u) << "restart did not hit the spill";
        EXPECT_EQ(stats.misses, 0u);
    }

    // Responses differ only in the cached flag — the values and
    // formatting must be byte-identical to the cold run.
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        std::string c = cold[i], w = warm[i];
        const auto strip = [](std::string &s) {
            const std::size_t at = s.find("\"cached\": ");
            if (at != std::string::npos)
                s.erase(at, s.find(',', at) + 2 - at);
        };
        strip(c);
        strip(w);
        EXPECT_EQ(c, w);
    }
}

// ---------------------------------------------------------------------
// Metrics endpoint (HTTP/1.0 Prometheus exposition)
// ---------------------------------------------------------------------

/**
 * Connect to 127.0.0.1:@p port and send @p payload as raw bytes;
 * returns the socket, or -1 when the connection or a send fails.
 */
int
sendRaw(unsigned short port, const std::string &payload)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    std::size_t off = 0;
    while (off < payload.size()) {
        // MSG_NOSIGNAL: a server that closes on us mid-send is a
        // failed exchange, not a SIGPIPE.
        const ssize_t put = ::send(fd, payload.data() + off,
                                   payload.size() - off, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return -1;
        }
        off += static_cast<std::size_t>(put);
    }
    return fd;
}

/** Half-close @p fd, read until the server closes, and close it. */
std::string
receiveAll(int fd)
{
    ::shutdown(fd, SHUT_WR);
    std::string response;
    for (;;) {
        char chunk[1 << 14];
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break;
        response.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
    return response;
}

/**
 * Send @p payload to 127.0.0.1:@p port as raw bytes, half-close, and
 * read until the server closes.  Unlike LoopbackClient, nothing is
 * appended: the payload may end in an unterminated line.
 */
std::string
exchangeRaw(unsigned short port, const std::string &payload)
{
    const int fd = sendRaw(port, payload);
    return fd < 0 ? "" : receiveAll(fd);
}

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
httpGet(unsigned short port, const std::string &path)
{
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    return exchangeRaw(port, request);
}

TEST(ServeTcp, MetricsEndpointServesValidExposition)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0; // ephemeral
    ServerFixture fx(tcp);
    ASSERT_GT(fx.server.metricsPort(), 0);

    // A scrape works before any traffic has arrived...
    const std::string cold =
        httpGet(static_cast<unsigned short>(fx.server.metricsPort()),
                "/metrics");
    EXPECT_NE(cold.find("HTTP/1.0 200 OK"), std::string::npos);

    // ...and after traffic the serve series carry samples.
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 8; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));
    runClient(fx.server.port(), lines);

    const std::string response =
        httpGet(static_cast<unsigned short>(fx.server.metricsPort()),
                "/metrics");
    ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Content-Type: text/plain"),
              std::string::npos);
    const std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const std::string body = response.substr(split + 4);

    std::string error;
    EXPECT_TRUE(obs::validateExposition(body, &error)) << error;
    for (const char *series :
         {"mech_serve_latency_result_bucket", "mech_serve_connections",
          "mech_serve_bytes_in", "mech_serve_shed",
          "mech_admission_queue_depth", "mech_admission_admitted",
          "mech_evalcache_hits", "mech_evalcache_misses"}) {
        EXPECT_NE(body.find(series), std::string::npos)
            << "missing series " << series;
    }
}

TEST(ServeTcp, MetricsEndpointRejectsUnknownPath)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    ASSERT_GT(fx.server.metricsPort(), 0);

    const std::string response =
        httpGet(static_cast<unsigned short>(fx.server.metricsPort()),
                "/nope");
    EXPECT_NE(response.find("HTTP/1.0 404 Not Found"),
              std::string::npos);

    // NDJSON sessions are unaffected by metrics traffic.
    SpaceSpec spec = SpaceSpec::table2();
    const auto responses =
        runClient(fx.server.port(), {evalLine(1, spec.at(0))});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_NE(responses[0].find("\"type\": \"result\""),
              std::string::npos);
}

/** The value of the unlabelled sample `name value` in a scrape. */
std::string
seriesValue(const std::string &scrape, const std::string &name)
{
    const std::string key = "\n" + name + " ";
    const std::size_t at = scrape.find(key);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + key.size();
    return scrape.substr(begin, scrape.find('\n', begin) - begin);
}

TEST(ServeTcp, MetricsScrapesStayOutOfSessionAccounting)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    ASSERT_GT(fx.server.metricsPort(), 0);
    const auto metricsPort =
        static_cast<unsigned short>(fx.server.metricsPort());

    // With no NDJSON client connected, a scrape is no session: it
    // opens no connection and its request and response bytes are not
    // session traffic, so two scrapes in a row read the same values.
    const std::string first = httpGet(metricsPort, "/metrics");
    const std::string second = httpGet(metricsPort, "/metrics");
    ASSERT_NE(first.find("HTTP/1.0 200 OK"), std::string::npos);
    ASSERT_NE(second.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_EQ(seriesValue(first, "mech_serve_connections"), "0");
    EXPECT_EQ(seriesValue(second, "mech_serve_connections"), "0");
    for (const char *series : {"mech_serve_bytes_in",
                               "mech_serve_bytes_out",
                               "mech_serve_inflight"}) {
        EXPECT_FALSE(seriesValue(first, series).empty())
            << "missing series " << series;
        EXPECT_EQ(seriesValue(first, series),
                  seriesValue(second, series))
            << series << " moved between two scrapes";
    }

    // No legitimate scrape is 64 KiB: close without a response.
    const std::string oversized = "GET /metrics HTTP/1.0\r\nX-Pad: " +
                                  std::string(70 * 1024, 'x');
    EXPECT_EQ(exchangeRaw(metricsPort, oversized), "");

    // An NDJSON session pipelined alongside a scrape gets the bytes it
    // gets alone (each server starts from a cold cache).
    SpaceSpec spec = SpaceSpec::table2();
    std::string stream;
    for (int i = 0; i < 6; ++i)
        stream += evalLine(i, spec.at(static_cast<std::uint64_t>(i))) +
                  "\n";
    std::string alone;
    {
        ServerFixture solo(tcp);
        alone = exchangeRaw(solo.server.port(), stream);
    }
    const int session = sendRaw(fx.server.port(), stream);
    ASSERT_GE(session, 0);
    const std::string during = httpGet(metricsPort, "/metrics");
    const std::string alongside = receiveAll(session);
    EXPECT_NE(during.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_EQ(std::count(alone.begin(), alone.end(), '\n'), 6);
    EXPECT_EQ(alongside, alone);
}

TEST(ServeTcp, ShedResponsesRecordErrorLatency)
{
    ServeObs &sobs = ServeObs::get();
    const std::uint64_t shedBefore = sobs.shed.value();
    const std::uint64_t errorsBefore = sobs.latencyError.snapshot().count();

    TcpServerConfig tcp;
    tcp.maxQueue = 4;
    tcp.maxInflight = 4;
    tcp.dispatchHoldMs = 400;
    ServerFixture fx(tcp);
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    LoopbackClient client;
    std::vector<std::string> responses;
    std::string error;
    ASSERT_TRUE(client.connect(fx.server.port(), &error)) << error;
    ASSERT_TRUE(client.flood(lines, &responses, &error)) << error;
    ASSERT_EQ(responses.size(), lines.size());

    // Every shed response is an error response, so it must land in
    // the error-latency histogram like any other.
    const std::uint64_t shed = sobs.shed.value() - shedBefore;
    EXPECT_GT(shed, 0u);
    EXPECT_GE(sobs.latencyError.snapshot().count() - errorsBefore, shed);
}

TEST(ServeTcp, HalfClosedSessionLeavesTheIoThreadIdle)
{
    // A client that half-closes right after sending must not keep the
    // I/O thread busy while its answers are pending: at EOF the
    // socket stays readable, so a level-triggered EPOLLIN watch would
    // return from every epoll_wait.  Dispatch is held for a while, so
    // the session waits with nothing left to read.
    TcpServerConfig tcp;
    tcp.dispatchHoldMs = 300;
    ServerFixture fx(tcp);
    SpaceSpec spec = SpaceSpec::table2();
    constexpr int kLines = 8;
    std::string stream;
    for (int i = 0; i < kLines; ++i)
        stream += evalLine(i, spec.at(static_cast<std::uint64_t>(i))) +
                  "\n";

    obs::Counter &wakeups = ServeObs::get().ioWakeups;
    const std::uint64_t before = wakeups.value();
    const std::string answers = exchangeRaw(fx.server.port(), stream);
    const std::uint64_t woke = wakeups.value() - before;

    // Every answer still arrives, in order, before the close.
    std::istringstream in(answers);
    std::string response;
    int n = 0;
    while (std::getline(in, response)) {
        EXPECT_NE(response.find("\"id\": " + std::to_string(n) + ","),
                  std::string::npos)
            << response;
        EXPECT_NE(response.find("\"type\": \"result\""),
                  std::string::npos)
            << response;
        ++n;
    }
    EXPECT_EQ(n, kLines);
    // Accept, the request bytes, EOF and the delivery: a handful of
    // wake-ups, not one per spin of the loop.
    EXPECT_LT(woke, 50u) << "the I/O thread spun while the session "
                            "waited for its answers";
}

TEST(ServeTcp, MatchesStdioSessionByteForByte)
{
    SpaceSpec spec = SpaceSpec::table2();
    const std::string pad(kMaxRequestBytes, 'x');
    std::string stream;
    stream += evalLine(1, spec.at(0)) + "\n";
    stream += "{\"id\": 2, \"type\": \"batch\", "
              "\"space\": \"l2kb=128,256;width=1:2\"}\n";
    stream += "{\"id\": 3, \"type\": \"eval\", \"point\": \n";
    stream += "{\"id\": 4, \"type\": \"frobnicate\"}\n";
    stream += "{\"id\": 5, \"pad\": \"" + pad + "\"}\n"; // over the cap
    stream += "\n   \t\n\r\n";
    stream += evalLine(6, spec.at(1)) + "\r\n";
    stream += "{\"id\": 7, \"type\": \"info\"}\n";
    stream += evalLine(8, spec.at(0)) + "\n";
    stream += "{\"id\": 9, \"type\": \"stats\"}\n";
    stream += evalLine(10, spec.at(2)) + "\n";
    stream += evalLine(11, spec.at(1)); // unterminated final line

    for (std::size_t maxBatch : {std::size_t{1}, std::size_t{64}}) {
        SCOPED_TRACE("maxBatch " + std::to_string(maxBatch));
        SessionOptions opts = ServerFixture::sessionOpts();
        opts.maxBatch = maxBatch;

        EvalService stdioService(testConfig());
        std::istringstream in(stream);
        std::ostringstream stdioOut;
        IstreamLineSource source(in);
        ServerSession(stdioService, source, stdioOut, opts).run();

        std::ostringstream log;
        EvalService tcpService(testConfig());
        TcpServer server(tcpService, {}, log, opts);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        const std::string tcpOut = exchangeRaw(server.port(), stream);
        server.requestStop();
        server.wait();

        EXPECT_EQ(std::count(tcpOut.begin(), tcpOut.end(), '\n'), 11);
        EXPECT_EQ(tcpOut, stdioOut.str());
    }
}

// ---------------------------------------------------------------------
// Scatter-gather equivalence
// ---------------------------------------------------------------------

TEST(ServeShard, ShardOfPartitionsStably)
{
    SpaceSpec spec = SpaceSpec::table2();
    std::set<std::size_t> used;
    for (std::uint64_t i = 0; i < spec.size(); ++i) {
        const std::size_t shard = shardOf(spec.at(i), 3);
        EXPECT_LT(shard, 3u);
        EXPECT_EQ(shard, shardOf(spec.at(i), 3)) << "unstable hash";
        used.insert(shard);
    }
    EXPECT_EQ(used.size(), 3u)
        << "192 points land on fewer than 3 of 3 shards";
    EXPECT_EQ(shardOf(spec.at(0), 1), 0u);
}

TEST(ServeShard, GatheredFrontierMatchesBatchBytes)
{
    // The single-server reference: one batch request over the space.
    const std::string space = "l2kb=128,256;width=1:4";
    EvalService single(testConfig());
    std::vector<std::string> batchBodies = single.handleFlush(
        [&] {
            ParseOutcome outcome = parseRequest(
                "{\"type\": \"batch\", \"space\": \"" + space +
                "\", \"objectives\": \"energy,delay\"}");
            EXPECT_TRUE(outcome.ok()) << outcome.error;
            return std::vector<ServeRequest>{*outcome.request};
        }());
    ASSERT_EQ(batchBodies.size(), 1u);
    const std::string reference = batchBodies[0];

    // The sharded path: every point evaluated as a single request
    // against one of two independent servers, gathered by hash.
    TcpServerConfig tcp;
    ServeConfig cfg = testConfig();
    ServerFixture shard0(tcp, cfg);
    ServerFixture shard1(tcp, cfg);
    const unsigned short ports[2] = {shard0.server.port(),
                                     shard1.server.port()};

    auto spec = SpaceSpec::tryParse(space, nullptr);
    ASSERT_TRUE(spec);
    const std::vector<Objective> objectives =
        parseObjectives("energy,delay");

    std::vector<FrontierEntry> entries(spec->size());
    GatherCounts counts;
    counts.requested = spec->size();
    std::vector<std::vector<std::string>> perShard(2);
    std::vector<std::vector<std::uint64_t>> perShardIdx(2);
    for (std::uint64_t i = 0; i < spec->size(); ++i) {
        const DesignPoint point = spec->at(i);
        const std::size_t s = shardOf(point, 2);
        perShard[s].push_back(
            "{\"id\": " + std::to_string(i) +
            ", \"type\": \"eval\", \"point\": \"" + point.toKey() +
            "\", \"objectives\": \"energy,delay\"}");
        perShardIdx[s].push_back(i);
    }
    for (std::size_t s = 0; s < 2; ++s) {
        ASSERT_FALSE(perShard[s].empty())
            << "shard " << s << " owns no points";
        const auto responses = runClient(ports[s], perShard[s]);
        ASSERT_EQ(responses.size(), perShard[s].size());
        for (std::size_t r = 0; r < responses.size(); ++r) {
            std::string error;
            auto v = json::parse(responses[r], &error);
            ASSERT_TRUE(v) << error;
            ASSERT_EQ(v->get("type")->string, "result");
            const std::uint64_t idx = *v->get("id")->asU64();
            const DesignPoint point = spec->at(idx);
            FrontierEntry &entry = entries[idx];
            entry.pointKey = point.toKey();
            entry.label = point.label();
            const json::Value *objs =
                v->get("results")->get("model")->get("objectives");
            for (const Objective &obj : objectives)
                entry.objectives.push_back(
                    objs->get(obj.name)->number);
            if (v->get("cached")->boolean)
                ++counts.hits;
            else
                ++counts.misses;
        }
    }

    const std::string gathered = frontierResponse(
        "", spec->describe(), spec->size(), "model", objectives,
        {"jpeg_c"}, entries, counts);
    EXPECT_EQ(gathered, reference)
        << "scatter-gather drifted from the single-server batch";
}

} // namespace
} // namespace mech::serve
