#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "serve/admission.hh"
#include "serve/serve_obs.hh"

namespace mech::serve {

namespace {

/** Set by SIGINT/SIGTERM; polled by the epoll loop between waits. */
volatile std::sig_atomic_t g_terminate = 0;

void
onTerminate(int)
{
    g_terminate = 1;
}

void
installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onTerminate;
    // No SA_RESTART: a blocked epoll_wait() must return EINTR so the
    // loop can notice the flag and drain.
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-response must be a write error, not a
    // process kill.
    std::signal(SIGPIPE, SIG_IGN);
}

/** epoll tags below kFirstConnTag are the two listeners and the
 *  wake eventfd; every accepted connection is tagged with its sid. */
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kMetricsListenerTag = 2;
constexpr std::uint64_t kFirstConnTag = 3;

/** A scrape request longer than this is closed unanswered: no
 *  legitimate one comes near it. */
constexpr std::size_t kMaxScrapeBytes = std::size_t{1} << 16;

/**
 * Open a nonblocking listener on 127.0.0.1:@p port (0 = ephemeral)
 * and store the port it bound in @p bound.  Returns nullptr, or the
 * name of the call that failed with errno set; @p fd is left for the
 * caller to close either way.
 */
const char *
listenLoopback(unsigned short port, int backlog, int *fd,
               unsigned short *bound)
{
    *fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (*fd < 0)
        return "socket";
    int one = 1;
    ::setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(*fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        return "bind";
    }
    if (::listen(*fd, backlog) < 0)
        return "listen";
    socklen_t len = sizeof(addr);
    if (::getsockname(*fd, reinterpret_cast<sockaddr *>(&addr), &len) <
        0) {
        return "getsockname";
    }
    *bound = ntohs(addr.sin_port);
    return nullptr;
}

/** The whole HTTP/1.0 response to one metrics-endpoint request. */
std::string
metricsHttpResponse(const std::string &request)
{
    // A deliberately tiny HTTP/1.0 server: one GET, one response,
    // close.  Anything that is not "GET /metrics" gets a 404.
    const std::size_t eol = request.find_first_of("\r\n");
    const std::string head = request.substr(
        0, eol == std::string::npos ? request.size() : eol);
    std::string path;
    if (head.compare(0, 4, "GET ") == 0) {
        const std::size_t sp = head.find(' ', 4);
        path = head.substr(4, sp == std::string::npos ? std::string::npos
                                                      : sp - 4);
    }

    std::string body;
    const char *status;
    const char *contentType;
    if (path == "/metrics") {
        std::ostringstream os;
        obs::MetricsRegistry::global().renderPrometheus(os);
        body = os.str();
        status = "200 OK";
        contentType = "text/plain; version=0.0.4; charset=utf-8";
    } else {
        body = "not found: only GET /metrics is served\n";
        status = "404 Not Found";
        contentType = "text/plain; charset=utf-8";
    }

    std::ostringstream resp;
    resp << "HTTP/1.0 " << status << "\r\n"
         << "Content-Type: " << contentType << "\r\n"
         << "Content-Length: " << body.size() << "\r\n"
         << "Connection: close\r\n\r\n"
         << body;
    return resp.str();
}

} // namespace

SessionStats
runStdioServer(EvalService &service, std::istream &in,
               std::ostream &out, std::ostream &log,
               const SessionOptions &opts)
{
    IstreamLineSource source(in);
    ServerSession session(service, source, out, opts);
    SessionStats stats = session.run();
    const ServiceStats svc = service.stats();
    log << "mech_serve: session over: " << stats.lines
        << " request line(s), "
        << stats.responses << " response(s), " << stats.errors
        << " error(s); cache " << svc.hits << "/" << svc.requested
        << " hits\n";
    return stats;
}

struct TcpServer::Impl
{
    Impl(EvalService &service_in, TcpServerConfig cfg_in,
         std::ostream &log_in, SessionOptions opts_in)
        : service(service_in), cfg(cfg_in), log(log_in),
          opts(opts_in),
          queue(AdmissionConfig{cfg_in.maxQueue, cfg_in.maxInflight,
                                opts_in.maxBatch})
    {
    }

    /** One accepted connection: an NDJSON session, or a scrape of
     *  the metrics endpoint (HTTP/1.0: one request, one response,
     *  close), which is no admission session and no serve.* traffic.
     *  Input state (raw/line/truncating and the eof/broken/answered
     *  flags) belongs to the I/O thread alone; outbuf, busy and the
     *  response counters are shared with the dispatchers and guarded
     *  by connMtx. */
    struct Conn
    {
        int fd = -1;
        std::uint64_t sid = 0;
        bool scrape = false;
        bool answered = false; ///< scrape response queued

        std::string raw;  ///< received bytes not yet split on '\n'
        std::string line; ///< the partial line being accumulated
        bool truncating = false;
        bool peerEof = false;
        bool broken = false;
        bool wantWrite = false;
        std::uint32_t watched = EPOLLIN; ///< registered epoll events

        std::string outbuf;
        std::size_t busy = 0; ///< admitted lines not yet answered
        std::uint64_t responses = 0;
    };

    EvalService &service;
    TcpServerConfig cfg;
    std::ostream &log;
    SessionOptions opts;
    AdmissionQueue queue;

    int epfd = -1;
    int listener = -1;
    int wakeFd = -1;
    unsigned short boundPort = 0;

    int metricsListener = -1;
    unsigned short metricsBoundPort = 0;

    std::thread io;
    std::vector<std::thread> dispatchers;

    std::atomic<bool> stopRequested{false};
    std::atomic<bool> drainAsked{false};
    std::atomic<bool> shutdownSeen{false};
    bool draining = false; // I/O thread only

    std::mutex connMtx;
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::vector<std::uint64_t> writeReady;
    std::uint64_t nextSid = kFirstConnTag;

    bool start(std::string *error);
    void ioLoop();
    void dispatchLoop();
    void processBatch(const AdmissionQueue::Batch &batch);
    void deliver(std::uint64_t sid, std::string bytes, std::size_t consumed,
                 std::uint64_t responses);
    void wake();

    void closeListeners();
    void acceptClients(bool scrape);
    void readConn(Conn &conn);
    void discardInput(Conn &conn);
    void ingestLine(Conn &conn);
    void shedLine(Conn &conn, QueuedLine line);
    bool flushConn(Conn &conn);
    void setWantWrite(Conn &conn, bool want);
    void watch(Conn &conn);
    void closeConn(std::uint64_t sid);
    void beginDrain();
    void sweepConns();
    void drainWriteReady();
};

bool
TcpServer::Impl::start(std::string *error)
{
    // Reports "call(scope): strerror(errno)", e.g. "bind(metrics): ...".
    auto fail = [&](const char *call, const char *scope = "") {
        *error = std::string(call) + "(" + scope + "): " +
                 std::strerror(errno);
        closeListeners();
        if (wakeFd >= 0)
            ::close(wakeFd);
        if (epfd >= 0)
            ::close(epfd);
        wakeFd = epfd = -1;
        return false;
    };

    // Register the front end's instruments up front: a scrape that
    // arrives before any traffic must still see every series.
    ServeObs::get();

    if (const char *call =
            listenLoopback(cfg.port, 128, &listener, &boundPort)) {
        return fail(call);
    }
    if (cfg.metricsPort >= 0) {
        if (const char *call = listenLoopback(
                static_cast<unsigned short>(cfg.metricsPort), 16,
                &metricsListener, &metricsBoundPort)) {
            return fail(call, "metrics");
        }
    }

    wakeFd = ::eventfd(0, EFD_NONBLOCK);
    if (wakeFd < 0)
        return fail("eventfd");
    epfd = ::epoll_create1(0);
    if (epfd < 0)
        return fail("epoll_create1");

    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, listener, &ev) < 0)
        return fail("epoll_ctl", "listener");
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, wakeFd, &ev) < 0)
        return fail("epoll_ctl", "eventfd");
    if (metricsListener >= 0) {
        ev.data.u64 = kMetricsListenerTag;
        if (::epoll_ctl(epfd, EPOLL_CTL_ADD, metricsListener, &ev) < 0)
            return fail("epoll_ctl", "metrics");
    }

    if (cfg.dispatchHoldMs > 0)
        queue.holdDispatch(true);

    // Logged before the threads spawn: the I/O thread owns the log
    // stream from here until wait() joins it.
    log << "mech_serve: listening on 127.0.0.1:" << boundPort << " ("
        << cfg.dispatchers << " dispatcher(s), queue " << cfg.maxQueue
        << ", per-session " << cfg.maxInflight << ")\n";
    if (metricsListener >= 0) {
        log << "mech_serve: metrics on http://127.0.0.1:"
            << metricsBoundPort << "/metrics\n";
    }

    io = std::thread([this] { ioLoop(); });
    for (unsigned i = 0; i < cfg.dispatchers; ++i)
        dispatchers.emplace_back([this] { dispatchLoop(); });
    return true;
}

void
TcpServer::Impl::wake()
{
    std::uint64_t one = 1;
    ssize_t ignored [[maybe_unused]] =
        ::write(wakeFd, &one, sizeof(one));
}

void
TcpServer::Impl::setWantWrite(Conn &conn, bool want)
{
    conn.wantWrite = want;
    watch(conn);
}

void
TcpServer::Impl::watch(Conn &conn)
{
    // Input is watched until the peer half-closes: at EOF the socket
    // stays readable, so level-triggered EPOLLIN would return from
    // every epoll_wait while the session waits for its answers.
    // Output is watched while answers are pending.
    const std::uint32_t events =
        (conn.peerEof ? 0u : EPOLLIN) | (conn.wantWrite ? EPOLLOUT : 0u);
    if (events == conn.watched)
        return;
    conn.watched = events;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.u64 = conn.sid;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool
TcpServer::Impl::flushConn(Conn &conn)
{
    // Runs on the I/O thread; connMtx held by the caller.
    while (!conn.outbuf.empty()) {
        ssize_t put = ::send(conn.fd, conn.outbuf.data(),
                             conn.outbuf.size(), 0);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                setWantWrite(conn, true);
                return true;
            }
            conn.broken = true;
            return false;
        }
        if (!conn.scrape)
            ServeObs::get().bytesOut.inc(static_cast<std::uint64_t>(put));
        conn.outbuf.erase(0, static_cast<std::size_t>(put));
    }
    setWantWrite(conn, false);
    return true;
}

void
TcpServer::Impl::closeListeners()
{
    for (int *fd : {&listener, &metricsListener}) {
        if (*fd >= 0) {
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, *fd, nullptr);
            ::close(*fd);
            *fd = -1;
        }
    }
}

void
TcpServer::Impl::acceptClients(bool scrape)
{
    const int from = scrape ? metricsListener : listener;
    for (;;) {
        int client = ::accept4(from, nullptr, nullptr, SOCK_NONBLOCK);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: accepted everything pending
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = client;
        conn->sid = nextSid++;
        conn->scrape = scrape;

        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.u64 = conn->sid;
        if (::epoll_ctl(epfd, EPOLL_CTL_ADD, client, &ev) < 0) {
            ::close(client);
            continue;
        }
        if (!scrape) {
            queue.addSession(conn->sid);
            ServeObs::get().connections.add(1);
            MECH_LOG(Debug) << "mech_serve: client connected (session "
                            << conn->sid << ")";
        }
        std::lock_guard<std::mutex> lock(connMtx);
        conns.emplace(conn->sid, std::move(conn));
    }
}

void
TcpServer::Impl::shedLine(Conn &conn, QueuedLine line)
{
    // The queue refused the line (the caller already counted it in
    // conn.busy).  Control requests must still get through (a monitor
    // reading stats from an overloaded server, a shutdown) — parsing
    // only happens on this slow path.
    ParseOutcome outcome = parseRequest(line.line);
    if (outcome.ok() && isControl(outcome.request->type) &&
        queue.force(conn.sid, QueuedLine{line})) {
        return; // admitted after all: stays in flight
    }
    const std::string body = codedErrorResponse(
        outcome.idJson, kOverloadedCode,
        "server overloaded: admission queue is full, retry later");
    std::ostringstream out;
    ResponseWriter(out, opts.latencyFields).write(body, line.received);
    service.noteShedRequests(1);
    ServeObs &sobs = ServeObs::get();
    sobs.shed.inc();
    sobs.inflight.sub(1);
    {
        MECH_LOG_RATELIMITED(Warn, 1000)
            << "mech_serve: shedding requests: admission queue full "
               "(session "
            << conn.sid << ")";
    }
    std::lock_guard<std::mutex> lock(connMtx);
    --conn.busy;
    conn.outbuf += out.str();
    ++conn.responses;
    flushConn(conn);
}

void
TcpServer::Impl::ingestLine(Conn &conn)
{
    std::string line = std::move(conn.line);
    conn.line.clear();
    const bool truncated = conn.truncating;
    conn.truncating = false;
    if (!truncated && isBlank(line))
        return;
    QueuedLine queued{std::move(line),
                      std::chrono::steady_clock::now()};
    // Count the line as in flight BEFORE the queue can hand it to a
    // dispatcher: deliver() may decrement conn.busy the instant
    // offer() succeeds, and an increment racing in afterwards would
    // strand the connection at busy > 0 — unreapable, wedging the
    // drain.  A refused line stays counted until shedLine() settles
    // whether it was force-admitted or answered with an error.
    {
        std::lock_guard<std::mutex> lock(connMtx);
        ++conn.busy;
    }
    ServeObs::get().inflight.add(1);
    if (queue.offer(conn.sid, queued))
        return;
    shedLine(conn, std::move(queued));
}

void
TcpServer::Impl::readConn(Conn &conn)
{
    char chunk[1 << 16];
    for (;;) {
        ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                conn.broken = true;
            break;
        }
        if (got == 0) {
            conn.peerEof = true;
            break;
        }
        if (conn.scrape) {
            conn.raw.append(chunk, static_cast<std::size_t>(got));
            if (conn.raw.size() > kMaxScrapeBytes) {
                conn.broken = true; // closed without a response
                return;
            }
            continue;
        }
        ServeObs::get().bytesIn.inc(static_cast<std::uint64_t>(got));
        conn.raw.append(chunk, static_cast<std::size_t>(got));
        for (;;) {
            const std::size_t nl = conn.raw.find('\n');
            if (nl == std::string::npos) {
                if (!conn.truncating) {
                    conn.line += conn.raw;
                    if (conn.line.size() > kMaxRequestBytes + 1) {
                        // Keep the cap plus a sentinel byte so the
                        // dispatcher reports the overflow; discard
                        // the rest of the physical line.
                        conn.line.resize(kMaxRequestBytes + 1);
                        conn.truncating = true;
                    }
                }
                conn.raw.clear();
                break;
            }
            if (!conn.truncating)
                conn.line.append(conn.raw, 0, nl);
            conn.raw.erase(0, nl + 1);
            ingestLine(conn);
        }
    }

    if (conn.scrape) {
        // Once the request head is complete (or the peer is done
        // sending), queue the one response; sweepConns closes the
        // scrape after it has been written.
        const bool complete =
            conn.peerEof ||
            conn.raw.find("\r\n\r\n") != std::string::npos ||
            conn.raw.find("\n\n") != std::string::npos;
        if (conn.broken || !complete)
            return;
        std::string response = metricsHttpResponse(conn.raw);
        std::lock_guard<std::mutex> lock(connMtx);
        conn.outbuf = std::move(response);
        conn.answered = true;
        flushConn(conn);
    } else if (conn.peerEof && (!conn.raw.empty() || !conn.line.empty())) {
        // A final unterminated line still counts (mirroring the
        // blocking reader's EOF behaviour).
        if (!conn.truncating)
            conn.line += conn.raw;
        conn.raw.clear();
        ingestLine(conn);
    }
}

void
TcpServer::Impl::discardInput(Conn &conn)
{
    // During drain the server answers what it admitted and nothing
    // more; unread input is consumed and dropped so level-triggered
    // polling does not spin on it.
    char chunk[1 << 16];
    for (;;) {
        ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                conn.broken = true;
            return;
        }
        if (got == 0) {
            conn.peerEof = true;
            return;
        }
    }
}

void
TcpServer::Impl::closeConn(std::uint64_t sid)
{
    std::unique_ptr<Conn> conn;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        auto it = conns.find(sid);
        if (it == conns.end())
            return;
        conn = std::move(it->second);
        conns.erase(it);
    }
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
    if (conn->scrape)
        return;
    queue.removeSession(sid);
    ServeObs &sobs = ServeObs::get();
    sobs.connections.sub(1);
    // Lines the session still had in flight will never be answered:
    // settle the gauge so a mid-batch disconnect cannot leak it.
    if (conn->busy > 0)
        sobs.inflight.sub(static_cast<std::int64_t>(conn->busy));
    MECH_LOG(Debug)
        << "mech_serve: client disconnected (session " << sid << ", "
        << conn->responses << " response(s))";
}

void
TcpServer::Impl::beginDrain()
{
    if (draining)
        return;
    draining = true;
    closeListeners();
    {
        // Open scrapes close now (sweepConns reaps them); sessions
        // still answer what they admitted.
        std::lock_guard<std::mutex> lock(connMtx);
        for (auto &[sid, conn] : conns) {
            if (conn->scrape)
                conn->broken = true;
        }
    }
    queue.stop();
}

void
TcpServer::Impl::sweepConns()
{
    // Close connections with nothing left to do: the peer is done
    // (or the server is draining), every admitted line has been
    // answered, and the answers have left the write buffer.
    std::vector<std::uint64_t> done;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        for (auto &[sid, conn] : conns) {
            if (conn->broken ||
                ((conn->peerEof || conn->answered || draining) &&
                 conn->busy == 0 && conn->outbuf.empty())) {
                done.push_back(sid);
            }
        }
    }
    for (std::uint64_t sid : done)
        closeConn(sid);
}

void
TcpServer::Impl::drainWriteReady()
{
    std::lock_guard<std::mutex> lock(connMtx);
    std::vector<std::uint64_t> ready;
    ready.swap(writeReady);
    for (std::uint64_t sid : ready) {
        auto it = conns.find(sid);
        if (it != conns.end())
            flushConn(*it->second);
    }
}

void
TcpServer::Impl::ioLoop()
{
    using clock = std::chrono::steady_clock;
    bool holdActive = cfg.dispatchHoldMs > 0;
    bool holdStarted = false;
    clock::time_point holdStart;

    epoll_event events[64];
    for (;;) {
        int timeoutMs = 200;
        if (holdActive && holdStarted) {
            const auto left =
                std::chrono::milliseconds(cfg.dispatchHoldMs) -
                (clock::now() - holdStart);
            const int leftMs = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    left)
                    .count());
            timeoutMs = std::max(0, std::min(timeoutMs, leftMs));
        }
        const int n = ::epoll_wait(epfd, events, 64, timeoutMs);
        if (n < 0 && errno != EINTR)
            break;
        if (n > 0)
            ServeObs::get().ioWakeups.inc();

        if (!draining &&
            (g_terminate || stopRequested.load() ||
             drainAsked.load())) {
            beginDrain();
        }
        if (holdActive && holdStarted &&
            clock::now() - holdStart >=
                std::chrono::milliseconds(cfg.dispatchHoldMs)) {
            holdActive = false;
            queue.holdDispatch(false);
        }

        for (int i = 0; i < std::max(n, 0); ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == kListenerTag || tag == kMetricsListenerTag) {
                const bool scrape = tag == kMetricsListenerTag;
                if (!draining)
                    acceptClients(scrape);
                if (!scrape && holdActive && !holdStarted) {
                    holdStarted = true;
                    holdStart = clock::now();
                }
                continue;
            }
            if (tag == kWakeTag) {
                std::uint64_t count;
                while (::read(wakeFd, &count, sizeof(count)) > 0) {
                }
                continue;
            }
            Conn *conn = nullptr;
            {
                std::lock_guard<std::mutex> lock(connMtx);
                auto it = conns.find(tag);
                if (it != conns.end())
                    conn = it->second.get();
            }
            if (!conn)
                continue;
            // The I/O thread is the only closer, so the pointer stays
            // valid past the lock; input state is thread-private and
            // flushConn retakes the lock for the shared half.
            if (events[i].events & (EPOLLERR | EPOLLHUP))
                conn->broken = true;
            if (!conn->broken && (events[i].events & EPOLLIN)) {
                if (draining || conn->answered)
                    discardInput(*conn);
                else
                    readConn(*conn);
                if (conn->peerEof)
                    watch(*conn);
            }
            if (!conn->broken && (events[i].events & EPOLLOUT)) {
                std::lock_guard<std::mutex> lock(connMtx);
                flushConn(*conn);
            }
        }

        drainWriteReady();
        sweepConns();

        if (draining) {
            std::lock_guard<std::mutex> lock(connMtx);
            if (conns.empty() && queue.pending() == 0)
                break;
        }
    }
}

void
TcpServer::Impl::deliver(std::uint64_t sid, std::string bytes,
                         std::size_t consumed, std::uint64_t responses)
{
    obs::TraceSpan span("request.flush", "serve");
    std::size_t settled = 0;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        auto it = conns.find(sid);
        if (it == conns.end())
            return; // session disconnected mid-batch
        Conn &conn = *it->second;
        conn.outbuf += bytes;
        settled = std::min(conn.busy, consumed);
        conn.busy -= settled;
        conn.responses += responses;
        writeReady.push_back(sid);
    }
    if (settled > 0)
        ServeObs::get().inflight.sub(
            static_cast<std::int64_t>(settled));
    wake();
}

void
TcpServer::Impl::processBatch(const AdmissionQueue::Batch &batch)
{
    if (obs::TraceRecorder *rec = obs::TraceRecorder::current();
        rec && !batch.lines.empty()) {
        // Retrospective span: the time this batch's oldest line spent
        // queued before a dispatcher picked it up.
        const std::uint64_t queued = rec->tsOf(batch.lines.front().received);
        rec->complete("request.admit", "serve", queued, rec->nowUs() - queued);
    }
    obs::TraceSpan dispatchSpan("request.dispatch", "serve");

    std::ostringstream out;
    ResponseWriter writer(out, opts.latencyFields);
    const bool sawShutdown =
        answerLines(service, batch.lines, writer).shutdown;
    // Lines after a shutdown go unanswered: settle the whole batch.
    deliver(batch.sid, out.str(), batch.lines.size(), writer.written());
    if (sawShutdown) {
        shutdownSeen.store(true);
        drainAsked.store(true);
        wake();
    }
}

void
TcpServer::Impl::dispatchLoop()
{
    AdmissionQueue::Batch batch;
    while (queue.nextBatch(&batch)) {
        processBatch(batch);
        queue.completed(batch.sid);
    }
}

TcpServer::TcpServer(EvalService &service, TcpServerConfig cfg,
                     std::ostream &log, SessionOptions opts)
    : impl(std::make_unique<Impl>(service, cfg, log, opts))
{
}

TcpServer::~TcpServer()
{
    if (impl->io.joinable()) {
        requestStop();
        wait();
    }
}

bool
TcpServer::start(std::string *error)
{
    return impl->start(error);
}

unsigned short
TcpServer::port() const
{
    return impl->boundPort;
}

unsigned short
TcpServer::metricsPort() const
{
    return impl->metricsBoundPort;
}

void
TcpServer::requestStop()
{
    impl->stopRequested.store(true);
    if (impl->wakeFd >= 0)
        impl->wake();
}

void
TcpServer::wait()
{
    if (impl->io.joinable())
        impl->io.join();
    // The I/O loop has fully drained: stop the queue (idempotent) and
    // collect the dispatchers.
    impl->queue.stop();
    for (std::thread &t : impl->dispatchers) {
        if (t.joinable())
            t.join();
    }
    impl->closeListeners();
    if (impl->epfd >= 0) {
        ::close(impl->epfd);
        impl->epfd = -1;
    }
    if (impl->wakeFd >= 0) {
        ::close(impl->wakeFd);
        impl->wakeFd = -1;
    }
}

bool
TcpServer::drainedByShutdown() const
{
    return impl->shutdownSeen.load();
}

int
runTcpServer(EvalService &service, const TcpServerConfig &cfg,
             std::ostream &log, const SessionOptions &opts)
{
    installSignalHandlers();

    TcpServer server(service, cfg, log, opts);
    std::string error;
    if (!server.start(&error)) {
        log << "mech_serve: " << error << "\n";
        return 1;
    }
    server.wait();

    const ServiceStats svc = service.stats();
    log << "mech_serve: "
        << (server.drainedByShutdown() ? "drained" : "terminated")
        << "; cache " << svc.hits << "/" << svc.requested
        << " hits across " << svc.groups << " group(s)\n";
    return 0;
}

} // namespace mech::serve
