/**
 * @file
 * The serve workload: mech_serve's TCP front end at steady state, run
 * in-process on an ephemeral port.
 *
 * One client thread drives three loopback connections in a closed
 * loop with poll(): two bulk connections keep 64 eval lines in flight
 * each, and one interactive connection sends one request at a time;
 * its latency is the one reported.  Points spread over three
 * (bench, backends, objectives) groups.  Most are Zipf-skewed over
 * SpaceSpec::wide(), so they hit the group memo once it is warm; a
 * fixed share are fresh points (a wide point with a random reorder
 * buffer and issue queue) that always miss, which keeps the hit ratio
 * steady however long the run.  A small share of batch, stats and
 * malformed lines rides along; malformed lines must get error
 * responses.
 *
 * Threads: the client, the server's I/O loop and one dispatcher that
 * evaluates misses inline, so three in all.  The client busy-polls.
 *
 * Checks: every response carries its request's id and the expected
 * type; no request is shed and no connection drops; and the numeric
 * content of every response equals a deterministic in-process
 * ServerSession replay of the same lines.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "layers.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/session.hh"
#include "serve/shard.hh"
#include "workload/suites.hh"

namespace perfbench {

using namespace mech;

namespace {

constexpr InstCount kTraceLen = 50000;
constexpr int kSetupReps = 3;
constexpr std::size_t kBulkWindow = 64;
constexpr std::size_t kBulkConns = 2;
constexpr double kZipfExponent = 1.0;
constexpr double kFreshShare = 0.15;
constexpr std::size_t kWarmupResponses = 10000;
constexpr std::size_t kRoundResponses = 20000;
constexpr std::size_t kProbeLines = 8192;
constexpr std::size_t kAccuracyPoints = 8;
constexpr double kStallSeconds = 30.0;
constexpr double kSliceSeconds = 1.0;

/** One (bench, backends, objectives) request group. */
struct GroupDef
{
    std::vector<std::string> bench;
    std::vector<std::string> backends;
    std::vector<std::string> objectives;
};

const std::vector<GroupDef> &
groups()
{
    // Five distinct profiles; mcf is SPEC-like (held-out data).
    static const std::vector<GroupDef> defs = {
        {{"jpeg_c", "sha"}, {"model"}, {"cpi", "energy"}},
        {{"gsm_c", "dijkstra", "mcf"}, {"model", "ooo"}, {"cpi"}},
        {{"sha", "gsm_c"}, {"model"}, {"energy", "delay"}},
    };
    return defs;
}

std::vector<std::string>
servedBenches()
{
    return {"jpeg_c", "sha", "gsm_c", "dijkstra", "mcf"};
}

std::string
nameArray(const std::vector<std::string> &names)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < names.size(); ++i) {
        os << (i ? ", " : "");
        json::writeString(os, names[i]);
    }
    os << "]";
    return os.str();
}

enum class Kind { Eval, Batch, Stats, Malformed };

const char *
expectedType(Kind k)
{
    switch (k) {
      case Kind::Eval:
        return "result";
      case Kind::Batch:
        return "frontier";
      case Kind::Stats:
        return "stats";
      case Kind::Malformed:
        break;
    }
    return "error";
}

/** Zipf(s) over ranks [0, n) by inverse CDF. */
class Zipf
{
  public:
    Zipf(std::size_t n, double s) : cdf(n)
    {
        double total = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            total += 1.0 / std::pow(double(k + 1), s);
            cdf[k] = total;
        }
        for (double &c : cdf)
            c /= total;
    }

    std::size_t
    draw(Rng &rng) const
    {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        return std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1);
    }

  private:
    std::vector<double> cdf;
};

/** The shared, seed-derived shape of the traffic. */
struct Traffic
{
    explicit Traffic(std::uint64_t seed)
        : wide(SpaceSpec::wide()), zipf(wide.size(), kZipfExponent)
    {
        // Each group gets its own hot set: a seeded permutation maps
        // Zipf ranks onto points of the space.
        for (std::size_t g = 0; g < groups().size(); ++g) {
            Rng rng(mixSeed(seed, 30 + g));
            std::vector<std::uint64_t> perm(wide.size());
            for (std::size_t i = 0; i < perm.size(); ++i)
                perm[i] = i;
            for (std::size_t i = perm.size(); i > 1; --i)
                std::swap(perm[i - 1], perm[rng.below(i)]);
            hot.push_back(std::move(perm));
        }
        for (const GroupDef &g : groups()) {
            suffix.push_back(", \"bench\": " + nameArray(g.bench) +
                             ", \"backends\": " + nameArray(g.backends) +
                             ", \"objectives\": " +
                             nameArray(g.objectives) + "}");
        }
    }

    /** An eval line for @p point in group @p g. */
    std::string
    evalLine(std::uint64_t id, std::size_t g, const DesignPoint &p) const
    {
        return "{\"id\": " + std::to_string(id) +
               ", \"type\": \"eval\", \"point\": \"" + p.toKey() + "\"" +
               suffix[g];
    }

    const SpaceSpec wide;
    const Zipf zipf;
    std::vector<std::vector<std::uint64_t>> hot;
    std::vector<std::string> suffix;
};

/** First request id of connection @p c (ids never repeat). */
std::uint64_t
idBase(std::size_t c)
{
    return (c + 1) * 1000000000ull;
}

/** One generated request line and what must come back. */
struct Line
{
    std::string text;
    std::uint64_t id = 0;
    Kind kind = Kind::Eval;
    std::size_t group = 0;
};

/**
 * Deterministic line generator of one connection: the same seed
 * yields the same line sequence, which lets the replay check
 * regenerate it instead of storing it.
 */
class Mix
{
  public:
    Mix(const Traffic &traffic, std::uint64_t seed, std::uint64_t id_base,
        bool eval_only)
        : traffic(traffic), rng(seed), nextId(id_base), evalOnly(eval_only)
    {
    }

    Line
    next()
    {
        Line l;
        l.id = nextId++;
        const double u = evalOnly ? 0.0 : rng.uniform();
        if (u < 0.96) {
            l.kind = Kind::Eval;
            l.group = rng.below(groups().size());
            l.text = traffic.evalLine(l.id, l.group, point(l.group));
        } else if (u < 0.97) {
            l.kind = Kind::Batch;
            // Single-backend groups only; a small slice of the space.
            l.group = rng.below(2) ? 2 : 0;
            const auto &kb = traffic.wide.l2KB;
            l.text = "{\"id\": " + std::to_string(l.id) +
                     ", \"type\": \"batch\", \"space\": \"l2kb=" +
                     std::to_string(kb[rng.below(kb.size())]) +
                     ";assoc=4,8;depth=9@1.0;width=1:4;pred=gshare1k\"" +
                     traffic.suffix[l.group];
        } else if (u < 0.98) {
            l.kind = Kind::Stats;
            l.text = "{\"id\": " + std::to_string(l.id) +
                     ", \"type\": \"stats\"}";
        } else {
            l.kind = Kind::Malformed;
            const std::string id = std::to_string(l.id);
            switch (rng.below(3)) {
              case 0:
                l.text = "{\"id\": " + id +
                         ", \"type\": \"eval\", \"point\": \"l2kb=oops\"}";
                break;
              case 1:
                l.text = "{\"id\": " + id + ", \"type\": \"evaluate\"}";
                break;
              default:
                l.text = "{\"id\": " + id +
                         ", \"type\": \"eval\", \"point\": \"" +
                         traffic.wide.at(0).toKey() +
                         "\", \"bench\": [\"no_such_bench\"]}";
                break;
            }
        }
        return l;
    }

  private:
    DesignPoint
    point(std::size_t g)
    {
        if (rng.uniform() < kFreshShare) {
            DesignPoint p = traffic.wide.at(rng.below(traffic.wide.size()));
            p.ooo.robSize = 32 + static_cast<std::uint32_t>(rng.below(993));
            p.ooo.iqSize = 8 + static_cast<std::uint32_t>(rng.below(249));
            return p;
        }
        return traffic.wide.at(traffic.hot[g][traffic.zipf.draw(rng)]);
    }

    const Traffic &traffic;
    Rng rng;
    std::uint64_t nextId;
    bool evalOnly;
};

/** FNV-1a of @p s. */
std::uint64_t
fnv(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Erase `"key": <value>` (and one adjoining ", ") from @p s. */
void
eraseField(std::string &s, std::string_view key)
{
    const std::string needle = "\"" + std::string(key) + "\": ";
    const std::size_t at = s.find(needle);
    if (at == std::string::npos)
        return;
    std::size_t end = at + needle.size();
    if (end < s.size() && s[end] == '{') {
        int depth = 0;
        for (; end < s.size(); ++end) {
            depth += s[end] == '{';
            depth -= s[end] == '}';
            if (depth == 0) {
                ++end;
                break;
            }
        }
    } else {
        while (end < s.size() && s[end] != ',' && s[end] != '}')
            ++end;
    }
    if (s.compare(end, 2, ", ") == 0)
        s.erase(at, end + 2 - at);
    else if (at >= 2 && s.compare(at - 2, 2, ", ") == 0)
        s.erase(at - 2, end - at + 2);
    else
        s.erase(at, end - at);
}

/**
 * Hash of a response's interleaving-independent content: the
 * "cached" flags and a frontier's cache accounting depend on which
 * connection got to a point first, latency fields on timing, and a
 * stats body on everything, so those are left out.
 */
std::uint64_t
canonicalHash(std::string_view response, Kind kind)
{
    if (kind == Kind::Stats)
        return fnv("stats");
    std::string s(response);
    eraseField(s, "latency_us");
    eraseField(s, "cached");
    eraseField(s, "cache");
    return fnv(s);
}

/** The value after `"key": ` in @p s ("" when absent). */
std::string_view
headField(std::string_view s, std::string_view key, bool quoted)
{
    std::string needle = "\"";
    needle.append(key).append("\": ");
    if (quoted)
        needle += '"';
    const std::size_t at = s.find(needle);
    if (at == std::string_view::npos)
        return {};
    const std::size_t begin = at + needle.size();
    std::size_t end = begin;
    while (end < s.size() &&
           (quoted ? s[end] != '"' : (s[end] >= '0' && s[end] <= '9')))
        ++end;
    return s.substr(begin, end - begin);
}

/**
 * A streambuf that hashes each response line a ServerSession writes,
 * so a replay never holds its output.
 */
class HashingBuf : public std::streambuf
{
  public:
    explicit HashingBuf(const std::vector<Kind> &kinds) : kinds(kinds) {}

    std::vector<std::uint64_t> hashes;

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch == traits_type::eof())
            return traits_type::not_eof(ch);
        if (ch != '\n') {
            cur.push_back(static_cast<char>(ch));
        } else {
            const std::size_t i = hashes.size();
            hashes.push_back(i < kinds.size() ? canonicalHash(cur, kinds[i])
                                              : 0);
            cur.clear();
        }
        return ch;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            overflow(traits_type::to_int_type(s[i]));
        return n;
    }

  private:
    const std::vector<Kind> &kinds;
    std::string cur;
};

/** One loopback connection driven by the client loop. */
struct Conn
{
    struct Pending
    {
        std::uint64_t id;
        Kind kind;
        std::size_t group;
        std::int64_t sentNs;
    };

    Conn(const Traffic &traffic, std::uint64_t seed, std::uint64_t id_base,
         bool interactive)
        : mix(traffic, seed, id_base, interactive), interactive(interactive),
          window(interactive ? 1 : kBulkWindow)
    {
    }
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    Mix mix;
    const bool interactive;
    const std::size_t window;
    int fd = -1;
    std::string out;
    std::size_t outOff = 0;
    std::string in;
    std::deque<Pending> pending;
    std::vector<std::uint64_t> hashes;
    std::uint64_t sent = 0;
};

bool
connectTo(unsigned short port, int *fd_out, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        *error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    *fd_out = fd;
    return true;
}

/**
 * Evaluate every point of the space once per group, in-process, so
 * the group memos hold the whole Zipf hot set: afterwards only the
 * fresh share of eval requests misses.  False when a warm request
 * was not answered with a result.
 */
bool
warmGroups(serve::EvalService &service, const SpaceSpec &wide)
{
    constexpr std::size_t kFlush = 256;
    bool ok = true;
    std::vector<serve::ServeRequest> batch;
    for (const GroupDef &g : groups()) {
        for (std::uint64_t i = 0; i < wide.size(); ++i) {
            serve::ServeRequest r;
            r.type = serve::RequestType::Eval;
            r.point = wide.at(i);
            r.bench = g.bench;
            r.backends = g.backends;
            r.objectives = g.objectives;
            batch.push_back(std::move(r));
            if (batch.size() == kFlush || i + 1 == wide.size()) {
                for (const std::string &body : service.handleFlush(batch))
                    ok = ok && headField(body, "type", true) == "result";
                batch.clear();
            }
        }
    }
    return ok;
}

/** Figures the client loop gathers while a phase runs. */
struct Tally
{
    std::uint64_t bulkResponses = 0;
    std::uint64_t allResponses = 0;
    std::uint64_t evalResults = 0;
    std::uint64_t freshEvals = 0;
    std::vector<double> interactiveMs;
};

/** A live server plus the client connections talking to it. */
class Live
{
  public:
    Live(const serve::ServeConfig &cfg, const Traffic &traffic,
         std::uint64_t seed, Report &report, SpanRecorder &spans)
        : service(cfg), nullLog(nullptr),
          server(service, serverConfig(), nullLog, serve::SessionOptions{}),
          traffic(traffic), seed(seed), report(report), spans(spans)
    {
    }

    ~Live()
    {
        conns.clear();
        server.requestStop();
        server.wait();
    }

    Live(const Live &) = delete;
    Live &operator=(const Live &) = delete;

    static serve::TcpServerConfig
    serverConfig()
    {
        serve::TcpServerConfig tcp; // port 0: ephemeral
        tcp.dispatchers = 1;
        return tcp;
    }

    /** Start, connect, and get one answer per group. */
    bool
    start()
    {
        std::string error;
        if (!server.start(&error)) {
            report.fail("serve: server start: " + error);
            return false;
        }
        for (std::size_t c = 0; c <= kBulkConns; ++c) {
            const bool interactive = c == kBulkConns;
            conns.push_back(std::make_unique<Conn>(
                traffic, connSeed(seed, c), idBase(c), interactive));
            if (!connectTo(server.port(), &conns.back()->fd, &error)) {
                report.fail("serve: " + error);
                return false;
            }
        }
        // First answers: one eval per group on the interactive line.
        Conn &ia = *conns.back();
        for (std::size_t g = 0; g < groups().size(); ++g) {
            const std::uint64_t id = g + 1;
            ia.out += traffic.evalLine(id, g, traffic.wide.at(0)) + "\n";
            ia.pending.push_back({id, Kind::Eval, g, spans.nowNs()});
        }
        Tally t;
        return pump(t, [](const Tally &) { return true; });
    }

    static std::uint64_t
    connSeed(std::uint64_t seed, std::size_t c)
    {
        return mixSeed(seed, 10 + c);
    }

    /**
     * Run the closed loop until @p done says stop generating, then
     * drain.  Returns false when a connection failed.
     */
    template <typename Done>
    bool
    pump(Tally &t, Done &&done)
    {
        bool generating = !done(t);
        auto last_progress = Clock::now();
        std::vector<pollfd> fds;
        while (true) {
            if (generating && done(t))
                generating = false;
            bool idle = true;
            for (auto &c : conns) {
                while (generating && c->pending.size() < c->window) {
                    Line l = c->mix.next();
                    c->out += l.text;
                    c->out += '\n';
                    c->pending.push_back(
                        {l.id, l.kind, l.group, spans.nowNs()});
                    ++c->sent;
                }
                idle = idle && c->pending.empty();
            }
            if (idle && !generating)
                return true;
            fds.clear();
            for (auto &c : conns) {
                short ev = POLLIN;
                if (c->outOff < c->out.size())
                    ev |= POLLOUT;
                fds.push_back({c->fd, ev, 0});
            }
            // Busy-poll: the client's own wake-ups must not add to
            // the latency it measures.
            const int n = ::poll(fds.data(), fds.size(), 0);
            if (n < 0 && errno != EINTR) {
                report.fail(std::string("serve: poll: ") +
                            std::strerror(errno));
                return false;
            }
            bool progress = false;
            for (std::size_t i = 0; i < conns.size() && n > 0; ++i) {
                Conn &c = *conns[i];
                if (fds[i].revents & (POLLERR | POLLNVAL)) {
                    report.fail("serve: connection error");
                    return false;
                }
                if (fds[i].revents & POLLOUT) {
                    const ssize_t w =
                        ::send(c.fd, c.out.data() + c.outOff,
                               c.out.size() - c.outOff, MSG_NOSIGNAL);
                    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
                        report.fail("serve: connection dropped on send");
                        return false;
                    }
                    if (w > 0) {
                        c.outOff += static_cast<std::size_t>(w);
                        if (c.outOff == c.out.size()) {
                            c.out.clear();
                            c.outOff = 0;
                        }
                    }
                }
                if (fds[i].revents & (POLLIN | POLLHUP)) {
                    char buf[65536];
                    const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
                    if (r == 0 || (r < 0 && errno != EAGAIN &&
                                   errno != EWOULDBLOCK)) {
                        report.fail("serve: connection dropped by server");
                        return false;
                    }
                    if (r > 0) {
                        c.in.append(buf, static_cast<std::size_t>(r));
                        progress = true;
                        if (!consume(c, t))
                            return false;
                    }
                }
            }
            if (progress)
                last_progress = Clock::now();
            else if (secondsSince(last_progress) > kStallSeconds) {
                report.fail("serve: no response for " +
                            std::to_string(kStallSeconds) + " s");
                return false;
            }
        }
    }

    serve::EvalService service;
    std::ostream nullLog;
    serve::TcpServer server;
    std::vector<std::unique_ptr<Conn>> conns;

  private:
    /** Check and account every complete response line in @p c.in. */
    bool
    consume(Conn &c, Tally &t)
    {
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.in.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1) {
            const std::string_view line(c.in.data() + start, nl - start);
            if (c.pending.empty()) {
                report.fail("serve: unsolicited response");
                return false;
            }
            const Conn::Pending p = c.pending.front();
            c.pending.pop_front();
            const std::int64_t now = spans.nowNs();
            report.attempt();
            const std::string_view type = headField(line, "type", true);
            if (headField(line, "id", false) != std::to_string(p.id) ||
                type != expectedType(p.kind)) {
                report.fail("serve: request " + std::to_string(p.id) +
                            " got " + std::string(line.substr(0, 160)));
            } else if (line.find("\"code\": \"overloaded\"") !=
                       std::string_view::npos) {
                report.fail("serve: request " + std::to_string(p.id) +
                            " was shed");
            }
            c.hashes.push_back(canonicalHash(line, p.kind));
            ++t.allResponses;
            if (!c.interactive)
                ++t.bulkResponses;
            else
                t.interactiveMs.push_back(double(now - p.sentNs) * 1e-6);
            if (p.kind == Kind::Eval && type == "result") {
                const std::size_t benches = groups()[p.group].bench.size();
                t.evalResults += benches;
                if (line.find("\"cached\": false") != std::string_view::npos)
                    t.freshEvals += benches;
            }
            if (spans.enabled()) {
                spans.add({c.interactive ? "serve.interactive_request"
                                         : "serve.bulk_request",
                           p.id, spans.newId(), 0, p.sentNs, now, 0});
            }
        }
        c.in.erase(0, start);
        return true;
    }

    const Traffic &traffic;
    const std::uint64_t seed;
    Report &report;
    SpanRecorder &spans;
};

class Serve
{
  public:
    Serve(const Options &opts, Report &report, SpanRecorder &spans)
        : opts(opts), report(report), spans(spans), traffic(opts.seed)
    {
        cfg.traceLen = kTraceLen;
        cfg.threads = 1;
        report.note("trace_length", std::to_string(kTraceLen));
        report.note("workload_seed", std::to_string(opts.seed));
    }

    void
    run()
    {
        std::vector<double> setups;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            live.reset();
            const auto t0 = Clock::now();
            live = std::make_unique<Live>(cfg, traffic, opts.seed, report,
                                          spans);
            if (!live->start() ||
                !report.check(warmGroups(live->service, traffic.wide),
                              "serve: warming the group memos"))
                return;
            setups.push_back(secondsSince(t0));
        }
        report.set("setup_s", median(setups));

        // Warm the group memos toward steady state.
        Tally warm;
        const bool spans_on = spans.enabled();
        spans.setEnabled(false);
        if (!live->pump(warm, [](const Tally &t) {
                return t.bulkResponses >= kWarmupResponses;
            }))
            return;
        spans.setEnabled(spans_on);

        const serve::ServiceStats before = live->service.stats();
        if (opts.trace ? !tracedRounds() : !timedWindow())
            return;
        const serve::ServiceStats after = live->service.stats();
        const double requested = double(after.requested - before.requested);
        report.set("serve.cache_hit_ratio",
                   requested > 0 ? double(after.hits - before.hits) /
                                       requested
                                 : 0.0);
        report.set("serve.misses", double(after.misses - before.misses));
        report.set("serve.shed", double(after.shed));
        report.check(after.shed == 0, "serve: requests were shed");
        report.set("admission.queue_wait_us_p50",
                   double(registryHist("admission.queue_wait_us")
                              .quantile(0.5)));

        report.set("peak_rss_mb", peakRssMb());
        accuracy();
        replay();
    }

  private:
    bool
    timedWindow()
    {
        // Rates are medians over one-second slices of one unbroken
        // run, so a burst of host noise moves one slice, not the
        // result.
        std::vector<double> requests, evals, fresh;
        Tally t;
        std::uint64_t bulk0 = 0, evals0 = 0, fresh0 = 0;
        auto slice_t0 = Clock::now();
        const auto t0 = slice_t0;
        const bool ok = live->pump(t, [&](const Tally &now) {
            const double secs = secondsSince(slice_t0);
            if (secs >= kSliceSeconds) {
                requests.push_back(double(now.bulkResponses - bulk0) / secs);
                evals.push_back(double(now.evalResults - evals0) / secs);
                fresh.push_back(double(now.freshEvals - fresh0) / secs);
                bulk0 = now.bulkResponses;
                evals0 = now.evalResults;
                fresh0 = now.freshEvals;
                slice_t0 = Clock::now();
            }
            return secondsSince(t0) >= opts.seconds;
        });
        report.set("requests_per_s", median(requests));
        report.set("evals_per_s", median(evals));
        report.set("search_evals_per_s", median(fresh));
        report.set("p50_ms", quantile(t.interactiveMs, 0.50));
        report.set("p95_ms", quantile(t.interactiveMs, 0.95));
        report.note("interactive_samples",
                    std::to_string(t.interactiveMs.size()));
        return ok;
    }

    bool
    tracedRounds()
    {
        auto names = servedBenches();
        std::vector<BenchmarkProfile> benches;
        for (const std::string &n : names)
            benches.push_back(profileByName(n));
        studies = probeSetupLayers(
            benches, kTraceLen,
            geometryRepresentatives(enumerate(traffic.wide)), report, spans);

        std::vector<double> plain, traced, latency_ms;
        std::vector<double> us_per_request;
        const RegistryMark start = RegistryMark::now();
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0;
             traced.empty() || secondsSince(t0) < opts.seconds; ++i) {
            spans.setEnabled(i % 2 == 1);
            Tally t;
            const auto tr = Clock::now();
            if (!live->pump(t, [](const Tally &x) {
                    return x.bulkResponses >= kRoundResponses;
                }))
                return false;
            const double secs = secondsSince(tr);
            (i % 2 ? traced : plain).push_back(secs);
            if (i % 2 == 0)
                us_per_request.push_back(1e6 * secs /
                                         double(t.allResponses));
            latency_ms.insert(latency_ms.end(), t.interactiveMs.begin(),
                              t.interactiveMs.end());
        }
        spans.setEnabled(true);
        // Model work reaches serve only through memo misses; not an
        // exact count, since the hit/miss split depends on timing.
        report.set("model.evals",
                   double(RegistryMark::now().since(start).modelEvals));
        const double base = median(plain);
        report.set("trace_overhead_pct",
                   100.0 * (median(traced) - base) / base);
        tcpUsPerRequest = median(us_per_request);
        report.set("serve.tcp_us_per_request", tcpUsPerRequest);
        report.set("serve.p99_ms", quantile(latency_ms, 0.99));
        report.set("pool.chunk_us_p50",
                   double(registryHist("pool.chunk_us").quantile(0.5)));
        std::vector<const DseStudy *> probe = {studies[0].get(),
                                               studies[4].get()};
        const auto wide = enumerate(traffic.wide);
        probeEvalLayers(probe, {wide.begin(), wide.begin() + 192},
                        {wide[0], wide[1]}, report, spans);
        return true;
    }

    /**
     * Accuracy of served answers: fixed points sent on a fresh
     * connection, compared with the simulators on the same profiles.
     */
    void
    accuracy()
    {
        if (studies.empty()) {
            for (const std::string &n : servedBenches())
                studies.push_back(std::make_unique<DseStudy>(
                    profileByName(n), kTraceLen));
        }
        auto study = [&](const std::string &name) -> const DseStudy & {
            const auto names = servedBenches();
            const auto it = std::find(names.begin(), names.end(), name);
            return *studies[std::size_t(it - names.begin())];
        };
        std::vector<DesignPoint> sample;
        const std::uint64_t stride = traffic.wide.size() / kAccuracyPoints;
        for (std::size_t i = 0; i < kAccuracyPoints; ++i)
            sample.push_back(traffic.wide.at(i * stride + stride / 2));

        std::vector<std::string> lines;
        std::vector<std::size_t> line_group;
        for (std::size_t g : {0u, 1u}) {
            for (const DesignPoint &p : sample) {
                lines.push_back(traffic.evalLine(lines.size() + 1, g, p));
                line_group.push_back(g);
            }
        }
        serve::LoopbackClient client;
        std::vector<std::string> responses;
        std::string error;
        if (!report.check(client.connect(live->server.port(), &error) &&
                              client.run(lines, &responses, &error, 1),
                          "serve: accuracy connection: " + error))
            return;

        const BackendSet refs = backendSet("model,sim,oosim");
        ErrorTally model, ooo, heldout;
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const DesignPoint &p = sample[i % sample.size()];
            const GroupDef &g = groups()[line_group[i]];
            std::string perr;
            auto doc = json::parse(responses[i], &perr);
            const json::Value *results = doc ? doc->get("results") : nullptr;
            if (!report.check(results != nullptr,
                              "serve: accuracy response " +
                                  std::to_string(i) + ": " +
                                  responses[i].substr(0, 160)))
                continue;
            for (const std::string &b : g.bench) {
                const PointEvaluation ref = study(b).evaluate(p, refs);
                const double sim_cpi = ref.of(kSimBackend).cpi();
                const double oosim_cpi = ref.of(kOoOSimBackend).cpi();
                auto served = [&](const char *backend) {
                    const json::Value *v = results->get(backend);
                    v = v ? v->get("per_benchmark") : nullptr;
                    v = v ? v->get(b) : nullptr;
                    v = v ? v->get("cpi") : nullptr;
                    return v && v->isNumber() ? v->number : -1.0;
                };
                const double m = served("model");
                report.check(m == ref.model().cpi(),
                             "serve: served model CPI differs from the "
                             "in-process model for " + b);
                const bool spec = b == "mcf";
                (spec ? heldout : model).add(std::abs(m - sim_cpi) / sim_cpi);
                if (line_group[i] == 1 && !spec) {
                    ooo.add(std::abs(served("ooo") - oosim_cpi) /
                            oosim_cpi);
                }
            }
        }
        report.set("cpi_error_mean_pct", model.meanPct());
        report.set("cpi_error_max_pct", model.maxPct());
        report.set("ooo_cpi_error_mean_pct", ooo.meanPct());
        report.set("heldout_cpi_error_mean_pct", heldout.meanPct());
    }

    /**
     * Replay every line each connection sent through in-process
     * ServerSessions on a fresh service, and require the same
     * interleaving-independent content for every response.
     */
    void
    replay()
    {
        constexpr std::size_t kChunk = 8192;
        serve::EvalService fresh(cfg);
        warmGroups(fresh, traffic.wide);
        serve::SessionOptions sopts;
        sopts.latencyFields = false;
        double session_s = 0.0;
        std::uint64_t session_lines = 0;
        std::vector<serve::ServeRequest> probe_reqs;
        std::vector<std::uint64_t> probe_ids;
        for (std::size_t c = 0; c < live->conns.size(); ++c) {
            const Conn &conn = *live->conns[c];
            Mix mix(traffic, Live::connSeed(opts.seed, c), idBase(c),
                    conn.interactive);
            std::vector<Kind> kinds;
            HashingBuf buf(kinds);
            std::ostream out(&buf);
            std::string text;
            auto flush = [&] {
                std::istringstream in(text);
                serve::IstreamLineSource source(in);
                const auto t0 = Clock::now();
                serve::ServerSession(fresh, source, out, sopts).run();
                session_s += secondsSince(t0);
                text.clear();
            };
            if (conn.interactive) {
                for (std::size_t g = 0; g < groups().size(); ++g) {
                    text += traffic.evalLine(g + 1, g, traffic.wide.at(0)) + "\n";
                    kinds.push_back(Kind::Eval);
                }
            }
            for (std::uint64_t i = 0; i < conn.sent; ++i) {
                Line l = mix.next();
                text += l.text + "\n";
                kinds.push_back(l.kind);
                if (opts.trace && c == 0 && probe_ids.size() < kProbeLines) {
                    Span s(spans, "serve.parseRequest", l.id);
                    serve::ParseOutcome parsed = serve::parseRequest(l.text);
                    if (parsed.request) {
                        probe_reqs.push_back(std::move(*parsed.request));
                        probe_ids.push_back(l.id);
                    }
                }
                if (kinds.size() % kChunk == 0)
                    flush();
            }
            flush();
            session_lines += kinds.size();
            report.check(buf.hashes == conn.hashes,
                         "serve: connection " + std::to_string(c) +
                             " responses differ from the replay");
        }
        const double session_us = 1e6 * session_s / double(session_lines);
        report.set("serve.session_us_per_request", session_us);
        report.note("replayed_lines", std::to_string(session_lines));
        if (opts.trace) {
            report.set("serve.frontend_us_per_request",
                       tcpUsPerRequest - session_us);
            flushProbe(fresh, probe_reqs, probe_ids);
        }
    }

    /** handleFlush() over the probe's data-plane requests. */
    void
    flushProbe(serve::EvalService &service,
               const std::vector<serve::ServeRequest> &reqs,
               const std::vector<std::uint64_t> &ids)
    {
        std::vector<serve::ServeRequest> batch;
        std::vector<double> sizes;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto type = reqs[i].type;
            if (type == serve::RequestType::Eval ||
                type == serve::RequestType::Batch)
                batch.push_back(reqs[i]);
            if (batch.size() == kBulkWindow ||
                (i + 1 == reqs.size() && !batch.empty())) {
                Span s(spans, "serve.handleFlush", ids[i]);
                service.handleFlush(batch);
                sizes.push_back(double(batch.size()));
                batch.clear();
            }
        }
        double total = 0.0;
        for (double n : sizes)
            total += n;
        report.set("serve.parse_us",
                   1e6 * median(spans.durations("serve.parseRequest")));
        report.set("serve.flush_us",
                   1e6 * median(spans.durations("serve.handleFlush")));
        report.set("serve.requests_per_flush",
                   sizes.empty() ? 0.0 : total / double(sizes.size()));
    }

    const Options &opts;
    Report &report;
    SpanRecorder &spans;
    const Traffic traffic;
    serve::ServeConfig cfg;
    std::unique_ptr<Live> live;
    std::vector<std::unique_ptr<DseStudy>> studies;
    double tcpUsPerRequest = 0.0;
};

} // namespace

void
runServe(const Options &opts, Report &report, SpanRecorder &spans)
{
    Serve(opts, report, spans).run();
}

void
probeServeLayers(const Options &opts, Report &report, SpanRecorder &spans)
{
    Report serve_report;
    Serve(opts, serve_report, spans).run();
    report.absorb(serve_report, {"serve.", "admission."});
}

} // namespace perfbench
