#include "serve/shard.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "search/pareto.hh"
#include "serve/protocol.hh"

namespace mech::serve {

void
writeObjectiveObject(std::ostream &os,
                     const std::vector<Objective> &objs,
                     const std::vector<double> &values,
                     std::size_t base)
{
    os << "{ ";
    for (std::size_t k = 0; k < objs.size(); ++k) {
        if (k)
            os << ", ";
        json::writeString(os, objs[k].name);
        os << ": ";
        json::writeNumber(os, values[base + k]);
    }
    os << " }";
}

void
writeNameArray(std::ostream &os, const std::vector<std::string> &names)
{
    os << '[';
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i)
            os << ", ";
        json::writeString(os, names[i]);
    }
    os << ']';
}

std::string
frontierResponse(const std::string &id_json,
                 const std::string &space_describe,
                 std::uint64_t space_size,
                 const std::string &backend_name,
                 const std::vector<Objective> &objectives,
                 const std::vector<std::string> &bench,
                 const std::vector<FrontierEntry> &entries,
                 const GatherCounts &cache)
{
    // Frontier over the fan-out, on the "lower is better" scale of
    // the single backend's objectives; indices ascend, so frontier
    // entries come back in enumeration order.
    const std::size_t k_objs = objectives.size();
    std::vector<std::vector<double>> costs;
    costs.reserve(entries.size());
    for (const FrontierEntry &e : entries) {
        std::vector<double> row(k_objs);
        for (std::size_t k = 0; k < k_objs; ++k)
            row[k] = objectives[k].normalized(e.objectives[k]);
        costs.push_back(std::move(row));
    }
    std::vector<std::size_t> frontier = paretoFrontier(costs);

    std::size_t best = 0;
    for (std::size_t i = 1; i < entries.size(); ++i) {
        if (costs[i][0] < costs[best][0])
            best = i;
    }

    std::vector<std::string> obj_names;
    for (const Objective &obj : objectives)
        obj_names.push_back(obj.name);

    auto entry = [&](std::ostream &os, std::size_t idx) {
        os << "{ \"point\": ";
        json::writeString(os, entries[idx].pointKey);
        os << ", \"label\": ";
        json::writeString(os, entries[idx].label);
        os << ", \"objectives\": ";
        writeObjectiveObject(os, objectives, entries[idx].objectives,
                             0);
        os << " }";
    };

    std::ostringstream os;
    os << responseHead(id_json, "frontier") << ", \"space\": ";
    json::writeString(os, space_describe);
    os << ", \"space_size\": " << space_size;
    os << ", \"backend\": ";
    json::writeString(os, backend_name);
    os << ", \"objectives\": ";
    writeNameArray(os, obj_names);
    os << ", \"bench\": ";
    writeNameArray(os, bench);
    os << ", \"evaluations\": " << space_size;
    os << ", \"cache\": { \"requested\": " << cache.requested
       << ", \"hits\": " << cache.hits
       << ", \"misses\": " << cache.misses << " }";
    os << ", \"best\": ";
    entry(os, best);
    os << ", \"frontier\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        os << (i ? ", " : "");
        entry(os, frontier[i]);
    }
    os << "]}";
    return os.str();
}

namespace {

bool
sendAll(int fd, const char *data, std::size_t size,
        std::string *error)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t put = ::send(fd, data + off, size - off, 0);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            *error = std::string("send(): ") + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(put);
    }
    return true;
}

/** Move complete lines from @p buffer into @p responses. */
void
splitLines(std::string &buffer, std::vector<std::string> *responses)
{
    for (;;) {
        const std::size_t nl = buffer.find('\n');
        if (nl == std::string::npos)
            return;
        responses->push_back(buffer.substr(0, nl));
        buffer.erase(0, nl + 1);
    }
}

} // namespace

LoopbackClient::~LoopbackClient()
{
    close();
}

void
LoopbackClient::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
LoopbackClient::connect(unsigned short port, std::string *error)
{
    close();
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = std::string("socket(): ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        *error = "connect(127.0.0.1:" + std::to_string(port) +
                 "): " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
LoopbackClient::run(const std::vector<std::string> &lines,
                    std::vector<std::string> *responses,
                    std::string *error, std::size_t window,
                    std::vector<double> *latencies_us)
{
    if (fd < 0) {
        *error = "not connected";
        return false;
    }
    if (window == 0)
        window = 1;
    using clock = std::chrono::steady_clock;
    std::size_t sent = 0;
    std::string inbuf;
    std::vector<clock::time_point> sendTimes;
    if (latencies_us)
        sendTimes.reserve(lines.size());
    // Responses arrive strictly in request order, so response j pairs
    // with send time j when measuring client-observed latency.
    auto noteLatencies = [&](std::size_t before) {
        if (!latencies_us)
            return;
        const clock::time_point now = clock::now();
        for (std::size_t j = before; j < responses->size(); ++j) {
            const double us =
                j < sendTimes.size()
                    ? std::chrono::duration<double, std::micro>(
                          now - sendTimes[j])
                          .count()
                    : 0.0;
            latencies_us->push_back(us);
        }
    };
    while (responses->size() < lines.size()) {
        // Top up the window, then flush it in one send.
        std::string burst;
        while (sent < lines.size() &&
               sent - responses->size() < window) {
            burst += lines[sent];
            burst += '\n';
            ++sent;
        }
        if (!burst.empty()) {
            if (!sendAll(fd, burst.data(), burst.size(), error))
                return false;
            if (latencies_us)
                sendTimes.resize(sent, clock::now());
        }

        char chunk[1 << 16];
        ssize_t got;
        do {
            got = ::recv(fd, chunk, sizeof(chunk), 0);
        } while (got < 0 && errno == EINTR);
        if (got < 0) {
            *error = std::string("recv(): ") + std::strerror(errno);
            return false;
        }
        if (got == 0) {
            const std::size_t before = responses->size();
            splitLines(inbuf, responses);
            noteLatencies(before);
            if (responses->size() == lines.size())
                return true;
            *error = "server closed after " +
                     std::to_string(responses->size()) + " of " +
                     std::to_string(lines.size()) + " responses";
            return false;
        }
        inbuf.append(chunk, static_cast<std::size_t>(got));
        const std::size_t before = responses->size();
        splitLines(inbuf, responses);
        noteLatencies(before);
    }
    return true;
}

bool
LoopbackClient::flood(const std::vector<std::string> &lines,
                      std::vector<std::string> *responses,
                      std::string *error)
{
    if (fd < 0) {
        *error = "not connected";
        return false;
    }
    std::string payload;
    for (const std::string &line : lines) {
        payload += line;
        payload += '\n';
    }
    if (!sendAll(fd, payload.data(), payload.size(), error))
        return false;
    ::shutdown(fd, SHUT_WR);

    std::string inbuf;
    for (;;) {
        char chunk[1 << 16];
        ssize_t got;
        do {
            got = ::recv(fd, chunk, sizeof(chunk), 0);
        } while (got < 0 && errno == EINTR);
        if (got < 0) {
            *error = std::string("recv(): ") + std::strerror(errno);
            return false;
        }
        if (got == 0) {
            splitLines(inbuf, responses);
            return true;
        }
        inbuf.append(chunk, static_cast<std::size_t>(got));
        splitLines(inbuf, responses);
    }
}

} // namespace mech::serve
