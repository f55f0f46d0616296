/**
 * @file
 * Tests for the epoll TCP front end (src/net/tcp_server.hh) and its
 * blocking client (src/net/line_client.hh): accept/serve/shutdown on an
 * ephemeral port, the serve protocol over a socket, pipelined requests
 * answered in order, the structured over-limit refusal, oversized-frame
 * kill of a single connection, a too-deeply nested line answered as a
 * bad request on a live connection, a half-closed slow reader and a
 * frame overrun behind unflushed responses (neither is read again:
 * no spinning on EOF, no buffering of the flood), graceful
 * drain-and-exit on a quit request, and the per-layer latency
 * breakdown. Skipped on non-Linux hosts where start() reports the
 * stubbed backend.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <ctime>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "src/net/line_client.hh"
#include "src/net/tcp_server.hh"
#include "src/obs/json_check.hh"
#include "src/serve/protocol.hh"
#include "src/serve/service.hh"

namespace gmoms::net
{
namespace
{

using serve::GraphService;
using serve::ServiceConfig;

/** start() the server or skip the test on stubbed (non-Linux) builds. */
#define START_OR_SKIP(server)                                          \
    do {                                                               \
        std::string error_;                                            \
        if (!(server).start(&error_))                                  \
            GTEST_SKIP() << error_;                                    \
    } while (0)

TcpServerConfig
loopback(std::size_t max_conns = 256)
{
    TcpServerConfig cfg;
    cfg.port = 0;  // ephemeral
    cfg.max_connections = max_conns;
    return cfg;
}

/** The gmoms_serve TCP handler, minus main(): one shared protocol. */
TcpServer::Handler
serviceHandler(GraphService& service)
{
    return [&service](const std::string& line) {
        HandlerResult out;
        bool quit = false;
        out.line = serve::handleRequestLine(service, line, quit);
        out.shutdown_server = quit;
        return out;
    };
}

JsonValue
parsed(const std::optional<std::string>& line)
{
    EXPECT_TRUE(line.has_value()) << "connection closed unexpectedly";
    if (!line)
        return JsonValue{};
    std::string error;
    const std::optional<JsonValue> v = parseJson(*line, &error);
    EXPECT_TRUE(v.has_value()) << error << " in: " << *line;
    return v ? *v : JsonValue{};
}

const std::string kSubmitV2Prefix =
    R"({"v":2,"op":"submit","tenant":"t","dataset":"WT",)"
    R"("algo":"PageRank","preset":"degraded","iterations":2,)"
    R"("request_id":)";

std::string
submitLine(const std::string& request_id)
{
    return kSubmitV2Prefix + "\"" + request_id + "\"}";
}

TEST(TcpServer, EchoRoundTripAndStats)
{
    TcpServer server(loopback(), [](const std::string& line) {
        HandlerResult out;
        out.line = "echo:" + line;
        return out;
    });
    START_OR_SKIP(server);
    ASSERT_NE(server.port(), 0);
    EXPECT_TRUE(server.running());

    LineClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    EXPECT_EQ(client.roundTrip("hello").value_or(""), "echo:hello");
    EXPECT_EQ(client.roundTrip("again").value_or(""), "echo:again");
    client.close();

    server.shutdown(/*drain=*/true);
    server.waitUntilStopped();
    EXPECT_FALSE(server.running());

    const TcpServer::Stats stats = server.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.responses, 2u);
    EXPECT_EQ(stats.active, 0u);
    EXPECT_EQ(stats.peak_active, 1u);
    EXPECT_GT(stats.bytes_in, 0u);
    EXPECT_GT(stats.bytes_out, 0u);
    // Every handled request recorded a net_handle latency sample.
    const LatencyStats* handle = stats.latency.find("net_handle");
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle->count(), 2u);
}

TEST(TcpServer, ServesTheProtocolV2)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    TcpServer server(loopback(), serviceHandler(service));
    START_OR_SKIP(server);

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    const JsonValue sub = parsed(client.roundTrip(submitLine("q0")));
    EXPECT_EQ(sub.find("type")->string, "result");
    EXPECT_EQ(sub.find("request_id")->string, "q0");
    const serve::JobId id = sub.find("result")->find("id")->asUint64();

    const JsonValue drain = parsed(client.roundTrip(
        R"({"v":2,"request_id":"q1","op":"drain"})"));
    EXPECT_EQ(drain.find("type")->string, "result");

    const JsonValue poll = parsed(client.roundTrip(
        R"({"v":2,"request_id":"q2","op":"poll","id":)" +
        std::to_string(id) + "}"));
    EXPECT_EQ(poll.find("type")->string, "result");
    const JsonValue* job = poll.find("result")->find("job");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->find("state")->string, "completed");
    EXPECT_NE(job->find("values_checksum")->asUint64(), 0u);
}

TEST(TcpServer, PipelinedRequestsAnswerInOrder)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    TcpServer server(loopback(), serviceHandler(service));
    START_OR_SKIP(server);

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    // The whole burst goes out before any response is read: framing
    // must slice the shared byte stream back into per-request lines,
    // answered in arrival order.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(client.sendLine(submitLine("q" + std::to_string(i))));
    for (int i = 0; i < 8; ++i) {
        const JsonValue resp = parsed(client.recvLine());
        EXPECT_EQ(resp.find("request_id")->string,
                  "q" + std::to_string(i));
        EXPECT_EQ(resp.find("type")->string, "result");
    }
    service.drain();
    EXPECT_EQ(server.stats().requests, 8u);
}

TEST(TcpServer, OverLimitConnectionGetsStructuredRefusal)
{
    TcpServer server(loopback(/*max_conns=*/1),
                     [](const std::string&) {
                         HandlerResult out;
                         out.line = "{}";
                         return out;
                     });
    START_OR_SKIP(server);

    LineClient first;
    ASSERT_TRUE(first.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(first.roundTrip("x").has_value());  // definitely accepted

    LineClient second;
    ASSERT_TRUE(second.connect("127.0.0.1", server.port()));
    const JsonValue refusal = parsed(second.recvLine());
    EXPECT_EQ(refusal.find("type")->string, "error");
    EXPECT_EQ(refusal.find("error")->find("code")->string,
              "overloaded");
    EXPECT_FALSE(second.recvLine().has_value());  // then EOF

    // The first connection is unaffected.
    EXPECT_TRUE(first.roundTrip("y").has_value());
    const TcpServer::Stats stats = server.stats();
    EXPECT_EQ(stats.rejected_over_limit, 1u);
    EXPECT_EQ(stats.accepted, 1u);
}

TEST(TcpServer, OversizedFrameKillsOnlyThatConnection)
{
    TcpServerConfig cfg = loopback();
    cfg.max_line_bytes = 64;
    TcpServer server(cfg, [](const std::string&) {
        HandlerResult out;
        out.line = "{}";
        return out;
    });
    START_OR_SKIP(server);

    LineClient good;
    ASSERT_TRUE(good.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(good.roundTrip("ok").has_value());

    LineClient flood;
    ASSERT_TRUE(flood.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(flood.sendLine(std::string(1024, 'x')));
    EXPECT_FALSE(flood.recvLine().has_value());  // killed, no response

    EXPECT_TRUE(good.roundTrip("still fine").has_value());
    const TcpServer::Stats stats = server.stats();
    EXPECT_EQ(stats.frame_overruns, 1u);
    EXPECT_EQ(stats.requests, 2u);  // the flood never became a request
}

TEST(TcpServer, DeepNestingAnswersBadRequestAndKeepsTheConnection)
{
    GraphService service{ServiceConfig{}};
    TcpServer server(loopback(), serviceHandler(service));
    START_OR_SKIP(server);

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    // Under max_line_bytes, so it reaches the parser as a request.
    const JsonValue bad =
        parsed(client.roundTrip(std::string(200000, '[')));
    EXPECT_EQ(bad.find("type")->string, "error");
    const JsonValue* err = bad.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->string, "bad_request");
    EXPECT_NE(err->find("problems")->array.at(0).string.find(
                  "nesting deeper than"),
              std::string::npos);

    // Same connection, next line: still served.
    const JsonValue stats = parsed(
        client.roundTrip(R"({"v":2,"request_id":"s","op":"stats"})"));
    EXPECT_EQ(stats.find("type")->string, "result");
    EXPECT_EQ(stats.find("request_id")->string, "s");
    EXPECT_EQ(server.stats().frame_overruns, 0u);
}

TEST(TcpServer, QuitDrainsAndExitsClean)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    TcpServer server(loopback(), serviceHandler(service));
    START_OR_SKIP(server);

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(client.sendLine(submitLine("q" + std::to_string(i))));
    ASSERT_TRUE(
        client.sendLine(R"({"v":2,"request_id":"bye","op":"quit"})"));
    // Every pipelined response, including the quit ack, reaches the
    // client before the server closes the connection.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(parsed(client.recvLine()).find("type")->string,
                  "result");
    const JsonValue bye = parsed(client.recvLine());
    EXPECT_EQ(bye.find("request_id")->string, "bye");
    EXPECT_EQ(bye.find("type")->string, "ok");

    server.waitUntilStopped();
    EXPECT_FALSE(server.running());
    const TcpServer::Stats stats = server.stats();
    EXPECT_EQ(stats.active, 0u);
    EXPECT_EQ(stats.requests, stats.responses);
    EXPECT_EQ(stats.requests, 4u);

    // The admitted jobs survive the front end going away.
    service.drain();
    const auto log = service.completionLog();
    EXPECT_EQ(log.size(), 3u);
}

#ifdef __linux__

/** Wait up to 10 s for @p done; its final value. */
template <typename Pred>
bool
waitFor(Pred done)
{
    for (int i = 0; i < 10000 && !done(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return done();
}

/** Process CPU seconds (every thread, the server loop included). */
double
cpuSeconds()
{
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/** A blocking loopback client that reads nothing until asked: its
 *  small receive buffer makes the server's responses back up. */
class SlowReader
{
  public:
    explicit SlowReader(std::uint16_t port)
        : fd_(::socket(AF_INET, SOCK_STREAM, 0))
    {
        const int rcvbuf = 16 * 1024;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
        const timeval timeout{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;
    }
    ~SlowReader() { ::close(fd_); }
    SlowReader(const SlowReader&) = delete;
    SlowReader& operator=(const SlowReader&) = delete;

    bool connected() const { return connected_; }

    bool
    send(const std::string& data)
    {
        for (std::size_t off = 0; off < data.size();) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Send up to @p bytes without blocking; the bytes sent. */
    std::size_t
    flood(std::size_t bytes)
    {
        const std::string chunk(64 * 1024, 'x');
        std::size_t sent = 0;
        for (int stalls = 0; sent < bytes && stalls < 100;) {
            const ssize_t n = ::send(fd_, chunk.data(), chunk.size(),
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0) {
                sent += static_cast<std::size_t>(n);
                stalls = 0;
            } else {
                ++stalls;
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
        return sent;
    }

    void halfClose() { ::shutdown(fd_, SHUT_WR); }

    /** Everything until EOF (or a 10 s silence), split into lines; the
     *  second member says whether EOF was seen. */
    std::pair<std::vector<std::string>, bool>
    readToEof()
    {
        std::string all;
        char buf[64 * 1024];
        ssize_t n = 0;
        while ((n = ::recv(fd_, buf, sizeof(buf), 0)) > 0)
            all.append(buf, static_cast<std::size_t>(n));
        std::vector<std::string> lines;
        for (std::size_t start = 0, nl = 0;
             (nl = all.find('\n', start)) != std::string::npos;
             start = nl + 1)
            lines.push_back(all.substr(start, nl - start));
        return {lines, n == 0};
    }

  private:
    int fd_;
    bool connected_ = false;
};

/** Answers each line with itself plus 64 KiB of padding. */
HandlerResult
bigResponse(const std::string& line)
{
    HandlerResult out;
    out.line = line + std::string(64 * 1024, '.');
    return out;
}

/** Enough 64 KiB responses to overfill the socket buffers between a
 *  stalled reader and the server, so some stay in the server's. */
constexpr int kBigResponses = 128;

std::string
numberedLines()
{
    std::string lines;
    for (int i = 0; i < kBigResponses; ++i)
        lines += "q" + std::to_string(i) + "\n";
    return lines;
}

TEST(TcpServer, HalfClosedSlowReaderGetsEveryResponseThenEof)
{
    TcpServer server(loopback(), bigResponse);
    START_OR_SKIP(server);
    SlowReader reader(server.port());
    ASSERT_TRUE(reader.connected());
    ASSERT_TRUE(reader.send(numberedLines()));
    reader.halfClose();
    ASSERT_TRUE(waitFor([&] {
        return server.stats().requests == kBigResponses;
    }));

    // Responses are still queued behind the stalled reader, and the
    // loop must sleep on them rather than spin on the EOF.
    const double cpu0 = cpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double cpu = cpuSeconds() - cpu0;
    const std::uint64_t total =
        static_cast<std::uint64_t>(kBigResponses) * (64 * 1024 + 5);
    ASSERT_LT(server.stats().bytes_out, total)
        << "every response fit in the socket buffers";
    EXPECT_LT(cpu, 0.1) << "the event loop spun while idle";

    const auto [lines, eof] = reader.readToEof();
    EXPECT_TRUE(eof);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBigResponses));
    for (int i = 0; i < kBigResponses; ++i)
        EXPECT_EQ(lines[i], "q" + std::to_string(i) +
                                std::string(64 * 1024, '.'));
    EXPECT_TRUE(waitFor([&] { return server.stats().active == 0; }));
}

TEST(TcpServer, OverrunBehindUnflushedResponsesStopsReading)
{
    TcpServerConfig cfg = loopback();
    cfg.max_line_bytes = 4096;
    TcpServer server(cfg, bigResponse);
    START_OR_SKIP(server);
    SlowReader flooder(server.port());
    ASSERT_TRUE(flooder.connected());
    ASSERT_TRUE(flooder.send(numberedLines()));
    ASSERT_TRUE(waitFor([&] {
        return server.stats().requests == kBigResponses;
    }));
    const std::uint64_t framed_in = server.stats().bytes_in;

    // An unframed flood behind the unread responses: the server reads
    // past max_line_bytes once, marks the overrun and reads no more.
    EXPECT_GT(flooder.flood(4u << 20), cfg.max_line_bytes);
    ASSERT_TRUE(
        waitFor([&] { return server.stats().frame_overruns > 0; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const TcpServer::Stats stats = server.stats();
    EXPECT_LE(stats.bytes_in - framed_in, cfg.max_line_bytes + 64 * 1024);
    EXPECT_EQ(stats.frame_overruns, 1u);

    // Another client is still served.
    LineClient other;
    ASSERT_TRUE(other.connect("127.0.0.1", server.port()));
    EXPECT_EQ(other.roundTrip("hi").value_or(""),
              "hi" + std::string(64 * 1024, '.'));

    // Once the flooder reads, its responses flush and the server
    // closes it (unread flood bytes may turn that close into a reset).
    flooder.readToEof();
    EXPECT_TRUE(waitFor([&] { return server.stats().active == 1; }));
}

#endif // __linux__

TEST(LineClient, ConnectFailureReportsError)
{
    LineClient client;
    std::string error;
    // Port 1 on loopback: nothing listens there in the sandbox.
    EXPECT_FALSE(client.connect("127.0.0.1", 1, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(client.connected());
}

} // namespace
} // namespace gmoms::net
