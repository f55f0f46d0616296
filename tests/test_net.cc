/**
 * @file
 * Tests for the epoll TCP front end (src/net/tcp_server.hh) and its
 * blocking client (src/net/line_client.hh): accept/serve/shutdown on an
 * ephemeral port, the full serve protocol over a socket (v1 and v2),
 * pipelined requests answered in order, the structured over-limit
 * refusal, oversized-frame kill of a single connection, a too-deeply
 * nested line answered as a bad request on a live connection, graceful
 * drain-and-exit on a quit request, and the per-layer latency
 * breakdown. Skipped on non-Linux hosts where start() reports the
 * stubbed backend.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

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

TEST(TcpServer, ServesV1ClientsUnchanged)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    TcpServer server(loopback(), serviceHandler(service));
    START_OR_SKIP(server);

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    const JsonValue resp = parsed(client.roundTrip(
        R"({"op":"submit","tenant":"t","dataset":"WT",)"
        R"("algo":"PageRank","preset":"degraded","iterations":2})"));
    EXPECT_EQ(resp.find("op")->string, "submit");
    EXPECT_TRUE(resp.find("ok")->boolean);
    EXPECT_EQ(resp.find("v"), nullptr);
    EXPECT_EQ(resp.find("type"), nullptr);
    service.drain();
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
    EXPECT_FALSE(bad.find("ok")->boolean);
    EXPECT_NE(bad.find("error")->string.find("nesting deeper than"),
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
