/**
 * @file
 * Tests for serve::Protocol (src/serve/protocol.hh): the v1 round-trip
 * compatibility contract (PR-5 bare JSON-lines clients keep working,
 * answered in the v1 wire shape), the v2 tagged-union response forms
 * (ok / error{code, problems[]} / result{...}) with echoed request_id,
 * accumulated-problems decoding and rejection, the 429 rate-limited
 * error with its retry_after_seconds hint, request encode/decode
 * round trips (the bench client and the server share exactly this one
 * parser/serializer), the nesting cap on hostile lines, and the net
 * stats provider being called for stats requests only.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "src/obs/json_check.hh"
#include "src/serve/protocol.hh"
#include "src/serve/service.hh"

namespace gmoms::serve
{
namespace
{

/** A wire-expressible (preset-based) job that runs in milliseconds. */
JobSpec
wireJob(const std::string& algo = "PageRank")
{
    JobSpec spec;
    spec.tenant = "t";
    spec.dataset = "WT";
    spec.algo = algo;
    spec.iterations = 2;
    spec.preset = "degraded";
    return spec;
}

JsonValue
parsed(const std::string& line)
{
    std::string error;
    const std::optional<JsonValue> v = parseJson(line, &error);
    EXPECT_TRUE(v.has_value()) << error << " in: " << line;
    return v ? *v : JsonValue{};
}

bool
hasKey(const JsonValue& obj, const std::string& key)
{
    return obj.find(key) != nullptr;
}

// ---------------------------------------------------------------------
// v1 compatibility: the PR-5 wire shape, bit-for-bit
// ---------------------------------------------------------------------

TEST(ProtocolV1, SubmitPollDrainQuitRoundTripCompat)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    bool quit = false;

    // A PR-5 client's literal submit line: no "v", no "request_id".
    const std::string resp = handleRequestLine(
        service,
        R"({"op":"submit","tenant":"a","dataset":"WT",)"
        R"("algo":"PageRank","preset":"degraded","iterations":2})",
        quit);
    const JsonValue sub = parsed(resp);
    EXPECT_EQ(sub.find("op")->string, "submit");
    EXPECT_TRUE(sub.find("ok")->boolean);
    const JobId id = sub.find("id")->asUint64();
    EXPECT_GE(id, 1u);
    // The v1 shape must not grow v2 fields.
    EXPECT_FALSE(hasKey(sub, "v"));
    EXPECT_FALSE(hasKey(sub, "type"));
    EXPECT_FALSE(hasKey(sub, "request_id"));

    const JsonValue drain =
        parsed(handleRequestLine(service, R"({"op":"drain"})", quit));
    EXPECT_TRUE(drain.find("ok")->boolean);
    EXPECT_EQ(drain.find("drained")->asUint64(), 1u);

    const JsonValue poll = parsed(handleRequestLine(
        service, R"({"op":"poll","id":)" + std::to_string(id) + "}",
        quit));
    EXPECT_TRUE(poll.find("ok")->boolean);
    const JsonValue* job = poll.find("job");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->find("state")->string, "completed");
    EXPECT_NE(job->find("values_checksum")->asUint64(), 0u);

    const JsonValue stats =
        parsed(handleRequestLine(service, R"({"op":"stats"})", quit));
    EXPECT_TRUE(stats.find("ok")->boolean);
    EXPECT_EQ(stats.find("stats")->find("submitted")->asUint64(), 1u);

    EXPECT_FALSE(quit);
    const JsonValue q =
        parsed(handleRequestLine(service, R"({"op":"quit"})", quit));
    EXPECT_TRUE(quit);
    EXPECT_TRUE(q.find("ok")->boolean);
}

TEST(ProtocolV1, ErrorShapes)
{
    GraphService service{ServiceConfig{}};
    bool quit = false;

    // Malformed JSON: op "?" + joined "error" string, ok=false.
    const JsonValue bad =
        parsed(handleRequestLine(service, "{\"broken", quit));
    EXPECT_EQ(bad.find("op")->string, "?");
    EXPECT_FALSE(bad.find("ok")->boolean);
    EXPECT_TRUE(hasKey(bad, "error"));

    // Unknown op echoes the op text.
    const JsonValue unk =
        parsed(handleRequestLine(service, R"({"op":"zap"})", quit));
    EXPECT_EQ(unk.find("op")->string, "zap");
    EXPECT_FALSE(unk.find("ok")->boolean);

    // A rejected v1 submit is NOT a protocol error: ok=false plus the
    // full "rejected" reason array (the PR-5 contract).
    const JsonValue rej = parsed(handleRequestLine(
        service,
        R"({"op":"submit","tenant":"a","dataset":"NOPE",)"
        R"("algo":"Nope"})",
        quit));
    EXPECT_FALSE(rej.find("ok")->boolean);
    const JsonValue* reasons = rej.find("rejected");
    ASSERT_NE(reasons, nullptr);
    EXPECT_GE(reasons->array.size(), 2u);  // bad dataset AND bad algo
    EXPECT_FALSE(quit);
}

TEST(ProtocolV1, DeepNestingIsABadRequestNotACrash)
{
    // The stdin front end hands each line straight to
    // handleRequestLine; a 200 KB line of '[' once overflowed the
    // parser's stack.
    GraphService service{ServiceConfig{}};
    bool quit = false;
    const JsonValue resp = parsed(
        handleRequestLine(service, std::string(200000, '['), quit));
    EXPECT_EQ(resp.find("op")->string, "?");
    EXPECT_FALSE(resp.find("ok")->boolean);
    EXPECT_EQ(resp.find("error")->string,
              "bad JSON: nesting deeper than " +
                  std::to_string(kMaxJsonDepth) + " at offset " +
                  std::to_string(kMaxJsonDepth));
    EXPECT_FALSE(quit);

    // The service is untouched and answers the next line.
    const JsonValue stats =
        parsed(handleRequestLine(service, R"({"op":"stats"})", quit));
    EXPECT_TRUE(stats.find("ok")->boolean);
    EXPECT_EQ(stats.find("stats")->find("submitted")->asUint64(), 0u);
}

// ---------------------------------------------------------------------
// The net-stats provider runs for stats requests only
// ---------------------------------------------------------------------

TEST(ProtocolNetStats, ProviderIsCalledOnlyForStats)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    bool quit = false;
    int calls = 0;
    const std::function<JsonReport()> provider = [&calls] {
        ++calls;
        JsonReport r;
        r.set("requests", std::uint64_t{7});
        return r;
    };
    auto handle = [&](const std::string& line) {
        return parsed(handleRequestLine(service, line, quit, provider));
    };

    const JsonValue sub = handle(
        R"({"op":"submit","tenant":"a","dataset":"WT",)"
        R"("algo":"PageRank","preset":"degraded","iterations":2})");
    const JobId id = sub.find("id")->asUint64();
    handle(R"({"v":2,"request_id":"s","op":"submit","tenant":"a",)"
           R"("dataset":"WT","algo":"PageRank","preset":"degraded",)"
           R"("iterations":2})");
    handle(R"({"op":"drain"})");
    handle(R"({"v":2,"request_id":"d","op":"drain"})");
    handle(R"({"op":"poll","id":)" + std::to_string(id) + "}");
    handle(R"({"v":2,"request_id":"p","op":"poll","id":)" +
           std::to_string(id) + "}");
    handle("{\"broken");
    handle(R"({"op":"zap"})");
    handle(R"({"v":2,"request_id":"z","op":"zap"})");
    EXPECT_EQ(calls, 0) << "a non-stats request built the net block";

    const JsonValue v1 = handle(R"({"op":"stats"})");
    EXPECT_EQ(calls, 1);
    ASSERT_NE(v1.find("net"), nullptr);
    EXPECT_EQ(v1.find("net")->find("requests")->asUint64(), 7u);

    const JsonValue v2 = handle(R"({"v":2,"request_id":"st","op":"stats"})");
    EXPECT_EQ(calls, 2);
    const JsonValue* result = v2.find("result");
    ASSERT_NE(result, nullptr);
    ASSERT_NE(result->find("net"), nullptr);
    EXPECT_EQ(result->find("net")->find("requests")->asUint64(), 7u);
    ASSERT_NE(result->find("stats"), nullptr);

    // Without a provider the stats response has no net block.
    const JsonValue bare =
        parsed(handleRequestLine(service, R"({"op":"stats"})", quit));
    EXPECT_EQ(bare.find("net"), nullptr);
    EXPECT_NE(bare.find("stats"), nullptr);
    EXPECT_FALSE(quit);
}

// ---------------------------------------------------------------------
// v2: tagged union + request_id echo
// ---------------------------------------------------------------------

TEST(ProtocolV2, ResultErrorOkForms)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    GraphService service(cfg);
    bool quit = false;

    const JsonValue sub = parsed(handleRequestLine(
        service,
        R"({"v":2,"request_id":"q-1","op":"submit","tenant":"a",)"
        R"("dataset":"WT","algo":"PageRank","preset":"degraded",)"
        R"("iterations":2})",
        quit));
    EXPECT_EQ(sub.find("v")->asUint64(), 2u);
    EXPECT_EQ(sub.find("request_id")->string, "q-1");
    EXPECT_EQ(sub.find("type")->string, "result");
    const JsonValue* result = sub.find("result");
    ASSERT_NE(result, nullptr);
    const JobId id = result->find("id")->asUint64();
    EXPECT_GE(id, 1u);
    EXPECT_FALSE(result->find("from_cache")->boolean);
    service.drain();

    // Unknown id -> tagged error with code "not_found".
    const JsonValue nf = parsed(handleRequestLine(
        service,
        R"({"v":2,"request_id":"q-2","op":"poll","id":999})", quit));
    EXPECT_EQ(nf.find("type")->string, "error");
    EXPECT_EQ(nf.find("request_id")->string, "q-2");
    EXPECT_EQ(nf.find("error")->find("code")->string, "not_found");

    // Quit -> bare "ok" (no payload).
    const JsonValue ok = parsed(handleRequestLine(
        service, R"({"v":2,"request_id":"q-3","op":"quit"})", quit));
    EXPECT_TRUE(quit);
    EXPECT_EQ(ok.find("type")->string, "ok");
}

TEST(ProtocolV2, RequestIdIsRequired)
{
    GraphService service{ServiceConfig{}};
    bool quit = false;
    const JsonValue resp = parsed(
        handleRequestLine(service, R"({"v":2,"op":"stats"})", quit));
    EXPECT_EQ(resp.find("type")->string, "error");
    EXPECT_EQ(resp.find("error")->find("code")->string, "bad_request");
}

TEST(ProtocolV2, DecodeProblemsAccumulate)
{
    // Three independent defects -> one bad_request listing all three.
    const DecodedRequest d = decodeRequestLine(
        R"({"v":2,"request_id":7,"op":"submit","iterations":-3,)"
        R"("prep":"zip"})");
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.problems.size(), 3u)
        << "expected bad request_id + bad iterations + bad prep";
    // The version is still salvaged so the error response is v2.
    EXPECT_EQ(d.req.v, kProtocolV2);
}

TEST(ProtocolV2, OutOfRangeOrFractionalNumbersAreBadRequests)
{
    // An integer field takes only an exact integer lexeme that fits its
    // type: a larger or fractional number is never cast (that would
    // wrap, truncate or fall back to the default), it is one problem
    // naming the field.
    const struct
    {
        const char* fields;
        const char* field;
    } cases[] = {
        {R"("op":"submit","source":4294967297)", "source"},
        {R"("op":"submit","boards":4294967298)", "boards"},
        {R"("op":"submit","iterations":2.9)", "iterations"},
        {R"("op":"submit","iterations":1e30)", "iterations"},
        {R"("op":"submit","cycle_budget":1e30)", "cycle_budget"},
        {R"("op":"submit","cycle_budget":18446744073709551616)",
         "cycle_budget"},
        {R"("op":"poll","id":1.9)", "id"},
    };
    GraphService service{ServiceConfig{}};
    bool quit = false;
    for (const auto& c : cases) {
        const std::string line =
            std::string(R"({"v":2,"request_id":"n",)") + c.fields + "}";
        const std::string named = std::string("\"") + c.field + "\"";
        const DecodedRequest d = decodeRequestLine(line);
        ASSERT_EQ(d.problems.size(), 1u) << line;
        EXPECT_NE(d.problems.front().find(named), std::string::npos)
            << d.problems.front();
        const JsonValue resp =
            parsed(handleRequestLine(service, line, quit));
        EXPECT_EQ(resp.find("type")->string, "error") << line;
        EXPECT_EQ(resp.find("error")->find("code")->string,
                  "bad_request")
            << line;
    }
    EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ProtocolV2, IntegerFieldsDecodeUpToTheirTypesMaximum)
{
    const DecodedRequest d = decodeRequestLine(
        R"({"v":2,"request_id":"b","op":"submit","source":4294967295,)"
        R"("cycle_budget":18446744073709551615})");
    ASSERT_TRUE(d.ok()) << (d.problems.empty() ? ""
                                               : d.problems.front());
    EXPECT_EQ(d.req.spec.source, 4294967295u);
    EXPECT_EQ(d.req.spec.cycle_budget, 18446744073709551615ull);

    const DecodedRequest poll = decodeRequestLine(
        R"({"v":2,"request_id":"p","op":"poll",)"
        R"("id":18446744073709551615})");
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll.req.poll_id, 18446744073709551615ull);
}

TEST(ProtocolV2, MaxRetriesAboveTheCapIsABadRequest)
{
    // Any uint32 used to decode, and a job that always fails then held
    // a worker through 2^32 attempts.
    GraphService service{ServiceConfig{}};
    bool quit = false;
    for (const char* n : {"4294967295", "17"}) {
        const std::string line =
            std::string(R"({"v":2,"request_id":"m","op":"submit",)"
                        R"("tenant":"t","dataset":"WT","algo":"BFS",)"
                        R"("cycle_budget":1,"max_retries":)") +
            n + "}";
        const DecodedRequest d = decodeRequestLine(line);
        ASSERT_EQ(d.problems.size(), 1u) << line;
        EXPECT_NE(d.problems.front().find("\"max_retries\""),
                  std::string::npos)
            << d.problems.front();
        const JsonValue resp =
            parsed(handleRequestLine(service, line, quit));
        EXPECT_EQ(resp.find("error")->find("code")->string,
                  "bad_request")
            << line;
    }
    EXPECT_EQ(service.stats().submitted, 0u);

    const DecodedRequest at_cap = decodeRequestLine(
        R"({"v":2,"request_id":"c","op":"submit","max_retries":16})");
    ASSERT_TRUE(at_cap.ok());
    EXPECT_EQ(at_cap.req.spec.max_retries, kMaxRetries);
}

TEST(ProtocolV2, AsUint64IsExactOrTheFallback)
{
    EXPECT_EQ(parsed("18446744073709551615").asUint64(7),
              18446744073709551615ull);
    EXPECT_EQ(parsed("18446744073709551616").asUint64(7), 7u);
    EXPECT_EQ(parsed("1e3").asUint64(7), 7u);
    EXPECT_EQ(parsed("2.0").asUint64(7), 7u);
    EXPECT_EQ(parsed("-1").asUint64(7), 7u);
    EXPECT_EQ(parsed("\"5\"").asUint64(7), 7u);
    EXPECT_EQ(parsed("0").asUint64(7), 0u);
}

TEST(ProtocolV2, RejectionAccumulatesValidationProblems)
{
    GraphService service{ServiceConfig{}};
    bool quit = false;
    const JsonValue resp = parsed(handleRequestLine(
        service,
        R"({"v":2,"request_id":"r","op":"submit","tenant":"a",)"
        R"("dataset":"NOPE","algo":"Nope","preset":"degraded"})",
        quit));
    EXPECT_EQ(resp.find("type")->string, "error");
    EXPECT_EQ(resp.find("error")->find("code")->string, "rejected");
    EXPECT_GE(resp.find("error")->find("problems")->array.size(), 2u);
}

// ---------------------------------------------------------------------
// Rate limiting on the wire: the 429 contract in both versions
// ---------------------------------------------------------------------

TEST(ProtocolRateLimit, V2RateLimitedCarriesRetryAfter)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.rate_limit_hz = 0.001;  // one token ~every 1000 s
    cfg.rate_limit_burst = 1;
    GraphService service(cfg);
    bool quit = false;

    const std::string submit =
        R"({"v":2,"request_id":"s","op":"submit","tenant":"a",)"
        R"("dataset":"WT","algo":"PageRank","preset":"degraded",)"
        R"("iterations":2})";
    const JsonValue first =
        parsed(handleRequestLine(service, submit, quit));
    EXPECT_EQ(first.find("type")->string, "result");

    const JsonValue second =
        parsed(handleRequestLine(service, submit, quit));
    EXPECT_EQ(second.find("type")->string, "error");
    const JsonValue* err = second.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->string, "rate_limited");
    ASSERT_NE(err->find("retry_after_seconds"), nullptr);
    EXPECT_GT(err->find("retry_after_seconds")->number, 0.0);

    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rate_limited, 1u);
    EXPECT_EQ(stats.rejected, 1u);  // 429s are a subset of rejected
    EXPECT_EQ(stats.submitted,
              stats.rejected + stats.completed + stats.degraded +
                  stats.failed);
}

TEST(ProtocolRateLimit, V1RateLimitedStaysARejection)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.rate_limit_hz = 0.001;
    cfg.rate_limit_burst = 1;
    GraphService service(cfg);
    bool quit = false;

    const std::string submit =
        R"({"op":"submit","tenant":"a","dataset":"WT",)"
        R"("algo":"PageRank","preset":"degraded","iterations":2})";
    parsed(handleRequestLine(service, submit, quit));
    const JsonValue second =
        parsed(handleRequestLine(service, submit, quit));
    // v1 has no error codes: a 429 renders as the PR-5 rejection shape
    // plus the retry hint.
    EXPECT_FALSE(second.find("ok")->boolean);
    ASSERT_NE(second.find("rejected"), nullptr);
    EXPECT_GT(second.find("retry_after_seconds")->number, 0.0);
    service.drain();
}

// ---------------------------------------------------------------------
// Request encode/decode round trip (the client half)
// ---------------------------------------------------------------------

TEST(ProtocolCodec, SubmitRequestRoundTripsEveryField)
{
    Request req;
    req.v = kProtocolV2;
    req.request_id = "abc-123";
    req.verb = Verb::Submit;
    req.spec = wireJob("SSSP");
    req.spec.prep = Preprocessing::Hash;
    req.spec.source = 17;
    req.spec.priority = 2;
    req.spec.cycle_budget = 5000;
    req.spec.max_retries = 3;
    req.spec.checks = false;
    req.spec.telemetry = true;
    req.spec.boards = 2;
    req.spec.cluster_mode = "async";
    req.spec.cluster_partitioner = "round-robin";

    const DecodedRequest d =
        decodeRequestLine(encodeRequestLine(req));
    ASSERT_TRUE(d.ok()) << (d.problems.empty() ? ""
                                               : d.problems.front());
    EXPECT_EQ(d.req.v, kProtocolV2);
    EXPECT_EQ(d.req.request_id, "abc-123");
    EXPECT_EQ(d.req.verb, Verb::Submit);
    const JobSpec& s = d.req.spec;
    EXPECT_EQ(s.tenant, "t");
    EXPECT_EQ(s.dataset, "WT");
    EXPECT_EQ(s.algo, "SSSP");
    EXPECT_EQ(s.prep, Preprocessing::Hash);
    EXPECT_EQ(s.iterations, 2u);
    EXPECT_EQ(s.source, 17u);
    EXPECT_EQ(s.preset, "degraded");
    EXPECT_EQ(s.priority, 2u);
    EXPECT_EQ(s.cycle_budget, 5000u);
    EXPECT_EQ(s.max_retries, 3u);
    EXPECT_FALSE(s.checks);
    EXPECT_TRUE(s.telemetry);
    EXPECT_EQ(s.boards, 2u);
    EXPECT_EQ(s.cluster_mode, "async");
    EXPECT_EQ(s.cluster_partitioner, "round-robin");
}

TEST(ProtocolCodec, V1RequestsOmitVersioning)
{
    Request req;
    req.verb = Verb::Poll;
    req.poll_id = 42;
    const std::string line = encodeRequestLine(req);
    const JsonValue obj = parsed(line);
    EXPECT_FALSE(hasKey(obj, "v"));
    EXPECT_FALSE(hasKey(obj, "request_id"));
    const DecodedRequest d = decodeRequestLine(line);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.req.v, kProtocolV1);
    EXPECT_EQ(d.req.poll_id, 42u);
}

} // namespace
} // namespace gmoms::serve
