/**
 * @file
 * Tests for serve::Protocol (src/serve/protocol.hh): the one wire
 * shape (a line without "v":2 and a string request_id is a
 * bad_request that never reaches the service), the tagged-union
 * response forms (ok / error{code, problems[]} / result{...}) with
 * echoed request_id, accumulated-problems decoding and rejection, the
 * 429 rate-limited error with its retry_after_seconds hint, request
 * encode/decode round trips (the bench client and the server share
 * exactly this one parser/serializer), the nesting cap on hostile
 * lines, and the net stats provider being called for stats requests
 * only.
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

// ---------------------------------------------------------------------
// One wire shape: everything else is one bad_request
// ---------------------------------------------------------------------

TEST(ProtocolV2, UnversionedV1BrokenAndUnknownLinesAreBadRequests)
{
    GraphService service{ServiceConfig{}};
    bool quit = false;
    const struct
    {
        const char* line;
        const char* request_id;  //!< echoed when the line carries one
        const char* problem;     //!< a substring of one problem
    } cases[] = {
        {R"({"op":"submit","tenant":"a","dataset":"WT","algo":"BFS"})",
         "", "\"v\":2"},
        {R"({"v":1,"request_id":"old","op":"stats"})", "old",
         "\"v\":2"},
        {R"({"v":2,"op":"stats"})", "", "\"request_id\""},
        {"{\"broken", "", "bad JSON"},
        // A leading zero is not JSON: "v":02 is no version 2.
        {R"({"v":02,"request_id":"z","op":"stats"})", "", "bad JSON"},
        {R"({"v":2,"request_id":"z","op":"zap"})", "z",
         "unknown op \"zap\""},
    };
    for (const auto& c : cases) {
        const std::string out = handleRequestLine(service, c.line, quit);
        EXPECT_EQ(out.find('\n'), std::string::npos) << out;
        const JsonValue resp = parsed(out);
        EXPECT_EQ(resp.find("v")->asUint64(), 2u) << c.line;
        EXPECT_EQ(resp.find("request_id")->string, c.request_id);
        EXPECT_EQ(resp.find("type")->string, "error") << c.line;
        const JsonValue* err = resp.find("error");
        ASSERT_NE(err, nullptr) << c.line;
        EXPECT_EQ(err->find("code")->string, "bad_request") << c.line;
        bool named = false;
        for (const JsonValue& p : err->find("problems")->array)
            named = named || p.string.find(c.problem) != std::string::npos;
        EXPECT_TRUE(named) << c.line << " -> " << out;
    }
    // An unversioned line with no request_id lists both problems.
    EXPECT_EQ(decodeRequestLine(R"({"op":"stats"})").problems.size(),
              2u);
    EXPECT_EQ(decodeRequestLine(R"({"v":02,"request_id":"z","op":"stats"})")
                  .problems.size(),
              1u);
    // None of them reached the service.
    EXPECT_EQ(service.stats().submitted, 0u);
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
    EXPECT_EQ(resp.find("type")->string, "error");
    const JsonValue* err = resp.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->string, "bad_request");
    const JsonValue* problems = err->find("problems");
    ASSERT_NE(problems, nullptr);
    ASSERT_EQ(problems->array.size(), 1u);
    EXPECT_EQ(problems->array.front().string,
              "bad JSON: nesting deeper than " +
                  std::to_string(kMaxJsonDepth) + " at offset " +
                  std::to_string(kMaxJsonDepth));
    EXPECT_FALSE(quit);

    // The service is untouched and answers the next line.
    const JsonValue stats = parsed(handleRequestLine(
        service, R"({"v":2,"request_id":"s","op":"stats"})", quit));
    EXPECT_EQ(stats.find("type")->string, "result");
    EXPECT_EQ(stats.find("result")
                  ->find("stats")
                  ->find("submitted")
                  ->asUint64(),
              0u);
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

    const JsonValue sub =
        handle(R"({"v":2,"request_id":"s","op":"submit","tenant":"a",)"
               R"("dataset":"WT","algo":"PageRank","preset":"degraded",)"
               R"("iterations":2})");
    const JobId id = sub.find("result")->find("id")->asUint64();
    handle(R"({"v":2,"request_id":"d","op":"drain"})");
    handle(R"({"v":2,"request_id":"p","op":"poll","id":)" +
           std::to_string(id) + "}");
    handle(R"({"v":2,"request_id":"b","op":)");
    handle(R"({"v":2,"request_id":"z","op":"zap"})");
    EXPECT_EQ(calls, 0) << "a non-stats request built the net block";

    const std::string stats_line =
        R"({"v":2,"request_id":"st","op":"stats"})";
    for (int n = 1; n <= 2; ++n) {
        const JsonValue stats = handle(stats_line);
        EXPECT_EQ(calls, n);
        const JsonValue* result = stats.find("result");
        ASSERT_NE(result, nullptr);
        ASSERT_NE(result->find("net"), nullptr);
        EXPECT_EQ(result->find("net")->find("requests")->asUint64(), 7u);
        ASSERT_NE(result->find("stats"), nullptr);
    }

    // Without a provider the stats response has no net block.
    const JsonValue bare =
        parsed(handleRequestLine(service, stats_line, quit));
    EXPECT_EQ(bare.find("result")->find("net"), nullptr);
    EXPECT_NE(bare.find("result")->find("stats"), nullptr);
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
// Rate limiting on the wire: the 429 contract
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

} // namespace
} // namespace gmoms::serve
