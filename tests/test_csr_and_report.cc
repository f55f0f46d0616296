/**
 * @file
 * Tests for the CSR substrate, the JSON report writer and the JSON
 * parser's limits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "src/graph/csr.hh"
#include "src/graph/generator.hh"
#include "src/obs/json_check.hh"
#include "src/sim/report.hh"

namespace gmoms
{
namespace
{

TEST(Csr, RoundtripPreservesEdgesRowMajor)
{
    CooGraph g = uniformRandom(200, 2000, 3);
    addRandomWeights(g, 5);
    CsrGraph csr(g);
    EXPECT_EQ(csr.numNodes(), g.numNodes());
    EXPECT_EQ(csr.numEdges(), g.numEdges());

    // Every COO edge appears under its source row with its weight.
    std::vector<std::multiset<std::pair<NodeId, std::uint32_t>>>
        expected(g.numNodes());
    for (EdgeId i = 0; i < g.numEdges(); ++i)
        expected[g.edges()[i].src].insert({g.edges()[i].dst, g.weight(i)});
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        auto nbrs = csr.neighbors(n);
        auto w = csr.weights(n);
        ASSERT_EQ(nbrs.size(), expected[n].size());
        std::multiset<std::pair<NodeId, std::uint32_t>> got;
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            got.insert({nbrs[i], w[i]});
        EXPECT_EQ(got, expected[n]);
    }

    CooGraph back = csr.toCoo();
    EXPECT_EQ(back.numEdges(), g.numEdges());
    EXPECT_EQ(back.outDegrees(), g.outDegrees());
    EXPECT_EQ(back.inDegrees(), g.inDegrees());
}

TEST(Csr, DegreesMatchCoo)
{
    CooGraph g = rmat(11, 20000, RmatParams{}, 9);
    CsrGraph csr(g);
    auto deg = g.outDegrees();
    for (NodeId n = 0; n < g.numNodes(); ++n)
        EXPECT_EQ(csr.outDegree(n), deg[n]);
}

TEST(Csr, UnweightedHasEmptyWeightSpans)
{
    CooGraph g = uniformRandom(50, 300, 1);
    CsrGraph csr(g);
    EXPECT_FALSE(csr.weighted());
    EXPECT_TRUE(csr.weights(0).empty());
}

TEST(Csr, EmptyRowsHandled)
{
    CooGraph g(10);
    g.addEdge(3, 7);
    CsrGraph csr(g);
    EXPECT_TRUE(csr.neighbors(0).empty());
    ASSERT_EQ(csr.neighbors(3).size(), 1u);
    EXPECT_EQ(csr.neighbors(3)[0], 7u);
    EXPECT_TRUE(csr.neighbors(9).empty());
}

/** Reference rendering with a default-formatted ostringstream and
 *  per-character escapes: the formatting JsonReport::str() must match
 *  byte for byte. */
void
referenceEscaped(std::ostringstream& os, const std::string& s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

std::string
referenceRendering(const JsonReport& r)
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto& [key, value] : r.entries()) {
        if (!first)
            os << ',';
        first = false;
        referenceEscaped(os, key);
        os << ':';
        if (const auto* s = std::get_if<std::string>(&value)) {
            referenceEscaped(os, *s);
        } else if (const auto* d = std::get_if<double>(&value)) {
            if (std::isfinite(*d))
                os << *d;
            else
                os << "null";
        } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
            os << *u;
        } else if (const auto* raw = std::get_if<JsonReport::Raw>(&value)) {
            os << raw->json;
        } else {
            os << (std::get<bool>(value) ? "true" : "false");
        }
    }
    os << '}';
    return os.str();
}

TEST(JsonReport, StrIsByteIdenticalToStreamRendering)
{
    std::string every_escape = "q\" b\\ /";
    for (int c = 0; c < 0x20; ++c)
        every_escape.push_back(static_cast<char>(c));
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x93\x88";

    JsonReport inner;
    inner.set("x", 0.5).set(every_escape, utf8);
    JsonReport r;
    r.set("zero", 0.0)
        .set("neg_zero", -0.0)
        .set("tiny", 1e-7)
        .set("tenth", 0.1)
        .set("big", 123456789.0)
        .set("huge_neg", -2.5e300)
        .set("third", 1.0 / 3.0)
        .set("nan", std::nan(""))
        .set("inf", std::numeric_limits<double>::infinity())
        .set("ninf", -std::numeric_limits<double>::infinity())
        .set("u0", std::uint64_t{0})
        .set("umax", std::numeric_limits<std::uint64_t>::max())
        .set("yes", true)
        .set("no", false)
        .set("empty", std::string())
        .set(every_escape, every_escape)
        .set(utf8, utf8)
        .set("nested", JsonReport::Raw{inner.str()});

    const std::string expected = referenceRendering(r);
    EXPECT_EQ(r.str(), expected);

    // write() is the same serializer, whatever the stream's state.
    std::ostringstream os;
    os.precision(17);
    os << std::fixed;
    r.write(os);
    EXPECT_EQ(os.str(), expected);

    // Both escape entry points agree with the reference.
    std::ostringstream ref;
    referenceEscaped(ref, every_escape + utf8);
    std::string appended;
    JsonReport::appendEscaped(appended, every_escape + utf8);
    EXPECT_EQ(appended, ref.str());
    std::ostringstream streamed;
    JsonReport::writeEscaped(streamed, every_escape + utf8);
    EXPECT_EQ(streamed.str(), ref.str());

    std::string error;
    ASSERT_TRUE(parseJson(r.str(), &error).has_value()) << error;
}

TEST(JsonReport, SerializesAllValueKinds)
{
    JsonReport r;
    r.set("name", std::string("two-level"))
        .set("gteps", 1.25)
        .set("cycles", std::uint64_t{12345})
        .set("discarded", false);
    EXPECT_EQ(r.str(), "{\"name\":\"two-level\",\"gteps\":1.25,"
                       "\"cycles\":12345,\"discarded\":false}");
}

TEST(JsonReport, EscapesStrings)
{
    JsonReport r;
    r.set("msg", std::string("a\"b\\c\nd"));
    EXPECT_EQ(r.str(), "{\"msg\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonReport, NonFiniteNumbersBecomeNull)
{
    JsonReport r;
    r.set("bad", std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.str(), "{\"bad\":null}");
    JsonReport n;
    n.set("nan", std::nan(""));
    EXPECT_EQ(n.str(), "{\"nan\":null}");
}

TEST(JsonReport, EscapesControlCharacters)
{
    JsonReport r;
    r.set("msg", std::string("cr\r bs\b ff\f nul") +
                     std::string(1, '\0') + "esc\x1b!");
    EXPECT_EQ(r.str(),
              "{\"msg\":\"cr\\r bs\\b ff\\f nul\\u0000esc\\u001b!\"}");
}

TEST(JsonReport, EscapedOutputParsesBack)
{
    // Round-trip through the strict parser: every byte below 0x20 plus
    // the quote/backslash cases must come back intact.
    std::string nasty = "q\" b\\ nl\n tab\t cr\r";
    for (int c = 0; c < 0x20; ++c)
        nasty.push_back(static_cast<char>(c));
    JsonReport r;
    r.set("k", nasty);
    std::string error;
    const auto parsed = parseJson(r.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const JsonValue* v = parsed->find("k");
    ASSERT_NE(v, nullptr);
    ASSERT_TRUE(v->isString());
    EXPECT_EQ(v->string, nasty);
}

TEST(JsonReport, BenchRecordRoundTrips)
{
    // The shape bench binaries emit (arch_explorer --json / the
    // BENCH_engine.json payload) must parse back with types intact.
    JsonReport r;
    r.set("design", std::string("16/16 two-level"))
        .set("gteps", 1.25)
        .set("cycles", std::uint64_t{123456789})
        .set("discarded", false)
        .set("nested", JsonReport::Raw{"{\"value\":42}"});
    std::string error;
    const auto parsed = parseJson(r.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->isObject());
    EXPECT_EQ(parsed->find("design")->string, "16/16 two-level");
    EXPECT_DOUBLE_EQ(parsed->find("gteps")->number, 1.25);
    EXPECT_DOUBLE_EQ(parsed->find("cycles")->number, 123456789.0);
    ASSERT_NE(parsed->find("discarded"), nullptr);
    EXPECT_FALSE(parsed->find("discarded")->boolean);
    const JsonValue* nested = parsed->find("nested");
    ASSERT_NE(nested, nullptr);
    ASSERT_TRUE(nested->isObject());
    EXPECT_DOUBLE_EQ(nested->find("value")->number, 42.0);
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    EXPECT_FALSE(parseJson("{\"a\":}").has_value());
    EXPECT_FALSE(parseJson("{\"a\":1,}").has_value());
    EXPECT_FALSE(parseJson("{} trailing").has_value());
    EXPECT_FALSE(parseJson("\"raw\tcontrol\"").has_value());
    EXPECT_TRUE(parseJson("{\"a\":[1,2,{\"b\":null}]}").has_value());
}

TEST(JsonParser, RejectsLeadingZeros)
{
    for (const char* bad : {"01", "-01", "00", "[01]", "{\"v\":02}"})
        EXPECT_FALSE(parseJson(bad).has_value()) << bad;
    for (const char* good : {"0", "-0", "0.5", "-0.25", "0e3", "10", "[0]"})
        EXPECT_TRUE(parseJson(good).has_value()) << good;
}

TEST(JsonParser, SurrogatePairIsOneFourByteSequence)
{
    const auto pair = parseJson("\"\\ud83d\\ude00\"");
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(pair->string, "\xF0\x9F\x98\x80");  // U+1F600
    // A lone surrogate, high or low, stays its own 3-byte sequence; a
    // high one before a non-surrogate escape pairs with nothing.
    const auto lone = parseJson("\"\\ud83d\\u0041\\ude00\"");
    ASSERT_TRUE(lone.has_value());
    EXPECT_EQ(lone->string, "\xED\xA0\xBD" "A" "\xED\xB8\x80");
}

TEST(JsonParser, NestingDepthIsCapped)
{
    auto nested = [](int depth) {
        std::string s;
        for (int i = 0; i < depth; ++i)
            s += i % 2 ? "{\"k\":" : "[";
        s += "1";
        for (int i = depth - 1; i >= 0; --i)
            s += i % 2 ? "}" : "]";
        return s;
    };
    std::string error;
    EXPECT_TRUE(parseJson(nested(kMaxJsonDepth), &error).has_value())
        << error;
    EXPECT_FALSE(parseJson(nested(kMaxJsonDepth + 1), &error).has_value());
    EXPECT_NE(error.find("nesting deeper than " +
                         std::to_string(kMaxJsonDepth)),
              std::string::npos)
        << error;

    // A hostile line far past the cap fails at the cap, not the stack.
    EXPECT_FALSE(parseJson(std::string(1 << 20, '['), &error).has_value());
    EXPECT_EQ(error, "nesting deeper than " +
                         std::to_string(kMaxJsonDepth) + " at offset " +
                         std::to_string(kMaxJsonDepth));
}

} // namespace
} // namespace gmoms
