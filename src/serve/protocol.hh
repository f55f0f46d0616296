/**
 * @file
 * serve::Protocol — the one parser/serializer for the serving wire
 * protocol, shared by the stdin JSON-lines loop,
 * the epoll TCP front end (src/net/) and bench_serve's client. Before
 * this module each front end hand-rolled its own stringly verb
 * dispatch; now the protocol is typed Request/Response structs plus
 * encode/decode functions, and adding a verb means touching exactly
 * one file.
 *
 * One wire shape, one JSON object per line. Every request carries
 * `"v":2` and a client-chosen string `"request_id"` (echoed verbatim on
 * the response, so pipelined clients can match answers to questions
 * without counting lines); a line without either is a `bad_request`.
 * Responses are a tagged union on `"type"`:
 *   - `"ok"`                          — verb succeeded, no payload;
 *   - `"error"` + `"error":{"code","problems":[...]}`
 *                                     — accumulated-problems style, the
 *       validateJobSpec() philosophy applied to the wire: every decode
 *       or rejection reason in one response. Codes: `bad_request`,
 *       `rejected`, `rate_limited` (+ `retry_after_seconds`),
 *       `not_found`, `shutting_down`, `overloaded`;
 *   - `"result"` + `"result":{...}`   — verb payload (submit id, poll
 *       job, stats block, drain count).
 *
 * The shapes are pinned by tests/test_serve_protocol.cc.
 */

#ifndef GMOMS_SERVE_PROTOCOL_HH
#define GMOMS_SERVE_PROTOCOL_HH

#include <functional>
#include <string>
#include <vector>

#include "src/serve/service.hh"
#include "src/sim/report.hh"

namespace gmoms::serve
{

/** The wire version every request must carry as `"v"`. */
inline constexpr int kProtocolV2 = 2;

enum class Verb : std::uint8_t
{
    Submit,
    Poll,
    Stats,
    Drain,
    Quit,
    Unknown,
};

const char* verbName(Verb v);

/** A decoded request. */
struct Request
{
    int v = kProtocolV2;     //!< written as "v" by encodeRequestLine
    std::string request_id;  //!< echoed on the response
    Verb verb = Verb::Unknown;
    std::string op;      //!< raw op text (error echo for unknown verbs)
    JobSpec spec;        //!< Submit
    JobId poll_id = 0;   //!< Poll
};

/** decodeRequestLine outcome: the request plus *every* problem found
 *  (accumulated, not first-error). The request_id is salvaged even
 *  from a bad request so the error response can be matched. */
struct DecodedRequest
{
    Request req;
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
};

DecodedRequest decodeRequestLine(const std::string& line);

/** Serialize @p req for the wire (no trailing newline): the client
 *  half of the protocol, used by bench_serve and the tests. */
std::string encodeRequestLine(const Request& req);

/** A response; encodeResponseLine renders the tagged union. */
struct Response
{
    enum class Kind : std::uint8_t
    {
        Ok,
        Error,
        Result,
    };

    Kind kind = Kind::Ok;
    std::string request_id;
    std::string op;

    // Error only.
    std::string code;
    std::vector<std::string> problems;
    double retry_after_seconds = -1;  //!< >= 0 only when rate limited

    // Result only: the payload, nested under "result".
    JsonReport result;
};

std::string encodeResponseLine(const Response& r);

/** A JobRecord as the flat JSON block of poll responses. */
JsonReport jobRecordJson(const JobRecord& rec);

/**
 * Execute @p req against @p service — the single verb dispatcher
 * behind every front end. @p net_stats, when set, is called once per
 * *stats* request and its block appended under "net" (the TCP server's
 * connection counters); every other verb leaves it uncalled, so a
 * non-stats request never pays for a snapshot of server history.
 * Quit returns Ok; the *caller* owns shutdown (stdin loop breaks, TCP
 * server drains).
 */
Response execute(GraphService& service, const Request& req,
                 const std::function<JsonReport()>& net_stats = {});

/**
 * Full line -> line turn: decode, execute (or report decode problems),
 * encode. Sets @p quit_requested when the line was a well-formed quit.
 * This is the whole server-side protocol in one call; the stdin loop
 * and the TCP handler are both one-liners over it.
 */
std::string handleRequestLine(
    GraphService& service, const std::string& line, bool& quit_requested,
    const std::function<JsonReport()>& net_stats = {});

} // namespace gmoms::serve

#endif // GMOMS_SERVE_PROTOCOL_HH
