#include "src/serve/protocol.hh"

#include <limits>
#include <optional>

#include "src/obs/json_check.hh"

namespace gmoms::serve
{

namespace
{

/** Serialize a reason list as a JSON array of strings. */
std::string
jsonStringArray(const std::vector<std::string>& items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ',';
        JsonReport::appendEscaped(out, items[i]);
    }
    out += ']';
    return out;
}

std::string
joined(const std::vector<std::string>& items)
{
    std::string out;
    for (const std::string& s : items)
        out += (out.empty() ? "" : "; ") + s;
    return out;
}

std::optional<Preprocessing>
prepByName(const std::string& name)
{
    if (name == "none")
        return Preprocessing::None;
    if (name == "hash")
        return Preprocessing::Hash;
    if (name == "dbg")
        return Preprocessing::Dbg;
    if (name == "dbg+hash")
        return Preprocessing::DbgHash;
    if (name == "packed")
        return Preprocessing::Packed;
    if (name == "dbg+hash+packed")
        return Preprocessing::DbgHashPacked;
    return std::nullopt;
}

// Field readers in the accumulated-problems style: a bad field appends
// its problem and leaves @p out untouched, so one response lists every
// defect of the request (the validateJobSpec() philosophy on the wire).

/** An integer field: only an exact non-negative integer lexeme up to
 *  @p max (by default T's maximum) is accepted, so nothing is rounded,
 *  truncated or wrapped. */
template <typename T>
void
readNumber(const JsonValue& req, const std::string& key, T& out,
           std::vector<std::string>& problems,
           std::uint64_t max = std::numeric_limits<T>::max())
{
    const JsonValue* v = req.find(key);
    if (!v)
        return;
    const std::optional<std::uint64_t> n = v->exactUint64();
    if (!n || *n > max) {
        problems.push_back("field \"" + key +
                           "\" must be an integer in [0, " +
                           std::to_string(max) + "]");
        return;
    }
    out = static_cast<T>(*n);
}

void
readString(const JsonValue& req, const std::string& key,
           std::string& out, std::vector<std::string>& problems)
{
    const JsonValue* v = req.find(key);
    if (!v)
        return;
    if (!v->isString()) {
        problems.push_back("field \"" + key + "\" must be a string");
        return;
    }
    out = v->string;
}

void
readBool(const JsonValue& req, const std::string& key, bool& out,
         std::vector<std::string>& problems)
{
    const JsonValue* v = req.find(key);
    if (!v)
        return;
    if (v->kind != JsonValue::Kind::Bool) {
        problems.push_back("field \"" + key + "\" must be a boolean");
        return;
    }
    out = v->boolean;
}

void
decodeSubmit(const JsonValue& obj, Request& req,
             std::vector<std::string>& problems)
{
    JobSpec& spec = req.spec;
    std::string prep = "dbg+hash";
    readString(obj, "tenant", spec.tenant, problems);
    readString(obj, "dataset", spec.dataset, problems);
    readString(obj, "algo", spec.algo, problems);
    readString(obj, "preset", spec.preset, problems);
    readString(obj, "prep", prep, problems);
    readNumber(obj, "iterations", spec.iterations, problems);
    readNumber(obj, "source", spec.source, problems);
    readNumber(obj, "priority", spec.priority, problems);
    readNumber(obj, "cycle_budget", spec.cycle_budget, problems);
    readNumber(obj, "max_retries", spec.max_retries, problems,
               kMaxRetries);
    readBool(obj, "checks", spec.checks, problems);
    readBool(obj, "telemetry", spec.telemetry, problems);
    readNumber(obj, "boards", spec.boards, problems);
    readString(obj, "cluster_mode", spec.cluster_mode, problems);
    readString(obj, "cluster_partitioner", spec.cluster_partitioner,
               problems);

    const std::optional<Preprocessing> p = prepByName(prep);
    if (!p)
        problems.push_back("unknown preprocessing \"" + prep +
                           "\" (none, hash, dbg, dbg+hash, packed, "
                           "dbg+hash+packed)");
    else
        spec.prep = *p;
}

} // namespace

const char*
verbName(Verb v)
{
    switch (v) {
      case Verb::Submit:
        return "submit";
      case Verb::Poll:
        return "poll";
      case Verb::Stats:
        return "stats";
      case Verb::Drain:
        return "drain";
      case Verb::Quit:
        return "quit";
      case Verb::Unknown:
        break;
    }
    return "?";
}

DecodedRequest
decodeRequestLine(const std::string& line)
{
    DecodedRequest out;
    Request& req = out.req;

    std::string parse_error;
    const std::optional<JsonValue> parsed =
        parseJson(line, &parse_error);
    if (!parsed) {
        req.op = "?";
        out.problems.push_back("bad JSON: " + parse_error);
        return out;
    }
    if (!parsed->isObject()) {
        req.op = "?";
        out.problems.push_back("request must be a JSON object");
        return out;
    }
    const JsonValue& obj = *parsed;

    // Version + request id first: even a defective request gets a
    // correctly versioned, matchable error response.
    if (const JsonValue* v = obj.find("v")) {
        if (v->isNumber() && v->number == kProtocolV2)
            req.v = kProtocolV2;
        else if (v->isNumber() && v->number == kProtocolV1)
            req.v = kProtocolV1;
        else
            out.problems.push_back(
                "unsupported protocol version \"v\" (expected 1 or 2)");
    }
    if (const JsonValue* rid = obj.find("request_id")) {
        if (rid->isString())
            req.request_id = rid->string;
        else
            out.problems.push_back(
                "field \"request_id\" must be a string");
    } else if (req.v == kProtocolV2) {
        out.problems.push_back(
            "v2 requests must carry a string \"request_id\"");
    }

    const JsonValue* op = obj.find("op");
    if (!op || !op->isString()) {
        req.op = "?";
        out.problems.push_back("request needs a string \"op\"");
        return out;
    }
    req.op = op->string;
    if (req.op == "submit")
        req.verb = Verb::Submit;
    else if (req.op == "poll")
        req.verb = Verb::Poll;
    else if (req.op == "stats")
        req.verb = Verb::Stats;
    else if (req.op == "drain")
        req.verb = Verb::Drain;
    else if (req.op == "quit")
        req.verb = Verb::Quit;
    else {
        out.problems.push_back("unknown op \"" + req.op +
                               "\" (submit, poll, stats, drain, quit)");
        return out;
    }

    if (req.verb == Verb::Submit) {
        decodeSubmit(obj, req, out.problems);
    } else if (req.verb == Verb::Poll) {
        const JsonValue* id = obj.find("id");
        const std::optional<std::uint64_t> n =
            id ? id->exactUint64() : std::nullopt;
        if (!n || *n < 1)
            out.problems.push_back(
                "poll requires a positive integer \"id\"");
        else
            req.poll_id = *n;
    }
    return out;
}

std::string
encodeRequestLine(const Request& req)
{
    JsonReport r;
    if (req.v == kProtocolV2)
        r.set("v", static_cast<std::uint64_t>(kProtocolV2))
            .set("request_id", req.request_id);
    r.set("op", std::string(verbName(req.verb)));
    if (req.verb == Verb::Submit) {
        const JobSpec& spec = req.spec;
        r.set("tenant", spec.tenant)
            .set("dataset", spec.dataset)
            .set("algo", spec.algo)
            .set("prep", std::string(preprocessingName(spec.prep)))
            .set("iterations",
                 static_cast<std::uint64_t>(spec.iterations))
            .set("source", static_cast<std::uint64_t>(spec.source))
            .set("preset", spec.preset)
            .set("priority", static_cast<std::uint64_t>(spec.priority))
            .set("cycle_budget", spec.cycle_budget)
            .set("max_retries",
                 static_cast<std::uint64_t>(spec.max_retries))
            .set("checks", spec.checks)
            .set("telemetry", spec.telemetry)
            .set("boards", static_cast<std::uint64_t>(spec.boards))
            .set("cluster_mode", spec.cluster_mode)
            .set("cluster_partitioner", spec.cluster_partitioner);
    } else if (req.verb == Verb::Poll) {
        r.set("id", static_cast<std::uint64_t>(req.poll_id));
    }
    return r.str();
}

std::string
encodeResponseLine(const Response& resp)
{
    JsonReport r;
    if (resp.v == kProtocolV2) {
        r.set("v", static_cast<std::uint64_t>(kProtocolV2))
            .set("request_id", resp.request_id)
            .set("op", resp.op);
        switch (resp.kind) {
          case Response::Kind::Ok:
            r.set("type", std::string("ok"));
            break;
          case Response::Kind::Error: {
            r.set("type", std::string("error"));
            JsonReport err;
            err.set("code", resp.code)
                .set("problems",
                     JsonReport::Raw{jsonStringArray(resp.problems)});
            if (resp.retry_after_seconds >= 0)
                err.set("retry_after_seconds",
                        resp.retry_after_seconds);
            r.set("error", JsonReport::Raw{err.str()});
            break;
          }
          case Response::Kind::Result:
            r.set("type", std::string("result"))
                .set("result", JsonReport::Raw{resp.result.str()});
            break;
        }
        return r.str();
    }

    // v1: the PR-5 wire shape, bit-compatible for existing clients.
    r.set("op", resp.op).set("ok", resp.kind != Response::Kind::Error);
    if (resp.kind == Response::Kind::Error) {
        if (resp.code == "rejected" || resp.code == "rate_limited") {
            r.set("rejected",
                  JsonReport::Raw{jsonStringArray(resp.problems)});
            if (resp.retry_after_seconds >= 0)
                r.set("retry_after_seconds", resp.retry_after_seconds);
        } else {
            r.set("error", joined(resp.problems));
        }
    } else {
        for (const auto& [key, value] : resp.result.entries())
            r.set(key, value);
    }
    return r.str();
}

JsonReport
jobRecordJson(const JobRecord& rec)
{
    JsonReport r;
    r.set("id", static_cast<std::uint64_t>(rec.id))
        .set("tenant", rec.tenant)
        .set("dataset", rec.dataset)
        .set("algo", rec.algo)
        .set("priority", static_cast<std::uint64_t>(rec.priority))
        .set("state", std::string(jobStateName(rec.state)))
        .set("terminal", rec.terminal())
        .set("attempts", static_cast<std::uint64_t>(rec.attempts))
        .set("used_fallback", rec.used_fallback)
        .set("from_cache", rec.from_cache)
        .set("error", rec.error)
        .set("replay", rec.replay)
        .set("queue_seconds", rec.queue_seconds)
        .set("prep_seconds", rec.prep_seconds)
        .set("sim_seconds", rec.sim_seconds)
        .set("total_seconds", rec.total_seconds)
        .set("cycles", static_cast<std::uint64_t>(rec.cycles))
        .set("iterations", static_cast<std::uint64_t>(rec.iterations))
        .set("edges_processed",
             static_cast<std::uint64_t>(rec.edges_processed))
        .set("dram_bytes_read", rec.dram_bytes_read)
        .set("dram_bytes_written", rec.dram_bytes_written)
        .set("moms_hit_rate", rec.moms_hit_rate)
        .set("gteps", rec.gteps)
        .set("values_checksum", rec.values_checksum);
    return r;
}

Response
execute(GraphService& service, const Request& req,
        const std::function<JsonReport()>& net_stats)
{
    Response resp;
    resp.v = req.v;
    resp.request_id = req.request_id;
    resp.op = verbName(req.verb);

    switch (req.verb) {
      case Verb::Submit: {
        const GraphService::Submitted sub = service.submit(req.spec);
        if (sub.ok()) {
            resp.kind = Response::Kind::Result;
            resp.result.set("id", static_cast<std::uint64_t>(sub.id))
                .set("from_cache", sub.from_cache);
        } else {
            resp.kind = Response::Kind::Error;
            resp.code = sub.rate_limited ? "rate_limited" : "rejected";
            resp.problems = sub.rejected;
            if (sub.rate_limited)
                resp.retry_after_seconds = sub.retry_after_seconds;
        }
        break;
      }
      case Verb::Poll: {
        const std::optional<JobRecord> rec = service.poll(req.poll_id);
        if (rec) {
            resp.kind = Response::Kind::Result;
            resp.result.set("job",
                            JsonReport::Raw{jobRecordJson(*rec).str()});
        } else {
            resp.kind = Response::Kind::Error;
            resp.code = "not_found";
            resp.problems.push_back("unknown job id");
        }
        break;
      }
      case Verb::Stats: {
        resp.kind = Response::Kind::Result;
        resp.result.set(
            "stats", JsonReport::Raw{service.stats().toJson().str()});
        if (net_stats)
            resp.result.set("net", JsonReport::Raw{net_stats().str()});
        break;
      }
      case Verb::Drain: {
        resp.kind = Response::Kind::Result;
        resp.result.set("drained", service.drain());
        break;
      }
      case Verb::Quit:
        resp.kind = Response::Kind::Ok;
        break;
      case Verb::Unknown: {
        resp.kind = Response::Kind::Error;
        resp.code = "bad_request";
        resp.problems.push_back("unknown op \"" + req.op + "\"");
        break;
      }
    }
    return resp;
}

std::string
handleRequestLine(GraphService& service, const std::string& line,
                  bool& quit_requested,
                  const std::function<JsonReport()>& net_stats)
{
    const DecodedRequest decoded = decodeRequestLine(line);
    if (!decoded.ok()) {
        Response resp;
        resp.v = decoded.req.v;
        resp.request_id = decoded.req.request_id;
        resp.op = decoded.req.op;
        resp.kind = Response::Kind::Error;
        resp.code = "bad_request";
        resp.problems = decoded.problems;
        return encodeResponseLine(resp);
    }
    if (decoded.req.verb == Verb::Quit)
        quit_requested = true;
    return encodeResponseLine(execute(service, decoded.req, net_stats));
}

} // namespace gmoms::serve
