/**
 * @file
 * Serving-layer load bench: a seeded open-loop generator (exponential
 * inter-arrival times, no waiting on completions — arrivals do not
 * slow down when the service falls behind) pushes a mixed multi-tenant
 * workload through GraphService at several offered-load levels, then
 * reports the SLO picture per level: p50/p95/p99 latency, achieved
 * throughput, rejection rate, retry/degrade counts, cache behaviour.
 *
 * The hard acceptance property is ZERO LOST JOBS: at every level,
 * submitted == rejected + completed + degraded + failed, and the
 * completion log holds exactly the terminal jobs. The bench exits
 * non-zero if any level leaks a job.
 *
 * The top level deliberately overdrives a small admission queue so
 * rejections actually happen, and a slice of jobs carries an
 * impossibly small cycle budget so the retry -> degraded-fallback
 * path shows up in the numbers.
 *
 * A hot-repeat section measures the repeat-job path: the same job mix
 * is pushed in batch mode through two services, the result cache off
 * (every job simulates) and on (repeats are answered from the result
 * cache at dispatch); both fork every simulated job from the pool of
 * warm sessions. It asserts per-job bit-identical values_checksums
 * and reports the jobs/sec ratio and result-cache hits. The checkpoint
 * hit counter must be nonzero (CI serve-smoke asserts it too).
 *
 * The TCP section (ISSUE 9) drives the epoll front end with an
 * open-loop pipelined v2-protocol client at several cache-hit ratios:
 * a golden pass first computes every distinct query's values_checksum
 * on a direct result-cache-off service (also the PR-5-style serving
 * throughput baseline), then each level primes the hot query set,
 * fires its mix down the socket without waiting for responses, and
 * verifies — per job — that the polled checksum is bit-identical to
 * the golden value, that accounting is exact at the level (submitted
 * == rejected + completed + degraded + failed from the wire stats
 * deltas), and that observed from_cache responses equal the result
 * cache's hit delta. The repeat-heavy level must show nonzero
 * result-cache hits and sustain >= 10x the baseline jobs/sec; either
 * miss exits non-zero. `--tcp HOST:PORT` drives an external
 * `gmoms_serve --listen` instead of in-process servers (CI net-smoke),
 * sending one final quit so the server drains and exits cleanly.
 *
 * A rate-limit section floods one tenant through an in-process TCP
 * server with a small token bucket and checks the 429 contract:
 * rate_limited errors carry retry_after_seconds, stats count them as a
 * subset of rejected, and accounting stays exact.
 *
 * Results land in BENCH_serve.json (override with
 * GMOMS_BENCH_SERVE_JSON), written atomically via
 * temp-file-then-rename; one Raw-nested record per load level.
 *
 * `--smoke` shrinks the run for CI (fewer levels, fewer jobs).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "bench/bench_common.hh"
#include "src/net/line_client.hh"
#include "src/net/tcp_server.hh"
#include "src/obs/json_check.hh"
#include "src/serve/protocol.hh"
#include "src/serve/service.hh"

using namespace gmoms;
using namespace gmoms::bench;
using namespace gmoms::serve;

namespace
{

struct Level
{
    std::string name;
    unsigned jobs;
    double offered_hz;        //!< open-loop arrival rate
    std::size_t queue_depth;  //!< admission bound (small = pushback)
    std::size_t quota;        //!< per-tenant bound
};

/** One randomized tenant request (deterministic in @p rng). */
JobSpec
randomJob(std::mt19937& rng)
{
    static const char* kTenants[] = {"ads", "fraud", "search",
                                     "research"};
    static const char* kAlgos[] = {"PageRank", "SCC", "BFS"};

    JobSpec spec;
    spec.tenant = kTenants[rng() % 4];
    spec.dataset = "WT";
    // Two preprocessing flavours = two dataset-cache keys in play.
    spec.prep = rng() % 4 == 0 ? Preprocessing::None
                               : Preprocessing::DbgHash;
    spec.algo = kAlgos[rng() % 3];
    spec.iterations = 2 + rng() % 3;
    spec.priority = rng() % 3;
    spec.config = AccelConfig::preset(MomsConfig::twoLevel(4),
                                      /*pes=*/4, /*channels=*/2);
    // ~12% of jobs get a deadline no run can meet: they must come
    // back Degraded (fallback preset), never lost.
    if (rng() % 8 == 0) {
        spec.cycle_budget = 2000;
        spec.max_retries = 1;
    }
    return spec;
}

/** The hot-repeat job mix: @p repeats passes over a small set of
 *  distinct specs on one checkpoint key — repeat-heavy traffic.
 *  Deterministic (no RNG): both services see the same list. */
std::vector<JobSpec>
hotRepeatJobs(unsigned repeats)
{
    std::vector<JobSpec> distinct;
    const char* kAlgos[] = {"PageRank", "SCC", "BFS"};
    for (const char* algo : kAlgos) {
        JobSpec spec;
        spec.tenant = "hot";
        spec.dataset = "WT";
        spec.prep = Preprocessing::DbgHash;
        spec.algo = algo;
        spec.iterations = 2;
        spec.config = AccelConfig::preset(MomsConfig::twoLevel(4),
                                          /*pes=*/4, /*channels=*/2);
        distinct.push_back(std::move(spec));
    }
    std::vector<JobSpec> jobs;
    for (unsigned r = 0; r < repeats; ++r)
        for (const JobSpec& spec : distinct)
            jobs.push_back(spec);
    return jobs;
}

struct HotRepeatOutcome
{
    double wall_seconds = 0;
    double jobs_per_sec = 0;
    std::vector<std::uint64_t> checksums;  //!< submit order
    ServiceStats stats;
};

/** Push @p jobs through a fresh service in batch mode, with the
 *  result cache on or off, and collect the per-job checksums in
 *  submit order. */
HotRepeatOutcome
runHotRepeat(const std::vector<JobSpec>& jobs, bool result_cache)
{
    ServiceConfig cfg;
    cfg.start_paused = true;  // batch: measure pure serving throughput
    cfg.max_queue_depth = jobs.size();
    cfg.per_tenant_quota = 0;
    cfg.enable_result_cache = result_cache;
    GraphService service(cfg);

    std::vector<JobId> ids;
    WallTimer timer;
    for (const JobSpec& spec : jobs) {
        const GraphService::Submitted sub = service.submit(spec);
        if (sub.ok())
            ids.push_back(sub.id);
    }
    service.drain();

    HotRepeatOutcome out;
    out.wall_seconds = timer.elapsedSeconds();
    out.stats = service.stats();
    out.jobs_per_sec =
        out.wall_seconds > 0
            ? static_cast<double>(out.stats.terminal()) /
                  out.wall_seconds
            : 0.0;
    for (JobId id : ids) {
        const std::optional<JobRecord> rec = service.poll(id);
        out.checksums.push_back(rec ? rec->values_checksum : 0);
    }
    return out;
}

// ====================================================================
// TCP result-cache sweep
// ====================================================================

/** Worker count pinned on both sides of the TCP comparison so the
 *  baseline/hot jobs-per-second ratio does not drift with host core
 *  count. */
constexpr unsigned kTcpWorkers = 4;

/** One wire query of the TCP sweep, with the key the golden checksum
 *  map is indexed by. */
struct WireJob
{
    JobSpec spec;
    std::string key;  //!< algo/iterations/source (all else constant)
};

WireJob
makeWireJob(const std::string& algo, std::uint32_t iterations,
            NodeId source)
{
    WireJob wj;
    wj.spec.tenant = "tcp";
    wj.spec.dataset = "WT";
    wj.spec.prep = Preprocessing::DbgHash;
    wj.spec.algo = algo;
    wj.spec.iterations = iterations;
    wj.spec.source = source;
    // The named preset travels over the wire (explicit configs cannot);
    // "degraded" is the small 4-PE machine, keeping per-sim cost low.
    wj.spec.preset = "degraded";
    wj.key = algo + "/" + std::to_string(iterations) + "/" +
             std::to_string(source);
    return wj;
}

/** The six-query hot set every repeat-heavy level draws from. */
std::vector<WireJob>
hotQuerySet()
{
    return {
        makeWireJob("PageRank", 2, 0), makeWireJob("PageRank", 3, 0),
        makeWireJob("SCC", 2, 0),      makeWireJob("SCC", 3, 0),
        makeWireJob("BFS", 2, 1),      makeWireJob("BFS", 3, 2),
    };
}

struct TcpLevel
{
    std::string name;
    unsigned jobs;
    double repeat_frac;  //!< share of jobs drawn from the hot set
    std::vector<WireJob> mix;
};

/** Build a level's job list: exactly round(jobs * (1 - repeat_frac))
 *  fresh never-seen queries (BFS from a globally unique source) at
 *  rng-shuffled positions, the rest drawn from the hot set. */
std::vector<WireJob>
makeTcpMix(unsigned jobs, double repeat_frac, std::mt19937& rng,
           NodeId& fresh_source)
{
    const std::vector<WireJob> hot = hotQuerySet();
    const unsigned fresh_n = static_cast<unsigned>(
        static_cast<double>(jobs) * (1.0 - repeat_frac) + 0.5);
    std::vector<bool> fresh(jobs, false);
    std::fill(fresh.begin(), fresh.begin() + fresh_n, true);
    std::shuffle(fresh.begin(), fresh.end(), rng);

    std::vector<WireJob> mix;
    mix.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        mix.push_back(fresh[i]
                          ? makeWireJob("BFS", 2, fresh_source++)
                          : hot[rng() % hot.size()]);
    return mix;
}

/**
 * The golden pass: every distinct query once through a direct,
 * result-cache-off service (batch mode) — the per-key bit-exact
 * checksums every TCP job is checked against, and the PR-5-style
 * serving-throughput baseline the >= 10x claim is measured from.
 */
struct Golden
{
    std::map<std::string, std::uint64_t> checksum;
    double jobs_per_sec = 0;
    double wall_seconds = 0;
    bool failed = false;
};

Golden
runGolden(const std::vector<TcpLevel>& levels)
{
    std::vector<WireJob> distinct;
    for (const TcpLevel& level : levels)
        for (const WireJob& wj : level.mix) {
            bool seen = false;
            for (const WireJob& d : distinct)
                if (d.key == wj.key) {
                    seen = true;
                    break;
                }
            if (!seen)
                distinct.push_back(wj);
        }

    ServiceConfig cfg;
    cfg.workers = kTcpWorkers;
    cfg.start_paused = true;
    cfg.max_queue_depth = distinct.size();
    cfg.per_tenant_quota = 0;
    cfg.enable_result_cache = false;
    GraphService service(cfg);

    Golden golden;
    std::vector<std::pair<std::string, JobId>> ids;
    WallTimer timer;
    for (const WireJob& wj : distinct) {
        const GraphService::Submitted sub = service.submit(wj.spec);
        if (!sub.ok()) {
            std::printf("GOLDEN SUBMIT REJECTED (%s): %s\n",
                        wj.key.c_str(),
                        sub.rejected.empty() ? "?"
                                             : sub.rejected[0].c_str());
            golden.failed = true;
            continue;
        }
        ids.emplace_back(wj.key, sub.id);
    }
    service.drain();
    golden.wall_seconds = timer.elapsedSeconds();
    golden.jobs_per_sec =
        golden.wall_seconds > 0
            ? static_cast<double>(ids.size()) / golden.wall_seconds
            : 0.0;
    for (const auto& [key, id] : ids) {
        const std::optional<JobRecord> rec = service.poll(id);
        if (!rec || rec->state != JobState::Completed) {
            std::printf("GOLDEN JOB NOT COMPLETED (%s)\n", key.c_str());
            golden.failed = true;
            continue;
        }
        golden.checksum[key] = rec->values_checksum;
    }
    return golden;
}

// ---- v2 wire client helpers ----------------------------------------

std::string
submitLine(const JobSpec& spec, const std::string& rid)
{
    Request req;
    req.v = kProtocolV2;
    req.request_id = rid;
    req.verb = Verb::Submit;
    req.spec = spec;
    return encodeRequestLine(req);
}

std::string
verbLine(Verb verb, const std::string& rid, JobId poll_id = 0)
{
    Request req;
    req.v = kProtocolV2;
    req.request_id = rid;
    req.verb = verb;
    req.poll_id = poll_id;
    return encodeRequestLine(req);
}

/** The wire-stats counters the sweep audits (parsed from a v2 stats
 *  response; all exact via the raw-lexeme uint64 path). */
struct WireStats
{
    bool ok = false;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t completed = 0;
    std::uint64_t result_cache_completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

WireStats
statsOver(net::LineClient& client)
{
    WireStats out;
    const std::optional<std::string> line =
        client.roundTrip(verbLine(Verb::Stats, "stats"));
    if (!line)
        return out;
    const std::optional<JsonValue> parsed = parseJson(*line);
    if (!parsed)
        return out;
    const JsonValue* result = parsed->find("result");
    const JsonValue* stats = result ? result->find("stats") : nullptr;
    if (!stats)
        return out;
    auto field = [&](const char* key) -> std::uint64_t {
        const JsonValue* v = stats->find(key);
        return v ? v->asUint64() : 0;
    };
    out.submitted = field("submitted");
    out.rejected = field("rejected");
    out.rate_limited = field("rate_limited");
    out.completed = field("completed");
    out.result_cache_completed = field("result_cache_completed");
    out.degraded = field("degraded");
    out.failed = field("failed");
    out.hits = field("result_cache_hits");
    out.misses = field("result_cache_misses");
    out.ok = true;
    return out;
}

/** An in-process endpoint: its own GraphService behind its own epoll
 *  server on an ephemeral loopback port. */
struct InProcessServer
{
    std::unique_ptr<GraphService> service;
    std::unique_ptr<net::TcpServer> server;

    bool
    start(const ServiceConfig& cfg, std::string* error)
    {
        service = std::make_unique<GraphService>(cfg);
        GraphService* svc = service.get();
        server = std::make_unique<net::TcpServer>(
            net::TcpServerConfig{},
            [svc](const std::string& line) {
                net::HandlerResult out;
                bool quit = false;
                out.line = handleRequestLine(*svc, line, quit);
                out.shutdown_server = quit;
                return out;
            });
        return server->start(error);
    }
};

ServiceConfig
tcpServiceConfig()
{
    ServiceConfig cfg;
    cfg.workers = kTcpWorkers;
    cfg.max_queue_depth = 4096;
    cfg.per_tenant_quota = 0;
    return cfg;
}

struct TcpOutcome
{
    bool failed = false;
    double wall_seconds = 0;
    double jobs_per_sec = 0;
    double hit_rate = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t from_cache_observed = 0;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed_jobs = 0;
    LatencyStats rtt;  //!< client-observed submit round trips
};

/**
 * Drive one level over @p client: prime the hot set (repeat levels
 * only, excluded from the measured window via stats deltas), fire the
 * mix open-loop (a writer that never waits + a reader thread matching
 * responses by request_id), drain, then poll every job and audit
 * checksums + accounting.
 */
TcpOutcome
runTcpLevel(net::LineClient& client, const TcpLevel& level,
            const Golden& golden)
{
    TcpOutcome out;
    auto fail = [&](const std::string& what) {
        std::printf("TCP %s: %s\n", level.name.c_str(), what.c_str());
        out.failed = true;
    };

    if (level.repeat_frac > 0) {
        const std::vector<WireJob> hot = hotQuerySet();
        for (std::size_t i = 0; i < hot.size(); ++i) {
            const std::optional<std::string> resp = client.roundTrip(
                submitLine(hot[i].spec, "p" + std::to_string(i)));
            if (!resp)
                fail("prime submit lost its response");
        }
        if (!client.roundTrip(verbLine(Verb::Drain, "prime-drain")))
            fail("prime drain lost its response");
    }

    const WireStats before = statsOver(client);
    if (!before.ok)
        fail("stats snapshot failed before the level");

    const std::size_t n = level.mix.size();
    WallTimer timer;
    std::mutex mu;  // guards send_at/latency across writer and reader
    std::vector<double> send_at(n, 0);
    std::vector<double> latency(n, -1);
    std::vector<JobId> ids(n, kInvalidJob);
    std::vector<bool> from_cache(n, false);
    bool reader_failed = false;

    std::thread reader([&] {
        for (std::size_t seen = 0; seen < n; ++seen) {
            const std::optional<std::string> line = client.recvLine();
            const double now = timer.elapsedSeconds();
            if (!line) {
                reader_failed = true;
                return;
            }
            const std::optional<JsonValue> parsed = parseJson(*line);
            const JsonValue* rid =
                parsed ? parsed->find("request_id") : nullptr;
            if (!rid || !rid->isString() || rid->string.empty() ||
                rid->string[0] != 'q') {
                reader_failed = true;
                return;
            }
            const std::size_t idx = static_cast<std::size_t>(
                std::atoll(rid->string.c_str() + 1));
            if (idx >= n) {
                reader_failed = true;
                return;
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                latency[idx] = now - send_at[idx];
            }
            const JsonValue* result = parsed->find("result");
            const JsonValue* id =
                result ? result->find("id") : nullptr;
            if (id)
                ids[idx] = id->asUint64();
            const JsonValue* fc =
                result ? result->find("from_cache") : nullptr;
            if (fc && fc->kind == JsonValue::Kind::Bool)
                from_cache[idx] = fc->boolean;
        }
    });

    for (std::size_t i = 0; i < n; ++i) {
        {
            std::lock_guard<std::mutex> lock(mu);
            send_at[i] = timer.elapsedSeconds();
        }
        if (!client.sendLine(
                submitLine(level.mix[i].spec,
                           "q" + std::to_string(i)))) {
            fail("send failed mid-stream");
            break;
        }
    }
    reader.join();
    if (reader_failed)
        fail("reader lost a response or could not match it");
    if (!client.roundTrip(verbLine(Verb::Drain, "level-drain")))
        fail("level drain lost its response");
    out.wall_seconds = timer.elapsedSeconds();
    out.jobs_per_sec =
        out.wall_seconds > 0
            ? static_cast<double>(n) / out.wall_seconds
            : 0.0;

    // Per-job verification: terminal, Completed, golden checksum.
    for (std::size_t i = 0; i < n; ++i) {
        if (ids[i] == kInvalidJob) {
            fail("job " + std::to_string(i) + " was not admitted");
            continue;
        }
        if (from_cache[i])
            ++out.from_cache_observed;
        const std::optional<std::string> resp = client.roundTrip(
            verbLine(Verb::Poll, "poll" + std::to_string(i), ids[i]));
        const std::optional<JsonValue> parsed =
            resp ? parseJson(*resp) : std::nullopt;
        const JsonValue* result =
            parsed ? parsed->find("result") : nullptr;
        const JsonValue* job = result ? result->find("job") : nullptr;
        const JsonValue* state = job ? job->find("state") : nullptr;
        const JsonValue* checksum =
            job ? job->find("values_checksum") : nullptr;
        if (!state || !state->isString() || !checksum) {
            fail("poll of job " + std::to_string(i) + " malformed");
            continue;
        }
        if (state->string != "completed") {
            fail("job " + std::to_string(i) + " ended " +
                 state->string + " (expected completed)");
            continue;
        }
        const auto want = golden.checksum.find(level.mix[i].key);
        if (want == golden.checksum.end() ||
            checksum->asUint64() != want->second)
            fail("job " + std::to_string(i) + " (" +
                 level.mix[i].key +
                 ") checksum differs from the cold golden run");
        if (latency[i] >= 0)
            out.rtt.add(latency[i]);
    }

    const WireStats after = statsOver(client);
    if (!after.ok)
        fail("stats snapshot failed after the level");
    if (before.ok && after.ok) {
        out.submitted = after.submitted - before.submitted;
        out.rejected = after.rejected - before.rejected;
        out.completed = after.completed - before.completed;
        out.degraded = after.degraded - before.degraded;
        out.failed_jobs = after.failed - before.failed;
        out.hits = after.hits - before.hits;
        out.misses = after.misses - before.misses;
        const std::uint64_t lookups = out.hits + out.misses;
        out.hit_rate = lookups > 0 ? static_cast<double>(out.hits) /
                                         static_cast<double>(lookups)
                                   : 0.0;
        if (out.submitted != out.rejected + out.completed +
                                 out.degraded + out.failed_jobs)
            fail("accounting mismatch: submitted != rejected + "
                 "completed + degraded + failed");
        if (out.submitted != n)
            fail("submitted delta does not match the offered mix");
        if (out.rejected != 0 || out.degraded != 0 ||
            out.failed_jobs != 0)
            fail("sweep jobs must all complete (no rejections or "
                 "degrades expected at this depth)");
        if (out.from_cache_observed != out.hits)
            fail("from_cache responses (" +
                 std::to_string(out.from_cache_observed) +
                 ") do not equal the result-cache hit delta (" +
                 std::to_string(out.hits) + ")");
        const std::uint64_t cache_completed_delta =
            after.result_cache_completed -
            before.result_cache_completed;
        if (cache_completed_delta != out.hits)
            fail("result_cache_completed delta is not the hit delta");
    }
    return out;
}

// ====================================================================

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string tcp_external;  // HOST:PORT of an external gmoms_serve
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc)
            tcp_external = argv[++i];
    }

    std::printf("=== Serving-layer load bench (open-loop%s) ===\n\n",
                smoke ? ", smoke" : "");

    std::vector<Level> levels;
    if (smoke) {
        levels.push_back({"light", 10, 8.0, 64, 32});
        levels.push_back({"overload", 14, 200.0, 4, 4});
    } else {
        levels.push_back({"light", 40, 8.0, 64, 32});
        levels.push_back({"busy", 60, 40.0, 64, 32});
        levels.push_back({"overload", 60, 400.0, 4, 4});
    }

    Table table({"level", "offered/s", "done/s", "rej %", "degraded",
                 "p50 s", "p95 s", "p99 s"});
    std::vector<JsonReport> level_reports;
    bool lost = false;

    for (const Level& level : levels) {
        ServiceConfig cfg;
        cfg.max_queue_depth = level.queue_depth;
        cfg.per_tenant_quota = level.quota;
        GraphService service(cfg);

        // Seeded per level: the submitted workload is reproducible
        // run-to-run (arrival *timing* is wall clock, so in live mode
        // dispatch interleaving is not — the determinism contract for
        // batch mode is pinned in tests/test_serve.cc instead).
        std::mt19937 rng(0xC0FFEE ^ level.jobs);
        std::exponential_distribution<double> gap(level.offered_hz);

        std::vector<JobId> admitted;
        for (unsigned i = 0; i < level.jobs; ++i) {
            const GraphService::Submitted sub =
                service.submit(randomJob(rng));
            if (sub.ok())
                admitted.push_back(sub.id);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(gap(rng)));
        }
        service.drain();

        const ServiceStats stats = service.stats();

        // --- Zero-lost-jobs audit -------------------------------
        std::uint64_t terminal_polled = 0;
        for (JobId id : admitted) {
            const std::optional<JobRecord> rec = service.poll(id);
            if (!rec || !rec->terminal()) {
                std::printf("LOST JOB %llu at level %s\n",
                            static_cast<unsigned long long>(id),
                            level.name.c_str());
                lost = true;
                continue;
            }
            ++terminal_polled;
        }
        if (stats.submitted !=
                stats.rejected + stats.terminal() ||
            terminal_polled != stats.terminal() ||
            service.completionLog().size() != stats.terminal()) {
            std::printf("ACCOUNTING MISMATCH at level %s: submitted "
                        "%llu, rejected %llu, terminal %llu, polled "
                        "%llu, log %zu\n",
                        level.name.c_str(),
                        static_cast<unsigned long long>(
                            stats.submitted),
                        static_cast<unsigned long long>(
                            stats.rejected),
                        static_cast<unsigned long long>(
                            stats.terminal()),
                        static_cast<unsigned long long>(
                            terminal_polled),
                        service.completionLog().size());
            lost = true;
        }

        table.addRow({level.name, fmt(level.offered_hz, 0),
                      fmt(stats.jobsPerSecond(), 1),
                      fmt(100.0 * stats.rejectionRate(), 1),
                      std::to_string(stats.degraded),
                      fmt(stats.total.percentile(50), 3),
                      fmt(stats.total.percentile(95), 3),
                      fmt(stats.total.percentile(99), 3)});

        JsonReport rec;
        rec.set("level", level.name)
            .set("jobs_offered",
                 static_cast<std::uint64_t>(level.jobs))
            .set("offered_hz", level.offered_hz)
            .set("queue_depth",
                 static_cast<std::uint64_t>(level.queue_depth))
            .set("per_tenant_quota",
                 static_cast<std::uint64_t>(level.quota))
            .set("workers",
                 static_cast<std::uint64_t>(service.workers()))
            .set("stats", JsonReport::Raw{stats.toJson().str()});
        level_reports.push_back(std::move(rec));
    }

    table.print();
    std::printf("\nexpected shape: done/s tracks offered/s until the "
                "queue bound bites;\nthe overload level rejects "
                "instead of queueing unboundedly, and every\n"
                "tiny-budget job comes back Degraded — never lost.\n");

    // --- Hot-repeat: result cache off vs on ----------------------
    std::printf("\n=== Hot-repeat serving: result cache off vs on "
                "===\n\n");
    const std::vector<JobSpec> hot_jobs =
        hotRepeatJobs(smoke ? 8 : 20);
    const HotRepeatOutcome cold = runHotRepeat(hot_jobs, false);
    const HotRepeatOutcome warmed = runHotRepeat(hot_jobs, true);

    bool hot_failed = false;
    if (cold.checksums != warmed.checksums ||
        cold.checksums.size() != hot_jobs.size()) {
        std::printf("CHECKSUM MISMATCH: cache-answered jobs did not "
                    "reproduce simulated results bit-for-bit\n");
        hot_failed = true;
    }
    // The repeat-heavy mix must actually exercise the pool: every
    // simulated job forks, and the three algorithms share one key.
    const CacheStats& pool = warmed.stats.checkpoints;
    const std::uint64_t forks = pool.hits + pool.misses;
    if (pool.hits == 0) {
        std::printf("CHECKPOINT POOL UNUSED: hits=%llu forks=%llu on a "
                    "repeat-heavy mix\n",
                    static_cast<unsigned long long>(pool.hits),
                    static_cast<unsigned long long>(forks));
        hot_failed = true;
    }
    const double hot_speedup = cold.jobs_per_sec > 0
                                   ? warmed.jobs_per_sec /
                                         cold.jobs_per_sec
                                   : 0.0;
    Table hot_table({"result cache", "jobs", "wall s", "jobs/s",
                     "result-cache hits"});
    hot_table.addRow({"off", std::to_string(hot_jobs.size()),
                      fmt(cold.wall_seconds, 3),
                      fmt(cold.jobs_per_sec, 1), "-"});
    hot_table.addRow(
        {"on", std::to_string(hot_jobs.size()),
         fmt(warmed.wall_seconds, 3), fmt(warmed.jobs_per_sec, 1),
         std::to_string(warmed.stats.result_cache.hits)});
    hot_table.print();
    std::printf("\nspeedup: %.1fx (%s); identical checksums: %s\n",
                hot_speedup,
                hot_speedup >= 5.0 ? ">= 5x target"
                                   : "below the 5x target",
                hot_failed ? "NO" : "yes");

    JsonReport hot;
    hot.set("jobs", static_cast<std::uint64_t>(hot_jobs.size()))
        .set("cold_wall_seconds", cold.wall_seconds)
        .set("cold_jobs_per_sec", cold.jobs_per_sec)
        .set("warm_wall_seconds", warmed.wall_seconds)
        .set("warm_jobs_per_sec", warmed.jobs_per_sec)
        .set("speedup", hot_speedup)
        .set("checksums_match", !hot_failed)
        .set("checkpoint_hits", pool.hits)
        .set("checkpoint_misses", pool.misses)
        .set("checkpoint_forks", forks)
        .set("checkpoint_bytes", pool.bytes)
        .set("result_cache_hits", warmed.stats.result_cache.hits)
        .set("result_cache_misses", warmed.stats.result_cache.misses);

    // --- TCP result-cache sweep -------------------------------------
    const std::string tcp_mode_label =
        tcp_external.empty() ? std::string(", in-process epoll servers")
                             : " against " + tcp_external;
    std::printf("\n=== TCP serving: result-cache hit-ratio sweep "
                "(v2 protocol%s) ===\n\n",
                tcp_mode_label.c_str());

    bool tcp_failed = false;
    bool tcp_ran = false;
    JsonReport tcp_report;
    {
        std::vector<TcpLevel> tcp_levels;
        if (smoke) {
            tcp_levels.push_back({"cold_0pct", 6, 0.0, {}});
            tcp_levels.push_back({"hot_95pct", 60, 0.95, {}});
        } else {
            tcp_levels.push_back({"cold_0pct", 18, 0.0, {}});
            tcp_levels.push_back({"mixed_50pct", 30, 0.5, {}});
            tcp_levels.push_back({"hot_96pct", 120, 0.96, {}});
        }
        std::mt19937 rng(0x7C9);
        NodeId fresh_source = 100;  // well inside the WT node range
        for (TcpLevel& level : tcp_levels)
            level.mix = makeTcpMix(level.jobs, level.repeat_frac, rng,
                                   fresh_source);

        // Probe whether the epoll front end is available at all
        // (Linux-only); skip the section gracefully elsewhere.
        bool available = !tcp_external.empty();
        std::string host = "127.0.0.1";
        std::uint16_t port = 0;
        if (!tcp_external.empty()) {
            const std::size_t colon = tcp_external.rfind(':');
            if (colon == std::string::npos) {
                std::printf("bad --tcp argument \"%s\" (HOST:PORT)\n",
                            tcp_external.c_str());
                tcp_failed = true;
                available = false;
            } else {
                host = tcp_external.substr(0, colon);
                port = static_cast<std::uint16_t>(
                    std::atoi(tcp_external.c_str() + colon + 1));
            }
        } else {
            InProcessServer probe;
            std::string error;
            available = probe.start(tcpServiceConfig(), &error);
            if (!available)
                std::printf("skipping TCP section: %s\n",
                            error.c_str());
            if (probe.server)
                probe.server->shutdown(false);
        }

        if (available) {
            tcp_ran = true;
            const Golden golden = runGolden(tcp_levels);
            tcp_failed = tcp_failed || golden.failed;
            std::printf("golden baseline: %zu distinct queries, "
                        "%.3f s, %.1f jobs/s (direct service, result "
                        "cache off)\n\n",
                        golden.checksum.size(), golden.wall_seconds,
                        golden.jobs_per_sec);

            Table tcp_table({"level", "jobs", "repeat %", "hit %",
                             "jobs/s", "x baseline", "p50 ms",
                             "p95 ms", "p99 ms"});
            std::string tcp_levels_json = "[";
            bool first = true;

            for (const TcpLevel& level : tcp_levels) {
                InProcessServer inproc;
                std::string t_host = host;
                std::uint16_t t_port = port;
                if (tcp_external.empty()) {
                    std::string error;
                    if (!inproc.start(tcpServiceConfig(), &error)) {
                        std::printf("TCP %s: server start failed: "
                                    "%s\n",
                                    level.name.c_str(), error.c_str());
                        tcp_failed = true;
                        continue;
                    }
                    t_port = inproc.server->port();
                }
                net::LineClient client;
                std::string cerr;
                if (!client.connect(t_host, t_port, &cerr)) {
                    std::printf("TCP %s: connect failed: %s\n",
                                level.name.c_str(), cerr.c_str());
                    tcp_failed = true;
                    continue;
                }

                const TcpOutcome out =
                    runTcpLevel(client, level, golden);
                const double speedup =
                    golden.jobs_per_sec > 0
                        ? out.jobs_per_sec / golden.jobs_per_sec
                        : 0.0;
                tcp_failed = tcp_failed || out.failed;
                // The repeat-heavy level is the acceptance gate: the
                // cache must actually hit, and serve >= 10x the
                // direct cold baseline.
                if (level.repeat_frac >= 0.9) {
                    if (out.hits == 0) {
                        std::printf("TCP %s: ZERO result-cache hits "
                                    "on a repeat-heavy mix\n",
                                    level.name.c_str());
                        tcp_failed = true;
                    }
                    if (speedup < 10.0) {
                        std::printf("TCP %s: %.1fx baseline is below "
                                    "the 10x acceptance floor\n",
                                    level.name.c_str(), speedup);
                        tcp_failed = true;
                    }
                }

                if (tcp_external.empty()) {
                    // Graceful quit: the server must drain and stop
                    // with zero leaked connections.
                    client.roundTrip(verbLine(Verb::Quit, "quit"));
                    inproc.server->waitUntilStopped();
                    const net::TcpServer::Stats ns =
                        inproc.server->stats();
                    if (ns.active != 0) {
                        std::printf("TCP %s: %llu connection(s) "
                                    "leaked after quit\n",
                                    level.name.c_str(),
                                    static_cast<unsigned long long>(
                                        ns.active));
                        tcp_failed = true;
                    }
                }
                client.close();

                tcp_table.addRow(
                    {level.name, std::to_string(level.jobs),
                     fmt(100.0 * level.repeat_frac, 0),
                     fmt(100.0 * out.hit_rate, 0),
                     fmt(out.jobs_per_sec, 1), fmt(speedup, 1),
                     fmt(1e3 * out.rtt.percentile(50), 2),
                     fmt(1e3 * out.rtt.percentile(95), 2),
                     fmt(1e3 * out.rtt.percentile(99), 2)});

                JsonReport lr;
                lr.set("level", level.name)
                    .set("jobs",
                         static_cast<std::uint64_t>(level.jobs))
                    .set("repeat_frac", level.repeat_frac)
                    .set("wall_seconds", out.wall_seconds)
                    .set("jobs_per_sec", out.jobs_per_sec)
                    .set("speedup_vs_baseline", speedup)
                    .set("result_cache_hit_rate", out.hit_rate)
                    .set("result_cache_hits", out.hits)
                    .set("result_cache_misses", out.misses)
                    .set("from_cache_observed", out.from_cache_observed)
                    .set("submitted", out.submitted)
                    .set("rejected", out.rejected)
                    .set("completed", out.completed)
                    .set("degraded", out.degraded)
                    .set("failed", out.failed_jobs)
                    .set("rtt_p50_s", out.rtt.percentile(50))
                    .set("rtt_p95_s", out.rtt.percentile(95))
                    .set("rtt_p99_s", out.rtt.percentile(99));
                if (tcp_external.empty() && inproc.server)
                    lr.set("net", JsonReport::Raw{
                                      inproc.server->stats()
                                          .toJson()
                                          .str()});
                tcp_levels_json += (first ? "" : ",") + lr.str();
                first = false;
            }
            tcp_levels_json += "]";
            tcp_table.print();

            if (!tcp_external.empty()) {
                // One final quit so the external server (CI net-smoke)
                // drains and exits 0.
                net::LineClient closer;
                if (closer.connect(host, port)) {
                    closer.roundTrip(verbLine(Verb::Quit, "quit"));
                    closer.close();
                }
            }

            tcp_report
                .set("baseline_jobs_per_sec", golden.jobs_per_sec)
                .set("baseline_wall_seconds", golden.wall_seconds)
                .set("distinct_queries",
                     static_cast<std::uint64_t>(
                         golden.checksum.size()))
                .set("levels", JsonReport::Raw{tcp_levels_json});
        }
    }

    // --- Rate limiting over TCP (in-process, deterministic burst) ---
    bool rate_failed = false;
    bool rate_ran = false;
    JsonReport rate_report;
    if (tcp_external.empty() || tcp_ran) {
        ServiceConfig cfg = tcpServiceConfig();
        cfg.workers = 2;
        cfg.rate_limit_hz = 5;
        cfg.rate_limit_burst = 3;
        InProcessServer inproc;
        std::string error;
        if (inproc.start(cfg, &error)) {
            rate_ran = true;
            net::LineClient client;
            if (!client.connect("127.0.0.1",
                                inproc.server->port())) {
                std::printf("rate-limit section: connect failed\n");
                rate_failed = true;
            } else {
                const WireJob wj = hotQuerySet()[0];
                std::uint64_t allowed = 0, limited = 0;
                bool retry_hints = true;
                for (int i = 0; i < 10; ++i) {
                    const std::optional<std::string> resp =
                        client.roundTrip(submitLine(
                            wj.spec, "r" + std::to_string(i)));
                    const std::optional<JsonValue> parsed =
                        resp ? parseJson(*resp) : std::nullopt;
                    const JsonValue* type =
                        parsed ? parsed->find("type") : nullptr;
                    if (type && type->isString() &&
                        type->string == "result") {
                        ++allowed;
                        continue;
                    }
                    const JsonValue* err =
                        parsed ? parsed->find("error") : nullptr;
                    const JsonValue* code =
                        err ? err->find("code") : nullptr;
                    const JsonValue* retry =
                        err ? err->find("retry_after_seconds")
                            : nullptr;
                    if (code && code->isString() &&
                        code->string == "rate_limited") {
                        ++limited;
                        if (!retry || !retry->isNumber() ||
                            retry->number <= 0)
                            retry_hints = false;
                    } else {
                        std::printf("rate-limit section: unexpected "
                                    "response %s\n",
                                    resp ? resp->c_str() : "(none)");
                        rate_failed = true;
                    }
                }
                client.roundTrip(verbLine(Verb::Drain, "drain"));
                const WireStats ws = statsOver(client);
                if (allowed == 0 || limited == 0) {
                    std::printf("rate-limit section: burst of 10 gave "
                                "%llu allowed / %llu limited (expected "
                                "both nonzero)\n",
                                static_cast<unsigned long long>(
                                    allowed),
                                static_cast<unsigned long long>(
                                    limited));
                    rate_failed = true;
                }
                if (!retry_hints) {
                    std::printf("rate-limit section: a 429 lacked a "
                                "positive retry_after_seconds\n");
                    rate_failed = true;
                }
                if (!ws.ok || ws.rate_limited != limited ||
                    ws.submitted !=
                        ws.rejected + ws.completed + ws.degraded +
                            ws.failed ||
                    ws.rejected != ws.rate_limited) {
                    std::printf("rate-limit section: accounting "
                                "mismatch (submitted %llu, rejected "
                                "%llu, rate_limited %llu)\n",
                                static_cast<unsigned long long>(
                                    ws.submitted),
                                static_cast<unsigned long long>(
                                    ws.rejected),
                                static_cast<unsigned long long>(
                                    ws.rate_limited));
                    rate_failed = true;
                }
                client.roundTrip(verbLine(Verb::Quit, "quit"));
                inproc.server->waitUntilStopped();
                client.close();
                std::printf("\nrate limit (5 Hz, burst 3): %llu "
                            "allowed, %llu limited with retry hints; "
                            "accounting %s\n",
                            static_cast<unsigned long long>(allowed),
                            static_cast<unsigned long long>(limited),
                            rate_failed ? "BROKEN" : "exact");
                rate_report.set("allowed", allowed)
                    .set("limited", limited)
                    .set("retry_hints", retry_hints)
                    .set("accounting_exact", !rate_failed);
            }
        }
    }

    // --- BENCH_serve.json -------------------------------------------
    std::string levels_json = "[";
    for (std::size_t i = 0; i < level_reports.size(); ++i) {
        if (i)
            levels_json += ",";
        levels_json += level_reports[i].str();
    }
    levels_json += "]";

    JsonReport top;
    // The jobs/s ratios above depend on how many cores the host has.
    top.set("bench", std::string("serve"))
        .set("host_cpus", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()))
        .set("smoke", smoke)
        .set("lost_jobs", lost)
        .set("levels", JsonReport::Raw{levels_json})
        .set("hot_repeat", JsonReport::Raw{hot.str()});
    if (tcp_ran)
        top.set("tcp", JsonReport::Raw{tcp_report.str()})
            .set("tcp_failed", tcp_failed);
    if (rate_ran)
        top.set("rate_limit", JsonReport::Raw{rate_report.str()})
            .set("rate_limit_failed", rate_failed);

    const char* env = std::getenv("GMOMS_BENCH_SERVE_JSON");
    const std::string path = env ? env : "BENCH_serve.json";
    if (writeReportAtomically(path, top))
        std::printf("\nper-level records written to %s\n",
                    path.c_str());
    else
        std::printf("\ncould not write %s\n", path.c_str());

    if (lost)
        std::printf("\nJOBS WERE LOST — the serving layer broke its "
                    "terminal-accounting contract\n");
    if (hot_failed)
        std::printf("\nHOT-REPEAT CONTRACT BROKEN — see above\n");
    if (tcp_failed)
        std::printf("\nTCP RESULT-CACHE CONTRACT BROKEN — see above\n");
    if (rate_failed)
        std::printf("\nRATE-LIMIT CONTRACT BROKEN — see above\n");
    return lost || hot_failed || tcp_failed || rate_failed ? 1 : 0;
}
