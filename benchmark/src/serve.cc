/**
 * @file
 * Serving workloads: a spawned `gmoms_serve --listen 0` driven over one
 * pipelined v2 TCP connection by a single-threaded load generator
 * (ppoll paces the sends and reads the responses), then checked against
 * in-process re-runs through Session.
 *
 * Why these two:
 *  - serve-cold sends distinct (algo, source) queries, so every submit
 *    misses the result cache, forks a warm checkpoint and simulates:
 *    service time is simulation plus fork plus queueing;
 *  - serve-hot repeats an 8-query hot set primed during set-up, so every
 *    submit is answered from the result cache at submit time: net,
 *    protocol and admission are the whole service time.
 * The two use one cache, for writes on one and reads on the other.
 *
 * Each run has an open-loop phase (Poisson arrivals at a fixed rate,
 * latency timed from each request's due time to when its completion is
 * observed) and a closed-loop phase (K requests outstanding, giving the
 * capacity in jobs/s). Counts are fixed per second of window, so the
 * server does the same work however fast it is.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "benchmark/src/bench.hh"
#include "src/accel/session.hh"
#include "src/graph/datasets.hh"
#include "src/graph/reorder.hh"
#include "src/obs/json_check.hh"
#include "src/serve/job.hh"
#include "src/serve/protocol.hh"

extern char** environ;

namespace gbench
{

using namespace gmoms;
using namespace gmoms::serve;

namespace
{

struct ServeWorkload
{
    const char* name;
    bool hot;
    /** Open-loop Poisson arrival rate and the share of the window it
     *  fills (count = rate x share x window). */
    double open_rate_hz;
    double open_share;
    /** Closed loop: requests outstanding, and jobs per window second. */
    unsigned closed_outstanding;
    double closed_jobs_per_s;
    /** Latency limit on the open-loop p99. */
    double p99_limit_ms;
};

/** serve-cold arrives at about half its closed-loop capacity (~90
 *  jobs/s on 2 workers with 1 ms polling), so a host slowdown of a few
 *  seconds does not build a backlog that swamps the median. */
const ServeWorkload kServeWorkloads[] = {
    {"serve-cold", false, 45, 0.7, 8, 30, 250},
    {"serve-hot", true, 2000, 0.5, 32, 500, 5},
};

constexpr const char* kDataset = "WT";
constexpr Preprocessing kPrep = Preprocessing::DbgHash;
constexpr const char* kPreset = "paper18x16";
constexpr std::uint32_t kIterations = 2;
constexpr unsigned kTenants = 4;
constexpr unsigned kHotSetSize = 8;
/** Every kSampleStride-th job (5%) of serve-cold is re-run in process,
 *  and of serve-hot has its record read back for the checksum. */
constexpr std::size_t kSampleStride = 20;
/** Server worker threads (gmoms_serve --workers). */
constexpr std::size_t kWorkers = 2;
/** serve-cold polls for completions once per round. */
constexpr std::chrono::milliseconds kPollRound{1};
/** The traced pass runs this share of the open-loop count again. */
constexpr double kTracedShare = 0.25;
/** The load generator is late when its p99 send lag exceeds this. */
constexpr double kSendLagLimitMs = 1.0;

/** A deterministic stream: mt19937_64's output is fixed by the
 *  standard, and the draws below use no library distribution. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : gen_(seed) {}
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return gen_() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(gen_() >> 11) * 0x1p-53; }
    /** Exponential gap of a Poisson process at @p rate_hz. */
    double gap(double rate_hz) { return -std::log1p(-unit()) / rate_hz; }

  private:
    std::mt19937_64 gen_;
};

struct Query
{
    std::string algo;
    NodeId source = 0;
    std::string key() const { return algo + ":" + std::to_string(source); }
};

/** Every distinct (algo, source) query on the dataset, in seeded order. */
std::vector<Query>
shuffledQueries(std::uint64_t seed)
{
    const NodeId nodes = datasetByTag(kDataset).nodes();
    std::vector<Query> all;
    for (const char* algo : {"BFS", "SSSP"})
        for (NodeId s = 0; s < nodes; ++s)
            all.push_back({algo, s});
    Rng rng(seed ^ 0x5e7e5e7eull);
    for (std::size_t i = all.size(); i > 1; --i)
        std::swap(all[i - 1], all[rng.below(i)]);
    return all;
}

JobSpec
specFor(const Query& q, unsigned tenant)
{
    JobSpec spec;
    spec.tenant = "tenant-" + std::to_string(tenant);
    spec.dataset = kDataset;
    spec.prep = kPrep;
    spec.algo = q.algo;
    spec.iterations = kIterations;
    spec.source = q.source;
    spec.preset = kPreset;
    return spec;
}

// -- the server process ------------------------------------------------

class ServerProcess
{
  public:
    explicit ServerProcess(const std::string& exe)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        std::vector<std::string> args = {exe,           "--listen",
                                         "0",           "--workers",
                                         std::to_string(kWorkers),
                                         "--queue-depth", "4096",
                                         "--quota",     "0"};
        std::vector<char*> argv;
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        out_fd_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            ::close(out_fd_);
            throw std::runtime_error("cannot start " + exe + ": " +
                                     std::strerror(rc));
        }
        try {
            port_ = readPort();
        } catch (...) {
            stop();  // the destructor does not run for a failed constructor
            throw;
        }
    }

    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    std::uint16_t port() const { return port_; }

    /** Reap the server (killing it after @p timeout_s); its exit code,
     *  or -1 when it had to be killed. Fills its peak RSS in MiB. */
    int
    wait(double timeout_s, double* peak_rss_mb)
    {
        int status = 0;
        rusage ru{};
        const Clock::time_point t0 = Clock::now();
        pid_t r = 0;
        while ((r = ::wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
               since(t0) < timeout_s)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (r != pid_) {
            stop();
            return -1;
        }
        pid_ = -1;
        if (peak_rss_mb)
            *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    /** The server prints {"listening":PORT} once bound. */
    std::uint16_t
    readPort()
    {
        std::string line;
        const Clock::time_point t0 = Clock::now();
        while (line.find('\n') == std::string::npos) {
            pollfd p{out_fd_, POLLIN, 0};
            if (since(t0) > 30 || ::poll(&p, 1, 1000) < 0)
                throw std::runtime_error("server did not start");
            char buf[256];
            const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
            if (n == 0)
                throw std::runtime_error("server exited at start");
            if (n > 0)
                line.append(buf, static_cast<std::size_t>(n));
        }
        const std::optional<JsonValue> v =
            parseJson(line.substr(0, line.find('\n')));
        const JsonValue* port = v ? v->find("listening") : nullptr;
        if (!port || !port->isNumber())
            throw std::runtime_error("unexpected server banner: " + line);
        return static_cast<std::uint16_t>(port->number);
    }

    /** Kill and reap the server if it still runs. */
    void
    stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        if (out_fd_ >= 0) {
            ::close(out_fd_);
            out_fd_ = -1;
        }
    }

    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::uint16_t port_ = 0;
};

// -- the connection ------------------------------------------------------

struct Line
{
    std::string text;
    Clock::time_point at;
};

/** One pipelined connection: whole-line sends, and receives that wait
 *  no longer than a deadline so one thread can also pace the sends. */
class Wire
{
  public:
    explicit Wire(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) != 0) {
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("cannot connect to the server");
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~Wire() { ::close(fd_); }

    Wire(const Wire&) = delete;
    Wire& operator=(const Wire&) = delete;

    void
    send(const std::string& line)
    {
        const std::string framed = line + '\n';
        std::size_t off = 0;
        while (off < framed.size()) {
            const ssize_t n = ::send(fd_, framed.data() + off,
                                     framed.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("connection lost while sending");
            off += static_cast<std::size_t>(n);
        }
    }

    /** Wait until data arrives or @p deadline passes, then append every
     *  complete line received so far to @p out. */
    void
    receive(Clock::time_point deadline, std::vector<Line>& out)
    {
        if (closed_)
            throw std::runtime_error("server closed the connection");
        const auto left = deadline - Clock::now();
        const std::int64_t ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                   .count());
        timespec ts{static_cast<time_t>(ns / 1000000000),
                    static_cast<long>(ns % 1000000000)};
        pollfd p{fd_, POLLIN, 0};
        if (::ppoll(&p, 1, &ts, nullptr) <= 0)
            return;
        char buf[64 * 1024];
        while (true) {
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
            if (n > 0) {
                in_.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                // The server closes after answering quit: keep what it
                // sent; the next receive reports the close.
                closed_ = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            throw std::runtime_error("connection lost while receiving");
        }
        const Clock::time_point at = Clock::now();
        std::size_t start = 0;
        for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
             start = nl + 1)
            out.push_back({in_.substr(start, nl - start), at});
        in_.erase(0, start);
    }

  private:
    int fd_ = -1;
    std::string in_;
    bool closed_ = false;
};

// -- the load generator --------------------------------------------------

struct Job
{
    Query query;
    unsigned tenant = 0;
    Clock::time_point due, sent, done;
    JobId id = kInvalidJob;
    bool terminal = false;
    bool failed = false;
    bool poll_in_flight = false;
    Clock::time_point poll_sent;
    bool from_cache = false;
    /** A terminal poll record was read (checksum and gteps are set). */
    bool has_record = false;
    double server_total_s = 0;
    std::uint64_t checksum = 0;
    double gteps = 0;
    double encode_us = 0;
};

/** Member @p key of a response object; a response without it is a
 *  protocol error. */
const JsonValue&
field(const JsonValue& obj, const char* key)
{
    const JsonValue* v = obj.find(key);
    if (!v)
        throw std::runtime_error(std::string("response lacks \"") + key +
                                 "\"");
    return *v;
}

/** What one stats verb returned: the service block and the net block. */
struct StatsSnapshot
{
    JsonValue stats;
    JsonValue net;

    double
    get(const char* key) const
    {
        const JsonValue* v = stats.find(key);
        if (!v)
            v = net.find(key);
        return v && v->isNumber() ? v->number : 0.0;
    }
};

class LoadGen
{
  public:
    LoadGen(Wire& wire, Result& res, SpanRecorder& spans)
        : wire_(wire), res_(res), spans_(spans)
    {
    }

    std::vector<Job> jobs;
    std::vector<double> send_lag_ms, submit_rtt_ms, decode_us;
    std::uint64_t polls = 0;

    /** Send jobs [first, last) open-loop at their due times (closed =
     *  false) or keeping @p outstanding in flight (closed = true), and
     *  wait for all of them. */
    void
    run(std::size_t first, std::size_t last, bool closed,
        unsigned outstanding, bool poll_for_completion, double limit_s)
    {
        const Clock::time_point t0 = Clock::now();
        std::size_t next = first;
        std::size_t done = 0;
        std::size_t in_flight = 0;
        std::vector<std::size_t> live;  // acked, not yet terminal
        Clock::time_point next_round = t0;
        std::vector<Line> lines;
        while (done < last - first) {
            const Clock::time_point now = Clock::now();
            if (seconds(t0, now) > limit_s) {
                res_.fail("phase did not finish within " +
                          std::to_string(limit_s) + " s");
                throw std::runtime_error("load phase timed out");
            }
            while (next < last &&
                   (closed ? in_flight < outstanding : jobs[next].due <= now)) {
                if (closed)
                    jobs[next].due = Clock::now();
                submit(next++);
                ++in_flight;
            }
            if (poll_for_completion && now >= next_round) {
                // The server dispatches in admission order (tenants are
                // balanced), so only the oldest kWorkers live jobs can
                // be running; later ones are polled once they move up.
                for (std::size_t k = 0; k < live.size() && k < kWorkers; ++k)
                    if (!jobs[live[k]].poll_in_flight)
                        poll(live[k]);
                next_round = std::max(next_round + kPollRound, now);
            }
            Clock::time_point deadline = now + std::chrono::seconds(1);
            if (!closed && next < last)
                deadline = std::min(deadline, jobs[next].due);
            if (poll_for_completion)
                deadline = std::min(deadline, next_round);
            lines.clear();
            wire_.receive(deadline, lines);
            for (const Line& l : lines) {
                const std::optional<std::size_t> finished =
                    handle(l, poll_for_completion, live);
                if (finished) {
                    ++done;
                    --in_flight;
                }
            }
            std::erase_if(live, [&](std::size_t i) {
                return jobs[i].terminal;
            });
        }
    }

    /** One synchronous verb outside the load phases (stats, quit). */
    JsonValue
    call(Verb verb)
    {
        Request req;
        req.v = kProtocolV2;
        req.verb = verb;
        req.request_id = "x" + std::to_string(verb_seq_++);
        const Clock::time_point t0 = Clock::now();
        wire_.send(encodeRequestLine(req));
        std::vector<Line> lines;
        while (lines.empty()) {
            if (since(t0) > 30)
                throw std::runtime_error("no answer to a verb");
            wire_.receive(Clock::now() + std::chrono::seconds(1), lines);
        }
        spans_.span(verbName(verb), "verb", t0, lines.front().at);
        std::optional<JsonValue> v = parseJson(lines.front().text);
        if (!v || !v->find("type"))
            throw std::runtime_error("bad verb response");
        return *v;
    }

    StatsSnapshot
    stats()
    {
        const JsonValue v = call(Verb::Stats);
        const JsonValue* result = v.find("result");
        StatsSnapshot s;
        if (result && result->find("stats"))
            s.stats = *result->find("stats");
        if (result && result->find("net"))
            s.net = *result->find("net");
        return s;
    }

    /** Poll each job of @p which once, pipelined, to read its checksum
     *  (cache hits are answered at submit time without one). A job
     *  that is not terminal yet stays so and fails the run. */
    void
    fetchRecords(const std::vector<std::size_t>& which)
    {
        std::size_t next = 0, done = 0;
        std::size_t in_flight = 0;
        std::vector<Line> lines;
        std::vector<std::size_t> unused;
        const Clock::time_point t0 = Clock::now();
        fetching_ = true;
        while (done < which.size()) {
            while (next < which.size() && in_flight < 256) {
                jobs[which[next]].terminal = false;
                poll(which[next++]);
                ++in_flight;
            }
            if (since(t0) > 60)
                throw std::runtime_error("record fetch timed out");
            lines.clear();
            wire_.receive(Clock::now() + std::chrono::seconds(1), lines);
            for (const Line& l : lines)
                if (handle(l, true, unused)) {
                    ++done;
                    --in_flight;
                }
        }
        fetching_ = false;
    }

  private:
    void
    submit(std::size_t i)
    {
        Job& j = jobs[i];
        Request req;
        req.v = kProtocolV2;
        req.verb = Verb::Submit;
        req.request_id = "s" + std::to_string(i);
        req.spec = specFor(j.query, j.tenant);
        const Clock::time_point e0 = Clock::now();
        const std::string line = encodeRequestLine(req);
        const Clock::time_point e1 = Clock::now();
        wire_.send(line);
        j.sent = Clock::now();
        j.encode_us = seconds(e0, e1) * 1e6;
        send_lag_ms.push_back(seconds(j.due, e0) * 1e3);
        spans_.async("encode", "client", i, e0, e1);
    }

    void
    poll(std::size_t i)
    {
        Job& j = jobs[i];
        Request req;
        req.v = kProtocolV2;
        req.verb = Verb::Poll;
        req.request_id = "p" + std::to_string(i);
        req.poll_id = j.id;
        wire_.send(encodeRequestLine(req));
        j.poll_in_flight = true;
        j.poll_sent = Clock::now();
        ++polls;
    }

    /** Handle one response line; the job index when it made the job
     *  terminal. */
    std::optional<std::size_t>
    handle(const Line& l, bool poll_for_completion,
           std::vector<std::size_t>& live)
    {
        const Clock::time_point d0 = Clock::now();
        const std::optional<JsonValue> v = parseJson(l.text);
        const JsonValue* rid = v ? v->find("request_id") : nullptr;
        const JsonValue* type = v ? v->find("type") : nullptr;
        if (!rid || !rid->isString() || rid->string.size() < 2 || !type)
            throw std::runtime_error("unparseable response: " + l.text);
        std::size_t i = 0;
        const std::string& id = rid->string;
        std::from_chars(id.data() + 1, id.data() + id.size(), i);
        if (i >= jobs.size())
            throw std::runtime_error("response for an unknown request");
        Job& j = jobs[i];
        const JsonValue* result = v->find("result");
        const bool ok = type->string == "result" && result;
        std::optional<std::size_t> finished;

        if (id[0] == 's') {
            submit_rtt_ms.push_back(seconds(j.sent, l.at) * 1e3);
            spans_.async("submit", "client", i, j.sent, l.at);
            if (!ok) {
                res_.fail("submit " + j.query.key() + " refused: " + l.text);
                j.failed = j.terminal = true;
                j.done = l.at;
                finished = i;
            } else {
                j.id = field(*result, "id").asUint64();
                const JsonValue* fc = result->find("from_cache");
                j.from_cache = fc && fc->boolean;
                if (j.from_cache || !poll_for_completion) {
                    j.terminal = true;
                    j.done = l.at;
                    finished = i;
                } else {
                    live.push_back(i);
                }
            }
        } else if (id[0] == 'p') {
            j.poll_in_flight = false;
            spans_.async("poll", "client", i, j.poll_sent, l.at);
            const JsonValue* rec = ok ? result->find("job") : nullptr;
            if (!rec)
                throw std::runtime_error("bad poll response: " + l.text);
            const JsonValue* terminal = rec->find("terminal");
            if (terminal && terminal->boolean) {
                const std::string& state = field(*rec, "state").string;
                if (state != "completed") {
                    res_.fail("job " + j.query.key() + " ended " + state);
                    j.failed = true;
                }
                j.checksum = field(*rec, "values_checksum").asUint64();
                j.gteps = field(*rec, "gteps").number;
                j.server_total_s = field(*rec, "total_seconds").number;
                j.from_cache = field(*rec, "from_cache").boolean;
                j.has_record = true;
                j.terminal = true;
                if (j.done == Clock::time_point{})
                    j.done = l.at;
                finished = i;
            } else if (fetching_) {
                finished = i;
            }
        }
        decode_us.push_back(since(d0) * 1e6);
        if (finished)
            spans_.async("request " + id.substr(1), "request", i, j.due,
                         j.done,
                         "{\"key\":\"" + j.query.key() + "\"}");
        return finished;
    }

    Wire& wire_;
    Result& res_;
    SpanRecorder& spans_;
    std::uint64_t verb_seq_ = 0;
    bool fetching_ = false;
};

/** Set jobs [first, last) due on a Poisson schedule starting now. */
void
schedule(std::vector<Job>& jobs, std::size_t first, std::size_t last,
         double rate_hz, Rng& rng)
{
    Clock::time_point t = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = first; i < last; ++i) {
        t += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(rng.gap(rate_hz)));
        jobs[i].due = t;
    }
}

double
ms(double s)
{
    return s * 1e3;
}

/** A seeded systematic sample of [first, last): every @p stride-th
 *  index from a seeded offset (at least one index). */
std::vector<std::size_t>
sample(std::size_t first, std::size_t last, std::uint64_t seed,
       std::size_t stride = kSampleStride)
{
    std::vector<std::size_t> out;
    for (std::size_t i = first + Rng(seed).below(stride); i < last;
         i += stride)
        out.push_back(i);
    if (out.empty() && first < last)
        out.push_back(first);
    return out;
}

/** A spawned server with its connection and load generator. */
struct Live
{
    std::unique_ptr<ServerProcess> server;
    std::unique_ptr<Wire> wire;
    std::unique_ptr<LoadGen> gen;
};

/** Spawn a server, connect, and serve the primes [0, n_prime) of
 *  @p table to completion; the set-up seconds. */
double
startServer(Live& live, const std::string& exe, const std::vector<Job>& table,
            std::size_t n_prime, Result& res, SpanRecorder& request_spans,
            SpanRecorder& setup_spans)
{
    const Clock::time_point t0 = Clock::now();
    live.server = std::make_unique<ServerProcess>(exe);
    const Clock::time_point t1 = Clock::now();
    live.wire = std::make_unique<Wire>(live.server->port());
    live.gen = std::make_unique<LoadGen>(*live.wire, res, request_spans);
    live.gen->jobs = table;
    for (std::size_t i = 0; i < n_prime; ++i)
        live.gen->jobs[i].due = Clock::now();
    live.gen->run(0, n_prime, /*closed=*/true,
                  static_cast<unsigned>(n_prime), /*poll=*/true, 120);
    const Clock::time_point t2 = Clock::now();
    setup_spans.span("setup", "setup", t0, t2);
    setup_spans.span("spawn to listening", "setup", t0, t1, 1);
    setup_spans.span("connect + prime", "setup", t1, t2, 1);
    return seconds(t0, t2);
}

/** Quit the server and reap it: its exit code (0 once it drained). */
int
stopServer(Live& live, double* peak_rss_mb)
{
    live.gen->call(Verb::Quit);
    live.gen.reset();
    live.wire.reset();
    return live.server->wait(30, peak_rss_mb);
}

} // namespace

bool
isServeWorkload(const std::string& name)
{
    for (const ServeWorkload& w : kServeWorkloads)
        if (name == w.name)
            return true;
    return false;
}

Result
runServe(const Options& opt)
{
    const ServeWorkload* wp = nullptr;
    for (const ServeWorkload& w : kServeWorkloads)
        if (opt.workload == w.name)
            wp = &w;
    const ServeWorkload& w = *wp;
    Result res;
    res.latency_limit_ms = w.p99_limit_ms;
    Metrics& m = res.metrics;
    SpanRecorder spans(opt.trace);
    Rng rng(opt.seed);

    // Job table: primes first (served during set-up), then the open
    // loop, the closed loop and the traced pass. serve-cold draws every
    // job from distinct queries; serve-hot draws from its hot set, which
    // is the same popular set on every seed (the seed picks which hot
    // query each request asks, its tenant and its arrival).
    const std::vector<Query> queries = shuffledQueries(w.hot ? 0 : opt.seed);
    const std::size_t n_open = opt.smoke ? (w.hot ? 200 : 10)
                                         : static_cast<std::size_t>(std::lround(
                                               w.open_rate_hz *
                                               w.open_share * opt.seconds));
    const std::size_t n_closed =
        opt.smoke ? (w.hot ? 500 : 10)
                  : static_cast<std::size_t>(
                        std::lround(w.closed_jobs_per_s * opt.seconds));
    const std::size_t n_traced =
        opt.trace ? std::max<std::size_t>(
                        1, static_cast<std::size_t>(kTracedShare * n_open))
                  : 0;
    // serve-cold primes one BFS and one SSSP query, so the checkpoint
    // holds warm plain and weighted views before the window opens.
    std::vector<Job> table;
    const auto add = [&](const Query& query) {
        Job j;
        j.query = query;
        j.tenant = static_cast<unsigned>(table.size() % kTenants);
        table.push_back(std::move(j));
    };
    std::vector<Query> rest;
    for (const Query& query : queries) {
        const bool prime =
            w.hot ? table.size() < kHotSetSize
                  : (table.empty() ||
                     (table.size() == 1 && query.algo != table[0].query.algo));
        if (prime)
            add(query);
        else
            rest.push_back(query);
    }
    const std::size_t n_prime = table.size();
    for (std::size_t i = 0; i < n_open + n_closed + n_traced; ++i)
        add(w.hot ? Query(table[rng.below(n_prime)].query) : rest.at(i));
    const std::size_t open_begin = n_prime;
    const std::size_t closed_begin = open_begin + n_open;
    const std::size_t traced_begin = closed_begin + n_closed;

    // Set-up, repeated: spawn, wait for `listening`, connect, prime.
    // The last server is the one measured; its window records no spans.
    SpanRecorder untraced(false);
    Live live;
    std::vector<double> setup_s;
    const int setups = opt.smoke ? 1 : kSetups;
    for (int s = 0; s < setups; ++s) {
        if (live.gen && stopServer(live, nullptr) != 0)
            res.fail("set-up server did not exit cleanly");
        setup_s.push_back(startServer(live, opt.server, table, n_prime, res,
                                      untraced, spans));
    }
    LoadGen& g = *live.gen;
    // Per distinct query: its checksum (must never change) and the
    // simulated GTEPS its run reported.
    std::unordered_map<std::string, std::uint64_t> checksum_by_key;
    std::unordered_map<std::string, double> gteps_by_key;
    for (std::size_t i = 0; i < n_prime; ++i) {
        checksum_by_key[g.jobs[i].query.key()] = g.jobs[i].checksum;
        gteps_by_key[g.jobs[i].query.key()] = g.jobs[i].gteps;
    }
    g.send_lag_ms.clear();
    g.submit_rtt_ms.clear();
    g.decode_us.clear();
    g.polls = 0;

    const StatsSnapshot s0 = g.stats();
    const bool poll = !w.hot;
    const double open_limit_s =
        3 * static_cast<double>(n_open) / w.open_rate_hz + 30;
    schedule(g.jobs, open_begin, closed_begin, w.open_rate_hz, rng);
    g.run(open_begin, closed_begin, false, 0, poll, open_limit_s);
    const std::vector<double> open_lag_ms = g.send_lag_ms;
    g.run(closed_begin, traced_begin, true, w.closed_outstanding, poll, 120);
    const StatsSnapshot s1 = g.stats();
    const std::uint64_t window_polls = g.polls;

    // serve-hot answers at submit time without a checksum: read a seeded
    // sample of the records back.
    if (w.hot)
        g.fetchRecords(sample(open_begin, traced_begin, opt.seed));

    // Stats deltas must balance and match what was sent.
    const StatsSnapshot s2 = g.stats();
    const auto delta = [&](const char* k) { return s2.get(k) - s0.get(k); };
    const double sent = static_cast<double>(traced_begin - open_begin);
    if (delta("submitted") != sent)
        res.fail("server counted " + std::to_string(delta("submitted")) +
                 " submits, client sent " + std::to_string(sent));
    if (s2.get("submitted") != s2.get("rejected") + s2.get("completed") +
                                   s2.get("degraded") + s2.get("failed"))
        res.fail("submitted != rejected + completed + degraded + failed");
    if (w.hot && delta("result_cache_hits") != delta("submitted"))
        res.fail("result-cache hit delta != submitted delta");
    if (!w.hot && delta("result_cache_hits") != 0)
        res.fail("serve-cold hit the result cache");
    if (s2.get("active") != 1)
        res.fail("server holds " + std::to_string(s2.get("active")) +
                 " connections, expected 1");

    // Shut down: the server must drain and exit 0.
    std::vector<Job> jobs = std::move(g.jobs);
    const std::vector<double> submit_rtt_ms = std::move(g.submit_rtt_ms);
    const std::vector<double> decode_us = std::move(g.decode_us);
    double server_rss_mb = 0;
    const int code = stopServer(live, &server_rss_mb);
    if (code != 0)
        res.fail("server exited with code " + std::to_string(code));

    std::vector<double> latency_ms, wire_overhead_ms;
    for (std::size_t i = open_begin; i < closed_begin; ++i) {
        latency_ms.push_back(ms(seconds(jobs[i].due, jobs[i].done)));
        if (!w.hot)
            wire_overhead_ms.push_back(
                ms(seconds(jobs[i].sent, jobs[i].done) -
                   jobs[i].server_total_s));
    }
    // Closed-loop capacity: from the first send to the last completion.
    Clock::time_point last_done = jobs[closed_begin].sent;
    for (std::size_t i = closed_begin; i < traced_begin; ++i)
        last_done = std::max(last_done, jobs[i].done);
    const double capacity = static_cast<double>(n_closed) /
                            seconds(jobs[closed_begin].sent, last_done);

    // The traced pass: a fresh server, the first quarter of the open
    // loop again with every request's client spans and the stats verb
    // before and after. Its overhead is taken against the same prefix of
    // the untraced open loop, so the server has served as many requests.
    double trace_overhead = 0;
    if (opt.trace) {
        SpanRecorder traced(true);
        Live t;
        startServer(t, opt.server, table, n_prime, res, traced, spans);
        const StatsSnapshot t0 = t.gen->stats();
        schedule(t.gen->jobs, traced_begin, table.size(), w.open_rate_hz,
                 rng);
        t.gen->run(traced_begin, table.size(), false, 0, poll, open_limit_s);
        const StatsSnapshot t1 = t.gen->stats();
        if (t1.get("submitted") - t0.get("submitted") !=
            static_cast<double>(n_traced))
            res.fail("traced pass: submits miscounted");
        std::vector<double> traced_ms, prefix_ms;
        for (std::size_t i = traced_begin; i < table.size(); ++i) {
            jobs[i] = t.gen->jobs[i];
            traced_ms.push_back(ms(seconds(jobs[i].due, jobs[i].done)));
            prefix_ms.push_back(latency_ms[i - traced_begin]);
        }
        if (stopServer(t, nullptr) != 0)
            res.fail("traced-pass server did not exit cleanly");
        trace_overhead = median(traced_ms) / median(prefix_ms) - 1;
        res.trace_json = chromeDocument(
            spans.events().empty() ? traced.events()
                                   : spans.events() + ",\n" + traced.events());
    }

    // Correctness: one checksum per query key, every job completed with
    // the expected cache behaviour.
    std::uint64_t failed = 0;
    for (std::size_t i = open_begin; i < jobs.size(); ++i) {
        Job& j = jobs[i];
        ++res.attempted;
        bool bad = j.failed || !j.terminal;
        if (j.from_cache != w.hot) {
            bad = true;
            res.fail("job " + j.query.key() +
                     (w.hot ? " missed" : " hit") + " the result cache");
        }
        if (j.has_record) {
            auto [it, inserted] =
                checksum_by_key.try_emplace(j.query.key(), j.checksum);
            if (!inserted && it->second != j.checksum) {
                bad = true;
                res.fail("checksum of " + j.query.key() + " changed");
            }
            gteps_by_key[j.query.key()] = j.gteps;
        }
        if (bad)
            ++failed;
    }

    // In-process re-runs through Session: the hot set, or a seeded
    // sample of serve-cold's jobs. Their checksums must match the
    // server's, and they time the simulation layers.
    const std::vector<std::size_t> rerun =
        w.hot ? sample(0, n_prime, opt.seed, 1)
              : sample(open_begin, traced_begin, opt.seed);
    {
        const Clock::time_point t0 = Clock::now();
        CooGraph raw = buildDataset(datasetByTag(kDataset));
        const Clock::time_point t1 = Clock::now();
        const std::uint32_t nd =
            defaultIntervalsFor(raw.numNodes(), raw.numEdges()).first;
        auto graph = std::make_shared<const CooGraph>(
            applyPreprocessing(raw, kPrep, nd));
        const Clock::time_point t2 = Clock::now();
        AccelConfig cfg = validateJobSpec(specFor(jobs[0].query, 0)).config;
        cfg.packed_edges = packedCsr(kPrep);
        Session session(graph, cfg);
        session.partition();
        const Clock::time_point t3 = Clock::now();
        m.set("graph.generate_s", seconds(t0, t1), "s");
        m.set("graph.preprocess_s", seconds(t1, t2), "s");
        m.set("accel.partition_s", seconds(t2, t3), "s");
        SimCounters counters;
        for (std::size_t i : rerun) {
            const Job& j = jobs[i];
            const Clock::time_point r0 = Clock::now();
            const SessionResult sr =
                j.query.algo == "BFS"
                    ? session.bfs(j.query.source, kIterations)
                    : session.sssp(j.query.source, kIterations);
            const double outer = since(r0);
            counters.add(sr.run, sr.engine, outer - sr.wall_seconds,
                         sr.wall_seconds);
            ++res.attempted;
            if (valuesChecksum(sr.run.raw_values) != j.checksum) {
                res.fail("in-process re-run of " + j.query.key() +
                         " differs from the server's checksum");
                ++failed;
            }
        }
        counters.emit(m);
        res.notes.push_back(std::to_string(rerun.size()) +
                            " jobs re-run in process");
    }
    res.failed = failed;

    const double p99 = percentile(latency_ms, 99);
    res.latency_limit_met = p99 <= w.p99_limit_ms && failed == 0;
    const double lag_p99 = percentile(open_lag_ms, 99);
    if (lag_p99 > kSendLagLimitMs) {
        res.valid = false;
        res.notes.push_back("invalid run: the load generator's p99 send "
                            "lag was " + std::to_string(lag_p99) + " ms");
    }
    res.notes.push_back(std::to_string(n_open) + " open-loop requests at " +
                        std::to_string(w.open_rate_hz) + "/s, " +
                        std::to_string(n_closed) + " closed-loop with " +
                        std::to_string(w.closed_outstanding) +
                        " outstanding");

    // End to end.
    std::vector<double> gteps;
    for (const auto& [key, value] : gteps_by_key)
        gteps.push_back(value);
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", server_rss_mb, "MiB");
    m.set("job_p50_ms", median(latency_ms), "ms");
    m.set("jobs_per_s", capacity, "1/s");
    m.set("sim_gteps", median(gteps), "GTEPS");

    // Per layer: server-side distributions are cumulative over the
    // server's life; counters are deltas over the measured window.
    const auto d01 = [&](const char* k) { return s1.get(k) - s0.get(k); };
    m.set("client.latency_ms.p99", p99, "ms");
    m.set("net.handle_ms.p50", ms(s1.get("net_net_handle_p50_s")), "ms");
    m.set("net.handle_ms.p99", ms(s1.get("net_net_handle_p99_s")), "ms");
    m.set("net.flush_ms.p50", ms(s1.get("net_net_flush_p50_s")), "ms");
    m.set("net.flush_ms.p99", ms(s1.get("net_net_flush_p99_s")), "ms");
    m.set("net.bytes_per_request",
          (d01("bytes_in") + d01("bytes_out")) / std::max(1.0, d01("requests")),
          "B");
    m.set("client.submit_rtt_ms.p50", median(submit_rtt_ms), "ms");
    m.set("client.submit_rtt_ms.p99", percentile(submit_rtt_ms, 99), "ms");
    m.set("client.wire_overhead_ms.p50", median(wire_overhead_ms), "ms");
    m.set("client.polls_per_job",
          static_cast<double>(window_polls) /
              static_cast<double>(n_open + n_closed),
          "count");
    m.set("client.send_lag_ms.p99", lag_p99, "ms");
    std::vector<double> encode_us;
    for (std::size_t i = open_begin; i < traced_begin; ++i)
        encode_us.push_back(jobs[i].encode_us);
    m.set("client.encode_us.p50", median(encode_us), "us");
    m.set("client.decode_us.p50", median(decode_us), "us");
    m.set("serve.result_cache.hit_rate",
          d01("result_cache_hits") / std::max(1.0, d01("submitted")),
          "ratio");
    m.set("serve.result_cache.insertions", d01("result_cache_insertions"),
          "count");
    m.set("serve.sim_ms.p50", ms(s1.get("sim_p50_s")), "ms");
    m.set("serve.sim_ms.p99", ms(s1.get("sim_p99_s")), "ms");
    m.set("serve.prep_ms.p50", ms(s1.get("prep_p50_s")), "ms");
    m.set("serve.queue_ms.p50", ms(s1.get("queue_wait_p50_s")), "ms");
    m.set("serve.queue_ms.p99", ms(s1.get("queue_wait_p99_s")), "ms");
    m.set("serve.total_ms.p50", ms(s1.get("total_p50_s")), "ms");
    m.set("serve.total_ms.p99", ms(s1.get("total_p99_s")), "ms");
    m.set("serve.checkpoint.hits", d01("checkpoint_hits"), "count");
    m.set("serve.checkpoint.forks", d01("checkpoint_forks"), "count");
    m.set("serve.checkpoint.memo_hits", d01("memo_hits"), "count");
    m.set("serve.dataset_cache.misses", s1.get("cache_misses"), "count");
    m.set("serve.rejected", d01("rejected"), "count");
    m.set("serve.degraded", d01("degraded"), "count");
    m.set("serve.failed", d01("failed"), "count");
    if (opt.trace)
        m.set("trace.overhead_frac", trace_overhead, "ratio");
    zeroUnsetPerLayer(m, res);
    return res;
}

} // namespace gbench
