/**
 * @file
 * gmoms_serve: the serving layer as a process. Two front ends over the
 * same protocol (src/serve/protocol.hh):
 *
 *   - stdin mode (default): JSON-lines over stdin/stdout, one request
 *     object per line, one response object per line — shell-scriptable,
 *     zero sockets;
 *   - TCP mode (--listen PORT): the epoll front end (src/net/) on
 *     --bind (loopback by default), any number of pipelining clients,
 *     graceful drain-and-exit on a quit request. The bound port is
 *     printed to stdout as `{"listening":PORT}` so drivers using an
 *     ephemeral port (--listen 0) can find it.
 *
 * Both speak the one wire shape (`"v":2` + `request_id`, tagged-union
 * responses); see the protocol header and docs/MODEL.md for the
 * schema.
 *
 * Service flags: --workers N (0 = GMOMS_JOBS or one per core, at most
 * ThreadPool::kMaxWorkers), --paused (batch mode: dispatch only on
 * drain), --queue-depth N, --quota N, --cache-mb N, --no-fallback,
 * --checkpoint-mb N, --result-cache-mb N, --no-result-cache,
 * --rate-hz R --rate-burst B (per-tenant token bucket; 0 = unlimited).
 * Network flags: --listen PORT, --bind ADDR, --max-conns N.
 *
 * Every numeric value must be one whole decimal token in its field's
 * range (a port at most 65535, MB counts whose bytes fit 64 bits,
 * finite non-negative rates); anything else exits 2 with a message
 * naming the flag before the service starts a thread.
 *
 * Stats responses include the admission/cache/checkpoint/result-cache/
 * rate-limiter block (ServiceStats::toJson) and, in TCP mode, the
 * server's connection counters under "net".
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "src/net/tcp_server.hh"
#include "src/serve/protocol.hh"
#include "src/serve/service.hh"

using namespace gmoms;
using namespace gmoms::serve;

namespace
{

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workers N] [--paused] [--queue-depth N]\n"
        "          [--quota N] [--cache-mb N] [--no-fallback]\n"
        "          [--checkpoint-mb N]\n"
        "          [--result-cache-mb N] [--no-result-cache]\n"
        "          [--rate-hz R] [--rate-burst B]\n"
        "          [--listen PORT] [--bind ADDR] [--max-conns N]\n"
        "JSON-lines serving front end (stdin by default, epoll TCP\n"
        "with --listen); see the file header for the protocol.\n",
        argv0);
    return 2;
}

/** Parse @p text as one whole decimal integer in [0, @p max] into
 *  @p out; false (and @p out untouched) otherwise. */
template <typename T>
bool
readUint(const char* text, std::uint64_t max, T& out)
{
    if (!text)
        return false;
    const char* end = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr == text || ptr != end || v > max)
        return false;
    out = static_cast<T>(v);
    return true;
}

/** A megabyte count as bytes; refuses counts whose bytes overflow. */
bool
readMb(const char* text, std::uint64_t& bytes)
{
    std::uint64_t mb = 0;
    if (!readUint(text, std::numeric_limits<std::uint64_t>::max() >> 20,
                  mb))
        return false;
    bytes = mb << 20;
    return true;
}

/** A finite, non-negative rate or burst size. */
bool
readRate(const char* text, double& out)
{
    if (!text)
        return false;
    const char* end = text + std::strlen(text);
    double v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr == text || ptr != end ||
        !std::isfinite(v) || v < 0)
        return false;
    out = v;
    return true;
}

int
runStdin(GraphService& service)
{
    std::string line;
    bool quit = false;
    while (!quit && std::getline(std::cin, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::cout << handleRequestLine(service, line, quit) << "\n"
                  << std::flush;
    }
    // ~GraphService drains whatever is still in flight.
    return 0;
}

int
runTcp(GraphService& service, const net::TcpServerConfig& net_cfg)
{
    net::TcpServer server(net_cfg, [&](const std::string& line) {
        net::HandlerResult out;
        bool quit = false;
        // Only a stats request snapshots the server's counters (a copy
        // of every latency sample so far); every other line skips it,
        // so its cost does not grow with the requests served before.
        out.line = handleRequestLine(service, line, quit, [&server] {
            return server.stats().toJson();
        });
        out.shutdown_server = quit;
        return out;
    });
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "gmoms_serve: %s\n", error.c_str());
        return 1;
    }
    std::cout << "{\"listening\":" << server.port() << "}\n"
              << std::flush;
    server.waitUntilStopped();
    const net::TcpServer::Stats net = server.stats();
    if (net.active != 0) {
        std::fprintf(stderr,
                     "gmoms_serve: %llu connection(s) leaked at exit\n",
                     static_cast<unsigned long long>(net.active));
        return 1;
    }
    // Drain admitted work before tearing the service down so the exit
    // code reflects a clean quiesce, not an abandoned queue.
    service.drain();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    constexpr std::uint64_t kCount =
        std::numeric_limits<std::size_t>::max();
    ServiceConfig cfg;
    net::TcpServerConfig net_cfg;
    bool tcp = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--paused") {
            cfg.start_paused = true;
            continue;
        }
        if (arg == "--no-fallback") {
            cfg.enable_fallback = false;
            continue;
        }
        if (arg == "--no-result-cache") {
            cfg.enable_result_cache = false;
            continue;
        }
        const char* value = ++i < argc ? argv[i] : nullptr;
        bool ok = false;
        if (arg == "--workers") {
            ok = readUint(value, ThreadPool::kMaxWorkers, cfg.workers);
        } else if (arg == "--queue-depth") {
            ok = readUint(value, kCount, cfg.max_queue_depth);
        } else if (arg == "--quota") {
            ok = readUint(value, kCount, cfg.per_tenant_quota);
        } else if (arg == "--cache-mb") {
            ok = readMb(value, cfg.cache_budget_bytes);
        } else if (arg == "--checkpoint-mb") {
            ok = readMb(value, cfg.checkpoint_budget_bytes);
        } else if (arg == "--result-cache-mb") {
            ok = readMb(value, cfg.result_cache_budget_bytes);
        } else if (arg == "--rate-hz") {
            ok = readRate(value, cfg.rate_limit_hz);
        } else if (arg == "--rate-burst") {
            ok = readRate(value, cfg.rate_limit_burst);
        } else if (arg == "--listen") {
            ok = readUint(value, 65535, net_cfg.port);
            tcp = true;
        } else if (arg == "--bind") {
            ok = value != nullptr;
            if (ok)
                net_cfg.bind_address = value;
        } else if (arg == "--max-conns") {
            ok = readUint(value, kCount, net_cfg.max_connections);
        } else {
            return usage(argv[0]);
        }
        if (!ok) {
            std::fprintf(stderr, "%s: bad value \"%s\" for %s\n", argv[0],
                         value ? value : "", arg.c_str());
            return usage(argv[0]);
        }
    }

    GraphService service(cfg);
    return tcp ? runTcp(service, net_cfg) : runStdin(service);
}
