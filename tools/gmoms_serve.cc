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
 * Both speak v1 (PR 5 bare JSON-lines, answered bit-compatibly) and v2
 * (`"v":2` + `request_id`, tagged-union responses); see the protocol
 * header for the wire shapes and docs/MODEL.md for the schema.
 *
 * Service flags: --workers N, --paused (batch mode: dispatch only on
 * drain), --queue-depth N, --quota N, --cache-mb N, --no-fallback,
 * --checkpoint-mb N, --no-checkpoints, --result-cache-mb N,
 * --no-result-cache, --rate-hz R --rate-burst B (per-tenant token
 * bucket; 0 = unlimited).
 * Network flags: --listen PORT, --bind ADDR, --max-conns N.
 *
 * Stats responses include the admission/cache/checkpoint/result-cache/
 * rate-limiter block (ServiceStats::toJson) and, in TCP mode, the
 * server's connection counters under "net".
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
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
        "          [--checkpoint-mb N] [--no-checkpoints]\n"
        "          [--result-cache-mb N] [--no-result-cache]\n"
        "          [--rate-hz R] [--rate-burst B]\n"
        "          [--listen PORT] [--bind ADDR] [--max-conns N]\n"
        "JSON-lines serving front end (stdin by default, epoll TCP\n"
        "with --listen); see the file header for the protocol.\n",
        argv0);
    return 2;
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
    ServiceConfig cfg;
    net::TcpServerConfig net_cfg;
    bool tcp = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--workers") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.workers = static_cast<unsigned>(std::atoi(v));
        } else if (arg == "--paused") {
            cfg.start_paused = true;
        } else if (arg == "--queue-depth") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.max_queue_depth =
                static_cast<std::size_t>(std::atoll(v));
        } else if (arg == "--quota") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.per_tenant_quota =
                static_cast<std::size_t>(std::atoll(v));
        } else if (arg == "--cache-mb") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.cache_budget_bytes =
                static_cast<std::uint64_t>(std::atoll(v)) << 20;
        } else if (arg == "--no-fallback") {
            cfg.enable_fallback = false;
        } else if (arg == "--checkpoint-mb") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.checkpoint_budget_bytes =
                static_cast<std::uint64_t>(std::atoll(v)) << 20;
        } else if (arg == "--no-checkpoints") {
            cfg.enable_checkpoints = false;
        } else if (arg == "--result-cache-mb") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.result_cache_budget_bytes =
                static_cast<std::uint64_t>(std::atoll(v)) << 20;
        } else if (arg == "--no-result-cache") {
            cfg.enable_result_cache = false;
        } else if (arg == "--rate-hz") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.rate_limit_hz = std::atof(v);
        } else if (arg == "--rate-burst") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            cfg.rate_limit_burst = std::atof(v);
        } else if (arg == "--listen") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            net_cfg.port = static_cast<std::uint16_t>(std::atoi(v));
            tcp = true;
        } else if (arg == "--bind") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            net_cfg.bind_address = v;
        } else if (arg == "--max-conns") {
            const char* v = next();
            if (!v)
                return usage(argv[0]);
            net_cfg.max_connections =
                static_cast<std::size_t>(std::atoll(v));
        } else {
            return usage(argv[0]);
        }
    }

    GraphService service(cfg);
    return tcp ? runTcp(service, net_cfg) : runStdin(service);
}
