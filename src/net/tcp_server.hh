/**
 * @file
 * Epoll TCP front end for the serving layer: a single-threaded
 * nonblocking event loop that speaks newline-delimited protocol lines
 * (src/serve/protocol.hh) over loopback/LAN sockets, so "millions of
 * users" stop meaning "millions of stdin pipes".
 *
 * Shape: one loop thread owns epoll, the listen socket and every
 * connection; simulations never run on it — the handler (protocol
 * handleRequestLine over GraphService) only validates, admits and
 * enqueues, the service's worker pool does the heavy lifting. A drain
 * verb is the deliberate exception: it blocks the loop until the
 * admitted work is done, which is exactly its pipelined-barrier
 * semantics (responses on a connection are answered in request order).
 *
 * Per-connection pipelining: clients may write any number of request
 * lines without reading; the loop slices complete lines out of the
 * read buffer, answers each in arrival order, and flushes through a
 * per-connection write buffer armed on EPOLLOUT when the socket
 * backpressures.
 *
 * Robustness contract:
 *  - connection limit: accepts over max_connections are answered with
 *    one "overloaded" protocol error line and closed (counted, never
 *    silently dropped);
 *  - oversized frames: a line exceeding max_line_bytes kills only that
 *    connection (one misbehaving client cannot balloon server memory):
 *    the loop stops reading it, flushes the responses it already owes
 *    and closes it. A line still arriving counts from the last newline
 *    read, so a flood behind complete lines stops within one 64 KiB
 *    read of the limit, after those lines are answered;
 *  - half-close: a client that shuts down its write half still gets
 *    every response to the lines it sent, then EOF. The loop reads
 *    nothing more from it and waits on EPOLLOUT alone, so a slow
 *    reader costs no CPU while its responses wait;
 *  - graceful shutdown on drain: a quit request (or shutdown()) stops
 *    accepting, finishes writing every pending response, then closes —
 *    stats().active is 0 after stop, the "no leaked connections"
 *    assertion CI's net-smoke job makes.
 *
 * Linux-only by design (epoll); start() fails with a clear error
 * elsewhere. The per-request latency breakdown (net_handle = handler
 * wall time, net_flush = write-buffer residency) feeds the per-layer
 * queue/net/sim picture in stats responses. stats() copies every
 * sample kept so far, so a handler should call it only when it answers
 * a stats request (gmoms_serve does); calling it per request would make
 * net_handle grow with the number of requests already served.
 */

#ifndef GMOMS_NET_TCP_SERVER_HH
#define GMOMS_NET_TCP_SERVER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "src/obs/latency.hh"
#include "src/sim/report.hh"

namespace gmoms::net
{

struct TcpServerConfig
{
    /** Bind address; loopback by default (CI and the bench client). */
    std::string bind_address = "127.0.0.1";
    /** 0 = ephemeral (the bound port is reported by port()). */
    std::uint16_t port = 0;
    /** Concurrent-connection ceiling; accepts beyond it get one
     *  "overloaded" error line and an immediate close. */
    std::size_t max_connections = 256;
    /** Per-line frame cap; a longer request kills its connection. */
    std::size_t max_line_bytes = 1 << 20;
};

/** What the handler tells the loop besides the response line. */
struct HandlerResult
{
    std::string line;  //!< response (no trailing newline)
    /** Close this connection once the response is flushed. */
    bool close_connection = false;
    /** Begin graceful server shutdown (the quit verb): stop
     *  accepting, flush every connection, exit the loop. */
    bool shutdown_server = false;
};

class TcpServer
{
  public:
    using Handler = std::function<HandlerResult(const std::string&)>;

    TcpServer(TcpServerConfig cfg, Handler handler);
    /** Stops and joins (drain = true) if still running. */
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    /** Bind + listen + spawn the loop thread. False (with @p error
     *  filled) on any socket failure or off-Linux. */
    bool start(std::string* error = nullptr);

    /** The bound port (after start()); 0 before. */
    std::uint16_t port() const;

    /**
     * Ask the loop to stop. drain = true finishes writing every
     * pending response first (the graceful path, same as the quit
     * verb); false closes immediately. Idempotent, thread-safe.
     */
    void shutdown(bool drain = true);

    /** Block until the loop thread exited (a quit request from any
     *  client also gets here) and join it. */
    void waitUntilStopped();

    bool running() const;

    struct Stats
    {
        std::uint64_t accepted = 0;
        std::uint64_t rejected_over_limit = 0;
        std::uint64_t active = 0;           //!< open connections now
        std::uint64_t peak_active = 0;
        std::uint64_t requests = 0;         //!< complete lines handled
        std::uint64_t responses = 0;
        std::uint64_t frame_overruns = 0;   //!< connections killed
        std::uint64_t bytes_in = 0;
        std::uint64_t bytes_out = 0;
        LatencyBreakdown latency;  //!< net_handle / net_flush layers

        /** Flat JSON block (the "net" sub-object of stats
         *  responses; schema in docs/MODEL.md). */
        JsonReport toJson() const;
    };

    Stats stats() const;

  private:
    struct Impl;
    Impl* impl_;  //!< pimpl: keeps epoll/socket headers out of users
};

} // namespace gmoms::net

#endif // GMOMS_NET_TCP_SERVER_HH
