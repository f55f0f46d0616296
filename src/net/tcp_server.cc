#include "src/net/tcp_server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace gmoms::net
{

JsonReport
TcpServer::Stats::toJson() const
{
    JsonReport r;
    r.set("accepted", accepted)
        .set("rejected_over_limit", rejected_over_limit)
        .set("active", active)
        .set("peak_active", peak_active)
        .set("requests", requests)
        .set("responses", responses)
        .set("frame_overruns", frame_overruns)
        .set("bytes_in", bytes_in)
        .set("bytes_out", bytes_out);
    latency.appendTo(r, "net");
    return r;
}

#ifdef __linux__

namespace
{

/** The one line an over-limit accept receives before close, in the
 *  protocol's error shape: a parseable structured refusal beats a bare
 *  RST. */
std::string
overloadLine(std::size_t limit)
{
    JsonReport err;
    err.set("code", std::string("overloaded"))
        .set("problems",
             JsonReport::Raw{
                 "[\"connection limit " + std::to_string(limit) +
                 " reached, retry later\"]"});
    JsonReport r;
    r.set("v", static_cast<std::uint64_t>(2))
        .set("request_id", std::string())
        .set("op", std::string("connect"))
        .set("type", std::string("error"))
        .set("error", JsonReport::Raw{err.str()});
    return r.str() + "\n";
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

struct TcpServer::Impl
{
    const TcpServerConfig cfg;
    const Handler handler;

    int listen_fd = -1;
    int epoll_fd = -1;
    /** shutdown() writes it from any thread while the loop thread's
     *  teardown() closes it: both hold wake_mu, so a late shutdown
     *  never writes to a closed (or reused) descriptor. */
    std::mutex wake_mu;
    int wake_fd = -1;
    std::uint16_t port = 0;

    std::thread loop_thread;
    std::atomic<bool> running{false};
    std::atomic<bool> stop_drain{false};
    std::atomic<bool> stop_now{false};

    mutable std::mutex stats_mu;
    Stats stats;

    struct Conn
    {
        std::string in;
        /** Bytes of in after its last '\n': the line still arriving. */
        std::size_t unframed = 0;
        std::string out;
        std::size_t out_off = 0;  //!< bytes of out already written
        bool close_after_flush = false;
        bool saw_eof = false;
        double flush_started = -1;  //!< out became nonempty at
    };

    std::map<int, Conn> conns;
    bool accepting = true;
    bool draining = false;
    double drain_deadline = 0;

    Impl(TcpServerConfig c, Handler h)
        : cfg(std::move(c)), handler(std::move(h))
    {
    }

    bool setup(std::string* error);
    void loop();
    void acceptAll();
    void readable(int fd);
    void writable(int fd);
    void flush(int fd, Conn& conn);
    void closeConn(int fd);
    void beginDrain();
    void teardown();
    void updateEpollOut(int fd, const Conn& conn);

    bool
    fail(std::string* error, const std::string& what)
    {
        if (error)
            *error = what + ": " + std::strerror(errno);
        teardown();
        return false;
    }
};

bool
TcpServer::Impl::setup(std::string* error)
{
    listen_fd = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0)
        return fail(error, "socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
        if (error)
            *error = "bad bind address \"" + cfg.bind_address + "\"";
        teardown();
        return false;
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        return fail(error, "bind " + cfg.bind_address + ":" +
                               std::to_string(cfg.port));
    if (::listen(listen_fd, 128) != 0)
        return fail(error, "listen");

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0)
        return fail(error, "getsockname");
    port = ntohs(bound.sin_port);

    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0)
        return fail(error, "eventfd");
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0)
        return fail(error, "epoll_create1");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0)
        return fail(error, "epoll_ctl(listen)");
    ev.data.fd = wake_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0)
        return fail(error, "epoll_ctl(wake)");
    return true;
}

void
TcpServer::Impl::teardown()
{
    for (auto& [fd, conn] : conns)
        ::close(fd);
    conns.clear();
    if (listen_fd >= 0)
        ::close(listen_fd);
    if (epoll_fd >= 0)
        ::close(epoll_fd);
    listen_fd = epoll_fd = -1;
    {
        std::lock_guard<std::mutex> lock(wake_mu);
        if (wake_fd >= 0)
            ::close(wake_fd);
        wake_fd = -1;
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    stats.active = 0;
}

void
TcpServer::Impl::updateEpollOut(int fd, const Conn& conn)
{
    // A connection that saw EOF or overran a frame is read no more: it
    // only waits to flush its responses and close. Level-triggered
    // EPOLLIN would otherwise fire on the EOF forever, or keep pulling
    // a flood into conn.in.
    const bool reading = !conn.saw_eof && !conn.close_after_flush;
    epoll_event ev{};
    ev.events = (reading ? EPOLLIN : 0u) |
                (conn.out_off < conn.out.size() ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void
TcpServer::Impl::acceptAll()
{
    while (accepting) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            break;  // EAGAIN or transient error: wait for next event
        if (conns.size() >= cfg.max_connections) {
            // Structured refusal, best effort: the socket buffer of a
            // fresh connection always holds one small line.
            const std::string line = overloadLine(cfg.max_connections);
            (void)!::send(fd, line.data(), line.size(), MSG_DONTWAIT);
            ::close(fd);
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats.rejected_over_limit;
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conns.emplace(fd, Conn{});
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.accepted;
        stats.active = conns.size();
        stats.peak_active = std::max(stats.peak_active, stats.active);
    }
}

void
TcpServer::Impl::closeConn(int fd)
{
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(fd);
    std::lock_guard<std::mutex> lock(stats_mu);
    stats.active = conns.size();
}

void
TcpServer::Impl::flush(int fd, Conn& conn)
{
    while (conn.out_off < conn.out.size()) {
        const ssize_t n =
            ::send(fd, conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            std::lock_guard<std::mutex> lock(stats_mu);
            stats.bytes_out += static_cast<std::uint64_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        closeConn(fd);  // peer vanished mid-response
        return;
    }
    if (conn.out_off >= conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
        if (conn.flush_started >= 0) {
            std::lock_guard<std::mutex> lock(stats_mu);
            stats.latency.add("net_flush",
                              nowSeconds() - conn.flush_started);
            conn.flush_started = -1;
        }
        if (conn.close_after_flush || conn.saw_eof) {
            closeConn(fd);
            return;
        }
    }
    updateEpollOut(fd, conn);
}

void
TcpServer::Impl::readable(int fd)
{
    const auto it = conns.find(fd);
    if (it == conns.end())
        return;
    Conn& conn = it->second;

    char buf[64 * 1024];
    bool flooded = false;
    while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            const std::size_t got = static_cast<std::size_t>(n);
            conn.in.append(buf, got);
            {
                std::lock_guard<std::mutex> lock(stats_mu);
                stats.bytes_in += static_cast<std::uint64_t>(n);
            }
            // Only this read can end the unframed tail, so only its
            // bytes are scanned.
            const std::size_t nl = std::string_view(buf, got).rfind('\n');
            conn.unframed = nl == std::string_view::npos
                                ? conn.unframed + got
                                : got - nl - 1;
            if (conn.unframed > cfg.max_line_bytes) {
                // Unframed flood: stop reading; answer the lines before
                // it, then kill the connection.
                flooded = true;
                break;
            }
            continue;
        }
        if (n == 0) {
            conn.saw_eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(fd);
        return;
    }

    // Slice complete lines, answer each in arrival order (pipelining).
    std::size_t start = 0;
    while (!conn.close_after_flush) {
        const std::size_t nl = conn.in.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = conn.in.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.size() > cfg.max_line_bytes) {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats.frame_overruns;
            conn.close_after_flush = true;
            break;
        }
        if (line.find_first_not_of(" \t") == std::string::npos)
            continue;  // blank keep-alive line, same as the stdin loop

        const double t0 = nowSeconds();
        HandlerResult h = handler(line);
        {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats.requests;
            ++stats.responses;
            stats.latency.add("net_handle", nowSeconds() - t0);
        }
        if (conn.out.empty())
            conn.flush_started = nowSeconds();
        conn.out += h.line;
        conn.out += '\n';
        if (h.close_connection)
            conn.close_after_flush = true;
        if (h.shutdown_server)
            beginDrain();
    }
    conn.in.erase(0, start);
    if (flooded && !conn.close_after_flush) {
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.frame_overruns;
        conn.close_after_flush = true;
    }

    flush(fd, conn);  // may close; conn/it invalid after this
}

void
TcpServer::Impl::writable(int fd)
{
    const auto it = conns.find(fd);
    if (it != conns.end())
        flush(fd, it->second);
}

void
TcpServer::Impl::beginDrain()
{
    if (draining)
        return;
    draining = true;
    accepting = false;
    drain_deadline = nowSeconds() + 5.0;
    if (listen_fd >= 0)
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
}

void
TcpServer::Impl::loop()
{
    epoll_event events[64];
    while (true) {
        if (stop_now.load(std::memory_order_relaxed))
            break;
        if (stop_drain.load(std::memory_order_relaxed))
            beginDrain();
        if (draining) {
            // Graceful exit: done once every response is on the wire
            // (or the deadline says a client stopped reading).
            bool pending = false;
            for (const auto& [fd, conn] : conns)
                if (conn.out_off < conn.out.size())
                    pending = true;
            if (!pending || nowSeconds() > drain_deadline)
                break;
        }

        const int n = ::epoll_wait(epoll_fd, events, 64,
                                   draining ? 50 : -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listen_fd) {
                acceptAll();
            } else if (fd == wake_fd) {
                std::uint64_t drainv;
                while (::read(wake_fd, &drainv, sizeof(drainv)) > 0) {
                }
            } else {
                if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                    closeConn(fd);
                    continue;
                }
                if (events[i].events & EPOLLIN)
                    readable(fd);
                if (events[i].events & EPOLLOUT)
                    writable(fd);
            }
        }
    }
    teardown();
    running.store(false, std::memory_order_release);
}

TcpServer::TcpServer(TcpServerConfig cfg, Handler handler)
    : impl_(new Impl(std::move(cfg), std::move(handler)))
{
}

TcpServer::~TcpServer()
{
    shutdown(/*drain=*/true);
    waitUntilStopped();
    delete impl_;
}

bool
TcpServer::start(std::string* error)
{
    if (impl_->running.load()) {
        if (error)
            *error = "server already running";
        return false;
    }
    if (!impl_->setup(error))
        return false;
    impl_->running.store(true, std::memory_order_release);
    impl_->loop_thread = std::thread([this] { impl_->loop(); });
    return true;
}

std::uint16_t
TcpServer::port() const
{
    return impl_->port;
}

void
TcpServer::shutdown(bool drain)
{
    if (drain)
        impl_->stop_drain.store(true, std::memory_order_relaxed);
    else
        impl_->stop_now.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(impl_->wake_mu);
    if (impl_->wake_fd >= 0) {
        const std::uint64_t one = 1;
        (void)!::write(impl_->wake_fd, &one, sizeof(one));
    }
}

void
TcpServer::waitUntilStopped()
{
    if (impl_->loop_thread.joinable())
        impl_->loop_thread.join();
}

bool
TcpServer::running() const
{
    return impl_->running.load(std::memory_order_acquire);
}

TcpServer::Stats
TcpServer::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->stats_mu);
    return impl_->stats;
}

#else // !__linux__

struct TcpServer::Impl
{
    TcpServerConfig cfg;
    Handler handler;
    Stats stats;
    Impl(TcpServerConfig c, Handler h)
        : cfg(std::move(c)), handler(std::move(h))
    {
    }
};

TcpServer::TcpServer(TcpServerConfig cfg, Handler handler)
    : impl_(new Impl(std::move(cfg), std::move(handler)))
{
}

TcpServer::~TcpServer()
{
    delete impl_;
}

bool
TcpServer::start(std::string* error)
{
    if (error)
        *error = "the epoll TCP server requires Linux";
    return false;
}

std::uint16_t
TcpServer::port() const
{
    return 0;
}

void
TcpServer::shutdown(bool)
{
}

void
TcpServer::waitUntilStopped()
{
}

bool
TcpServer::running() const
{
    return false;
}

TcpServer::Stats
TcpServer::stats() const
{
    return impl_->stats;
}

#endif // __linux__

} // namespace gmoms::net
