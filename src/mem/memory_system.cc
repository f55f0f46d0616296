#include "src/mem/memory_system.hh"

#include <algorithm>

#include "src/sim/log.hh"

namespace gmoms
{

MemorySystem::MemorySystem(Engine& engine, const MemSubstrateConfig& cfg,
                           std::uint32_t num_ports,
                           const std::string& name_prefix)
    : cfg_(cfg)
{
    if (cfg_.channels == 0)
        fatal("MemorySystem needs at least one channel");
    if (cfg_.interleave_bytes < kLineBytes ||
        cfg_.interleave_bytes > kInterleaveBytes ||
        !isPow2(cfg_.interleave_bytes))
        fatal("MemorySystem interleave must be a power of two in [" +
              std::to_string(kLineBytes) + ", " +
              std::to_string(kInterleaveBytes) + "] bytes; got " +
              std::to_string(cfg_.interleave_bytes));
    channels_.reserve(cfg_.channels);
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        channels_.push_back(std::make_unique<MemChannel>(
            engine, name_prefix + cfg_.channelName(c), cfg_.kind,
            cfg_.timing, num_ports));
        engine.add(channels_.back().get());
    }
    // Each response flag lives in its requester's row: channels (the
    // producers) set bytes of many rows, a port reads only its own.
    const std::size_t row = occupancyRowBytes(cfg_.channels);
    resp_occupancy_.assign(num_ports * row, 0);
    resp_queues_.reserve(std::size_t{num_ports} * cfg_.channels);
    for (std::uint32_t p = 0; p < num_ports; ++p)
        for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
            TimedQueue<MemResp>& q = channels_[c]->respPort(p);
            q.bindOccupancy(&resp_occupancy_[p * row + c]);
            resp_queues_.push_back(&q);
        }
}

MemorySystem::MemorySystem(Engine& engine, const DramConfig& cfg,
                           std::uint32_t num_channels,
                           std::uint32_t num_ports,
                           const std::string& name_prefix)
    : MemorySystem(engine,
                   [&] {
                       MemSubstrateConfig s =
                           MemSubstrateConfig::ddr4(num_channels);
                       s.timing = cfg;
                       return s;
                   }(),
                   num_ports, name_prefix)
{
}

std::uint64_t
MemorySystem::totalBytesRead() const
{
    std::uint64_t total = 0;
    for (const auto& ch : channels_)
        total += ch->stats().bytes_read;
    return total;
}

std::uint64_t
MemorySystem::totalBytesWritten() const
{
    std::uint64_t total = 0;
    for (const auto& ch : channels_)
        total += ch->stats().bytes_written;
    return total;
}

bool
MemorySystem::idle() const
{
    for (const auto& ch : channels_)
        if (!ch->idle())
            return false;
    return true;
}

bool
MemPort::send(const MemReq& req)
{
    const std::uint32_t il = sys_->cfg_.interleave_bytes;
    const Addr last = req.addr + req.bytes - 1;
    if (req.addr / il != last / il)
        panic("MemPort request crosses interleave boundary; the issuer "
              "must split bursts at " + std::to_string(il) + " B");
    return sys_->channels_[sys_->channelOf(req.addr)]
        ->reqPort(port_).push(req);
}

bool
MemPort::canSend(Addr addr) const
{
    return sys_->channels_[sys_->channelOf(addr)]->reqPort(port_).canPush();
}

std::uint32_t
MemPort::interleaveBytes() const
{
    return sys_->cfg_.interleave_bytes;
}

std::optional<MemResp>
MemPort::receive()
{
    const std::uint32_t n = sys_->numChannels();
    TimedQueue<MemResp>* const* queues = sys_->respQueues(port_);
    const std::uint32_t c = forEachOccupied(
        sys_->respOccupancy(port_), n, rr_,
        [queues](std::uint32_t i) { return queues[i]->canPop(); });
    if (c == n)
        return std::nullopt;
    rr_ = c + 1 == n ? 0 : c + 1;
    return queues[c]->pop();
}

void
MemPort::bindClient(Component* c)
{
    const std::uint32_t n = sys_->numChannels();
    for (std::uint32_t ch = 0; ch < n; ++ch) {
        sys_->channels_[ch]->reqPort(port_).setProducer(c);
        sys_->channels_[ch]->respPort(port_).setConsumer(c);
    }
}

Cycle
MemPort::responseReadyCycle() const
{
    TimedQueue<MemResp>* const* queues = sys_->respQueues(port_);
    Cycle next = kCycleNever;
    forEachOccupied(sys_->respOccupancy(port_), sys_->numChannels(), 0,
                    [&](std::uint32_t c) {
                        next = std::min(next, queues[c]->peekReadyCycle());
                        return false;
                    });
    return next;
}

} // namespace gmoms
