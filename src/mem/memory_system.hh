/**
 * @file
 * Multi-channel external memory behind a configurable address
 * interleave, with per-requester ports (Section IV-B of the paper).
 *
 * The substrate is pluggable: a MemSubstrateConfig picks the channel
 * model (DDR4 channels vs HBM2 pseudo-channels), the channel count and
 * the interleave granularity. Requesters only ever see MemPort.
 */

#ifndef GMOMS_MEM_MEMORY_SYSTEM_HH
#define GMOMS_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/mem/backing_store.hh"
#include "src/mem/dram_config.hh"
#include "src/mem/mem_channel.hh"
#include "src/mem/mem_substrate.hh"
#include "src/sim/engine.hh"

namespace gmoms
{

class MemorySystem;

/**
 * One requester's window onto all channels.
 *
 * send() routes by address to the owning channel; receive() polls the
 * requester's response queues round-robin, visiting only the channels
 * whose queue holds a token (the port's occupancy row). Requests must
 * not cross an interleave boundary — the issuing logic (DMA, MOMS
 * bank) splits at interleaveBytes().
 */
class MemPort
{
  public:
    MemPort() = default;
    MemPort(MemorySystem* sys, std::uint32_t port_index)
        : sys_(sys), port_(port_index) {}

    /** Try to issue @p req; false when the target channel port is full. */
    bool send(const MemReq& req);

    /** Whether a send to @p addr would be accepted this cycle. */
    bool canSend(Addr addr) const;

    /** Pop one completed transaction, if any arrived. */
    std::optional<MemResp> receive();

    /** Earliest cycle receive() may yield a response across all
     *  channels; kCycleNever when nothing is in flight in the response
     *  queues. Reports in-flight tokens (not just poppable ones) for
     *  the requester's quiescence check. */
    Cycle responseReadyCycle() const;

    /** Burst-split granularity the requester must respect. */
    std::uint32_t interleaveBytes() const;

    /**
     * Bind @p c as this port's requester for engine wake-ups: @p c is
     * woken when a response arrives on any channel and when a full
     * request queue frees a slot (a rejected send can be retried).
     */
    void bindClient(Component* c);

  private:
    MemorySystem* sys_ = nullptr;
    std::uint32_t port_ = 0;
    mutable std::uint32_t rr_ = 0;

    friend class MemorySystem;
};

/**
 * The full external memory: N interleaved channels of the configured
 * substrate plus the functional backing store.
 */
class MemorySystem
{
  public:
    /**
     * @param cfg           substrate: kind, channel count, interleave,
     *                      per-channel timing.
     * @param num_ports     requester ports replicated on every channel.
     * @param name_prefix   prepended to component names ("b2." for
     *                      cluster board 2; empty single-board).
     */
    MemorySystem(Engine& engine, const MemSubstrateConfig& cfg,
                 std::uint32_t num_ports,
                 const std::string& name_prefix = "");

    /** Convenience: @p num_channels DDR4 channels with @p cfg timing
     *  at the default 2 KiB interleave (micro tests/benches). */
    MemorySystem(Engine& engine, const DramConfig& cfg,
                 std::uint32_t num_channels, std::uint32_t num_ports,
                 const std::string& name_prefix = "");

    /** Channel that owns byte address @p addr. */
    std::uint32_t
    channelOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr / cfg_.interleave_bytes) % channels_.size());
    }

    MemPort port(std::uint32_t p) { return MemPort(this, p); }

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    std::uint32_t interleaveBytes() const
    {
        return cfg_.interleave_bytes;
    }

    const MemSubstrateConfig& substrate() const { return cfg_; }

    MemChannel& channel(std::uint32_t c) { return *channels_[c]; }
    const MemChannel& channel(std::uint32_t c) const
    {
        return *channels_[c];
    }

    BackingStore& store() { return store_; }
    const BackingStore& store() const { return store_; }

    /** Aggregate bytes moved on all channels. */
    std::uint64_t totalBytesRead() const;
    std::uint64_t totalBytesWritten() const;

    bool idle() const;

  private:
    /** Port @p p's response-queue occupancy row (one byte per
     *  channel, padded to whole words; see forEachOccupied). */
    const std::uint8_t*
    respOccupancy(std::uint32_t p) const
    {
        return &resp_occupancy_[p * occupancyRowBytes(channels_.size())];
    }

    /** Port @p p's response queues, indexed by channel. */
    TimedQueue<MemResp>* const*
    respQueues(std::uint32_t p) const
    {
        return &resp_queues_[p * channels_.size()];
    }

    MemSubstrateConfig cfg_;
    std::vector<std::unique_ptr<MemChannel>> channels_;
    std::vector<std::uint8_t> resp_occupancy_;      //!< [port] rows
    std::vector<TimedQueue<MemResp>*> resp_queues_; //!< [port][channel]
    BackingStore store_;

    friend class MemPort;
};

} // namespace gmoms

#endif // GMOMS_MEM_MEMORY_SYSTEM_HH
