/**
 * @file
 * Timed model of one external-memory channel: a DDR4 channel behind the
 * AWS f1 shell or one HBM2 pseudo-channel.
 *
 * The channel owns one (request, response) queue pair per attached
 * requester port. Each cycle it delivers completed transactions, then,
 * if the data bus is free, accepts one request round-robin among the
 * ports holding one, charges bus occupancy (size / bus width + fixed
 * overhead + row-miss penalty + same-bank gap) and schedules the
 * completion after the loaded latency. Bus service is serialized,
 * which is what bounds the channel's bandwidth.
 *
 * The substrates differ only in DramConfig values (MemSubstrateConfig
 * presets) and in telemetry naming: DDR4 channels report under one
 * aggregate "dram" stall group, HBM2 pseudo-channels under their own
 * name ("hbm.pc3"), because with 16-32 narrow channels which one is
 * hot is the diagnosis.
 */

#ifndef GMOMS_MEM_MEM_CHANNEL_HH
#define GMOMS_MEM_MEM_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mem/dram_config.hh"
#include "src/mem/mem_substrate.hh"
#include "src/mem/mem_types.hh"
#include "src/obs/telemetry.hh"
#include "src/sim/engine.hh"
#include "src/sim/ring_deque.hh"
#include "src/sim/stats.hh"
#include "src/sim/timed_queue.hh"

namespace gmoms
{

/** Counters every channel maintains (the shape the accelerator's
 *  RunResult and the benches aggregate over). */
struct MemChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t busy_cycles = 0;  //!< cycles the data bus was occupied
    /** Bus cycles lost to row activations (the stall-attribution
     *  view of row_misses: cycles, not transaction counts). */
    std::uint64_t row_miss_penalty_cycles = 0;
};

class MemChannel final : public Component
{
  public:
    MemChannel(const Engine& engine, std::string name, MemKind kind,
               const DramConfig& cfg, std::uint32_t num_ports);

    /** Request queue for requester port @p port. */
    TimedQueue<MemReq>& reqPort(std::uint32_t port)
    {
        return *req_ports_[port];
    }
    const TimedQueue<MemReq>& reqPort(std::uint32_t port) const
    {
        return *req_ports_[port];
    }

    /** Response queue for requester port @p port. */
    TimedQueue<MemResp>& respPort(std::uint32_t port)
    {
        return *resp_ports_[port];
    }
    const TimedQueue<MemResp>& respPort(std::uint32_t port) const
    {
        return *resp_ports_[port];
    }

    std::uint32_t numPorts() const
    {
        return static_cast<std::uint32_t>(req_ports_.size());
    }

    void tick() override;

    /**
     * Quiescence: nothing happens between ticks except time passing —
     * the channel sleeps until the earliest of (a) the next in-flight
     * completion, (b) the bus freeing with a request pending. Request
     * arrivals and response-queue backpressure release are covered by
     * the queue wake hooks bound in the constructor.
     */
    Cycle nextActivity() const override;

    const MemChannelStats& stats() const { return stats_; }

    /** True when no request is queued or in flight. */
    bool idle() const;

    void registerStats(StatRegistry& reg) const;

    /** Attach stall channels, series and queue probes to @p tele:
     *  stall group "dram" on DDR4, the channel's own name on HBM2. */
    void registerTelemetry(Telemetry& tele);

  private:
    struct InFlight
    {
        MemResp resp;
        std::uint32_t port;
        Cycle complete_at;
    };

    /** Bus occupancy of @p req in cycles, including row-buffer and
     *  same-bank turnaround effects. */
    Cycle serviceCycles(const MemReq& req);

    const Engine& engine_;
    MemKind kind_;
    DramConfig cfg_;
    std::vector<std::unique_ptr<TimedQueue<MemReq>>> req_ports_;
    std::vector<std::unique_ptr<TimedQueue<MemResp>>> resp_ports_;
    /** Request-queue occupancy, one byte per port (forEachOccupied). */
    std::vector<std::uint8_t> req_occupancy_;
    std::vector<std::uint64_t> open_row_;  //!< open row per bank
    RingDeque<InFlight> in_flight_;        //!< completions in order
    Cycle bus_free_at_ = 0;
    std::uint32_t next_port_ = 0;          //!< round-robin pointer
    std::uint32_t last_bank_ = ~0u;        //!< bank of the previous txn
    MemChannelStats stats_;
    std::uint64_t bank_gap_cycles_ = 0;    //!< same-bank turnaround
    mutable StatRegistry::Eraser stat_eraser_;
};

} // namespace gmoms

#endif // GMOMS_MEM_MEM_CHANNEL_HH
