/**
 * @file
 * Out-of-order multithreaded processing element (Section IV-C, Fig. 9).
 *
 * A PE pulls a job (destination interval), initializes the interval's
 * node values into local BRAM, streams the active shards' edges via
 * DMA, dereferences source nodes through the MOMS treating every edge
 * as an independent suspended thread (Fig. 10), feeds the gather()
 * pipeline (with RAW stall modelling for the 4-cycle floating-point
 * PageRank kernel), and finally writes the interval back.
 *
 * Timing rules modelled per cycle:
 *  - at most one edge decoded/issued,
 *  - at most one value enters the gather pipeline (MOMS responses have
 *    priority over locally-served edges),
 *  - node init/writeback move up to nodes_per_cycle nodes,
 *  - a single outstanding node-init burst (in-order requirement,
 *    Section IV-D) but multiple tagged edge bursts.
 */

#ifndef GMOMS_ACCEL_PE_HH
#define GMOMS_ACCEL_PE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/accel/scheduler.hh"
#include "src/algo/spec.hh"
#include "src/cache/moms_system.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/engine.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/ring_deque.hh"

namespace gmoms
{

class ShadowMemory;

class Pe : public Component
{
  public:
    struct Stats
    {
        std::uint64_t jobs = 0;
        std::uint64_t edges_processed = 0;  //!< gather() executions
        std::uint64_t local_src_reads = 0;
        std::uint64_t moms_reads = 0;
        std::uint64_t moms_resps = 0;  //!< responses popped from the port
        std::uint64_t raw_stalls = 0;       //!< gather RAW hazard cycles
        std::uint64_t thread_stalls = 0;    //!< out of thread slots
        std::uint64_t moms_send_stalls = 0; //!< MOMS port backpressure
        std::uint64_t busy_cycles = 0;
        std::uint64_t idle_cycles = 0;
    };

    Pe(const Engine& engine, std::string name, std::uint32_t id,
       const AccelConfig& cfg, const AlgoSpec& spec, Scheduler& sched,
       MemPort dma, SourcePort& moms, BackingStore& store);

    void tick() override;

    /**
     * Quiescence: a PE may only sleep in states where a tick would do
     * nothing but bump busy_/idle_cycles (reconstructed by catchUp):
     * waiting on DMA responses, MOMS responses or port backpressure
     * with no decodable edge, no pending transition and no per-cycle
     * stall accounting (a parked MOMS response or non-empty decode
     * queue counts stalls every cycle, so those states stay active).
     */
    Cycle nextActivity() const override;
    void catchUp(Cycle upto) override;

    /** True when the PE holds no job and has no in-flight work. */
    bool idle() const { return phase_ == Phase::Idle; }

    const Stats& stats() const { return stats_; }

    /** Attach stall channels, series and the decode-queue probe to
     *  @p tele (stall group "pe"). A full MOMS port means different
     *  things per topology (die-crossing credits vs a busy private
     *  bank), so the cause of moms_send_stalls is topology-aware. */
    void registerTelemetry(Telemetry& tele);

    /** Attach the hardening layer's shadow functional memory; every
     *  MOMS source read, edge-burst payload and writeback is then
     *  verified against it. Null (the default) costs nothing. */
    void attachShadow(ShadowMemory* shadow) { shadow_ = shadow; }

    /** One-line state summary for watchdog diagnostic dumps. */
    std::string statusLine() const;

  private:
    enum class Phase { Idle, FetchPtrs, Init, Stream, Writeback };

    /** Phase-dependent part of nextActivity() (response arrivals are
     *  folded in by the caller). */
    Cycle phaseActivity() const;

    // DMA tag layout: [63:56] kind, [55:0] sequence/extra.
    enum class DmaKind : std::uint64_t
    {
        Ptr = 1, InitConst = 2, InitIn = 3, Edge = 4, Write = 5
    };
    static std::uint64_t
    dmaTag(DmaKind kind, std::uint64_t extra)
    {
        return (static_cast<std::uint64_t>(kind) << 56) | extra;
    }
    static DmaKind dmaKind(std::uint64_t tag)
    {
        return static_cast<DmaKind>(tag >> 56);
    }

    /** One burst of edges received from DRAM, pending decode. In the
     *  packed half-word CSR, cursor counts 16-bit half-words instead
     *  of words, and the last selector's source stays open until the
     *  next one; segments are whole 64-byte lines (bursts split at
     *  line multiples) and every line opens with a selector, so decode
     *  state never crosses segments. */
    struct EdgeSegment
    {
        Addr addr = 0;            //!< first byte
        std::uint32_t words = 0;  //!< 32-bit words in the segment
        std::uint32_t cursor = 0; //!< next word (packed: half-word)
        std::uint32_t s = 0;      //!< source interval of the shard
        std::uint32_t open_src = 0;  //!< packed: open source offset
        bool has_open_src = false;   //!< packed: selector seen yet
    };

    /** Shard chunks remaining to be requested. */
    struct ShardCursor
    {
        std::uint32_t s = 0;
        Addr addr = 0;
        std::uint64_t words_left = 0;
    };

    void startJob(const Job& job);
    void tickFetchPtrs();
    void tickInit();
    void tickStream();
    void tickWriteback();

    /** Handle DMA responses common to all phases. */
    void drainDmaResponses();

    /** True if a gather to @p dst_off would violate a RAW hazard. */
    bool rawHazard(std::uint32_t dst_off) const;

    /** Execute gather() into BRAM and record the hazard window. */
    void executeGather(std::uint32_t dst_off, std::uint32_t src_val,
                       std::uint32_t weight);

    // -- construction-time wiring ----------------------------------------
    const Engine& engine_;
    std::uint32_t id_;
    const AccelConfig* cfg_;
    const AlgoSpec* spec_;
    Scheduler* sched_;
    MemPort dma_;
    SourcePort* moms_;
    BackingStore* store_;
    ShadowMemory* shadow_ = nullptr;
    /** Burst-split granularity of the memory substrate (cached from
     *  dma_; HBM interleaves finer than DDR4's 2 KiB). */
    std::uint64_t il_ = kInterleaveBytes;

    // -- job state --------------------------------------------------------
    Phase phase_ = Phase::Idle;
    Job job_;
    bool updated_ = false;
    std::vector<std::uint64_t> bram_;
    std::vector<std::uint32_t> vconst_tmp_;

    // Pointer fetch.
    std::uint64_t ptr_bytes_requested_ = 0;
    std::uint64_t ptr_bytes_received_ = 0;

    // Node init streaming (one region at a time, up to
    // init_outstanding_bursts in flight). Bursts on different channels
    // may complete out of order; init_ooo_ holds completions ahead of
    // the in-order prefix (at most init_outstanding_bursts - 1
    // entries) because consumption is strictly sequential.
    bool init_const_stage_ = false;
    Addr init_region_base_ = 0;
    std::uint64_t init_bytes_total_ = 0;
    std::uint64_t init_bytes_requested_ = 0;
    std::uint64_t init_bytes_received_ = 0;
    std::uint64_t init_nodes_consumed_ = 0;
    std::uint32_t init_bursts_inflight_ = 0;
    std::vector<std::pair<Addr, std::uint32_t>> init_ooo_;

    // Edge streaming. edge_pending_ holds at most max_edge_bursts
    // entries (one per in-flight burst), so the flat map never grows
    // after construction; the rings stop allocating once their
    // high-water mark has been reached.
    RingDeque<ShardCursor> shards_;
    std::uint32_t edge_bursts_inflight_ = 0;
    std::uint64_t edge_burst_seq_ = 0;
    FlatMap<std::uint64_t, EdgeSegment> edge_pending_;
    RingDeque<EdgeSegment> decode_q_;

    // Thread bookkeeping (Fig. 10): weighted graphs use a free-ID queue
    // plus state memory; unweighted graphs use the destination offset
    // as the ID directly.
    std::vector<std::uint32_t> free_ids_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> thread_state_;
    std::uint32_t threads_outstanding_ = 0;

    std::optional<ReadResp> pending_resp_;

    // Gather pipeline hazard window: dst offsets with their retire
    // cycle.
    std::vector<std::pair<std::uint32_t, Cycle>> hazard_;

    // Writeback.
    std::uint64_t wb_nodes_written_ = 0;
    std::uint64_t wb_bytes_staged_ = 0;   //!< staged for the next burst
    Addr wb_burst_addr_ = 0;
    std::uint32_t wb_writes_unacked_ = 0;
    std::uint64_t wb_seq_ = 0;

    /** First cycle busy_/idle_cycles has not accounted for yet (full
     *  tick adds one per cycle; skipped cycles are applied in bulk). */
    Cycle cycle_accounted_until_ = 0;

    Stats stats_;
};

} // namespace gmoms

#endif // GMOMS_ACCEL_PE_HH
