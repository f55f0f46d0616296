/**
 * @file
 * Full miss-optimized memory systems: the shared, private-only and
 * two-level organizations of Fig. 8, plus their traditional-cache
 * twins used as baselines throughout Section V.
 *
 * PEs talk to a MomsSystem through SourcePort (one per PE). Internally:
 *  - Shared:    PE ports -> request/response crossbars -> B banks -> DRAM.
 *  - Private:   PE ports -> per-PE bank -> DRAM.
 *  - TwoLevel:  PE ports -> per-PE (L1) bank -> crossbar -> B shared
 *               (L2) banks -> DRAM. L1 banks request whole lines, so the
 *               L2 coalesces across PEs exactly like a two-level cache.
 *
 * Shared banks are statically bound to one DRAM channel (Section IV-B):
 * the bank index of a line embeds its channel, so each bank only ever
 * addresses its own channel.
 */

#ifndef GMOMS_CACHE_MOMS_SYSTEM_HH
#define GMOMS_CACHE_MOMS_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cache/burst_assembler.hh"
#include "src/cache/moms_bank.hh"
#include "src/mem/memory_system.hh"
#include "src/sim/engine.hh"

namespace gmoms
{

/** What a PE sees: a port for short irregular source-node reads. */
class SourcePort
{
  public:
    virtual ~SourcePort() = default;
    virtual bool canSend() const = 0;
    virtual bool send(const ReadReq& req) = 0;
    virtual std::optional<ReadResp> receive() = 0;
    /** Earliest cycle receive() may yield a response — kCycleNever
     *  when nothing is in flight. Must report in-flight responses (not
     *  just currently-poppable ones) so a sleeping PE is re-armed by
     *  its own quiescence check; see LineDownstream::lineReadyCycle(). */
    virtual Cycle responseReadyCycle() const = 0;
    /** Bind the requesting PE for engine wake-ups: woken when a
     *  response becomes poppable and when a full request path frees. */
    virtual void bindClient(Component* pe) = 0;
};

struct MomsConfig
{
    enum class Topology { Shared, Private, TwoLevel };

    Topology topology = Topology::TwoLevel;
    std::uint32_t num_shared_banks = 16;
    MomsBankConfig shared_bank;   //!< used by Shared and TwoLevel
    MomsBankConfig private_bank;  //!< used by Private and TwoLevel
    /** Extra link latency for paths that cross SLR boundaries (Fig. 5:
     *  two register stages each way). */
    Cycle crossing_latency = 4;
    std::uint32_t crossbar_queue_depth = 32;

    /** DynaBurst extension: assemble DRAM bursts out of nearby line
     *  misses (Section V-A — the paper found the benefit too low;
     *  kept as a reproducible option). */
    bool dynaburst = false;
    BurstAssemblerConfig dynaburst_cfg;

    /** Paper-style label such as "16/16 32k" (Fig. 11). */
    std::string label(std::uint32_t num_pes) const;

    // -- convenience factories (sizes are paper values / 8 to match the
    //    scaled datasets; see DESIGN.md section 5) ----------------------

    /** The paper's shared-only MOMS [6]. */
    static MomsConfig shared(std::uint32_t banks);
    /** Private-only MOMS, one bank per PE (Fig. 8 middle). */
    static MomsConfig privateOnly();
    /** Two-level MOMS with @p banks shared banks and @p private_cache
     *  bytes of per-PE cache (often 0, per Section V-B). */
    static MomsConfig twoLevel(std::uint32_t banks,
                               std::uint64_t private_cache_bytes = 0);
    /** Traditional non-blocking cache in the same three shapes:
     *  16 fully-associative MSHRs, 8 subentries per MSHR. */
    static MomsConfig traditionalShared(std::uint32_t banks);
    static MomsConfig traditionalTwoLevel(std::uint32_t banks);

    /** MemorySystem ports a MomsSystem with this config will consume. */
    std::uint32_t
    memPortsNeeded(std::uint32_t num_pes) const
    {
        return topology == Topology::Private ? num_pes
                                             : num_shared_banks;
    }

    /** Drop all cache arrays (the cache-less sweeps of Figs. 12/15). */
    MomsConfig withoutCacheArrays() const;
    /** Scale private/shared cache sizes (Fig. 15 sweeps). */
    MomsConfig withPrivateCache(std::uint64_t bytes) const;
    MomsConfig withSharedCache(std::uint64_t bytes) const;
};

/**
 * A constructed MOMS instance: owns banks, crossbar state and DRAM
 * adapters, and aggregates statistics across levels.
 */
class MomsSystem : public Component
{
  public:
    /** Crossbar arbitration outcomes (Section II's bank-conflict
     *  bottleneck, made countable). Incremented only on cycles where a
     *  token is poppable, i.e. ticks that occur in both engine modes,
     *  so the counts are engine-mode exact. */
    struct XbarStats
    {
        std::uint64_t req_conflicts = 0;     //!< bank already claimed
        std::uint64_t req_bank_busy = 0;     //!< bank input queue full
        std::uint64_t resp_conflicts = 0;    //!< client already claimed
        std::uint64_t resp_backpressure = 0; //!< client resp queue full
    };

    /**
     * Test-only fault injection, exercised by the hardening-layer
     * regression tests (tests/test_hardening.cc) to prove the
     * conservation checkers actually fire. Null in production: the
     * hooks cost one pointer test on paths already full of queue
     * checks, and nothing at all when no shared crossbar exists.
     */
    struct FaultHooks
    {
        /** Drop the next request token popped from the request
         *  crossbar instead of delivering it to its bank. */
        bool drop_next_request = false;
        /** Response-crossbar client whose credit is wedged: responses
         *  destined to it are never pushed (counted as backpressure),
         *  modeling a lost crossing credit. -1 disables. */
        std::int32_t stuck_client = -1;
    };

    /** @p name_prefix prefixes every component name ("b2." for
     *  cluster board 2). */
    MomsSystem(Engine& engine, MemorySystem& mem,
               std::uint32_t first_mem_port, std::uint32_t num_pes,
               const MomsConfig& cfg,
               const std::string& name_prefix = "");
    ~MomsSystem() override;

    SourcePort& pePort(std::uint32_t pe) { return *pe_ports_[pe]; }

    /** Crossbar movement for shared topologies; banks tick themselves. */
    void tick() override;

    /**
     * Quiescence: active whenever any crossbar input or shared-bank
     * response is poppable; otherwise sleeps (queue hooks re-wake it).
     * The free-running arbitration pointers it would have advanced
     * while asleep are reconstructed by catchUp()/gap accounting, so
     * arbitration order is bit-exact with the full-tick engine.
     */
    Cycle nextActivity() const override;
    void catchUp(Cycle upto) override;

    /** Invalidate every cache array (iteration boundary). */
    void invalidateCaches();

    bool idle() const;

    /** Number of MemorySystem ports consumed, starting at
     *  first_mem_port. */
    std::uint32_t memPortsUsed() const { return mem_ports_used_; }

    // -- aggregate statistics -------------------------------------------
    /** PE-facing requests (level-1 accesses). */
    std::uint64_t totalRequests() const;
    /** Hits in either cache level (Fig. 12 definition). */
    std::uint64_t totalHits() const;
    /** Secondary misses in either level. */
    std::uint64_t totalSecondaryMisses() const;
    /** Lines fetched from DRAM by this memory system. */
    std::uint64_t totalLinesFromMem() const;
    double hitRate() const;

    const MomsConfig& config() const { return cfg_; }
    const std::vector<std::unique_ptr<MomsBank>>& sharedBanks() const
    {
        return shared_banks_;
    }
    const std::vector<std::unique_ptr<MomsBank>>& privateBanks() const
    {
        return private_banks_;
    }

    const XbarStats& xbarStats() const { return xbar_stats_; }

    /** Attach (or detach, with nullptr) test-only fault injection. */
    void setFaultHooks(FaultHooks* hooks) { faults_ = hooks; }

    /** In-flight tokens buffered in the request / response crossbar
     *  queues (0 for Private: no crossbar). Used by the conservation
     *  checkers to balance sent vs delivered tokens. */
    std::uint64_t xbarReqDepth() const;
    std::uint64_t xbarRespDepth() const;

    /** One line per non-empty internal queue ("  <name>: n/cap"), for
     *  watchdog diagnostic dumps; empty string when fully drained. */
    std::string queueReport() const;

    void registerStats(StatRegistry& reg) const;

    /** Attach every level (banks, crossbar, burst assemblers) to
     *  @p tele with topology-aware stall groups: "moms.shared" /
     *  "moms.private" / "moms.l1"+"moms.l2" and "moms.xbar". */
    void registerTelemetry(Telemetry& tele);

  private:
    struct DramAdapter;
    struct SharedLevelAdapter;
    struct BankDirectPort;
    struct CrossbarPort;

    /** Shared bank that owns @p line (channel-aware hash). */
    std::uint32_t bankOf(Addr line) const;

    Engine& engine_;
    MemorySystem& mem_;
    MomsConfig cfg_;
    std::uint32_t num_pes_ = 0;
    std::uint32_t num_channels_ = 0;
    std::uint32_t mem_ports_used_ = 0;

    std::vector<std::unique_ptr<MomsBank>> shared_banks_;
    std::vector<std::unique_ptr<MomsBank>> private_banks_;
    std::vector<std::unique_ptr<LineDownstream>> downstreams_;
    std::vector<std::unique_ptr<BurstAssembler>> assemblers_;
    std::vector<std::unique_ptr<SourcePort>> pe_ports_;

    // Crossbar queues (client side) for shared topologies. For
    // TwoLevel the "clients" are the private banks.
    std::vector<std::unique_ptr<TimedQueue<ReadReq>>> xbar_req_;
    std::vector<std::unique_ptr<TimedQueue<ReadResp>>> xbar_resp_;
    // Occupancy rows of the two arbitration inputs (forEachOccupied):
    // the client request queues and the shared banks' response queues.
    std::vector<std::uint8_t> xbar_req_occupancy_;
    std::vector<std::uint8_t> bank_resp_occupancy_;
    std::uint32_t xbar_req_rr_ = 0;
    std::uint32_t xbar_resp_rr_ = 0;
    /** Next cycle the rr pointers have not yet accounted for: under
     *  full tick they advance every cycle; when ticks are skipped the
     *  missed increments are applied in bulk (tick()/catchUp()). */
    Cycle rr_accounted_until_ = 0;
    // Per-cycle arbitration scratch (members to avoid reallocation).
    // "Claimed this cycle" == entry equals the current claim epoch, so
    // no per-tick O(banks)+O(clients) clear is needed.
    std::vector<std::uint64_t> bank_claimed_;
    std::vector<std::uint64_t> client_claimed_;
    std::uint64_t claim_epoch_ = 0;

    XbarStats xbar_stats_;
    FaultHooks* faults_ = nullptr;
    mutable StatRegistry::Eraser stat_eraser_;
};

} // namespace gmoms

#endif // GMOMS_CACHE_MOMS_SYSTEM_HH
