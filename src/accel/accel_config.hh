/**
 * @file
 * Top-level configuration of the graph accelerator.
 */

#ifndef GMOMS_ACCEL_ACCEL_CONFIG_HH
#define GMOMS_ACCEL_ACCEL_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include "src/cache/moms_system.hh"
#include "src/check/check_config.hh"
#include "src/cluster/cluster_config.hh"
#include "src/mem/mem_substrate.hh"
#include "src/obs/telemetry.hh"

namespace gmoms
{

struct AccelConfig
{
    std::uint32_t num_pes = 16;
    MomsConfig moms = MomsConfig::twoLevel(16);

    /** External-memory substrate: DDR4 channels (the paper's f1 shell,
     *  default) or HBM2 pseudo-channels, with channel count, address
     *  interleave and per-channel timing. */
    MemSubstrateConfig mem;

    /** Encode edge shards in the packed half-word CSR (degree-aware
     *  vertex packing: shard edges grouped by source so one 16-bit
     *  source selector amortizes over a high-degree vertex's
     *  out-edges, and destinations shrink to 16-bit half-words; see
     *  packedcsr in src/graph/layout.hh). Cuts edge-stream traffic.
     *  Converged integer results (SCC, SSSP, BFS) match the plain
     *  encoding; PageRank's f32 sums follow MOMS arrival order, so
     *  they may differ from plain in the last ulp. Ineligible
     *  partitions (offsets or weights that overflow a half-word) fall
     *  back to the plain 32-bit encoding automatically. Set by
     *  Session from the Preprocessing::*Packed variants. */
    bool packed_edges = false;

    /**
     * Destination/source interval sizes. The paper holds 32,768
     * destination nodes per PE in URAM with 16-bit source offsets
     * (Ns = 65,536); our datasets are scaled ~16-4096x, so the default
     * intervals scale too (DESIGN.md section 5). Ns must be a multiple
     * of Nd so destination intervals never straddle source intervals.
     */
    std::uint32_t nd = 2048;
    std::uint32_t ns = 4096;

    /** Maximum simultaneous threads (outstanding source reads) per PE;
     *  the paper's SSSP state memory has 8,192 slots, scaled here. */
    std::uint32_t max_threads = 1024;

    /** Edge-stream DMA burst size in 64 B lines and the number of edge
     *  bursts a PE keeps in flight (Section IV-D). */
    std::uint32_t edge_burst_lines = 8;
    std::uint32_t max_edge_bursts = 4;

    /** Node-array DMA burst size in lines (32-beat 512-bit bursts). */
    std::uint32_t init_burst_lines = 32;

    /** Node-array bursts a PE keeps in flight during init. One is
     *  enough when the interleave unit lets a burst carry
     *  init_burst_lines full lines (DDR4's 2 KiB units); HBM's 256 B
     *  units cap every burst so small that a single outstanding burst
     *  becomes round-trip-latency-bound — hbmTwoLevel() raises this. */
    std::uint32_t init_outstanding_bursts = 1;

    /** Nodes consumed/produced per cycle during init/writeback. */
    std::uint32_t nodes_per_cycle = 4;

    /** Safety limit for one run. */
    Cycle max_cycles = 500'000'000;

    /** Observability: disabled by default (zero per-cycle cost — no
     *  sampler component is created and all probe pointers stay null).
     *  When enabled, results are still bit-exact; see docs/MODEL.md
     *  "Telemetry & tracing". */
    TelemetryConfig telemetry;

    /** Run the simulation engine in legacy tick-everything mode
     *  (cycle- and stat-exact with the default idle-aware mode — see
     *  tests/test_engine_skip.cc — just slower; also forced globally
     *  by GMOMS_FULL_TICK=1). */
    bool full_tick_engine = false;

    /** Hardening layer: disabled by default (no harness component, no
     *  shadow memory, all hook pointers null — zero per-cycle cost).
     *  When enabled, results are still bit-exact; the run merely gains
     *  the right to abort with a CheckError diagnostic. See
     *  docs/MODEL.md "Invariants & watchdog". */
    CheckConfig checks;

    /** Multi-board scale-out: boards == 1 (default) runs the classic
     *  single-board Accelerator; boards in [2, 8] replicates the whole
     *  micro-architecture per board on one deterministic engine and
     *  connects the boards through a timed serial link. Values stay
     *  identical to the single board (docs/MODEL.md "Multi-board
     *  clusters"). */
    ClusterConfig cluster;

    /** Paper-style label, e.g. "16/16 moms 0k @4ch" (DDR4) or
     *  "16/16 moms 0k @16pc-hbm" (HBM2). */
    std::string
    label() const
    {
        return moms.label(num_pes) + " @" + mem.label() +
               (packed_edges ? " packed" : "");
    }

    /**
     * Check every config-level constraint the construction path would
     * otherwise trip over one at a time (or worse, silently mis-model):
     * throws FatalError listing *all* problems with actionable
     * messages. Called by the Accelerator constructor; call directly to
     * vet a config before a long sweep.
     */
    void validate() const;

    /**
     * The non-throwing form of validate(): every violated constraint as
     * one actionable message, empty when the config is sound. The
     * serving layer's admission control folds these into its structured
     * JobSpec rejection instead of failing mid-run.
     */
    std::vector<std::string> validateProblems() const;

    // -- named presets (single source of truth; see ISSUE 4) -------------

    /** @p moms shaped onto @p pes PEs / @p channels DRAM channels with
     *  the repo-wide default timing knobs — the base every named preset
     *  and bench point builds on. */
    static AccelConfig preset(MomsConfig moms, std::uint32_t pes,
                              std::uint32_t channels = 4);

    /** The paper's headline 18-PE / 16-bank two-level MOMS (Fig. 11
     *  "18/16 2lvl"). */
    static AccelConfig paper18x16TwoLevel();
    /** Shared-only MOMS, 16 PEs / 16 banks ([6]'s organization). */
    static AccelConfig sharedMoms();
    /** Private-only MOMS, one bank per PE, 20 PEs (Fig. 8 middle). */
    static AccelConfig privateMoms();
    /** Traditional non-blocking-cache baseline in the two-level shape
     *  (16 assoc MSHRs, 8 subentries/MSHR). */
    static AccelConfig traditionalNbc();

    /**
     * HBM2 substrate with the two-level vertex-cache organization the
     * narrow-pseudo-channel regime rewards: one shared (L2) MOMS bank
     * per pseudo-channel — preserving the static bank-to-channel
     * binding — and @p private_cache_bytes of per-PE (L1) vertex cache
     * soaking up reuse before requests reach the narrow buses. Pass
     * private_cache_bytes = 0 for the L2-only organization.
     */
    static AccelConfig hbmTwoLevel(std::uint32_t pseudo_channels = 16,
                                   std::uint32_t pes = 16,
                                   std::uint64_t private_cache_bytes =
                                       2048);
};

/**
 * Default interval sizes for a dataset of @p num_nodes nodes: aim for
 * many more jobs than PEs (the paper has 1-2 orders of magnitude more)
 * while respecting the 15/16-bit offset limits, with Ns = 2 Nd as in
 * the paper (65,536 / 32,768).
 */
inline std::pair<std::uint32_t, std::uint32_t>
defaultIntervals(NodeId num_nodes, std::uint32_t target_jobs = 128)
{
    std::uint64_t nd = ceilDiv(num_nodes, target_jobs);
    nd = std::min<std::uint64_t>(std::max<std::uint64_t>(nd, 128),
                                 32768);
    const std::uint64_t ns = std::min<std::uint64_t>(2 * nd, 65536);
    return {static_cast<std::uint32_t>(nd),
            static_cast<std::uint32_t>(ns)};
}

/**
 * Edge-aware variant: picks the job count from the edge budget so that
 * per-job fixed costs (pointer fetch, init, writeback) stay small next
 * to the edge work even on the edge-capped dataset stand-ins.
 */
inline std::pair<std::uint32_t, std::uint32_t>
defaultIntervalsFor(NodeId num_nodes, EdgeId num_edges)
{
    const std::uint64_t target_jobs = std::clamp<std::uint64_t>(
        num_edges / 6000, 48, 2048);
    return defaultIntervals(num_nodes,
                            static_cast<std::uint32_t>(target_jobs));
}

} // namespace gmoms

#endif // GMOMS_ACCEL_ACCEL_CONFIG_HH
