/**
 * @file
 * Multi-board cluster driver: 2-8 Boards and one BoardLink on a single
 * deterministic engine, coordinated in BSP or asynchronous mode.
 *
 * Two-plane execution (the cluster determinism contract, documented in
 * docs/MODEL.md):
 *
 *  - The *functional plane* is the canonical runReference() execution
 *    over the GLOBAL partition. It defines the user-facing raw_values
 *    — board-count- and mode-invariant by construction, so a job's
 *    values_checksum is identical across 1..8 boards, BSP or async.
 *  - The *timed plane* is the per-board micro-architecture simulation,
 *    which yields cycles, GTEPS, traffic and stall attribution. Its
 *    converged values are verified against the functional plane before
 *    results are returned: bit-exact for the integer min-propagation
 *    kernels (unique fixpoint), within a small relative tolerance for
 *    PageRank (f32 gather order is arrival-dependent, exactly as on
 *    the single board). A violation is a fatal simulation bug, never a
 *    silent deviation.
 *
 * The driver only mutates board/link state between Engine::runUntil
 * segments (the same discipline as Accelerator::run): every runUntil
 * entry re-observes mutations via wakeAll.
 */

#ifndef GMOMS_CLUSTER_CLUSTER_ENGINE_HH
#define GMOMS_CLUSTER_CLUSTER_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/accel/accelerator.hh"
#include "src/algo/spec.hh"
#include "src/cluster/partitioner.hh"
#include "src/graph/coo.hh"
#include "src/graph/partition.hh"
#include "src/obs/telemetry.hh"

namespace gmoms
{

/** One board's timed-plane outcome. */
struct ClusterBoardReport
{
    std::uint32_t board = 0;
    NodeId owned_nodes = 0;
    NodeId ghost_nodes = 0;
    EdgeId local_edges = 0;
    EdgeId cut_edges = 0;
    std::uint32_t iterations = 0;
    EdgeId edges_processed = 0;
    std::uint64_t dram_bytes_read = 0;
    std::uint64_t dram_bytes_written = 0;
    double moms_hit_rate = 0.0;
    /** Barrier / ghost-data wait cycles (BoardLink stall cause). */
    std::uint64_t link_wait_cycles = 0;
    /** Egress credit-stall cycles (BoardLink stall cause). */
    std::uint64_t credit_stall_cycles = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t marker_packets = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t wire_bytes = 0;
    std::shared_ptr<const TelemetrySummary> telemetry;
};

/** Cluster-wide timed-plane outcome riding along the RunResult. */
struct ClusterReport
{
    ClusterConfig config;
    /** BSP: superstep barriers executed. Async: max board iteration
     *  count. */
    std::uint32_t supersteps = 0;
    EdgeId cut_edges = 0;
    NodeId ghost_count = 0;
    double edge_balance = 1.0;
    std::uint64_t link_wire_bytes = 0;
    std::uint64_t link_packets = 0;
    std::uint64_t link_updates = 0;
    /** Timed-vs-functional verification outcome. True whenever the run
     *  reached its fixpoint (a violation there is fatal). False only
     *  for runs truncated by spec.max_iterations before convergence:
     *  a truncated min-propagation wavefront is schedule-dependent, so
     *  the timed plane may legitimately sit mid-flight while the
     *  canonical raw_values (functional plane) stay deterministic. */
    bool timed_matches_reference = false;
    /** Max relative deviation of the timed PageRank values (0 for the
     *  bit-exact integer kernels). */
    double max_rel_error = 0.0;
    std::vector<ClusterBoardReport> boards;
};

struct ClusterRunResult
{
    RunResult run;  //!< raw_values = functional plane (canonical)
    ClusterReport report;
    /** Engine activity counters of the shared cluster engine. */
    Engine::Stats engine;
    /** Engine mode actually used (GMOMS_FULL_TICK may force it). */
    bool full_tick = false;
};

/**
 * Run @p spec over @p g on the cluster described by @p cfg.cluster
 * (cfg must be validated, cfg.cluster.enabled(), and cfg.nd/ns must
 * match @p global_pg — the Session guarantees all three).
 * @p global_pg is the single-board partition of @p g, used for the
 * functional plane.
 */
ClusterRunResult runCluster(const AccelConfig& cfg, const CooGraph& g,
                            const PartitionedGraph& global_pg,
                            const AlgoSpec& spec);

} // namespace gmoms

#endif // GMOMS_CLUSTER_CLUSTER_ENGINE_HH
