/**
 * @file
 * One simulated FPGA board of the cluster: a full copy of the
 * single-board micro-architecture — its own DRAM channels, MOMS
 * hierarchy, PEs, graph image and telemetry sampler — registered on the
 * cluster's shared engine under the name prefix "b<i>.".
 *
 * A Board does not own the iteration loop the way Accelerator::run()
 * does; it exposes the loop's steps (startIteration / iterationDone /
 * finishIteration) plus the ghost-exchange half (collectExports /
 * applyGhostUpdates) so the ClusterEngine driver can interleave boards
 * under either coordination mode. All stepping methods mutate state
 * only between Engine::runUntil segments.
 *
 * Differences from the single-board Accelerator, by design:
 *  - the Scheduler is limited to the shard's owned destination
 *    intervals, so ghost slots (sources only) are never initialized or
 *    written back;
 *  - layout init/const callbacks translate board-local ids to global
 *    ids before asking the (global) AlgoSpec, so BFS/SSSP sources and
 *    PageRank out-degrees land on the right nodes;
 *  - no per-board CheckHarness: its watchdog would false-trigger on
 *    barrier/ghost waits, and the cluster's functional-plane
 *    verification (docs/MODEL.md) is the stronger end-to-end check.
 */

#ifndef GMOMS_CLUSTER_BOARD_HH
#define GMOMS_CLUSTER_BOARD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/accel/accel_config.hh"
#include "src/accel/pe.hh"
#include "src/accel/scheduler.hh"
#include "src/algo/spec.hh"
#include "src/cache/moms_system.hh"
#include "src/cluster/board_link.hh"
#include "src/cluster/partitioner.hh"
#include "src/graph/layout.hh"
#include "src/graph/partition.hh"
#include "src/mem/memory_system.hh"
#include "src/obs/telemetry.hh"
#include "src/sim/engine.hh"

namespace gmoms
{

class Board
{
  public:
    /**
     * Assemble board @p b of @p cp on the shared @p engine. @p cfg is
     * the per-board micro-architecture (every board replicates it);
     * @p spec is the GLOBAL algorithm spec — id-dependent pieces are
     * wrapped with local-to-global translation internally.
     */
    Board(Engine& engine, const AccelConfig& cfg, const AlgoSpec& spec,
          const ClusterPartition& cp, std::uint32_t b);
    ~Board();

    std::uint32_t index() const { return board_; }
    const BoardShard& shard() const { return *shard_; }

    // -- iteration stepping (driver-side, between runUntil segments) ----
    void startIteration();
    bool iterationDone() const { return sched_->iterationDone(); }

    /** Close the iteration: recompute active flags from the updated
     *  intervals and swap the arrays when synchronous. Does NOT
     *  invalidate caches — the driver does that once ghost updates are
     *  in. @return true when any owned interval updated. */
    bool finishIteration();

    /**
     * Values of the nodes exported to peer @p p that changed since the
     * last collect (post-swap V_in reads, so superstep-k results).
     * Delta encoding is sound because applyGhostUpdates keeps both
     * arrays of a synchronous peer current.
     */
    std::vector<GhostUpdate> collectExports(std::uint32_t p);

    /**
     * Write received ghost values into this board's ghost slots (both
     * arrays when synchronous) and re-activate the source intervals of
     * the ghosts that changed. @return number of changed ghosts.
     */
    std::uint32_t applyGhostUpdates(const std::vector<GhostUpdate>& ups);

    void invalidateCaches() { moms_->invalidateCaches(); }

    /** Memory paths fully drained (between iterations / at the end). */
    bool idle() const { return mem_->idle() && moms_->idle(); }

    /** Scatter this board's owned timed values into @p global (indexed
     *  by global node id). */
    void readOwnedValues(std::vector<std::uint32_t>& global) const;

    // -- attribution ----------------------------------------------------
    /** Cycles spent waiting at barriers / for ghost data (driver-
     *  accounted, attributed as the board-link stall cause). */
    void addLinkWait(Cycle cycles) { link_wait_cycles_ += cycles; }
    std::uint64_t linkWaitCycles() const { return link_wait_cycles_; }

    /** Attach the link's per-board credit-stall counter to this
     *  board's telemetry (stall group "link"). */
    void registerLinkStall(const std::uint64_t* counter);

    // -- stats ----------------------------------------------------------
    std::uint32_t iterations() const { return iterations_; }
    EdgeId edgesProcessed() const;
    std::uint64_t peRawStalls() const;
    const MemorySystem& mem() const { return *mem_; }
    const MomsSystem& moms() const { return *moms_; }
    std::shared_ptr<const TelemetrySummary> finalizeTelemetry();
    void beginPhase(const std::string& name);

  private:
    std::uint32_t numJobs() const
    {
        return static_cast<std::uint32_t>(shard_->intervals.size());
    }

    AccelConfig cfg_;
    AlgoSpec spec_;
    const ClusterPartition* cp_;
    const BoardShard* shard_;
    std::uint32_t board_ = 0;
    std::uint32_t iterations_ = 0;
    std::uint64_t link_wait_cycles_ = 0;

    PartitionedGraph pg_;  //!< local shard partition (owned + ghosts)
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<MomsSystem> moms_;
    std::unique_ptr<GraphLayout> layout_;
    std::unique_ptr<Scheduler> sched_;
    std::vector<std::unique_ptr<Pe>> pes_;

    /** Last value sent per export slot, per peer: delta detection.
     *  Indexed like cp_->exportsTo(board_, p). */
    std::vector<std::vector<std::uint32_t>> last_sent_;

    /** Last member: destroyed first (references component counters). */
    std::unique_ptr<Telemetry> tele_;
};

} // namespace gmoms

#endif // GMOMS_CLUSTER_BOARD_HH
