/**
 * @file
 * High-level driver API: the few-call path from "I have a graph" to
 * "here are my results and counters", mirroring how a host application
 * would use the accelerator through its shell (Section IV-B's
 * memory-mapped configuration interface, abstracted).
 *
 * `Session` is the single public entry point: it owns one preprocessed,
 * partitioned view of a graph and runs any number of algorithms over
 * it, reusing the preprocessing work — the "graphs generated by another
 * application and used no more than a few times" scenario of the
 * paper's introduction is exactly when preprocessing reuse matters.
 * `SessionBuilder` is the fluent way to assemble one (and optionally
 * fire a single run).
 *
 * Every view, partition and id table a Session builds is a
 * shared_ptr<const ...>, so copying a warmed Session is O(1) and the
 * copy shares them all: that copy is the serving layer's checkpoint
 * fork (serve/checkpoint_pool). Because the simulator is
 * deterministic, those inputs are a run's whole state, and a copy
 * simulates bit-identically to the session it was copied from.
 */

#ifndef GMOMS_ACCEL_SESSION_HH
#define GMOMS_ACCEL_SESSION_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/accel/accelerator.hh"
#include "src/accel/resource_model.hh"
#include "src/graph/reorder.hh"

namespace gmoms
{

struct ClusterReport;

/** One algorithm run's user-facing outcome. */
struct SessionResult
{
    RunResult run;
    double fmax_mhz = 0;
    double gteps = 0;
    double power_watts = 0;
    /** Denormalized per-node values (PageRank scores, labels, dists),
     *  indexed by INTERNAL node id (Session::internalId). */
    std::vector<double> values;

    /** Engine activity counters of the run (idle-aware accounting). */
    Engine::Stats engine;
    /** Wall-clock seconds spent inside Accelerator::run(). */
    double wall_seconds = 0;
    /** Engine mode actually used (GMOMS_FULL_TICK may force it). */
    bool full_tick = false;

    /** Multi-board breakdown; null on single-board runs
     *  (config.cluster.boards == 1). */
    std::shared_ptr<const ClusterReport> cluster;
};

/**
 * One preprocessed dataset bound to one accelerator configuration.
 *
 * The session keeps two lazily materialized views of the source graph:
 * a plain (unweighted) view for PageRank/SCC/BFS and a weighted view
 * for SSSP. If the source graph already carries weights the weighted
 * view uses them; otherwise uniform random weights in [0,255] are added
 * with @p weight_seed (Section V-A's setup). Each view is partitioned
 * once and reused across runs.
 *
 * Interval sizes (nd/ns) are always chosen from the dataset geometry;
 * values set in @p config are overwritten.
 */
class Session
{
  public:
    /**
     * Bind @p graph (shared, never mutated) to @p config, recording
     * the @p preprocessing permutation so callers can translate node
     * ids. Fails on an empty graph or an invalid configuration.
     */
    Session(std::shared_ptr<const CooGraph> graph, AccelConfig config,
            Preprocessing preprocessing = Preprocessing::None,
            std::uint32_t weight_seed = 97);

    /** PageRank over the session's graph. */
    SessionResult pageRank(std::uint32_t iterations = kPageRankIterations);
    /** Min-label propagation (the paper's SCC kernel). */
    SessionResult scc(std::uint32_t max_iterations = kMaxIterations);
    /** SSSP from @p source (an ORIGINAL-graph node id). */
    SessionResult sssp(NodeId source,
                       std::uint32_t max_iterations = kMaxIterations);
    /** BFS depth from @p source (an ORIGINAL-graph node id). */
    SessionResult bfs(NodeId source,
                      std::uint32_t max_iterations = kMaxIterations);
    /**
     * Run @p algo by name: "PageRank", "SCC", "SSSP" or "BFS" (fatal
     * otherwise). @p source is an ORIGINAL id, used by SSSP and BFS;
     * @p iterations 0 means effectiveIterations()'s default.
     */
    SessionResult run(const std::string& algo, NodeId source = 0,
                      std::uint32_t iterations = 0);

    /**
     * Translate a node id of the ORIGINAL graph to the session's
     * relabeled id (preprocessing permutes labels).
     */
    NodeId internalId(NodeId original) const;
    /** Inverse mapping. */
    NodeId originalId(NodeId internal) const;

    /** The plain (relabeled, unweighted) view. */
    const CooGraph& graph() const;
    /** Partition of the plain view, built on first use. */
    const PartitionedGraph& partition() const;
    /** Partition of the weighted (SSSP) view, built on first use. */
    const PartitionedGraph& weightedPartition() const;
    /** Whether the weighted view and its partition are built. */
    bool weightedBuilt() const { return pg_weighted_ != nullptr; }
    /** Bytes of the source graph, the built views and partitions (each
     *  container's bytes()) and the id tables; a view shared with the
     *  source graph counts once. */
    std::size_t residentBytes() const;
    const AccelConfig& config() const { return config_; }

    /** Set the replay recipe prepended to this session's diagnostic
     *  dumps (CheckConfig::replay_context). Result-neutral — the
     *  context only appears in failure dumps — so copies of one warm
     *  session may each carry their own job's descriptor. */
    void
    setReplayContext(std::string ctx)
    {
        config_.checks.replay_context = std::move(ctx);
    }

  private:
    SessionResult runSpec(const AlgoSpec& spec, const CooGraph& g,
                          const PartitionedGraph& pg);
    /** Materialize the plain view + its partition on first use. */
    void ensurePlain() const;
    /** Materialize the weighted view + its partition on first use. */
    void ensureWeighted() const;

    AccelConfig config_;
    std::shared_ptr<const CooGraph> src_;
    /** original -> internal; null means identity (prep None). Shared
     *  (not copied) by Session copies. */
    std::shared_ptr<const std::vector<NodeId>> to_internal_;
    std::shared_ptr<const std::vector<NodeId>> to_original_;
    std::uint32_t weight_seed_ = 97;

    mutable std::shared_ptr<const CooGraph> plain_;
    mutable std::shared_ptr<const CooGraph> weighted_;
    mutable std::shared_ptr<const PartitionedGraph> pg_plain_;
    mutable std::shared_ptr<const PartitionedGraph> pg_weighted_;
};

/** @p iterations, or @p algo's default cap when it is 0:
 *  kPageRankIterations for PageRank, kMaxIterations otherwise. */
std::uint32_t effectiveIterations(const std::string& algo,
                                  std::uint32_t iterations);

/**
 * Fluent assembly of a Session, and the one-liner run path:
 *
 *   SessionResult res = SessionBuilder()
 *                           .dataset(std::move(graph))
 *                           .preprocessing(Preprocessing::DbgHash)
 *                           .config(AccelConfig::paper18x16TwoLevel())
 *                           .algo("PageRank").iterations(10)
 *                           .run();
 *
 * Setter order never matters: telemetry()/checks() toggles are applied
 * on top of the config at build() time.
 */
class SessionBuilder
{
  public:
    /** Take ownership of @p graph. */
    SessionBuilder& dataset(CooGraph graph);
    /** Share an already-built dataset (sweeps: no per-run copy). */
    SessionBuilder& dataset(std::shared_ptr<const CooGraph> graph);
    /** Borrow @p graph without copying; the caller must keep it alive
     *  for the Session's lifetime. */
    SessionBuilder& datasetView(const CooGraph& graph);

    SessionBuilder& config(AccelConfig cfg);
    SessionBuilder& preprocessing(Preprocessing prep);
    /** Seed for synthetic SSSP weights on unweighted datasets. */
    SessionBuilder& weightSeed(std::uint32_t seed);

    /** Algorithm for run(): "PageRank", "SCC", "SSSP" or "BFS". */
    SessionBuilder& algo(std::string name);
    /** Iteration cap for run(); 0 (the default) means
     *  effectiveIterations()'s default for the algorithm. */
    SessionBuilder& iterations(std::uint32_t n);
    /** Source node (ORIGINAL id) for SSSP/BFS; defaults to 0. */
    SessionBuilder& source(NodeId source);

    /** Toggle telemetry collection, or install a full config. */
    SessionBuilder& telemetry(bool on = true);
    SessionBuilder& telemetry(TelemetryConfig cfg);
    /** Toggle the hardening layer, or install a full config. */
    SessionBuilder& checks(bool on = true);
    SessionBuilder& checks(CheckConfig cfg);

    /** Assemble the Session (dataset required). */
    Session build() const;
    /** Assemble and run the selected algorithm once. */
    SessionResult run() const;

  private:
    AccelConfig effectiveConfig() const;

    std::shared_ptr<const CooGraph> graph_;
    AccelConfig config_;
    Preprocessing prep_ = Preprocessing::None;
    std::uint32_t weight_seed_ = 97;
    std::string algo_;
    std::uint32_t iterations_ = 0;
    NodeId source_ = 0;
    std::optional<TelemetryConfig> telemetry_cfg_;
    std::optional<bool> telemetry_on_;
    std::optional<CheckConfig> checks_cfg_;
    std::optional<bool> checks_on_;
};

} // namespace gmoms

#endif // GMOMS_ACCEL_SESSION_HH
