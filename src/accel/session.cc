#include "src/accel/session.hh"

#include <numeric>

#include "src/cluster/cluster_engine.hh"
#include "src/graph/generator.hh"
#include "src/sim/log.hh"
#include "src/sim/report.hh"

namespace gmoms
{

Session::Session(std::shared_ptr<const CooGraph> graph,
                 AccelConfig config, Preprocessing preprocessing,
                 std::uint32_t weight_seed)
    : config_(std::move(config)), src_(std::move(graph)),
      weight_seed_(weight_seed)
{
    if (!src_ || src_->numNodes() == 0)
        fatal("Session needs a nonempty graph");

    auto [nd, ns] =
        defaultIntervalsFor(src_->numNodes(), src_->numEdges());
    config_.nd = nd;
    config_.ns = ns;
    config_.validate();

    // Record the permutation so callers can translate node ids. The
    // identity permutation is kept implicit (empty vectors): sweeps
    // construct a Session per run, and two O(N) id tables per run is
    // real cost on multi-million-node datasets.
    // The packed variants request the half-word CSR edge encoding on
    // top of their base relabeling; the flag rides on the config so it
    // reaches layouts, fingerprints and checkpoints uniformly.
    if (packedCsr(preprocessing))
        config_.packed_edges = true;
    std::vector<NodeId> perm =
        preprocessingPermutation(*src_, preprocessing, nd);
    if (!perm.empty()) {
        std::vector<NodeId> inv(src_->numNodes());
        for (NodeId i = 0; i < src_->numNodes(); ++i)
            inv[perm[i]] = i;
        to_internal_ = std::make_shared<const std::vector<NodeId>>(
            std::move(perm));
        to_original_ = std::make_shared<const std::vector<NodeId>>(
            std::move(inv));
    }
}

void
Session::ensurePlain() const
{
    if (plain_)
        return;
    if (!to_internal_ && !src_->weighted()) {
        plain_ = src_;  // already the plain view: share, don't copy
    } else {
        CooGraph g = !to_internal_ ? *src_
                                   : src_->relabeled(*to_internal_);
        g.setWeighted(false);
        plain_ = std::make_shared<const CooGraph>(std::move(g));
    }
    pg_plain_ = std::make_shared<const PartitionedGraph>(
        *plain_, config_.nd, config_.ns);
}

void
Session::ensureWeighted() const
{
    if (weighted_)
        return;
    if (src_->weighted()) {
        // The dataset brought its own weights: honor them (relabeled()
        // carries weights through the permutation).
        weighted_ = !to_internal_
                        ? src_
                        : std::make_shared<const CooGraph>(
                              src_->relabeled(*to_internal_));
    } else {
        ensurePlain();
        CooGraph g = *plain_;
        addRandomWeights(g, weight_seed_);
        weighted_ = std::make_shared<const CooGraph>(std::move(g));
    }
    pg_weighted_ = std::make_shared<const PartitionedGraph>(
        *weighted_, config_.nd, config_.ns);
}

const CooGraph&
Session::graph() const
{
    ensurePlain();
    return *plain_;
}

const PartitionedGraph&
Session::partition() const
{
    ensurePlain();
    return *pg_plain_;
}

const PartitionedGraph&
Session::weightedPartition() const
{
    ensureWeighted();
    return *pg_weighted_;
}

namespace
{

std::size_t
graphBytes(const CooGraph& g)
{
    return g.numEdges() * sizeof(Edge) +
           static_cast<std::size_t>(g.numNodes()) * sizeof(NodeId);
}

} // namespace

std::size_t
Session::residentBytes() const
{
    std::size_t total = sizeof(Session) + graphBytes(*src_);
    if (plain_ && plain_ != src_)
        total += graphBytes(*plain_);
    if (weighted_ && weighted_ != src_ && weighted_ != plain_)
        total += graphBytes(*weighted_);
    // A partition re-buckets every edge once plus interval metadata.
    if (pg_plain_)
        total += graphBytes(*plain_);
    if (pg_weighted_)
        total += graphBytes(*weighted_);
    if (to_internal_)
        total += to_internal_->size() * sizeof(NodeId) * 2;
    return total;
}

NodeId
Session::internalId(NodeId original) const
{
    if (original >= src_->numNodes())
        fatal("internalId: node out of range");
    return !to_internal_ ? original : (*to_internal_)[original];
}

NodeId
Session::originalId(NodeId internal) const
{
    if (internal >= src_->numNodes())
        fatal("originalId: node out of range");
    return !to_original_ ? internal : (*to_original_)[internal];
}

SessionResult
Session::runSpec(const AlgoSpec& spec, const CooGraph& g,
                 const PartitionedGraph& pg)
{
    SessionResult out;
    if (config_.cluster.enabled()) {
        // Multi-board path: the timed plane runs one engine with a
        // Board per shard; raw_values come from the functional plane,
        // so they are bit-identical to the single-board run below.
        WallTimer timer;
        ClusterRunResult cres =
            runCluster(config_, g, pg, spec);
        out.wall_seconds = timer.elapsedSeconds();
        out.run = std::move(cres.run);
        out.cluster = std::make_shared<const ClusterReport>(
            std::move(cres.report));
        out.engine = cres.engine;
        out.full_tick = cres.full_tick;
    } else {
        Accelerator accel(config_, pg, spec);
        WallTimer timer;
        out.run = accel.run();
        out.wall_seconds = timer.elapsedSeconds();
        out.engine = accel.engine().stats();
        out.full_tick = accel.engine().fullTick();
    }
    out.fmax_mhz = modelFrequencyMhz(config_, spec);
    out.gteps = out.run.gteps(out.fmax_mhz);
    out.power_watts = modelPowerWatts(config_, spec);
    out.values.resize(g.numNodes());
    for (NodeId i = 0; i < g.numNodes(); ++i)
        out.values[i] = spec.finalValue(out.run.raw_values[i], i);
    return out;
}

SessionResult
Session::pageRank(std::uint32_t iterations)
{
    ensurePlain();
    return runSpec(AlgoSpec::pageRank(*plain_, iterations), *plain_,
                   *pg_plain_);
}

SessionResult
Session::scc(std::uint32_t max_iterations)
{
    ensurePlain();
    return runSpec(AlgoSpec::scc(plain_->numNodes(), max_iterations),
                   *plain_, *pg_plain_);
}

SessionResult
Session::sssp(NodeId source, std::uint32_t max_iterations)
{
    ensureWeighted();
    return runSpec(AlgoSpec::sssp(internalId(source), max_iterations),
                   *weighted_, *pg_weighted_);
}

SessionResult
Session::bfs(NodeId source, std::uint32_t max_iterations)
{
    ensurePlain();
    return runSpec(AlgoSpec::bfs(internalId(source), max_iterations),
                   *plain_, *pg_plain_);
}

SessionResult
Session::run(const std::string& algo, NodeId source,
             std::uint32_t iterations)
{
    const std::uint32_t cap = effectiveIterations(algo, iterations);
    if (algo == "PageRank")
        return pageRank(cap);
    if (algo == "SCC")
        return scc(cap);
    if (algo == "SSSP")
        return sssp(source, cap);
    if (algo == "BFS")
        return bfs(source, cap);
    fatal("unknown algorithm \"" + algo +
          "\" (expected PageRank, SCC, SSSP or BFS)");
}

std::uint32_t
effectiveIterations(const std::string& algo, std::uint32_t iterations)
{
    if (iterations != 0)
        return iterations;
    return algo == "PageRank" ? kPageRankIterations : kMaxIterations;
}

SessionBuilder&
SessionBuilder::dataset(CooGraph graph)
{
    graph_ = std::make_shared<const CooGraph>(std::move(graph));
    return *this;
}

SessionBuilder&
SessionBuilder::dataset(std::shared_ptr<const CooGraph> graph)
{
    graph_ = std::move(graph);
    return *this;
}

SessionBuilder&
SessionBuilder::datasetView(const CooGraph& graph)
{
    // Aliasing shared_ptr with a no-op deleter: no copy, no ownership.
    graph_ = std::shared_ptr<const CooGraph>(&graph,
                                             [](const CooGraph*) {});
    return *this;
}

SessionBuilder&
SessionBuilder::config(AccelConfig cfg)
{
    config_ = std::move(cfg);
    return *this;
}

SessionBuilder&
SessionBuilder::preprocessing(Preprocessing prep)
{
    prep_ = prep;
    return *this;
}

SessionBuilder&
SessionBuilder::weightSeed(std::uint32_t seed)
{
    weight_seed_ = seed;
    return *this;
}

SessionBuilder&
SessionBuilder::algo(std::string name)
{
    algo_ = std::move(name);
    return *this;
}

SessionBuilder&
SessionBuilder::iterations(std::uint32_t n)
{
    iterations_ = n;
    return *this;
}

SessionBuilder&
SessionBuilder::source(NodeId source)
{
    source_ = source;
    return *this;
}

SessionBuilder&
SessionBuilder::telemetry(bool on)
{
    telemetry_on_ = on;
    return *this;
}

SessionBuilder&
SessionBuilder::telemetry(TelemetryConfig cfg)
{
    telemetry_cfg_ = std::move(cfg);
    return *this;
}

SessionBuilder&
SessionBuilder::checks(bool on)
{
    checks_on_ = on;
    return *this;
}

SessionBuilder&
SessionBuilder::checks(CheckConfig cfg)
{
    checks_cfg_ = std::move(cfg);
    return *this;
}

AccelConfig
SessionBuilder::effectiveConfig() const
{
    AccelConfig cfg = config_;
    if (telemetry_cfg_)
        cfg.telemetry = *telemetry_cfg_;
    if (telemetry_on_)
        cfg.telemetry.enabled = *telemetry_on_;
    if (checks_cfg_)
        cfg.checks = *checks_cfg_;
    if (checks_on_)
        cfg.checks.enabled = *checks_on_;
    return cfg;
}

Session
SessionBuilder::build() const
{
    if (!graph_)
        fatal("SessionBuilder: no dataset — call .dataset(...) first");
    return Session(graph_, effectiveConfig(), prep_, weight_seed_);
}

SessionResult
SessionBuilder::run() const
{
    if (algo_.empty())
        fatal("SessionBuilder::run needs .algo(...): one of PageRank, "
              "SCC, SSSP, BFS");
    return build().run(algo_, source_, iterations_);
}

} // namespace gmoms
