/**
 * @file
 * End-to-end tests of the multi-board cluster: the determinism contract
 * (values identical to the single board across board counts and
 * modes), the timed-plane report, checkpoint fingerprint
 * separation and the serving layer's board-topology validation.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/accel/checkpoint.hh"
#include "src/accel/session.hh"
#include "src/algo/reference.hh"
#include "src/cluster/cluster_engine.hh"
#include "src/graph/generator.hh"
#include "src/serve/job.hh"

namespace gmoms
{
namespace
{

AccelConfig
smallConfig()
{
    return AccelConfig::preset(MomsConfig::twoLevel(4), /*pes=*/4,
                               /*channels=*/2);
}

AccelConfig
clusterConfig(std::uint32_t boards, ClusterConfig::Mode mode,
              ClusterConfig::Partitioner part =
                  ClusterConfig::Partitioner::BlockEdges)
{
    AccelConfig cfg = smallConfig();
    cfg.cluster.boards = boards;
    cfg.cluster.mode = mode;
    cfg.cluster.partitioner = part;
    return cfg;
}

std::uint64_t
checksum(const SessionResult& res)
{
    return serve::valuesChecksum(res.run.raw_values);
}

SessionResult
runAlgo(const CooGraph& g, const AccelConfig& cfg,
        const std::string& algo)
{
    Session s = SessionBuilder()
                    .dataset(CooGraph(g))
                    .config(cfg)
                    .preprocessing(Preprocessing::DbgHash)
                    .build();
    if (algo == "PageRank")
        return s.pageRank(6);
    if (algo == "SSSP")
        return s.sssp(3);
    return s.bfs(3);
}

TEST(Cluster, ChecksumIdenticalToSingleBoardAcrossBoardsAndModes)
{
    const CooGraph g = rmat(10, 9000, RmatParams{}, 33);
    for (const std::string algo : {"BFS", "PageRank", "SSSP"}) {
        // Golden: the single-board run for the integer kernels (their
        // timed fixpoint is unique, so timed == functional bit-exact).
        // PageRank's single-board timed values are f32 sums in MOMS
        // arrival order; its canonical values are the functional
        // plane's, which is what the cluster returns (cluster_engine.hh).
        std::uint64_t want;
        if (algo == "PageRank") {
            Session golden = SessionBuilder()
                                 .dataset(CooGraph(g))
                                 .config(smallConfig())
                                 .preprocessing(Preprocessing::DbgHash)
                                 .build();
            const AlgoSpec spec =
                AlgoSpec::pageRank(golden.graph(), 6);
            want = serve::valuesChecksum(
                runReference(golden.partition(), spec).raw_values);
        } else {
            want = checksum(runAlgo(g, smallConfig(), algo));
        }
        for (std::uint32_t boards : {2u, 4u, 8u})
            for (auto mode : {ClusterConfig::Mode::Bsp,
                              ClusterConfig::Mode::Async}) {
                const SessionResult res = runAlgo(
                    g, clusterConfig(boards, mode), algo);
                EXPECT_EQ(checksum(res), want)
                    << algo << " on " << res.cluster->config.label();
                ASSERT_NE(res.cluster, nullptr);
                EXPECT_TRUE(res.cluster->timed_matches_reference);
            }
    }
}

TEST(Cluster, IterationCapTruncationKeepsCanonicalValues)
{
    // An SSSP stopped by max_iterations before the wavefront settles
    // has no unique fixpoint: how far values got is schedule-dependent
    // (even the single board min-folds in place mid-iteration), so the
    // strict timed-vs-functional check must NOT fire. The user-facing
    // values stay the functional plane's — the capped synchronous
    // reference — identical across board counts and modes.
    const CooGraph g = rmat(10, 9000, RmatParams{}, 33);
    auto cappedSssp = [&](const AccelConfig& cfg) {
        Session s = SessionBuilder()
                        .dataset(CooGraph(g))
                        .config(cfg)
                        .preprocessing(Preprocessing::DbgHash)
                        .build();
        return s.sssp(3, /*max_iterations=*/2);
    };
    std::uint64_t want = 0;
    bool first = true;
    for (std::uint32_t boards : {2u, 4u, 8u})
        for (auto mode : {ClusterConfig::Mode::Bsp,
                          ClusterConfig::Mode::Async}) {
            const SessionResult res =
                cappedSssp(clusterConfig(boards, mode));
            ASSERT_NE(res.cluster, nullptr);
            if (first) {
                want = checksum(res);
                first = false;
            } else {
                EXPECT_EQ(checksum(res), want)
                    << boards << " boards, "
                    << res.cluster->config.label();
            }
        }
}

TEST(Cluster, TimedPlaneIsCycleDeterministic)
{
    // Same config, same graph: the timed plane must reproduce cycles
    // and traffic exactly (the partitioner and drivers are
    // deterministic).
    const CooGraph g = rmat(9, 4000, RmatParams{}, 7);
    const AccelConfig cfg =
        clusterConfig(3, ClusterConfig::Mode::Async);
    const SessionResult a = runAlgo(g, cfg, "SSSP");
    const SessionResult b = runAlgo(g, cfg, "SSSP");
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    ASSERT_NE(a.cluster, nullptr);
    ASSERT_NE(b.cluster, nullptr);
    EXPECT_EQ(a.cluster->link_wire_bytes, b.cluster->link_wire_bytes);
    EXPECT_EQ(a.cluster->link_packets, b.cluster->link_packets);
    EXPECT_EQ(a.cluster->supersteps, b.cluster->supersteps);
}

TEST(Cluster, ReportCarriesPerBoardAttribution)
{
    const CooGraph g = rmat(10, 8000, RmatParams{}, 13);
    AccelConfig cfg = clusterConfig(4, ClusterConfig::Mode::Bsp);
    cfg.telemetry.enabled = true;
    const SessionResult res = runAlgo(g, cfg, "PageRank");
    ASSERT_NE(res.cluster, nullptr);
    const ClusterReport& rep = *res.cluster;

    EXPECT_GT(rep.supersteps, 0u);
    EXPECT_GT(rep.cut_edges, 0u);
    EXPECT_GT(rep.ghost_count, 0u);
    EXPECT_GT(rep.link_wire_bytes, 0u);
    EXPECT_GE(rep.edge_balance, 1.0);
    EXPECT_LE(rep.max_rel_error, 1e-3);

    ASSERT_EQ(rep.boards.size(), 4u);
    NodeId owned = 0;
    EdgeId edges = 0;
    std::uint64_t wire = 0;
    for (const ClusterBoardReport& br : rep.boards) {
        owned += br.owned_nodes;
        edges += br.local_edges;
        wire += br.wire_bytes;
        EXPECT_GT(br.iterations, 0u);
        // Every board has telemetry with the board-link stall channel.
        ASSERT_NE(br.telemetry, nullptr);
    }
    EXPECT_EQ(owned, res.run.raw_values.size());
    EXPECT_EQ(wire, rep.link_wire_bytes);
    EXPECT_GT(edges, 0u);
    // PageRank runs every superstep everywhere: edges processed covers
    // every local edge each superstep.
    EXPECT_EQ(res.run.edges_processed,
              static_cast<EdgeId>(edges) * rep.supersteps);
}

TEST(Cluster, LinkWaitCyclesAreAttributed)
{
    // A deliberately skewed partition (round-robin, async) makes some
    // board wait on the link at some point; the sum over boards of
    // barrier/ghost waits must be visible in the report.
    const CooGraph g = rmat(10, 9000, RmatParams{}, 3);
    const AccelConfig cfg = clusterConfig(
        4, ClusterConfig::Mode::Bsp,
        ClusterConfig::Partitioner::RoundRobin);
    const SessionResult res = runAlgo(g, cfg, "BFS");
    ASSERT_NE(res.cluster, nullptr);
    std::uint64_t total_wait = 0;
    for (const ClusterBoardReport& br : res.cluster->boards)
        total_wait += br.link_wait_cycles;
    EXPECT_GT(total_wait, 0u)
        << "a BSP barrier always leaves someone waiting";
}

TEST(Cluster, FingerprintSeparatesBoardTopologies)
{
    const AccelConfig base = smallConfig();
    const std::uint64_t f1 = configFingerprint(base);

    AccelConfig two = base;
    two.cluster.boards = 2;
    const std::uint64_t f2 = configFingerprint(two);
    EXPECT_NE(f1, f2);

    AccelConfig four = base;
    four.cluster.boards = 4;
    EXPECT_NE(configFingerprint(four), f2);

    AccelConfig async = two;
    async.cluster.mode = ClusterConfig::Mode::Async;
    EXPECT_NE(configFingerprint(async), f2);

    AccelConfig rr = two;
    rr.cluster.partitioner = ClusterConfig::Partitioner::RoundRobin;
    EXPECT_NE(configFingerprint(rr), f2);

    AccelConfig slow = two;
    slow.cluster.link_latency = 999;
    EXPECT_NE(configFingerprint(slow), f2);

    // Single-board sessions ignore the link knobs entirely, so they
    // share checkpoints across them.
    AccelConfig single_slow = base;
    single_slow.cluster.link_latency = 999;
    EXPECT_EQ(configFingerprint(single_slow), f1);
}

TEST(Cluster, ConfigValidationAccumulatesClusterProblems)
{
    AccelConfig cfg = smallConfig();
    cfg.cluster.boards = 9;               // > kMaxBoards
    cfg.cluster.link_bytes_per_cycle = 0; // zero-cost wire
    cfg.cluster.link_latency = 0;
    cfg.cluster.link_credits = 0;
    cfg.cluster.link_max_packet_bytes = 4; // < one update
    const auto problems = cfg.validateProblems();
    int cluster_problems = 0;
    for (const std::string& p : problems)
        if (p.find("cluster.") != std::string::npos)
            ++cluster_problems;
    EXPECT_EQ(cluster_problems, 5) << "all cluster problems in one list";
    EXPECT_THROW(cfg.validate(), FatalError);

    // boards == 1 ignores the link fields: no cluster problems.
    AccelConfig single = smallConfig();
    single.cluster.link_bytes_per_cycle = 0;
    EXPECT_TRUE(single.validateProblems().empty());
}

TEST(Cluster, JobSpecCarriesBoardTopology)
{
    serve::JobSpec spec;
    spec.tenant = "t0";
    spec.dataset = "WT";
    spec.algo = "BFS";
    spec.boards = 4;
    spec.cluster_mode = "async";
    spec.cluster_partitioner = "round-robin";
    const serve::ValidatedJob ok = serve::validateJobSpec(spec);
    EXPECT_TRUE(ok.ok()) << (ok.problems.empty()
                                 ? ""
                                 : ok.problems.front());
    EXPECT_EQ(ok.config.cluster.boards, 4u);
    EXPECT_EQ(ok.config.cluster.mode, ClusterConfig::Mode::Async);
    EXPECT_EQ(ok.config.cluster.partitioner,
              ClusterConfig::Partitioner::RoundRobin);

    spec.boards = 12;
    spec.cluster_mode = "chaotic";
    spec.cluster_partitioner = "metis";
    const serve::ValidatedJob bad = serve::validateJobSpec(spec);
    EXPECT_FALSE(bad.ok());
    EXPECT_GE(bad.problems.size(), 3u)
        << "boards range + mode + partitioner problems accumulate";
}

TEST(Cluster, ForkedSessionReproducesClusterReport)
{
    // A copy of a warm 2-board session simulates the same checksum and
    // the same cluster report as the session it was copied from.
    // (Board counts separate pooled sessions and cached results through
    // the config fingerprint: Fingerprint.SeparatesResultRelevantConfigs.)
    const CooGraph g = rmat(9, 4000, RmatParams{}, 19);
    Session s = SessionBuilder()
                    .dataset(CooGraph(g))
                    .config(clusterConfig(2, ClusterConfig::Mode::Bsp))
                    .build();
    s.partition();
    Session forked = s;
    const SessionResult first = s.bfs(3);
    const SessionResult again = forked.bfs(3);
    EXPECT_EQ(checksum(first), checksum(again));
    EXPECT_EQ(first.run.cycles, again.run.cycles);
    ASSERT_NE(first.cluster, nullptr);
    ASSERT_NE(again.cluster, nullptr);
    EXPECT_EQ(again.cluster->config.boards, 2u);
    EXPECT_EQ(again.cluster->supersteps, first.cluster->supersteps);
    EXPECT_EQ(again.cluster->cut_edges, first.cluster->cut_edges);
    EXPECT_EQ(again.cluster->link_wire_bytes,
              first.cluster->link_wire_bytes);
    EXPECT_EQ(again.cluster->boards.size(), 2u);
}

} // namespace
} // namespace gmoms
