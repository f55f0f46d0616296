/**
 * @file
 * Tests for the cluster edge-cut partitioner: invariants of the
 * board-local id spaces, owner/ghost translation, export lists, and the
 * adversarial shapes (empty shards, isolated vertices, all-edges-cut
 * graphs) the driver must survive.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/cluster/partitioner.hh"
#include "src/graph/generator.hh"

namespace gmoms
{
namespace
{

ClusterConfig
cluster(std::uint32_t boards,
        ClusterConfig::Partitioner part =
            ClusterConfig::Partitioner::BlockEdges)
{
    ClusterConfig cc;
    cc.boards = boards;
    cc.partitioner = part;
    return cc;
}

/** Every structural invariant the rest of the subsystem leans on. */
void
checkInvariants(const CooGraph& g, std::uint32_t nd,
                const ClusterPartition& cp)
{
    const std::uint32_t boards = cp.boards();
    EdgeId edges_seen = 0;
    NodeId owned_seen = 0;

    for (std::uint32_t b = 0; b < boards; ++b) {
        const BoardShard& sh = cp.shard(b);
        edges_seen += sh.local_edges;
        owned_seen += sh.num_owned;

        // Owned intervals are ascending and nd-aligned locally; only
        // the globally-last interval may be short.
        for (std::size_t k = 0; k + 1 < sh.intervals.size(); ++k)
            EXPECT_LT(sh.intervals[k], sh.intervals[k + 1]);
        if (sh.num_ghosts > 0) {
            EXPECT_EQ(sh.ghost_base % nd, 0u);
            EXPECT_GE(sh.ghost_base, sh.num_owned);
        }

        // Id maps round-trip: owned and ghost slots carry real global
        // ids; padding slots carry none.
        EXPECT_EQ(sh.to_global.size(), sh.ghost_base + sh.num_ghosts);
        for (NodeId local = 0; local < sh.to_global.size(); ++local) {
            const NodeId global = sh.to_global[local];
            if (local >= sh.num_owned && local < sh.ghost_base) {
                EXPECT_EQ(global, kNoGlobalId);
                continue;
            }
            ASSERT_NE(global, kNoGlobalId);
            EXPECT_EQ(cp.localId(b, global), local);
            EXPECT_EQ(cp.globalId(b, local), global);
            if (local < sh.num_owned)
                EXPECT_EQ(cp.ownerOfNode(global), b);
            else
                EXPECT_NE(cp.ownerOfNode(global), b);
        }

        // The local graph's edges: destination owned, source owned or
        // ghost (never padding), cut iff the source is a ghost.
        EdgeId cut = 0;
        for (const Edge& e : sh.local.edges()) {
            EXPECT_LT(e.dst, sh.num_owned);
            EXPECT_NE(sh.to_global[e.src], kNoGlobalId);
            if (e.src >= sh.ghost_base)
                ++cut;
            else
                EXPECT_LT(e.src, sh.num_owned);
        }
        EXPECT_EQ(cut, sh.cut_edges);
        EXPECT_EQ(sh.local.numEdges(), sh.local_edges);
    }

    // Edge conservation and node coverage.
    EXPECT_EQ(edges_seen, g.numEdges());
    EXPECT_EQ(owned_seen, g.numNodes());

    // Export lists mirror the ghost sets exactly.
    NodeId ghosts_seen = 0;
    for (std::uint32_t p = 0; p < boards; ++p) {
        const BoardShard& sh = cp.shard(p);
        ghosts_seen += sh.num_ghosts;
        std::set<NodeId> ghosts;
        for (NodeId local = sh.ghost_base;
             local < sh.ghost_base + sh.num_ghosts; ++local)
            ghosts.insert(sh.to_global[local]);
        std::set<NodeId> exported;
        for (std::uint32_t b = 0; b < boards; ++b) {
            for (NodeId global : cp.exportsTo(b, p)) {
                EXPECT_EQ(cp.ownerOfNode(global), b);
                EXPECT_TRUE(exported.insert(global).second)
                    << "node exported twice to board " << p;
            }
        }
        EXPECT_EQ(exported, ghosts) << "board " << p;
    }
    EXPECT_EQ(ghosts_seen, cp.totalGhosts());
}

TEST(ClusterPartition, RandomGraphInvariantsAcrossShapes)
{
    const CooGraph g = rmat(10, 8000, RmatParams{}, 21);
    for (std::uint32_t boards : {2u, 3u, 4u, 8u})
        for (auto part : {ClusterConfig::Partitioner::BlockEdges,
                          ClusterConfig::Partitioner::RoundRobin}) {
            const ClusterPartition cp(g, 128, cluster(boards, part));
            checkInvariants(g, 128, cp);
        }
}

TEST(ClusterPartition, TinyGraphLeavesLateBoardsEmpty)
{
    // One destination interval total: boards 1..7 own nothing.
    CooGraph g(50);
    for (NodeId i = 0; i + 1 < 50; ++i)
        g.addEdge(i, i + 1);
    const ClusterPartition cp(g, 128, cluster(8));
    checkInvariants(g, 128, cp);
    EXPECT_FALSE(cp.shard(0).empty());
    EXPECT_EQ(cp.shard(0).num_owned, 50u);
    EXPECT_EQ(cp.shard(0).num_ghosts, 0u);
    for (std::uint32_t b = 1; b < 8; ++b) {
        EXPECT_TRUE(cp.shard(b).empty());
        EXPECT_EQ(cp.shard(b).local_edges, 0u);
    }
}

TEST(ClusterPartition, IsolatedVerticesAreOwnedButNeverGhosted)
{
    // Edges only among the first 64 nodes; the rest are isolated and
    // must still be owned by exactly one board (value arrays cover
    // them) without ever appearing in an export list.
    CooGraph g(1000);
    for (NodeId i = 0; i < 64; ++i)
        g.addEdge(i, (i * 7 + 1) % 64);
    const ClusterPartition cp(g, 64, cluster(4));
    checkInvariants(g, 64, cp);
    for (NodeId n = 64; n < 1000; ++n) {
        const std::uint32_t owner = cp.ownerOfNode(n);
        for (std::uint32_t b = 0; b < 4; ++b)
            if (b != owner)
                EXPECT_EQ(cp.localId(b, n), kNoLocalId);
    }
    EXPECT_EQ(cp.totalGhosts(), 0u)
        << "edges stay inside interval-0 neighborhoods";
}

TEST(ClusterPartition, AllEdgesCutAdversarialGraph)
{
    // Round-robin over nd-sized intervals with every edge crossing an
    // interval boundary: no edge may stay local.
    const std::uint32_t nd = 32;
    CooGraph g(4 * nd);
    for (NodeId i = 0; i < nd; ++i)
        for (std::uint32_t j = 1; j < 4; ++j)
            g.addEdge(i, j * nd + i);
    const ClusterPartition cp(
        g, nd, cluster(4, ClusterConfig::Partitioner::RoundRobin));
    checkInvariants(g, nd, cp);
    EXPECT_EQ(cp.totalCutEdges(), g.numEdges());
    for (std::uint32_t b = 1; b < 4; ++b)
        EXPECT_EQ(cp.shard(b).cut_edges, cp.shard(b).local_edges);
}

TEST(ClusterPartition, ShortLastIntervalPadsGhostBase)
{
    // 3 intervals of nd=64 plus a short tail of 10 nodes. Round-robin
    // on 2 boards puts intervals {0,2} on board 0 and {1,3-short} on
    // board 1; cross edges force ghosts on both.
    const std::uint32_t nd = 64;
    CooGraph g(3 * nd + 10);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        g.addEdge(i, (i + nd) % g.numNodes());
    const ClusterPartition cp(
        g, nd, cluster(2, ClusterConfig::Partitioner::RoundRobin));
    checkInvariants(g, nd, cp);
    const BoardShard& tail = cp.shard(1);
    ASSERT_GT(tail.num_ghosts, 0u);
    // Owned 64 + 10 = 74 nodes; ghosts must start at the next interval
    // boundary (128), leaving padding slots in between.
    EXPECT_EQ(tail.num_owned, 74u);
    EXPECT_EQ(tail.ghost_base, 128u);
}

TEST(ClusterPartition, BlockEdgesBalancesBetterThanWorstCase)
{
    // A skewed rmat: block-edges must keep the per-board edge load
    // within a sane factor of perfect balance.
    const CooGraph g = rmat(11, 30000, RmatParams{}, 5);
    const ClusterPartition cp(g, 128, cluster(4));
    checkInvariants(g, 128, cp);
    EXPECT_LT(cp.edgeBalance(), 2.5);
    EXPECT_GE(cp.edgeBalance(), 1.0);
}

TEST(ClusterPartition, WeightsSurviveIntoLocalGraphs)
{
    CooGraph g = uniformRandom(600, 4000, 9);
    addRandomWeights(g, 123);
    const ClusterPartition cp(g, 64, cluster(3));
    checkInvariants(g, 64, cp);
    // Sum of weights is conserved (every edge lands exactly once).
    std::uint64_t want = 0, got = 0;
    for (const std::uint32_t w : g.weights())
        want += w;
    for (std::uint32_t b = 0; b < 3; ++b) {
        const CooGraph& local = cp.shard(b).local;
        EXPECT_TRUE(local.weighted());
        EXPECT_EQ(local.weights().size(), local.numEdges());
        for (const std::uint32_t w : local.weights())
            got += w;
    }
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace gmoms
