/**
 * @file
 * Template 1 semantics tests: active-shard bookkeeping, synchronous
 * array swapping and the always_active behaviour, checked both on the
 * reference executor and through the timed accelerator's counters.
 */

#include <gtest/gtest.h>

#include "src/accel/accelerator.hh"
#include "src/algo/reference.hh"
#include "src/graph/generator.hh"

namespace gmoms
{
namespace
{

TEST(TemplateSemantics, AlwaysActiveProcessesEveryEdgeEveryIteration)
{
    CooGraph g = uniformRandom(300, 3000, 3);
    AlgoSpec pr = AlgoSpec::pageRank(g, 4);
    PartitionedGraph pg(g, 64, 128);
    ReferenceResult res = runReference(pg, pr);
    EXPECT_EQ(res.iterations, 4u);
    EXPECT_EQ(res.edges_processed, 4u * g.numEdges());
}

TEST(TemplateSemantics, ConvergedAlgorithmStopsEarly)
{
    // A star: one iteration propagates the minimum, a second confirms
    // no change (plus template bookkeeping).
    CooGraph g = star(100);
    AlgoSpec scc = AlgoSpec::scc(g.numNodes(), 50);
    PartitionedGraph pg(g, 32, 64);
    ReferenceResult res = runReference(pg, scc);
    EXPECT_LE(res.iterations, 3u);
    for (NodeId i = 0; i < 100; ++i)
        EXPECT_EQ(res.raw_values[i], 0u);
}

TEST(TemplateSemantics, InactiveSourceIntervalsSkipTheirEdges)
{
    // Two disconnected halves. A SSSP from a source in the first half
    // never activates the second half's source intervals after the
    // first iteration.
    const NodeId half = 512;
    CooGraph g(2 * half, /*weighted=*/true);
    for (NodeId i = 0; i + 1 < half; ++i)
        g.addEdge(i, i + 1, 1);
    for (NodeId i = half; i + 1 < 2 * half; ++i)
        g.addEdge(i, i + 1, 1);
    AlgoSpec sssp = AlgoSpec::sssp(0, 1000);
    PartitionedGraph pg(g, 128, 256);  // halves in separate intervals
    ReferenceResult res = runReference(pg, sssp);
    // The reachable half converges; unreachable stays INF.
    for (NodeId i = 0; i < half; ++i)
        EXPECT_EQ(res.raw_values[i], i);
    for (NodeId i = half; i < 2 * half; ++i)
        EXPECT_EQ(res.raw_values[i], kInfDist);
    // Work bound: the second half never updates, so from iteration 2
    // on its shards are inactive — strictly less than iters * M, and
    // at most M (full first sweep) plus half per later iteration.
    EXPECT_LT(res.edges_processed,
              static_cast<EdgeId>(res.iterations) * g.numEdges());
    EXPECT_LE(res.edges_processed,
              g.numEdges() + static_cast<EdgeId>(res.iterations) *
                                 g.numEdges() / 2);
}

TEST(TemplateSemantics, TimedAcceleratorSkipsInactiveShards)
{
    // Same structure through the timed machine: DRAM edge traffic in
    // late iterations should shrink, visible as total read bytes well
    // below iterations * edge bytes.
    const NodeId half = 512;
    CooGraph g(2 * half, /*weighted=*/true);
    for (NodeId i = 0; i + 1 < half; ++i)
        g.addEdge(i, i + 1, 1);
    for (NodeId i = half; i + 1 < 2 * half; ++i)
        g.addEdge(i, i + 1, 1);
    AlgoSpec sssp = AlgoSpec::sssp(0, 1000);
    AccelConfig cfg;
    cfg.num_pes = 2;
    cfg.mem.channels = 1;
    cfg.moms = MomsConfig::twoLevel(1);
    PartitionedGraph pg(g, 128, 256);
    Accelerator accel(cfg, pg, sssp);
    RunResult res = accel.run();
    for (NodeId i = 0; i < half; ++i)
        EXPECT_EQ(res.raw_values[i], i);
    EXPECT_LT(static_cast<double>(res.edges_processed),
              0.8 * static_cast<double>(res.iterations) *
                  static_cast<double>(g.numEdges()));
}

TEST(TemplateSemantics, SynchronousSwapIsolatesIterations)
{
    // In synchronous mode, values written in iteration t must not be
    // visible within iteration t. A chain seeded at node 0 propagates
    // exactly one hop per synchronous iteration.
    CooGraph g = chain(10);
    AlgoSpec bfs = AlgoSpec::bfs(0, 3);  // capped at 3 iterations
    bfs.synchronous = true;
    bfs.use_local_src = false;
    PartitionedGraph pg(g, 16, 32);
    ReferenceResult res = runReference(pg, bfs);
    EXPECT_EQ(res.raw_values[1], 1u);
    EXPECT_EQ(res.raw_values[2], 2u);
    EXPECT_EQ(res.raw_values[3], 3u);
    EXPECT_EQ(res.raw_values[4], kInfDist) << "one hop per iteration";
}

TEST(TemplateSemantics, AsynchronousPropagatesWithinIteration)
{
    // Asynchronous + use_local_src: within one destination interval a
    // whole chain collapses in a single iteration (partial values are
    // read from BRAM).
    CooGraph g = chain(10);
    AlgoSpec bfs = AlgoSpec::bfs(0, 1);
    PartitionedGraph pg(g, 16, 32);  // whole chain in one interval
    ReferenceResult res = runReference(pg, bfs);
    EXPECT_EQ(res.raw_values[9], 9u)
        << "async local propagation finishes in one iteration";
}

TEST(TemplateSemantics, UpdatedFlagIgnoredWhenAlwaysActive)
{
    // PageRank marks every processed edge as an update (always_active,
    // Template 1 line 16), so it runs exactly max_iterations even when
    // scores are already at their fixpoint.
    CooGraph g(64);
    for (NodeId i = 0; i < 64; ++i)
        g.addEdge(i, (i + 1) % 64);  // symmetric ring: PR is uniform
    AlgoSpec pr = AlgoSpec::pageRank(g, 5);
    PartitionedGraph pg(g, 32, 64);
    ReferenceResult res = runReference(pg, pr);
    EXPECT_EQ(res.iterations, 5u);
    EXPECT_EQ(res.edges_processed, 5u * g.numEdges());
}

TEST(TemplateSemantics, EdgelessGraphConvergesImmediatelyEvenForPr)
{
    // Template 1's continue flag is only raised inside the edge loop,
    // so a graph with no edges stops after one iteration regardless of
    // always_active — a faithful corner of the model.
    CooGraph g(64);
    AlgoSpec pr = AlgoSpec::pageRank(g, 5);
    PartitionedGraph pg(g, 32, 64);
    ReferenceResult res = runReference(pg, pr);
    EXPECT_EQ(res.iterations, 1u);
}

} // namespace
} // namespace gmoms
