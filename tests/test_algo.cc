/**
 * @file
 * Tests of the algorithm kernels and the Template 1 reference executor
 * against independent golden implementations.
 */

#include <gtest/gtest.h>

#include "src/algo/golden.hh"
#include "src/algo/reference.hh"
#include "src/algo/spec.hh"
#include "src/graph/generator.hh"

namespace gmoms
{
namespace
{

/** Run the reference executor with a given partition geometry. */
ReferenceResult
runRef(const CooGraph& g, const AlgoSpec& spec, std::uint32_t nd = 64,
       std::uint32_t ns = 128)
{
    PartitionedGraph pg(g, nd, ns);
    return runReference(pg, spec);
}

TEST(AlgoSpec, Table1Flags)
{
    CooGraph g = chain(10);
    AlgoSpec pr = AlgoSpec::pageRank(g);
    EXPECT_TRUE(pr.synchronous);
    EXPECT_TRUE(pr.always_active);
    EXPECT_FALSE(pr.use_local_src);
    EXPECT_TRUE(pr.has_const);
    EXPECT_EQ(pr.gather_latency, 4u);

    AlgoSpec scc = AlgoSpec::scc(10);
    EXPECT_FALSE(scc.synchronous);
    EXPECT_FALSE(scc.always_active);
    EXPECT_TRUE(scc.use_local_src);
    EXPECT_EQ(scc.gather_latency, 1u);

    AlgoSpec sssp = AlgoSpec::sssp(0);
    EXPECT_TRUE(sssp.weighted);
    EXPECT_TRUE(sssp.use_local_src);
}

TEST(AlgoSpec, SsspGatherSaturates)
{
    AlgoSpec s = AlgoSpec::sssp(0);
    // INF + weight must not wrap around.
    EXPECT_EQ(s.gather(kInfDist, kInfDist, 200), kInfDist);
    EXPECT_EQ(s.gather(10, kInfDist, 5), 15u);
    EXPECT_EQ(s.gather(10, 12, 5), 12u);
}

TEST(AlgoSpec, SccGatherIsMin)
{
    AlgoSpec s = AlgoSpec::scc(10);
    EXPECT_EQ(s.gather(3, 7, 0), 3u);
    EXPECT_EQ(s.gather(9, 7, 0), 7u);
    EXPECT_EQ(s.init(0, 42), 42u);
    EXPECT_EQ(s.apply(42), 42u);
}

TEST(Reference, PageRankMatchesGoldenOnRandomGraph)
{
    CooGraph g = uniformRandom(200, 2000, 3);
    AlgoSpec spec = AlgoSpec::pageRank(g, 10);
    ReferenceResult res = runRef(g, spec);
    EXPECT_EQ(res.iterations, 10u);
    std::vector<double> golden = goldenPageRank(g, 10);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        EXPECT_NEAR(res.value(spec, i), golden[i],
                    1e-4 * golden[i] + 1e-9)
            << "node " << i;
}

TEST(Reference, PageRankScoresSumNearOne)
{
    // Without dangling nodes the PR mass is conserved.
    CooGraph g = uniformRandom(500, 8000, 7);
    // Ensure no dangling nodes: add a self-loop where OD == 0.
    auto od = g.outDegrees();
    for (NodeId i = 0; i < g.numNodes(); ++i)
        if (od[i] == 0)
            g.addEdge(i, (i + 1) % g.numNodes());
    AlgoSpec spec = AlgoSpec::pageRank(g, 15);
    ReferenceResult res = runRef(g, spec, 128, 256);
    double sum = 0;
    for (NodeId i = 0; i < g.numNodes(); ++i)
        sum += res.value(spec, i);
    EXPECT_NEAR(sum, 1.0, 0.01);
}

TEST(Reference, SccMatchesGoldenMinLabel)
{
    CooGraph g = rmat(10, 6000, RmatParams{}, 9);
    AlgoSpec spec = AlgoSpec::scc(g.numNodes());
    ReferenceResult res = runRef(g, spec, 128, 256);
    std::vector<std::uint32_t> golden = goldenMinLabel(g);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        EXPECT_EQ(res.raw_values[i], golden[i]) << "node " << i;
    EXPECT_LT(res.iterations, spec.max_iterations);
}

TEST(Reference, SsspMatchesGoldenOnWeightedGraph)
{
    CooGraph g = uniformRandom(300, 3000, 11);
    addRandomWeights(g, 13);
    AlgoSpec spec = AlgoSpec::sssp(0);
    ReferenceResult res = runRef(g, spec);
    std::vector<std::uint32_t> golden = goldenSssp(g, 0);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        EXPECT_EQ(res.raw_values[i], golden[i]) << "node " << i;
}

TEST(Reference, SsspOnChainComputesPrefixSums)
{
    CooGraph g = chain(50);
    g.setWeighted(true);
    for (EdgeId i = 0; i < g.numEdges(); ++i)
        g.weights()[i] = static_cast<std::uint32_t>(i + 1);
    AlgoSpec spec = AlgoSpec::sssp(0);
    ReferenceResult res = runRef(g, spec, 16, 32);
    std::uint32_t expect = 0;
    for (NodeId i = 0; i < 50; ++i) {
        EXPECT_EQ(res.raw_values[i], expect);
        expect += static_cast<std::uint32_t>(i + 1);
    }
}

TEST(Reference, BfsMatchesGolden)
{
    CooGraph g = rmat(9, 3000, RmatParams{}, 21);
    AlgoSpec spec = AlgoSpec::bfs(1);
    ReferenceResult res = runRef(g, spec);
    std::vector<std::uint32_t> golden = goldenBfs(g, 1);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        EXPECT_EQ(res.raw_values[i], golden[i]);
}

TEST(Reference, WccConnectsUndirectedComponents)
{
    // Two disjoint chains; WCC must give two labels.
    CooGraph g(20);
    for (NodeId i = 0; i + 1 < 10; ++i)
        g.addEdge(i + 1, i);  // reversed chain: directed min-label would
                              // not propagate 0 upward
    for (NodeId i = 10; i + 1 < 20; ++i)
        g.addEdge(i, i + 1);
    CooGraph u = g.withReverseEdges();
    AlgoSpec spec = AlgoSpec::wcc(u.numNodes());
    ReferenceResult res = runRef(u, spec, 8, 16);
    for (NodeId i = 0; i < 10; ++i)
        EXPECT_EQ(res.raw_values[i], 0u);
    for (NodeId i = 10; i < 20; ++i)
        EXPECT_EQ(res.raw_values[i], 10u);
}

TEST(Reference, ConvergedRunSkipsInactiveShards)
{
    // After convergence the active flags empty out: total edge work is
    // less than iterations * M.
    CooGraph g = uniformRandom(200, 2000, 31);
    AlgoSpec spec = AlgoSpec::scc(g.numNodes());
    ReferenceResult res = runRef(g, spec);
    EXPECT_LT(res.edges_processed,
              static_cast<EdgeId>(res.iterations) * g.numEdges());
}

TEST(Reference, UseLocalSrcReducesRemoteReads)
{
    CooGraph g = uniformRandom(100, 5000, 41);
    AlgoSpec local = AlgoSpec::scc(g.numNodes());
    // Single destination interval covering the whole graph: every
    // source is local.
    PartitionedGraph pg_one(g, 128, 128);
    ReferenceResult res = runReference(pg_one, local);
    EXPECT_EQ(res.remote_src_reads, 0u);

    // Many intervals: most sources are remote.
    PartitionedGraph pg_many(g, 16, 32);
    ReferenceResult res2 = runReference(pg_many, local);
    EXPECT_GT(res2.remote_src_reads, res2.edges_processed / 2);
}

TEST(Reference, SyncAndAsyncSccReachSameFixpoint)
{
    CooGraph g = rmat(9, 2500, RmatParams{}, 17);
    AlgoSpec async_spec = AlgoSpec::scc(g.numNodes());
    AlgoSpec sync_spec = async_spec;
    sync_spec.synchronous = true;
    sync_spec.use_local_src = false;  // sync cannot read partial values
    ReferenceResult a = runRef(g, async_spec);
    ReferenceResult s = runRef(g, sync_spec);
    for (NodeId i = 0; i < g.numNodes(); ++i)
        EXPECT_EQ(a.raw_values[i], s.raw_values[i]);
    // Async propagates within an iteration, so it converges at least
    // as fast.
    EXPECT_LE(a.iterations, s.iterations);
}

TEST(Golden, MinLabelOnCycleCollapsesToMinimum)
{
    CooGraph g(5);
    for (NodeId i = 0; i < 5; ++i)
        g.addEdge(i, (i + 1) % 5);
    auto label = goldenMinLabel(g);
    for (NodeId i = 0; i < 5; ++i)
        EXPECT_EQ(label[i], 0u);
}

TEST(Golden, SsspUnreachableStaysInf)
{
    CooGraph g(3, /*weighted=*/true);
    g.addEdge(0, 1, 5);
    auto dist = goldenSssp(g, 0);
    EXPECT_EQ(dist[0], 0u);
    EXPECT_EQ(dist[1], 5u);
    EXPECT_EQ(dist[2], kInfDist);
}

} // namespace
} // namespace gmoms
