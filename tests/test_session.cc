/**
 * @file
 * Tests for the high-level Session / SessionBuilder driver API.
 */

#include <gtest/gtest.h>

#include "src/accel/session.hh"
#include "src/algo/golden.hh"
#include "src/graph/generator.hh"

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

/** A session with the historical driver defaults (paper-default
 *  DbgHash preprocessing); @p g is copied so callers can keep using
 *  the original for golden comparisons. */
Session
makeSession(const CooGraph& g,
            Preprocessing prep = Preprocessing::DbgHash)
{
    return SessionBuilder()
        .dataset(CooGraph(g))
        .config(smallConfig())
        .preprocessing(prep)
        .build();
}

TEST(Session, IdMappingIsABijection)
{
    CooGraph g = rmat(10, 4000, RmatParams{}, 3);
    Session session = makeSession(g);
    for (NodeId n = 0; n < g.numNodes(); n += 37)
        EXPECT_EQ(session.originalId(session.internalId(n)), n);
    EXPECT_THROW(session.internalId(g.numNodes()), FatalError);
}

TEST(Session, SccValuesTranslateBackToOriginalLabels)
{
    CooGraph g = rmat(10, 6000, RmatParams{}, 7);
    Session session = makeSession(g);
    SessionResult res = session.scc();
    // Golden on the ORIGINAL graph; session values are in internal
    // label space: translate both ways and compare component
    // structure (same-partition relation).
    auto golden = goldenMinLabel(g);
    for (NodeId a = 0; a < g.numNodes(); a += 101) {
        for (NodeId b = a + 1; b < g.numNodes(); b += 419) {
            const bool same_golden = golden[a] == golden[b];
            const bool same_session =
                res.values[session.internalId(a)] ==
                res.values[session.internalId(b)];
            EXPECT_EQ(same_golden, same_session)
                << "nodes " << a << "," << b;
        }
    }
}

TEST(Session, BfsDepthsMatchGoldenThroughTheMapping)
{
    CooGraph g = rmat(9, 3000, RmatParams{}, 11);
    Session session = makeSession(g);
    const NodeId source = 5;
    SessionResult res = session.bfs(source);
    auto golden = goldenBfs(g, source);
    for (NodeId n = 0; n < g.numNodes(); ++n)
        EXPECT_EQ(res.values[session.internalId(n)],
                  static_cast<double>(golden[n]))
            << "node " << n;
}

TEST(Session, PageRankScoresSumToOne)
{
    CooGraph g = uniformRandom(800, 8000, 13);
    auto od = g.outDegrees();
    for (NodeId i = 0; i < g.numNodes(); ++i)
        if (od[i] == 0)
            g.addEdge(i, (i + 1) % g.numNodes());
    Session session = makeSession(g);
    SessionResult res = session.pageRank(8);
    double sum = 0;
    for (double v : res.values)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 0.01);
    EXPECT_GT(res.gteps, 0.0);
    EXPECT_GT(res.fmax_mhz, 150.0);
    EXPECT_GT(res.power_watts, 5.0);
}

TEST(Session, MultipleAlgorithmsReuseOnePreprocessing)
{
    CooGraph g = rmat(10, 5000, RmatParams{}, 17);
    Session session = makeSession(g);
    SessionResult a = session.scc();
    SessionResult b = session.bfs(0);
    SessionResult c = session.sssp(0);
    EXPECT_EQ(a.values.size(), g.numNodes());
    EXPECT_EQ(b.values.size(), g.numNodes());
    EXPECT_EQ(c.values.size(), g.numNodes());
    // SSSP distance of the source is zero, in internal space.
    EXPECT_EQ(c.values[session.internalId(0)], 0.0);
}

TEST(Session, NonePreprocessingKeepsLabels)
{
    CooGraph g = uniformRandom(100, 500, 19);
    Session session = makeSession(g, Preprocessing::None);
    for (NodeId n = 0; n < g.numNodes(); ++n)
        EXPECT_EQ(session.internalId(n), n);
}

TEST(Session, ResidentBytesFollowTheContainers)
{
    // M edges at 8 B, 4 B more per weight; a partition holds one 4-byte
    // word per edge (and its weight when weighted) plus one 8-byte
    // offset per shard and one more.
    constexpr std::size_t kEdges = 5000;
    const CooGraph g = uniformRandom(1000, kEdges, 3);
    const std::size_t name = g.name.capacity();
    const std::size_t plain_view = sizeof(CooGraph) + 8 * kEdges + name;
    const std::size_t weighted_view =
        sizeof(CooGraph) + 12 * kEdges + name;

    // No preprocessing: the plain view is the source graph itself.
    Session s = makeSession(g, Preprocessing::None);
    const PartitionedGraph& pg = s.partition();
    const std::size_t offsets =
        8 * (static_cast<std::size_t>(pg.qs()) * pg.qd() + 1);
    const std::size_t plain_part =
        sizeof(PartitionedGraph) + offsets + 4 * kEdges;
    const std::size_t weighted_part =
        sizeof(PartitionedGraph) + offsets + 8 * kEdges;
    EXPECT_EQ(s.residentBytes(), sizeof(Session) + plain_view + plain_part);

    // An SSSP warm adds the weighted view and its partition.
    s.weightedPartition();
    EXPECT_EQ(s.residentBytes(), sizeof(Session) + plain_view + plain_part +
                                     weighted_view + weighted_part);

    // Relabelling adds a relabelled plain view and the two id tables.
    Session relabelled = makeSession(g, Preprocessing::DbgHash);
    relabelled.partition();
    EXPECT_EQ(relabelled.residentBytes(),
              sizeof(Session) + 2 * plain_view + plain_part +
                  2 * 4 * std::size_t{g.numNodes()});
}

TEST(Session, RejectsEmptyGraph)
{
    EXPECT_THROW(SessionBuilder()
                     .dataset(CooGraph(0))
                     .config(smallConfig())
                     .build(),
                 FatalError);
}

} // namespace
} // namespace gmoms
