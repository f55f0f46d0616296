/**
 * @file
 * Unit tests for COO graphs, generators, partitioning and reordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/accel/session.hh"
#include "src/graph/coo.hh"
#include "src/sim/log.hh"
#include "src/graph/datasets.hh"
#include "src/graph/generator.hh"
#include "src/graph/graph_stats.hh"
#include "src/graph/partition.hh"
#include "src/graph/reorder.hh"

namespace gmoms
{
namespace
{

/** powerLaw() as it was before its guide table: one std::lower_bound
 *  over the cumulative weights per source. The generator must keep
 *  producing exactly these edges. */
CooGraph
referencePowerLaw(NodeId num_nodes, EdgeId num_edges, double alpha,
                  double locality, NodeId window, std::uint64_t seed)
{
    CooGraph g(num_nodes);
    Rng rng(seed);
    std::vector<double> cum(num_nodes);
    double acc = 0.0;
    for (NodeId i = 0; i < num_nodes; ++i) {
        acc += std::pow(static_cast<double>(i) + 1.0, -alpha);
        cum[i] = acc;
    }
    for (EdgeId e = 0; e < num_edges; ++e) {
        const double u = rng.uniform() * acc;
        const auto it = std::lower_bound(cum.begin(), cum.end(), u);
        const NodeId src =
            static_cast<NodeId>(std::distance(cum.begin(), it));
        NodeId dst;
        if (rng.uniform() < locality && window > 0) {
            const NodeId lo = src > window / 2 ? src - window / 2 : 0;
            const NodeId span =
                std::min<NodeId>(window, num_nodes - lo);
            dst = lo + static_cast<NodeId>(rng.below(span));
        } else {
            dst = static_cast<NodeId>(rng.below(num_nodes));
        }
        g.addEdge(src, dst);
    }
    return g;
}

/** Index of the first edge where @p a and @p b differ in source,
 *  destination or weight (or in count); -1 when identical. */
long
firstEdgeMismatch(const CooGraph& a, const CooGraph& b)
{
    const std::size_t n = std::min(a.numEdges(), b.numEdges());
    for (std::size_t i = 0; i < n; ++i) {
        const Edge& x = a.edges()[i];
        const Edge& y = b.edges()[i];
        if (x.src != y.src || x.dst != y.dst || a.weight(i) != b.weight(i))
            return static_cast<long>(i);
    }
    return a.numEdges() == b.numEdges() ? -1 : static_cast<long>(n);
}

/** FNV-1a over every edge's (src, dst, weight), little-endian; the
 *  weight is 0 on an unweighted graph. */
std::uint64_t
edgeFingerprint(const CooGraph& g)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint32_t v) {
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        mix(g.edges()[i].src);
        mix(g.edges()[i].dst);
        mix(g.weight(i));
    }
    return h;
}

TEST(CooGraph, DegreesAndReverseEdges)
{
    CooGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(3, 0);
    auto out = g.outDegrees();
    auto in = g.inDegrees();
    EXPECT_EQ(out[0], 2u);
    EXPECT_EQ(out[3], 1u);
    EXPECT_EQ(in[0], 1u);
    EXPECT_EQ(in[1], 1u);
    CooGraph u = g.withReverseEdges();
    EXPECT_EQ(u.numEdges(), 6u);
    EXPECT_EQ(u.outDegrees()[1], 1u);
}

TEST(CooGraph, WeightsStayOnePerEdge)
{
    CooGraph g(3, /*weighted=*/true);
    g.addEdge(0, 1, 7);
    g.addEdge(1, 2, 9);
    CooGraph u = g.withReverseEdges();
    ASSERT_EQ(u.weights().size(), 4u);
    EXPECT_EQ(u.weight(0), 7u);
    EXPECT_EQ(u.weight(1), 7u);
    EXPECT_EQ(u.weight(2), 9u);
    EXPECT_EQ(u.weight(3), 9u);

    // Unweighted: no weight is stored and every edge reads 0.
    g.setWeighted(false);
    EXPECT_TRUE(g.weights().empty());
    EXPECT_EQ(g.weight(1), 0u);
    g.addEdge(2, 0, 5);
    EXPECT_TRUE(g.weights().empty());
    // Weighted again: each edge gets weight 0 until set.
    g.setWeighted(true);
    EXPECT_EQ(g.weights(), (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(CooGraph, RelabelPreservesStructure)
{
    CooGraph g(3, /*weighted=*/true);
    g.addEdge(0, 1, 7);
    g.addEdge(1, 2, 9);
    std::vector<NodeId> perm = {2, 0, 1};
    CooGraph r = g.relabeled(perm);
    EXPECT_EQ(r.edges()[0].src, 2u);
    EXPECT_EQ(r.edges()[0].dst, 0u);
    EXPECT_EQ(r.weight(0), 7u);
    EXPECT_EQ(r.edges()[1].src, 0u);
    EXPECT_EQ(r.edges()[1].dst, 1u);
}

TEST(Generator, RmatHasRequestedSizeAndSkew)
{
    CooGraph g = rmat(14, 100000, RmatParams{}, 42);
    EXPECT_EQ(g.numNodes(), 1u << 14);
    EXPECT_EQ(g.numEdges(), 100000u);
    GraphStats s = computeGraphStats(g);
    // RMAT is skewed: top 1% of nodes should own far more than 1% of
    // edges (uniform graphs give ~0.01-0.03 here).
    EXPECT_GT(s.top1pct_edge_share, 0.10);
}

TEST(Generator, RmatIsDeterministic)
{
    CooGraph a = rmat(10, 5000, RmatParams{}, 7);
    CooGraph b = rmat(10, 5000, RmatParams{}, 7);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (EdgeId i = 0; i < a.numEdges(); ++i) {
        EXPECT_EQ(a.edges()[i].src, b.edges()[i].src);
        EXPECT_EQ(a.edges()[i].dst, b.edges()[i].dst);
    }
}

TEST(Generator, PowerLawLocalityKnobWorks)
{
    CooGraph local = powerLaw(20000, 100000, 0.7, 0.9, 512, 3);
    CooGraph scattered = powerLaw(20000, 100000, 0.7, 0.0, 512, 3);
    GraphStats sl = computeGraphStats(local);
    GraphStats ss = computeGraphStats(scattered);
    EXPECT_GT(sl.local_edge_fraction, ss.local_edge_fraction + 0.2);
}

TEST(Generator, PowerLawMatchesLowerBoundReference)
{
    // Sizes from a single rank to UK's stand-in; alpha 0 gives equal
    // weights (integer cum values on exact bucket edges), alpha 3 a cum
    // that stops growing in its tail (ties); windows of 0 and 1 and
    // the whole graph are the locality edge cases.
    for (NodeId n : {1u, 2u, 3u, 1000u, 154'296u}) {
        for (double alpha : {0.0, 0.6, 0.72, 3.0}) {
            for (double locality : {0.0, 0.15, 0.8, 1.0}) {
                for (NodeId window : {0u, 1u, 64u, n}) {
                    for (std::uint64_t seed : {1u, 2u, 9u}) {
                        SCOPED_TRACE(::testing::Message()
                                     << "n " << n << " alpha " << alpha
                                     << " locality " << locality
                                     << " window " << window << " seed "
                                     << seed);
                        ASSERT_EQ(firstEdgeMismatch(
                                      powerLaw(n, 3000, alpha, locality,
                                               window, seed),
                                      referencePowerLaw(n, 3000, alpha,
                                                        locality, window,
                                                        seed)),
                                  -1);
                    }
                }
            }
        }
    }
}

TEST(Generator, GridHasExpectedEdges)
{
    CooGraph g = grid2d(3, 4);
    EXPECT_EQ(g.numNodes(), 12u);
    // 2*(rows*(cols-1) + cols*(rows-1)) directed edges.
    EXPECT_EQ(g.numEdges(), 2u * (3 * 3 + 4 * 2));
}

TEST(Generator, WeightsInRange)
{
    CooGraph g = uniformRandom(100, 1000, 5);
    addRandomWeights(g, 9);
    EXPECT_TRUE(g.weighted());
    ASSERT_EQ(g.weights().size(), g.numEdges());
    for (const std::uint32_t w : g.weights())
        EXPECT_LT(w, 256u);
}

TEST(Generator, RandomPermutationIsPermutation)
{
    auto p = randomPermutation(1000, 11);
    EXPECT_TRUE(isPermutation(p));
}

TEST(Partition, EveryEdgeLandsInItsShard)
{
    CooGraph g = uniformRandom(1000, 20000, 17);
    PartitionedGraph pg(g, 128, 256);
    EXPECT_EQ(pg.qd(), 8u);
    EXPECT_EQ(pg.qs(), 4u);
    EXPECT_EQ(pg.numEdges(), g.numEdges());
    EdgeId total = 0;
    std::vector<std::pair<NodeId, NodeId>> decoded;
    for (std::uint32_t d = 0; d < pg.qd(); ++d) {
        for (std::uint32_t s = 0; s < pg.qs(); ++s) {
            for (const std::uint32_t w : pg.shardWords(s, d)) {
                EXPECT_FALSE(edgeword::isTerminating(w));
                EXPECT_LT(edgeword::srcOff(w), pg.ns());
                EXPECT_LT(edgeword::dstOff(w), pg.nd());
                decoded.emplace_back(
                    pg.srcIntervalBase(s) + edgeword::srcOff(w),
                    pg.dstIntervalBase(d) + edgeword::dstOff(w));
            }
            EXPECT_TRUE(pg.shardWeights(s, d).empty());
            total += pg.shardSize(s, d);
        }
    }
    EXPECT_EQ(total, g.numEdges());
    std::vector<std::pair<NodeId, NodeId>> want;
    for (const Edge& e : g.edges())
        want.emplace_back(e.src, e.dst);
    std::sort(decoded.begin(), decoded.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(decoded, want);
}

TEST(Partition, PreservesIntraShardEdgeOrder)
{
    CooGraph g(64, /*weighted=*/true);
    // Three edges in the same shard; order must be preserved, with
    // each weight beside its edge word.
    g.addEdge(1, 2, 100);
    g.addEdge(40, 50, 400);  // shard (1, 1)
    g.addEdge(5, 9, 200);
    g.addEdge(3, 7, 300);
    PartitionedGraph pg(g, 32, 32);
    auto words = pg.shardWords(0, 0);
    auto weights = pg.shardWeights(0, 0);
    ASSERT_EQ(words.size(), 3u);
    ASSERT_EQ(weights.size(), 3u);
    EXPECT_EQ(words[0], edgeword::pack(1, 2));
    EXPECT_EQ(words[1], edgeword::pack(5, 9));
    EXPECT_EQ(words[2], edgeword::pack(3, 7));
    EXPECT_EQ(weights[0], 100u);
    EXPECT_EQ(weights[1], 200u);
    EXPECT_EQ(weights[2], 300u);
    ASSERT_EQ(pg.shardWords(1, 1).size(), 1u);
    EXPECT_EQ(pg.shardWords(1, 1)[0], edgeword::pack(40 - 32, 50 - 32));
    EXPECT_EQ(pg.shardWeights(1, 1)[0], 400u);
}

TEST(Partition, RejectsWeightsOutOfStepWithEdges)
{
    // Growing edges() directly skips the weights: partitioning must
    // refuse the graph rather than pair edges with the wrong weights.
    CooGraph g(8, /*weighted=*/true);
    g.addEdge(0, 1, 5);
    g.edges().push_back(Edge{1, 2});
    EXPECT_THROW(PartitionedGraph(g, 4, 4), FatalError);
    g.weights().push_back(6);
    EXPECT_NO_THROW(PartitionedGraph(g, 4, 4));
}

TEST(Partition, LastIntervalMayBeShort)
{
    CooGraph g(100);
    g.addEdge(99, 99);
    PartitionedGraph pg(g, 64, 64);
    EXPECT_EQ(pg.qd(), 2u);
    EXPECT_EQ(pg.dstIntervalNodes(0), 64u);
    EXPECT_EQ(pg.dstIntervalNodes(1), 36u);
    EXPECT_EQ(pg.shardSize(1, 1), 1u);
}

TEST(Partition, RejectsOversizedIntervals)
{
    CooGraph g(10);
    g.addEdge(0, 1);
    EXPECT_THROW(PartitionedGraph(g, 1 << 16, 256), FatalError);
    EXPECT_THROW(PartitionedGraph(g, 256, 1 << 17), FatalError);
}

TEST(Partition, JobSizesSumToEdgeCount)
{
    CooGraph g = rmat(12, 30000, RmatParams{}, 23);
    PartitionedGraph pg(g, 512, 1024);
    auto sizes = pg.jobSizes();
    EdgeId total = 0;
    for (EdgeId s : sizes)
        total += s;
    EXPECT_EQ(total, g.numEdges());
}

TEST(Reorder, HashNodeIntervalsBalancesInEdges)
{
    // A clustered graph: all edges target the first interval.
    CooGraph g(1024);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        g.addEdge(static_cast<NodeId>(rng.below(1024)),
                  static_cast<NodeId>(rng.below(128)));
    const std::uint32_t nd = 128;
    auto perm = hashNodeIntervals(g.numNodes(), nd);
    EXPECT_TRUE(isPermutation(perm));
    CooGraph r = g.relabeled(perm);
    PartitionedGraph pg(r, nd, 256);
    auto sizes = pg.jobSizes();
    // After hashing, no interval should hold more than ~3x the mean.
    const double mean =
        static_cast<double>(g.numEdges()) / sizes.size();
    for (EdgeId s : sizes)
        EXPECT_LT(static_cast<double>(s), 3.0 * mean);
}

TEST(Reorder, HashCacheLinesKeepsLinesIntact)
{
    const NodeId n = 4096;
    const std::uint32_t nd = 256;
    auto perm = hashCacheLines(n, nd);
    EXPECT_TRUE(isPermutation(perm));
    // Nodes sharing an old 16-node line must share a new line.
    for (NodeId i = 0; i < n; i += 16) {
        const NodeId new_line = perm[i] / 16;
        for (NodeId j = i; j < i + 16; ++j) {
            EXPECT_EQ(perm[j] / 16, new_line);
            EXPECT_EQ(perm[j] % 16, j % 16);  // intra-line order kept
        }
    }
}

TEST(Reorder, HashCacheLinesBalancesIntervals)
{
    CooGraph g(4096);
    Rng rng(4);
    for (int i = 0; i < 20000; ++i)
        g.addEdge(static_cast<NodeId>(rng.below(4096)),
                  static_cast<NodeId>(rng.below(256)));
    const std::uint32_t nd = 256;
    CooGraph r = g.relabeled(hashCacheLines(g.numNodes(), nd));
    PartitionedGraph pg(r, nd, 512);
    auto sizes = pg.jobSizes();
    const double mean =
        static_cast<double>(g.numEdges()) / sizes.size();
    for (EdgeId s : sizes)
        EXPECT_LT(static_cast<double>(s), 3.0 * mean);
}

TEST(Reorder, DbgGroupsHighDegreeFirst)
{
    // Node 9 has huge out-degree; after DBG it must get a low label.
    CooGraph g(100);
    for (int i = 0; i < 64; ++i)
        g.addEdge(9, static_cast<NodeId>(i % 100));
    g.addEdge(0, 1);
    g.addEdge(5, 2);
    auto perm = dbgReorder(g);
    EXPECT_TRUE(isPermutation(perm));
    EXPECT_LT(perm[9], 3u);
    // Zero-degree nodes keep relative order in the last group.
    EXPECT_LT(perm[1], perm[2]);
}

TEST(Reorder, ComposeAppliesInOrder)
{
    std::vector<NodeId> a = {1, 2, 0};
    std::vector<NodeId> b = {2, 0, 1};
    auto c = composePermutations(a, b);
    // node 0 -> a: 1 -> b: 0
    EXPECT_EQ(c[0], 0u);
    EXPECT_EQ(c[1], 1u);
    EXPECT_EQ(c[2], 2u);
}

TEST(Reorder, ApplyPreprocessingVariants)
{
    // Every variant is one relabel by preprocessingPermutation(), and
    // must equal the explicit chain: relabel by DBG, then by cache-line
    // hashing. 4096 nodes at nd 128 make 32 intervals, so hashing moves
    // nodes; weights must travel with their edges.
    CooGraph unweighted = rmat(12, 20000, RmatParams{}, 5);
    CooGraph weighted = unweighted;
    addRandomWeights(weighted, 11);
    const std::uint32_t nd =
        defaultIntervalsFor(unweighted.numNodes(), unweighted.numEdges())
            .first;
    ASSERT_LT(nd, unweighted.numNodes());
    for (const CooGraph* g : {&unweighted, &weighted}) {
        for (Preprocessing p :
             {Preprocessing::None, Preprocessing::Hash, Preprocessing::Dbg,
              Preprocessing::DbgHash, Preprocessing::Packed,
              Preprocessing::DbgHashPacked}) {
            SCOPED_TRACE(std::string(preprocessingName(p)) +
                         (g->weighted() ? " weighted" : " unweighted"));
            const Preprocessing base = basePreprocessing(p);
            CooGraph chain = *g;
            if (base == Preprocessing::Dbg ||
                base == Preprocessing::DbgHash)
                chain = chain.relabeled(dbgReorder(chain));
            if (base == Preprocessing::Hash ||
                base == Preprocessing::DbgHash)
                chain = chain.relabeled(
                    hashCacheLines(chain.numNodes(), nd));

            const CooGraph copied = applyPreprocessing(*g, p, nd);
            const CooGraph moved = applyPreprocessing(CooGraph(*g), p, nd);
            for (const CooGraph* r : {&copied, &moved}) {
                EXPECT_EQ(r->numNodes(), g->numNodes());
                EXPECT_EQ(r->weighted(), g->weighted());
                EXPECT_EQ(firstEdgeMismatch(*r, chain), -1);
            }

            // Session translates ids through the same permutation.
            const std::vector<NodeId> perm =
                preprocessingPermutation(*g, p, nd);
            EXPECT_EQ(perm.empty(), base == Preprocessing::None);
            const Session session(
                std::make_shared<const CooGraph>(*g),
                AccelConfig::preset(MomsConfig::twoLevel(4), /*pes=*/4,
                                    /*channels=*/2),
                p);
            for (NodeId i = 0; i < g->numNodes(); ++i)
                ASSERT_EQ(session.internalId(i),
                          perm.empty() ? i : perm[i])
                    << "node " << i;
        }
    }
}

TEST(Datasets, RegistryMatchesTable2)
{
    const auto& profiles = table2Profiles();
    ASSERT_EQ(profiles.size(), 12u);
    EXPECT_EQ(profiles[0].tag, "WT");
    EXPECT_EQ(profiles[0].paper_nodes, 2'390'000u);
    EXPECT_EQ(profiles[11].tag, "26");
    EXPECT_EQ(datasetByTag("UK").paper_edges, 936'000'000u);
    EXPECT_THROW(datasetByTag("XX"), FatalError);
}

TEST(Datasets, StandInsHaveScaledSizes)
{
    const DatasetProfile& wt = datasetByTag("WT");
    CooGraph g = buildDataset(wt, 1);
    EXPECT_EQ(g.numNodes(), wt.nodes());
    EXPECT_EQ(g.numEdges(), wt.edges());
    // Edge targets must be in range.
    for (const Edge& e : g.edges()) {
        EXPECT_LT(e.src, g.numNodes());
        EXPECT_LT(e.dst, g.numNodes());
    }
}

TEST(Datasets, StandInFingerprintsArePinned)
{
    // The stand-ins are exact functions of (profile, seed): these edge
    // fingerprints were recorded from the lower_bound generator.
    const std::pair<const char*, std::uint64_t> pinned[] = {
        {"WT", 0x833d9f0c363024d9ull},
        {"UK", 0xc1e829773a183652ull},
        {"MP", 0xe8e98fbb5825fc95ull},
        {"24", 0xb7f4aa180f9a5cb1ull},
    };
    for (const auto& [tag, fingerprint] : pinned)
        EXPECT_EQ(edgeFingerprint(buildDataset(datasetByTag(tag), 1)),
                  fingerprint)
            << tag;
}

TEST(Datasets, WebKeepsLocalitySocialDoesNot)
{
    GraphStats web = computeGraphStats(buildDataset(datasetByTag("DB")));
    GraphStats soc = computeGraphStats(buildDataset(datasetByTag("MP")));
    EXPECT_GT(web.local_edge_fraction, soc.local_edge_fraction);
}

TEST(Datasets, AllProfilesBuildWithinBudget)
{
    for (const DatasetProfile& p : table2Profiles()) {
        EXPECT_LE(p.edges(), DatasetProfile::kEdgeCap) << p.tag;
        EXPECT_GE(p.edges(), 15'000u) << p.tag;
        EXPECT_LE(p.nodes(), 500'000u) << p.tag;
        // Uniform node scaling: N ratios to cache capacity match the
        // paper (DESIGN.md section 5).
        EXPECT_EQ(p.scale_divisor, 256u) << p.tag;
        EXPECT_EQ(p.nodes(), p.paper_nodes / 256) << p.tag;
    }
}

} // namespace
} // namespace gmoms
