/**
 * @file
 * Unit tests for the Fig. 4 DRAM layout: edge compression, pointer
 * packing, section placement, active-flag handling and pinned images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/accel/session.hh"
#include "src/graph/datasets.hh"
#include "src/graph/generator.hh"
#include "src/sim/log.hh"
#include "src/graph/layout.hh"
#include "src/graph/partition.hh"

namespace gmoms
{
namespace
{

TEST(EdgeWord, PackUnpackRoundtrip)
{
    for (std::uint32_t src : {0u, 1u, 65535u, 1234u}) {
        for (std::uint32_t dst : {0u, 1u, 32767u, 999u}) {
            const std::uint32_t w = edgeword::pack(src, dst);
            EXPECT_FALSE(edgeword::isTerminating(w));
            EXPECT_EQ(edgeword::srcOff(w), src);
            EXPECT_EQ(edgeword::dstOff(w), dst);
        }
    }
    EXPECT_TRUE(edgeword::isTerminating(edgeword::kTerminating));
}

TEST(EdgePtr, PackUnpackRoundtrip)
{
    const std::uint64_t p = edgeptr::pack(0x123456789aull, 0x7ffffful,
                                          true);
    EXPECT_TRUE(edgeptr::isActive(p));
    EXPECT_EQ(edgeptr::startWord(p), 0x123456789aull);
    EXPECT_EQ(edgeptr::sizeWords(p), 0x7fffffull);
    const std::uint64_t q = edgeptr::pack(5, 16, false);
    EXPECT_FALSE(edgeptr::isActive(q));
}

class LayoutFixture : public ::testing::Test
{
  protected:
    GraphLayout::Options
    options(bool has_const, bool synchronous)
    {
        GraphLayout::Options o;
        o.has_const = has_const;
        o.synchronous = synchronous;
        o.init_value = [](NodeId n) { return n * 10; };
        o.const_value = [](NodeId n) { return n + 1000; };
        return o;
    }
};

TEST_F(LayoutFixture, NodeArraysArePopulated)
{
    CooGraph g = uniformRandom(300, 2000, 9);
    PartitionedGraph pg(g, 64, 128);
    GraphLayout layout(pg, options(true, true));
    BackingStore store;
    layout.build(pg, store);

    for (NodeId n = 0; n < 300; n += 37) {
        EXPECT_EQ(store.read32(layout.vInAddr(n)), n * 10);
        EXPECT_EQ(store.read32(layout.vConstAddr(n)), n + 1000);
        EXPECT_EQ(store.read32(layout.vOutAddr(n)), n * 10);
    }
    EXPECT_NE(layout.vInBase(), layout.vOutBase());
}

TEST_F(LayoutFixture, AsyncAliasesInAndOut)
{
    CooGraph g = uniformRandom(100, 500, 9);
    PartitionedGraph pg(g, 64, 128);
    GraphLayout layout(pg, options(false, false));
    EXPECT_EQ(layout.vInBase(), layout.vOutBase());
}

TEST_F(LayoutFixture, EveryShardDecodesBackToItsEdges)
{
    CooGraph g = uniformRandom(500, 5000, 21);
    PartitionedGraph pg(g, 128, 256);
    GraphLayout layout(pg, options(false, false));
    BackingStore store;
    layout.build(pg, store);

    // Decode every shard of the image with its interval bases; sorted,
    // the decoded edges must be the graph's.
    std::vector<std::pair<NodeId, NodeId>> decoded;
    for (std::uint32_t d = 0; d < pg.qd(); ++d) {
        for (std::uint32_t s = 0; s < pg.qs(); ++s) {
            const std::uint64_t ptr = store.read64(layout.ptrAddr(s, d));
            EXPECT_TRUE(edgeptr::isActive(ptr));
            const Addr base = 4 * edgeptr::startWord(ptr);
            EXPECT_EQ(base % kLineBytes, 0u) << "shards 64B-aligned";
            std::size_t i = 0;
            for (std::uint64_t w = 0; w < edgeptr::sizeWords(ptr); ++w) {
                const std::uint32_t word = store.read32(base + 4 * w);
                if (edgeword::isTerminating(word))
                    break;
                decoded.emplace_back(
                    pg.srcIntervalBase(s) + edgeword::srcOff(word),
                    pg.dstIntervalBase(d) + edgeword::dstOff(word));
                ++i;
            }
            EXPECT_EQ(i, pg.shardSize(s, d));
        }
    }
    std::vector<std::pair<NodeId, NodeId>> want;
    for (const Edge& e : g.edges())
        want.emplace_back(e.src, e.dst);
    std::sort(decoded.begin(), decoded.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(decoded, want);
}

TEST_F(LayoutFixture, WeightedEdgesCarryWeights)
{
    CooGraph g = uniformRandom(200, 1000, 13);
    addRandomWeights(g, 31);
    PartitionedGraph pg(g, 64, 128);
    GraphLayout layout(pg, options(false, false));
    BackingStore store;
    layout.build(pg, store);

    const std::uint64_t ptr = store.read64(layout.ptrAddr(0, 0));
    const Addr base = 4 * edgeptr::startWord(ptr);
    auto words = pg.shardWords(0, 0);
    auto weights = pg.shardWeights(0, 0);
    ASSERT_GT(words.size(), 0u);
    ASSERT_EQ(weights.size(), words.size());
    std::size_t i = 0;
    for (std::uint64_t w = 0; w + 1 < edgeptr::sizeWords(ptr); w += 2) {
        const std::uint32_t word = store.read32(base + 4 * w);
        if (edgeword::isTerminating(word))
            break;
        EXPECT_EQ(word, words[i]);
        EXPECT_EQ(store.read32(base + 4 * (w + 1)), weights[i]);
        ++i;
    }
    EXPECT_EQ(i, words.size());
}

TEST_F(LayoutFixture, PaddingCarriesTerminatingFlag)
{
    // A shard with exactly 16 payload words would otherwise leave a
    // full extra line; verify every trailing word terminates.
    CooGraph g(64);
    for (int i = 0; i < 15; ++i)
        g.addEdge(static_cast<NodeId>(i % 8), static_cast<NodeId>(i % 8));
    PartitionedGraph pg(g, 64, 64);
    GraphLayout layout(pg, options(false, false));
    BackingStore store;
    layout.build(pg, store);
    const std::uint64_t ptr = store.read64(layout.ptrAddr(0, 0));
    const Addr base = 4 * edgeptr::startWord(ptr);
    // Words 15..end must all be terminating.
    for (std::uint64_t w = 15; w < edgeptr::sizeWords(ptr); ++w)
        EXPECT_TRUE(edgeword::isTerminating(store.read32(base + 4 * w)));
}

TEST_F(LayoutFixture, ActiveFlagToggles)
{
    CooGraph g = uniformRandom(100, 300, 3);
    PartitionedGraph pg(g, 64, 128);
    GraphLayout layout(pg, options(false, false));
    BackingStore store;
    layout.build(pg, store);
    EXPECT_TRUE(layout.isActive(store, 0, 0));
    layout.setActive(store, 0, 0, false);
    EXPECT_FALSE(layout.isActive(store, 0, 0));
    // Size/start fields must be untouched.
    layout.setActive(store, 0, 0, true);
    EXPECT_TRUE(layout.isActive(store, 0, 0));
}

TEST_F(LayoutFixture, SwapInOutOnlyWhenSynchronous)
{
    CooGraph g = uniformRandom(100, 300, 3);
    PartitionedGraph pg(g, 64, 128);
    GraphLayout sync_layout(pg, options(false, true));
    const Addr in0 = sync_layout.vInBase();
    const Addr out0 = sync_layout.vOutBase();
    sync_layout.swapInOut();
    EXPECT_EQ(sync_layout.vInBase(), out0);
    EXPECT_EQ(sync_layout.vOutBase(), in0);

    GraphLayout async_layout(pg, options(false, false));
    EXPECT_THROW(async_layout.swapInOut(), PanicError);
}

TEST_F(LayoutFixture, SectionsDoNotOverlap)
{
    CooGraph g = uniformRandom(1000, 8000, 77);
    PartitionedGraph pg(g, 256, 512);
    GraphLayout layout(pg, options(true, true));
    EXPECT_LT(layout.vInBase(), layout.vConstBase());
    EXPECT_LT(layout.vConstBase(), layout.vOutBase());
    EXPECT_LT(layout.vOutBase(), layout.edgeBase());
    EXPECT_LT(layout.edgeBase(), layout.ptrBase());
    EXPECT_LE(layout.ptrBase() + 8ull * pg.qs() * pg.qd(),
              layout.totalBytes());
}

/** FNV-1a over every byte of @p pg's DRAM image, laid out the way the
 *  Accelerator lays it out for @p spec. */
std::uint64_t
imageFingerprint(const PartitionedGraph& pg, const AlgoSpec& spec,
                 bool packed)
{
    GraphLayout::Options o;
    o.has_const = spec.has_const;
    o.synchronous = spec.synchronous;
    o.packed = packed;
    o.init_value = [&spec](NodeId n) { return spec.initialValue(n); };
    if (spec.has_const)
        o.const_value = [&spec](NodeId n) { return spec.constValue(n); };
    GraphLayout layout(pg, o);
    EXPECT_EQ(layout.packed(), packed);
    BackingStore store;
    layout.build(pg, store);
    std::vector<std::uint8_t> bytes(store.size());
    store.readBytes(0, bytes.data(), bytes.size());
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(LayoutImage, WtImagesArePinned)
{
    // WT at seed 1 (19,609 edges, nd 195, ns 390) through a Session:
    // PageRank on the plain partition and SSSP on the weighted view,
    // each in the plain and the packed encoding. A shard decoded with
    // the wrong interval base, or weights out of shard order, moves
    // these image fingerprints.
    const Session s(std::make_shared<const CooGraph>(
                        buildDataset(datasetByTag("WT"), 1)),
                    AccelConfig{});
    const AlgoSpec pagerank = AlgoSpec::pageRank(s.graph(), 2);
    const AlgoSpec sssp = AlgoSpec::sssp(0);
    EXPECT_EQ(imageFingerprint(s.partition(), pagerank, false),
              0x34bc71c6bd2334fcull);
    EXPECT_EQ(imageFingerprint(s.partition(), pagerank, true),
              0x76bd76cd895c8ff4ull);
    EXPECT_EQ(imageFingerprint(s.weightedPartition(), sssp, false),
              0x44f9ba3284343f78ull);
    EXPECT_EQ(imageFingerprint(s.weightedPartition(), sssp, true),
              0x1d1628ae19783b66ull);
}

} // namespace
} // namespace gmoms
