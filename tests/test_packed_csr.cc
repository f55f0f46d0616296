/**
 * @file
 * Packed half-word CSR: encoder round-trip against the shard edge
 * lists, size advantage over the plain 32-bit encoding, eligibility
 * at the offset limits and silent fallback beyond them, end-to-end
 * value identity (plain vs packed, engine modes, session wiring), and
 * PageRank throughput against the plain encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "src/accel/accelerator.hh"
#include "src/accel/session.hh"
#include "src/algo/golden.hh"
#include "src/graph/generator.hh"
#include "src/graph/layout.hh"
#include "src/graph/reorder.hh"
#include "src/mem/backing_store.hh"
#include "src/sim/rng.hh"

namespace gmoms
{
namespace
{

GraphLayout::Options
opts(bool packed)
{
    GraphLayout::Options o;
    o.packed = packed;
    o.init_value = [](NodeId) { return 0u; };
    return o;
}

/** One decoded edge with its weight (0 when unweighted). */
using WEdge = std::tuple<NodeId, NodeId, std::uint32_t>;

/** Edges of shard E_{s->d} as (src, dst, weight), in shard order. */
std::vector<WEdge>
shardEdges(const PartitionedGraph& pg, std::uint32_t s, std::uint32_t d)
{
    const auto words = pg.shardWords(s, d);
    const auto weights = pg.shardWeights(s, d);
    std::vector<WEdge> out;
    for (std::size_t i = 0; i < words.size(); ++i)
        out.emplace_back(pg.srcIntervalBase(s) + edgeword::srcOff(words[i]),
                         pg.dstIntervalBase(d) + edgeword::dstOff(words[i]),
                         weights.empty() ? 0u : weights[i]);
    return out;
}

/** Decode the packed edge section of @p layout back into per-shard
 *  (src, dst, weight) lists, walking exactly like the PE does. */
std::vector<WEdge>
decodePacked(const GraphLayout& layout, const BackingStore& store,
             const PartitionedGraph& pg, std::uint32_t s,
             std::uint32_t d)
{
    const std::uint64_t p = store.read64(layout.ptrAddr(s, d));
    const Addr base = 4 * edgeptr::startWord(p);
    const std::uint64_t halves = 2 * edgeptr::sizeWords(p);
    const auto half = [&](std::uint64_t h) {
        const std::uint32_t w = store.read32(base + 4 * (h / 2));
        return static_cast<std::uint16_t>(h % 2 ? w >> 16
                                                : w & 0xffffu);
    };
    std::vector<WEdge> out;
    std::uint32_t open_src = 0;
    bool has_src = false;
    for (std::uint64_t h = 0; h < halves;) {
        const std::uint16_t hw = half(h);
        if (packedcsr::isPad(hw)) {
            ++h;
            continue;
        }
        if (packedcsr::isSelector(hw)) {
            // Lines must be self-contained: a line never opens with a
            // destination half-word.
            open_src = packedcsr::srcOff(hw);
            has_src = true;
            ++h;
            continue;
        }
        EXPECT_TRUE(has_src);
        if (h % packedcsr::kHalfwordsPerLine == 0)
            ADD_FAILURE() << "line opened with a destination half-word";
        const NodeId src = pg.srcIntervalBase(s) + open_src;
        const NodeId dst = pg.dstIntervalBase(d) + packedcsr::dstOff(hw);
        ++h;
        std::uint32_t weight = 0;
        if (pg.weighted()) {
            weight = half(h);
            ++h;
        }
        out.emplace_back(src, dst, weight);
        // The self-containment invariant: a (destination, weight) pair
        // never splits across lines, which the cursor walk above
        // implicitly checks by reading the weight without a line test.
    }
    return out;
}

void
expectRoundTrip(const CooGraph& g, std::uint32_t nd, std::uint32_t ns)
{
    const PartitionedGraph pg(g, nd, ns);
    GraphLayout layout(pg, opts(true));
    ASSERT_TRUE(layout.packed());
    BackingStore store;
    layout.build(pg, store);

    for (std::uint32_t d = 0; d < pg.qd(); ++d) {
        for (std::uint32_t s = 0; s < pg.qs(); ++s) {
            std::vector<WEdge> got =
                decodePacked(layout, store, pg, s, d);
            std::vector<WEdge> want = shardEdges(pg, s, d);
            ASSERT_EQ(got.size(), want.size())
                << "shard s=" << s << " d=" << d;
            // The packed encoder reorders within the shard (grouped by
            // source) — compare as sorted lists.
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], want[i])
                    << "shard s=" << s << " d=" << d << " edge " << i;
        }
    }
}

TEST(PackedCsr, RoundTripUnweighted)
{
    expectRoundTrip(rmat(11, 20000, RmatParams{}, 7), 512, 1024);
}

TEST(PackedCsr, RoundTripWeighted)
{
    CooGraph g = uniformRandom(3000, 25000, 13);
    addRandomWeights(g, 99);
    expectRoundTrip(g, 256, 512);
}

TEST(PackedCsr, RoundTripTinyAndSkewed)
{
    // Degenerate shapes: single-source star (max src amortization) and
    // a chain (selector per edge, worst case).
    CooGraph star(64);
    for (NodeId i = 1; i < 64; ++i)
        star.addEdge(0, i);
    expectRoundTrip(star, 32, 64);

    CooGraph chain(100);
    for (NodeId i = 0; i + 1 < 100; ++i)
        chain.addEdge(i, i + 1);
    expectRoundTrip(chain, 32, 32);
}

TEST(PackedCsr, ShrinksTheEdgeSection)
{
    // Clustered out-edges (rmat) amortize selectors: the packed section
    // must be meaningfully under the plain one (2 B vs 4 B per edge
    // before selector overhead).
    const CooGraph g = rmat(12, 60000, RmatParams{}, 21);
    const PartitionedGraph pg(g, 1024, 2048);
    GraphLayout plain(pg, opts(false));
    GraphLayout packed(pg, opts(true));
    ASSERT_TRUE(packed.packed());
    EXPECT_FALSE(plain.packed());
    EXPECT_LT(packed.edgeSectionBytes(),
              (plain.edgeSectionBytes() * 3) / 4);
}

TEST(PackedCsr, FallsBackOnOversizedWeights)
{
    CooGraph g(128);
    for (NodeId i = 0; i + 1 < 128; ++i)
        g.addEdge(i, i + 1);
    addRandomWeights(g, 3);
    g.weights()[5] = 0x10000;  // one 17-bit weight poisons it
    const PartitionedGraph pg(g, 64, 128);
    GraphLayout layout(pg, opts(true));
    EXPECT_FALSE(layout.packed());  // silent fallback to plain
    // The plain encoding carries the full 32-bit weight.
    BackingStore store;
    layout.build(pg, store);
    const PartitionedGraph pg2(g, 64, 128);
    GraphLayout plain(pg2, opts(false));
    EXPECT_EQ(layout.edgeSectionBytes(), plain.edgeSectionBytes());
}

TEST(PackedCsr, FallsBackOnWideIntervals)
{
    // A selector carries a 15-bit src_off and must stay clear of the
    // all-ones pad half-word, so ns tops out at 32767; a destination
    // half-word carries any 15-bit dst_off, so nd reaches 32768.
    EXPECT_NE(packedcsr::selector(32766), packedcsr::kPad);
    EXPECT_EQ(packedcsr::selector(32767), packedcsr::kPad);
    EXPECT_TRUE(packedcsr::isSelector(packedcsr::selector(0)));
    EXPECT_FALSE(packedcsr::isSelector(packedcsr::destination(32767)));

    // Edges at the largest offsets either limit allows: src_off 32766
    // (ns = 32767) and dst_off 32767 (nd = 32768).
    CooGraph g(65536);
    g.addEdge(32766, 32767);
    g.addEdge(0, 32767);
    g.addEdge(32766, 0);
    g.addEdge(65533, 65535);
    g.addEdge(40000, 32768);
    expectRoundTrip(g, 32768, 32767);  // asserts packed()

    const PartitionedGraph wide(g, 32768, 32768);
    GraphLayout l(wide, opts(true));
    EXPECT_FALSE(l.packed());  // silent fallback to plain
    GraphLayout plain(wide, opts(false));
    EXPECT_EQ(l.edgeSectionBytes(), plain.edgeSectionBytes());
}

// --- encoder against a reference -----------------------------------------

/** The packed encoder in its plainest form: copy the shard,
 *  stable_sort it by source, encode. The layout's encoder must store
 *  exactly these half-words, however it orders the edges. */
std::vector<std::uint16_t>
referencePackShard(const PartitionedGraph& pg, std::uint32_t s,
                   std::uint32_t d)
{
    std::vector<WEdge> edges = shardEdges(pg, s, d);
    std::stable_sort(edges.begin(), edges.end(),
                     [](const WEdge& a, const WEdge& b) {
                         return std::get<0>(a) < std::get<0>(b);
                     });

    constexpr std::uint32_t hpl = packedcsr::kHalfwordsPerLine;
    const std::uint32_t dst_units = pg.weighted() ? 2 : 1;
    const NodeId dst_base = pg.dstIntervalBase(d);
    const NodeId src_base = pg.srcIntervalBase(s);

    std::vector<std::uint16_t> out;
    std::uint32_t open_src = ~0u;
    for (const auto& [src, dst, weight] : edges) {
        const std::uint32_t dst_off = dst - dst_base;
        const std::uint32_t src_off = src - src_base;
        const std::uint32_t pos = out.size() % hpl;
        bool need_sel = pos == 0 || src_off != open_src;
        if (hpl - pos < (need_sel ? 1 : 0) + dst_units) {
            while (out.size() % hpl != 0)
                out.push_back(packedcsr::kPad);
            need_sel = true;
        }
        if (need_sel) {
            out.push_back(packedcsr::selector(src_off));
            open_src = src_off;
        }
        out.push_back(packedcsr::destination(dst_off));
        if (pg.weighted())
            out.push_back(static_cast<std::uint16_t>(weight));
    }
    if (out.empty())
        out.push_back(packedcsr::kPad);
    while (out.size() % hpl != 0)
        out.push_back(packedcsr::kPad);
    return out;
}

/** Half-words a packed layout stored for shard E_{s->d}. */
std::vector<std::uint16_t>
storedHalfwords(const GraphLayout& layout, const BackingStore& store,
                std::uint32_t s, std::uint32_t d)
{
    const std::uint64_t p = store.read64(layout.ptrAddr(s, d));
    const Addr base = 4 * edgeptr::startWord(p);
    std::vector<std::uint16_t> out;
    for (std::uint64_t w = 0; w < edgeptr::sizeWords(p); ++w) {
        const std::uint32_t word = store.read32(base + 4 * w);
        out.push_back(static_cast<std::uint16_t>(word & 0xffffu));
        out.push_back(static_cast<std::uint16_t>(word >> 16));
    }
    return out;
}

/** Build a packed layout of @p g and require every shard's stored
 *  half-words to equal the reference encoder's. */
void
expectMatchesReference(const CooGraph& g, std::uint32_t nd,
                       std::uint32_t ns)
{
    const PartitionedGraph pg(g, nd, ns);
    GraphLayout layout(pg, opts(true));
    ASSERT_TRUE(layout.packed());
    BackingStore store;
    layout.build(pg, store);
    std::uint64_t halfwords = 0;
    for (std::uint32_t d = 0; d < pg.qd(); ++d) {
        for (std::uint32_t s = 0; s < pg.qs(); ++s) {
            const std::vector<std::uint16_t> want =
                referencePackShard(pg, s, d);
            EXPECT_EQ(storedHalfwords(layout, store, s, d), want)
                << "shard s=" << s << " d=" << d << " ("
                << pg.shardSize(s, d) << " edges)";
            halfwords += want.size();
        }
    }
    // The sizing pass agrees with the content pass.
    EXPECT_EQ(layout.edgeSectionBytes(),
              alignUp(2 * halfwords, kInterleaveBytes));
}

/**
 * 65536 nodes cut at the widest packable intervals (ns 32767, nd
 * 32768) into six shards of 0, 1, 31, 32, 33 and thousands of edges,
 * so the encoder meets its small-shard and large-shard sorts and the
 * largest offsets. Sources repeat heavily and arrive out of order, so
 * a sort that is not stable reorders a source's destinations.
 */
CooGraph
shardSizeGraph(bool weighted)
{
    constexpr NodeId kNs = 32767, kNd = 32768;
    CooGraph g(65536, weighted);
    Rng rng(weighted ? 17 : 16);
    const NodeId hot[] = {0, 1, 7, 4096, kNs - 1};
    auto add = [&](std::uint32_t s, std::uint32_t d, std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            // Half the edges from a few hot sources, the rest spread.
            const NodeId src_off =
                rng.below(2) ? hot[rng.below(5)]
                             : static_cast<NodeId>(rng.below(kNs));
            const NodeId dst_off =
                i == 0 ? kNd - 1 : static_cast<NodeId>(rng.below(kNd));
            g.addEdge(s * kNs + src_off, d * kNd + dst_off,
                      weighted ? static_cast<std::uint32_t>(
                                     rng.below(65536))
                               : 0);
        }
    };
    add(0, 0, 5000);
    add(0, 1, 33);
    add(1, 0, 32);
    add(1, 1, 31);
    // The third source interval holds only nodes 65534 and 65535.
    g.addEdge(65535, 12, weighted ? 65535 : 0);
    return g;
}

TEST(PackedCsrEncoder, MatchesReferenceAcrossShardSizes)
{
    for (bool weighted : {false, true}) {
        SCOPED_TRACE(weighted ? "weighted" : "unweighted");
        const CooGraph g = shardSizeGraph(weighted);
        const PartitionedGraph pg(g, 32768, 32767);
        ASSERT_EQ(pg.qs(), 3u);
        ASSERT_EQ(pg.qd(), 2u);
        std::vector<std::uint64_t> sizes;
        for (std::uint32_t d = 0; d < pg.qd(); ++d)
            for (std::uint32_t s = 0; s < pg.qs(); ++s)
                sizes.push_back(pg.shardSize(s, d));
        std::sort(sizes.begin(), sizes.end());
        EXPECT_EQ(sizes, (std::vector<std::uint64_t>{0, 1, 31, 32, 33,
                                                     5000}));
        expectMatchesReference(g, 32768, 32767);
    }
}

TEST(PackedCsrEncoder, MatchesReferenceOnManySmallShards)
{
    // 4096 shards of a skewed graph: 3785 of at most 32 edges (1264
    // empty), the rest up to 2062. Then 300 weighted shards of 33 to
    // 115 edges.
    expectMatchesReference(rmat(12, 60000, RmatParams{}, 21), 64, 64);
    CooGraph g = uniformRandom(3000, 25000, 13);
    addRandomWeights(g, 99);
    expectMatchesReference(g, 100, 300);
}

// --- end-to-end ---------------------------------------------------------

RunResult
runAccel(const CooGraph& g, const AlgoSpec& spec, bool packed,
         bool full_tick = false)
{
    AccelConfig cfg;
    cfg.num_pes = 4;
    cfg.mem.channels = 2;
    cfg.moms = MomsConfig::twoLevel(4);
    cfg.packed_edges = packed;
    cfg.full_tick_engine = full_tick;
    PartitionedGraph pg(g, 256, 512);
    Accelerator accel(cfg, pg, spec);
    return accel.run();
}

TEST(PackedCsrEndToEnd, SccValuesIdenticalToPlain)
{
    const CooGraph g = rmat(10, 9000, RmatParams{}, 31);
    const AlgoSpec spec = AlgoSpec::scc(g.numNodes(), 5);
    const RunResult plain = runAccel(g, spec, false);
    const RunResult packed = runAccel(g, spec, true);
    // SCC is asynchronous: packing regroups edges by source, so
    // the label-propagation trajectory (and edges_processed) may
    // differ — the converged fixpoint may not.
    EXPECT_EQ(plain.raw_values, packed.raw_values);
    // The packed run must actually read fewer edge bytes.
    EXPECT_LT(packed.dram_bytes_read, plain.dram_bytes_read);
}

TEST(PackedCsrEndToEnd, PageRankStaysWithinGoldenTolerance)
{
    // PageRank's timed values are f32 sums in MOMS arrival order (see
    // test_cluster.cc), so plain and packed may differ in the last
    // ulp; both must sit inside the golden tolerance the plain
    // encoding is held to.
    const CooGraph g = uniformRandom(1200, 10000, 41);
    const AlgoSpec spec = AlgoSpec::pageRank(g, 3);
    const RunResult plain = runAccel(g, spec, false);
    const RunResult packed = runAccel(g, spec, true);
    const std::vector<double> golden = goldenPageRank(g, 3);
    for (NodeId i = 0; i < g.numNodes(); ++i) {
        const double a = spec.finalValue(plain.raw_values[i], i);
        const double b = spec.finalValue(packed.raw_values[i], i);
        EXPECT_NEAR(b, golden[i], 2e-4 * golden[i] + 1e-8)
            << "node " << i;
        EXPECT_NEAR(a, b, 1e-5 * golden[i] + 1e-9) << "node " << i;
    }
}

TEST(PackedCsrEndToEnd, PageRankNoSlowerThanPlain)
{
    // PageRank's gather is a multi-cycle float add, so back-to-back
    // edges to one destination stall on a read-after-write hazard.
    // Source-grouped shards put distinct destinations on consecutive
    // edges: the packed run may not stall more, or run longer, than
    // the plain one it compresses.
    const CooGraph g = rmat(10, 10240, RmatParams{}, 31);
    const AlgoSpec spec = AlgoSpec::pageRank(g, 3);
    const RunResult plain = runAccel(g, spec, false);
    const RunResult packed = runAccel(g, spec, true);
    ASSERT_TRUE(packed.packed_layout);
    EXPECT_LE(packed.cycles, plain.cycles);
    EXPECT_LE(packed.pe_raw_stalls, 2 * plain.pe_raw_stalls);
}

TEST(PackedCsrEndToEnd, SsspWeightedIdenticalToPlain)
{
    // Run to convergence: mid-flight asynchronous distances depend on
    // gather order, the fixpoint does not.
    CooGraph g = uniformRandom(800, 7000, 51);
    addRandomWeights(g, 8);
    const AlgoSpec spec = AlgoSpec::sssp(0, 64);
    const RunResult plain = runAccel(g, spec, false);
    const RunResult packed = runAccel(g, spec, true);
    EXPECT_EQ(plain.raw_values, packed.raw_values);
}

TEST(PackedCsrEndToEnd, EngineModesBitExact)
{
    const CooGraph g = rmat(10, 7000, RmatParams{}, 61);
    const AlgoSpec spec = AlgoSpec::scc(g.numNodes(), 4);
    const RunResult base = runAccel(g, spec, true, false);
    const RunResult full = runAccel(g, spec, true, true);
    EXPECT_EQ(base.cycles, full.cycles);
    EXPECT_EQ(base.raw_values, full.raw_values);
    EXPECT_EQ(base.dram_bytes_read, full.dram_bytes_read);
}

TEST(PackedCsrEndToEnd, SessionPreprocessingVariants)
{
    // Preprocessing::Packed = identity relabeling + packed layout; the
    // values must match prep None exactly. Same for the DbgHash pair
    // (both relabel identically, so internal id spaces coincide).
    CooGraph g = rmat(10, 8000, RmatParams{}, 71);
    auto run = [&](Preprocessing p) {
        return SessionBuilder()
            .datasetView(g)
            .preprocessing(p)
            .algo("SCC")
            .iterations(20)
            .run();
    };
    const SessionResult none = run(Preprocessing::None);
    const SessionResult packed = run(Preprocessing::Packed);
    EXPECT_EQ(none.values, packed.values);

    const SessionResult dh = run(Preprocessing::DbgHash);
    const SessionResult dhp = run(Preprocessing::DbgHashPacked);
    EXPECT_EQ(dh.values, dhp.values);
}

TEST(PackedCsr, PreprocessingPlumbing)
{
    EXPECT_STREQ(preprocessingName(Preprocessing::Packed), "packed");
    EXPECT_STREQ(preprocessingName(Preprocessing::DbgHashPacked),
                 "dbg+hash+packed");
    EXPECT_TRUE(packedCsr(Preprocessing::Packed));
    EXPECT_TRUE(packedCsr(Preprocessing::DbgHashPacked));
    EXPECT_FALSE(packedCsr(Preprocessing::DbgHash));
    EXPECT_EQ(basePreprocessing(Preprocessing::Packed),
              Preprocessing::None);
    EXPECT_EQ(basePreprocessing(Preprocessing::DbgHashPacked),
              Preprocessing::DbgHash);
    EXPECT_EQ(basePreprocessing(Preprocessing::Hash),
              Preprocessing::Hash);
}

} // namespace
} // namespace gmoms
