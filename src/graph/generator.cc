#include "src/graph/generator.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "src/sim/log.hh"

namespace gmoms
{

CooGraph
rmat(std::uint32_t scale, EdgeId num_edges, const RmatParams& params,
     std::uint64_t seed)
{
    const NodeId n = NodeId{1} << scale;
    CooGraph g(n);
    g.edges().reserve(num_edges);
    Rng rng(seed);
    const double d = 1.0 - params.a - params.b - params.c;
    if (d < 0)
        fatal("rmat: probabilities exceed 1");
    for (EdgeId i = 0; i < num_edges; ++i) {
        NodeId src = 0, dst = 0;
        for (std::uint32_t level = 0; level < scale; ++level) {
            // Perturb the quadrant probabilities per level so degrees
            // do not collapse onto exact powers (standard RMAT noise).
            double na = params.a *
                (1.0 + params.noise * (rng.uniform() - 0.5));
            double nb = params.b *
                (1.0 + params.noise * (rng.uniform() - 0.5));
            double nc = params.c *
                (1.0 + params.noise * (rng.uniform() - 0.5));
            double nd = d * (1.0 + params.noise * (rng.uniform() - 0.5));
            const double total = na + nb + nc + nd;
            const double u = rng.uniform() * total;
            src <<= 1;
            dst <<= 1;
            if (u < na) {
                // top-left quadrant: no bits set
            } else if (u < na + nb) {
                dst |= 1;
            } else if (u < na + nb + nc) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        g.addEdge(src, dst);
    }
    return g;
}

CooGraph
powerLaw(NodeId num_nodes, EdgeId num_edges, double alpha, double locality,
         NodeId window, std::uint64_t seed)
{
    if (num_nodes == 0)
        fatal("powerLaw: empty graph");
    CooGraph g(num_nodes);
    g.edges().reserve(num_edges);
    Rng rng(seed);

    // Build a cumulative Zipf(alpha) distribution over node ranks for
    // choosing sources; rank r has weight (r+1)^-alpha.
    std::vector<double> cum(num_nodes);
    double acc = 0.0;
    for (NodeId i = 0; i < num_nodes; ++i) {
        acc += std::pow(static_cast<double>(i) + 1.0, -alpha);
        cum[i] = acc;
    }
    // Guide table over num_nodes equal buckets of [0, acc]: guide[k] is
    // the first rank whose cum reaches k * acc / num_nodes, so a draw's
    // search starts next to its answer and takes O(1) expected steps.
    const NodeId last = num_nodes - 1;
    const double buckets_per_unit = static_cast<double>(num_nodes) / acc;
    std::vector<NodeId> guide(num_nodes);
    for (NodeId k = 0, i = 0; k < num_nodes; ++k) {
        const double edge = static_cast<double>(k) / buckets_per_unit;
        while (i < last && cum[i] < edge)
            ++i;
        guide[k] = i;
    }

    // Each edge takes three words, in order: source, locality test,
    // destination. A batch draws its words first, so the guide and cum
    // reads of its sources can be prefetched and overlap.
    constexpr std::size_t kBatch = 256;
    std::array<std::uint64_t, 3 * kBatch> words;
    std::array<double, kBatch> draw;
    std::array<NodeId, kBatch> start;
    for (EdgeId e = 0; e < num_edges; e += kBatch) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<EdgeId>(kBatch, num_edges - e));
        for (std::size_t j = 0; j < 3 * n; ++j)
            words[j] = rng.next();
        for (std::size_t j = 0; j < n; ++j) {
            draw[j] = Rng::uniformOf(words[3 * j]) * acc;
            start[j] = static_cast<NodeId>(std::min(
                draw[j] * buckets_per_unit, static_cast<double>(last)));
            __builtin_prefetch(&guide[start[j]]);
        }
        for (std::size_t j = 0; j < n; ++j) {
            start[j] = guide[start[j]];
            __builtin_prefetch(&cum[start[j]]);
        }
        for (std::size_t j = 0; j < n; ++j) {
            // The guide entry is only a starting point: walking to the
            // first rank whose cum reaches the draw gives exactly what
            // std::lower_bound over cum gives, however the bucket edges
            // round. A draw never exceeds acc == cum[last].
            const double u = draw[j];
            NodeId src = start[j];
            while (src > 0 && cum[src - 1] >= u)
                --src;
            while (src < last && cum[src] < u)
                ++src;
            const std::uint64_t dst_word = words[3 * j + 2];
            NodeId dst;
            if (Rng::uniformOf(words[3 * j + 1]) < locality && window > 0) {
                const NodeId lo = src > window / 2 ? src - window / 2 : 0;
                const NodeId span =
                    std::min<NodeId>(window, num_nodes - lo);
                dst = lo + static_cast<NodeId>(Rng::belowOf(dst_word, span));
            } else {
                dst = static_cast<NodeId>(Rng::belowOf(dst_word, num_nodes));
            }
            g.addEdge(src, dst);
        }
    }
    return g;
}

CooGraph
uniformRandom(NodeId num_nodes, EdgeId num_edges, std::uint64_t seed)
{
    CooGraph g(num_nodes);
    g.edges().reserve(num_edges);
    Rng rng(seed);
    for (EdgeId e = 0; e < num_edges; ++e)
        g.addEdge(static_cast<NodeId>(rng.below(num_nodes)),
                  static_cast<NodeId>(rng.below(num_nodes)));
    return g;
}

CooGraph
grid2d(NodeId rows, NodeId cols)
{
    CooGraph g(rows * cols);
    auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
    for (NodeId r = 0; r < rows; ++r) {
        for (NodeId c = 0; c < cols; ++c) {
            if (c + 1 < cols) {
                g.addEdge(id(r, c), id(r, c + 1));
                g.addEdge(id(r, c + 1), id(r, c));
            }
            if (r + 1 < rows) {
                g.addEdge(id(r, c), id(r + 1, c));
                g.addEdge(id(r + 1, c), id(r, c));
            }
        }
    }
    return g;
}

CooGraph
chain(NodeId num_nodes)
{
    CooGraph g(num_nodes);
    for (NodeId i = 0; i + 1 < num_nodes; ++i)
        g.addEdge(i, i + 1);
    return g;
}

CooGraph
star(NodeId num_nodes)
{
    CooGraph g(num_nodes);
    for (NodeId i = 1; i < num_nodes; ++i)
        g.addEdge(0, i);
    return g;
}

void
addRandomWeights(CooGraph& g, std::uint64_t seed)
{
    Rng rng(seed);
    g.setWeighted(true);
    for (std::uint32_t& w : g.weights())
        w = static_cast<std::uint32_t>(rng.below(256));
}

std::vector<NodeId>
randomPermutation(NodeId num_nodes, std::uint64_t seed)
{
    std::vector<NodeId> perm(num_nodes);
    std::iota(perm.begin(), perm.end(), NodeId{0});
    Rng rng(seed);
    for (NodeId i = num_nodes; i > 1; --i)
        std::swap(perm[i - 1], perm[rng.below(i)]);
    return perm;
}

} // namespace gmoms
