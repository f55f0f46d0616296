#include "src/algo/golden.hh"

#include <algorithm>

#include "src/algo/spec.hh"

namespace gmoms
{

std::vector<double>
goldenPageRank(const CooGraph& g, std::uint32_t iterations,
               double damping)
{
    const NodeId n = g.numNodes();
    const std::vector<std::uint32_t> od = g.outDegrees();
    std::vector<double> pr(n, 1.0 / n), next(n);
    for (std::uint32_t it = 0; it < iterations; ++it) {
        std::fill(next.begin(), next.end(), (1.0 - damping) / n);
        for (const Edge& e : g.edges())
            next[e.dst] += damping * pr[e.src] / od[e.src];
        pr.swap(next);
    }
    return pr;
}

std::vector<std::uint32_t>
goldenMinLabel(const CooGraph& g)
{
    std::vector<std::uint32_t> label(g.numNodes());
    for (NodeId i = 0; i < g.numNodes(); ++i)
        label[i] = i;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Edge& e : g.edges()) {
            if (label[e.src] < label[e.dst]) {
                label[e.dst] = label[e.src];
                changed = true;
            }
        }
    }
    return label;
}

std::vector<std::uint32_t>
goldenSssp(const CooGraph& g, NodeId source)
{
    std::vector<std::uint32_t> dist(g.numNodes(), kInfDist);
    dist[source] = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (EdgeId i = 0; i < g.numEdges(); ++i) {
            const Edge& e = g.edges()[i];
            if (dist[e.src] == kInfDist)
                continue;
            const std::uint64_t cand =
                std::uint64_t{dist[e.src]} + g.weight(i);
            if (cand < dist[e.dst]) {
                dist[e.dst] = static_cast<std::uint32_t>(cand);
                changed = true;
            }
        }
    }
    return dist;
}

std::vector<std::uint32_t>
goldenBfs(const CooGraph& g, NodeId source)
{
    std::vector<std::uint32_t> depth(g.numNodes(), kInfDist);
    depth[source] = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Edge& e : g.edges()) {
            if (depth[e.src] == kInfDist)
                continue;
            if (depth[e.src] + 1 < depth[e.dst]) {
                depth[e.dst] = depth[e.src] + 1;
                changed = true;
            }
        }
    }
    return depth;
}

} // namespace gmoms
