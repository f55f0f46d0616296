#include "src/graph/csr.hh"

#include "src/sim/log.hh"

namespace gmoms
{

CsrGraph::CsrGraph(const CooGraph& g)
    : num_nodes_(g.numNodes()), weighted_(g.weighted())
{
    g.checkWeights("CsrGraph");
    row_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
    for (const Edge& e : g.edges())
        ++row_offsets_[e.src + 1];
    for (NodeId n = 0; n < num_nodes_; ++n)
        row_offsets_[n + 1] += row_offsets_[n];

    neighbors_.resize(g.numEdges());
    if (weighted_)
        weights_.resize(g.numEdges());
    std::vector<EdgeId> cursor(row_offsets_.begin(),
                               row_offsets_.end() - 1);
    for (EdgeId i = 0; i < g.numEdges(); ++i) {
        const Edge& e = g.edges()[i];
        const EdgeId slot = cursor[e.src]++;
        neighbors_[slot] = e.dst;
        if (weighted_)
            weights_[slot] = g.weights()[i];
    }
}

CooGraph
CsrGraph::toCoo() const
{
    CooGraph g(num_nodes_, weighted_);
    g.edges().reserve(numEdges());
    g.weights().reserve(weights_.size());
    for (NodeId n = 0; n < num_nodes_; ++n) {
        const auto nbrs = neighbors(n);
        const auto w = weights(n);
        for (std::size_t i = 0; i < nbrs.size(); ++i)
            g.addEdge(n, nbrs[i], weighted_ ? w[i] : 0);
    }
    return g;
}

} // namespace gmoms
