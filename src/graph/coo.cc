#include "src/graph/coo.hh"

#include "src/sim/log.hh"

namespace gmoms
{

void
CooGraph::setWeighted(bool w)
{
    weighted_ = w;
    if (w)
        weights_.resize(edges_.size(), 0);
    else
        std::vector<std::uint32_t>().swap(weights_);
}

void
CooGraph::checkWeights(const char* who) const
{
    if (weighted_ && weights_.size() != edges_.size())
        fatal(std::string(who) + ": weighted graph holds " +
              std::to_string(weights_.size()) + " weights for " +
              std::to_string(edges_.size()) + " edges");
}

std::size_t
CooGraph::bytes() const
{
    return sizeof(CooGraph) + edges_.capacity() * sizeof(Edge) +
           weights_.capacity() * sizeof(std::uint32_t) + name.capacity();
}

std::vector<std::uint32_t>
CooGraph::outDegrees() const
{
    std::vector<std::uint32_t> deg(num_nodes_, 0);
    for (const Edge& e : edges_)
        ++deg[e.src];
    return deg;
}

std::vector<std::uint32_t>
CooGraph::inDegrees() const
{
    std::vector<std::uint32_t> deg(num_nodes_, 0);
    for (const Edge& e : edges_)
        ++deg[e.dst];
    return deg;
}

CooGraph
CooGraph::relabeled(const std::vector<NodeId>& new_label) const
{
    CooGraph out = *this;
    out.relabel(new_label);
    return out;
}

void
CooGraph::relabel(const std::vector<NodeId>& new_label)
{
    if (new_label.size() != num_nodes_)
        fatal("relabeled: permutation size mismatch");
    for (Edge& e : edges_) {
        e.src = new_label[e.src];
        e.dst = new_label[e.dst];
    }
}

CooGraph
CooGraph::withReverseEdges() const
{
    checkWeights("withReverseEdges");
    CooGraph out(num_nodes_, weighted_);
    out.name = name;
    out.edges_.reserve(2 * edges_.size());
    out.weights_.reserve(2 * weights_.size());
    for (EdgeId i = 0; i < edges_.size(); ++i) {
        const Edge& e = edges_[i];
        out.addEdge(e.src, e.dst, weight(i));
        out.addEdge(e.dst, e.src, weight(i));
    }
    return out;
}

} // namespace gmoms
