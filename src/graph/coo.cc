#include "src/graph/coo.hh"

#include "src/sim/log.hh"

namespace gmoms
{

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
    CooGraph out(num_nodes_, weighted_);
    out.name = name;
    out.edges_.reserve(2 * edges_.size());
    for (const Edge& e : edges_) {
        out.edges_.push_back(e);
        out.edges_.push_back(Edge{e.dst, e.src, e.weight});
    }
    return out;
}

} // namespace gmoms
